#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "core/analyzer.hpp"
#include "netlist/sweep.hpp"
#include "netlist/wordops.hpp"
#include "sim/packed.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace olfui {
namespace {

TEST(Sweep, FoldsConstantsAndDropsDeadLogic) {
  Netlist nl("t");
  WordOps w(nl, "m");
  const NetId a = nl.add_input("a");
  const NetId y = w.and2(a, w.lit(false), "y");  // constant 0
  const NetId z = w.or2(y, a, "z");              // simplifies to BUF(a)
  const NetId dead = w.not_(a, "dead");          // feeds nothing
  (void)dead;
  nl.add_output("o", z);
  SweepStats st;
  const Netlist swept = constant_sweep(nl, &st);
  EXPECT_TRUE(swept.validate().empty());
  EXPECT_LT(swept.stats().gates, nl.stats().gates);
  EXPECT_GE(st.dead_removed, 1u);
  EXPECT_GE(st.folded_constant, 1u);
  EXPECT_GE(st.simplified, 1u);
  // The surviving driver of o is a buffer of a.
  const CellId oc = swept.find_output("o");
  const CellId drv = swept.net(swept.cell(oc).ins[0]).driver;
  EXPECT_EQ(swept.cell(drv).type, CellType::kBuf);
}

TEST(Sweep, AndWithConstantOneDropsInput) {
  Netlist nl("t");
  WordOps w(nl, "m");
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId y = w.gate(CellType::kAnd3, "y", {a, w.lit(true), b});
  nl.add_output("o", y);
  const Netlist swept = constant_sweep(nl);
  const CellId drv = swept.net(swept.cell(swept.find_output("o")).ins[0]).driver;
  EXPECT_EQ(swept.cell(drv).type, CellType::kAnd2);
}

TEST(Sweep, NandCollapsesToNot) {
  Netlist nl("t");
  WordOps w(nl, "m");
  const NetId a = nl.add_input("a");
  const NetId y = w.gate(CellType::kNand2, "y", {a, w.lit(true)});
  nl.add_output("o", y);
  const Netlist swept = constant_sweep(nl);
  const CellId drv = swept.net(swept.cell(swept.find_output("o")).ins[0]).driver;
  EXPECT_EQ(swept.cell(drv).type, CellType::kNot);
}

TEST(Sweep, XorWithConstantBecomesBufOrNot) {
  Netlist nl("t");
  WordOps w(nl, "m");
  const NetId a = nl.add_input("a");
  const NetId y0 = w.gate(CellType::kXor2, "y0", {a, w.lit(false)});
  const NetId y1 = w.gate(CellType::kXor2, "y1", {a, w.lit(true)});
  const NetId n0 = w.gate(CellType::kXnor2, "n0", {a, w.lit(false)});
  nl.add_output("o0", y0);
  nl.add_output("o1", y1);
  nl.add_output("o2", n0);
  const Netlist swept = constant_sweep(nl);
  const auto type_of = [&](const char* port) {
    return swept.cell(swept.net(swept.cell(swept.find_output(port)).ins[0]).driver)
        .type;
  };
  EXPECT_EQ(type_of("o0"), CellType::kBuf);
  EXPECT_EQ(type_of("o1"), CellType::kNot);
  EXPECT_EQ(type_of("o2"), CellType::kNot);
}

TEST(Sweep, MuxWithConstantSelectFollowsData) {
  Netlist nl("t");
  WordOps w(nl, "m");
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId y = w.mux(w.lit(true), a, b, "y");  // selects B
  nl.add_output("o", y);
  const Netlist swept = constant_sweep(nl);
  PackedSim sim(swept);
  sim.set_input_all(swept.find_input("a"), false);
  sim.set_input_all(swept.find_input("b"), true);
  sim.eval();
  EXPECT_EQ(lane_test(sim.observed(swept.find_output("o")), 0), 1u);
}

TEST(Sweep, PreservesFlopsAndTags) {
  Netlist nl("t");
  WordOps w(nl, "m");
  const NetId d = nl.add_input("d");
  const NetId rstn = nl.add_input("rstn");
  RegWord r = w.reg_word({d}, "pc", rstn);
  w.tag_reg(r, "addr:code");
  nl.add_output("q", r.q[0]);
  const Netlist swept = constant_sweep(nl);
  EXPECT_EQ(swept.stats().flops, 1u);
  const CellId ff = swept.find_cell("m/u_pc_q_0_reg");
  ASSERT_NE(ff, kInvalidId);
  EXPECT_EQ(swept.cell(ff).tag, "addr:code:0");
}

TEST(Sweep, KeepsUnusedInputPorts) {
  Netlist nl("t");
  const NetId a = nl.add_input("a");
  const NetId unused = nl.add_input("unused");
  (void)unused;
  nl.add_output("o", a);
  const Netlist swept = constant_sweep(nl);
  EXPECT_NE(swept.find_input("unused"), kInvalidId);
}

// The pass must be cycle-accurate equivalent from power-on — including
// reset transients — on randomized sequential designs.
class SweepEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SweepEquivalence, RandomSequentialDesignsMatchCycleByCycle) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  Netlist nl("t");
  WordOps w(nl, "m");
  const NetId rstn = nl.add_input("rstn");
  std::vector<NetId> inputs, pool;
  for (int i = 0; i < 5; ++i) {
    inputs.push_back(nl.add_input("i" + std::to_string(i)));
    pool.push_back(inputs.back());
  }
  pool.push_back(w.lit(false));
  pool.push_back(w.lit(true));
  std::vector<RegWord> regs;
  for (int f = 0; f < 5; ++f) {
    regs.push_back(w.reg_declare(1, "r" + std::to_string(f),
                                 rng.next_below(2) ? rstn : kInvalidId));
    pool.push_back(regs.back().q[0]);
  }
  for (int g = 0; g < 45; ++g) {
    const CellType types[] = {CellType::kAnd2, CellType::kOr2,  CellType::kXor2,
                              CellType::kNand3, CellType::kNor2, CellType::kMux2,
                              CellType::kXnor2, CellType::kNot,  CellType::kAnd4};
    const CellType t = types[rng.next_below(9)];
    std::vector<NetId> ins;
    for (int k = 0; k < num_inputs(t); ++k)
      ins.push_back(pool[rng.next_below(pool.size())]);
    pool.push_back(w.gate(t, "g" + std::to_string(g), ins));
  }
  for (auto& reg : regs) {
    Bus dn{pool[rng.next_below(pool.size())]};
    w.reg_connect(reg, dn);
  }
  for (int o = 0; o < 3; ++o)
    nl.add_output("o" + std::to_string(o), pool[pool.size() - 1 - o]);

  SweepStats st;
  const Netlist swept = constant_sweep(nl, &st);
  ASSERT_TRUE(swept.validate().empty()) << seed;
  EXPECT_LE(st.cells_out, st.cells_in);

  PackedSim a(nl), b(swept);
  a.power_on();
  b.power_on();
  for (int cyc = 0; cyc < 30; ++cyc) {
    const bool rv = cyc > 1 || rng.next_bool();
    a.set_input_all(rstn, rv);
    b.set_input_all(swept.find_input("rstn"), rv);
    for (int i = 0; i < 5; ++i) {
      const bool v = rng.next_bool();
      a.set_input_all(inputs[static_cast<std::size_t>(i)], v);
      b.set_input_all(swept.find_input("i" + std::to_string(i)), v);
    }
    a.eval();
    b.eval();
    for (int o = 0; o < 3; ++o) {
      const std::string port = "o" + std::to_string(o);
      ASSERT_EQ(lane_test(a.observed(nl.find_output(port)), 0),
                lane_test(b.observed(swept.find_output(port)), 0))
          << "seed " << seed << " cycle " << cyc << " " << port;
    }
    a.clock();
    b.clock();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SweepEquivalence,
                         ::testing::Values(50, 51, 52, 53, 54, 55, 56, 57, 58,
                                           59, 60, 61, 62, 63));

/// Rebinds the mission information (debug port names, memory map) onto a
/// swept netlist so the analyzer can run on it.
std::unique_ptr<Soc> rebind_soc(Netlist&& netlist, const SocConfig& cfg) {
  auto soc = std::make_unique<Soc>();
  soc->config = cfg;
  soc->netlist = std::move(netlist);
  const Netlist& nl = soc->netlist;
  const char* kControls[] = {"dbg_en",     "dbg_wen",  "dbg_shift",
                             "jtag_tdi",   "jtag_tms", "jtag_trstn",
                             "dbg_halt",   "dbg_step", "dbg_resume"};
  for (const char* name : kControls) {
    const NetId n = nl.find_input(name);
    if (n == kInvalidId) continue;
    soc->debug.control_inputs.push_back(n);
    soc->debug.control_values.push_back(false);
  }
  for (int i = 0; i < 8; ++i) {
    const NetId n = nl.find_input(format("dbg_sel%d", i));
    if (n == kInvalidId) continue;
    soc->debug.control_inputs.push_back(n);
    soc->debug.control_values.push_back(false);
  }
  for (const char* bus : {"dbg_gpr_out%d", "dbg_spr_out%d"}) {
    for (int i = 0;; ++i) {
      const CellId c = nl.find_output(format(bus, i));
      if (c == kInvalidId) break;
      soc->debug.observe_outputs.push_back(c);
    }
  }
  soc->map.add_range("flash", cfg.flash_base, cfg.flash_size);
  soc->map.add_range("ram", cfg.ram_base, cfg.ram_size);
  return soc;
}

TEST(Sweep, SocSweepRemovesStructuralUntestablesOnly) {
  // The ablation insight: sweeping kills most of the "Original"
  // structural class, which lives in redundant logic synthesis would
  // delete, but the on-line classes survive: they live in logic the
  // design needs (scan, debug, addressing).
  const SocConfig cfg;
  auto soc = build_soc(cfg);
  SweepStats st;
  Netlist swept_nl = constant_sweep(soc->netlist, &st);
  EXPECT_TRUE(swept_nl.validate().empty());
  EXPECT_LT(st.cells_out, st.cells_in);
  // Tags survive, so the memory-map pass still finds its registers.
  EXPECT_FALSE(find_address_registers(swept_nl).empty());
  const auto swept = rebind_soc(std::move(swept_nl), cfg);

  const auto analyze = [](const Soc& s) {
    const FaultUniverse u(s.netlist);
    FaultList fl(u);
    return OnlineUntestabilityAnalyzer(s, u).run(fl);
  };
  const AnalysisReport before = analyze(*soc);
  const AnalysisReport after = analyze(*swept);
  EXPECT_EQ(before.structural_baseline, 1443u);
  EXPECT_EQ(after.structural_baseline, 161u);
  EXPECT_EQ(before.scan, 5073u);
  EXPECT_EQ(after.scan, 5073u);
  EXPECT_EQ(before.debug_control + before.debug_observe, 3128u);
  EXPECT_EQ(after.debug_control + after.debug_observe, 3128u);
  EXPECT_EQ(before.memmap, 1884u);
  EXPECT_EQ(after.memmap, 1862u);
}

}  // namespace
}  // namespace olfui
