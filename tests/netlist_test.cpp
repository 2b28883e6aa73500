#include <gtest/gtest.h>

#include "netlist/cell.hpp"
#include "netlist/netlist.hpp"
#include "netlist/wordops.hpp"
#include "sim/packed.hpp"
#include "sim/sim.hpp"

namespace olfui {
namespace {

TEST(CellLibrary, PinCounts) {
  EXPECT_EQ(num_inputs(CellType::kInput), 0);
  EXPECT_EQ(num_inputs(CellType::kOutput), 1);
  EXPECT_EQ(num_inputs(CellType::kTie0), 0);
  EXPECT_EQ(num_inputs(CellType::kBuf), 1);
  EXPECT_EQ(num_inputs(CellType::kAnd4), 4);
  EXPECT_EQ(num_inputs(CellType::kMux2), 3);
  EXPECT_EQ(num_inputs(CellType::kDff), 1);
  EXPECT_EQ(num_inputs(CellType::kDffR), 2);
}

TEST(CellLibrary, TypeNameRoundTrip) {
  for (int i = 0; i < kNumCellTypes; ++i) {
    const CellType t = static_cast<CellType>(i);
    CellType back;
    ASSERT_TRUE(type_from_name(type_name(t), back)) << type_name(t);
    EXPECT_EQ(back, t);
  }
  CellType dummy;
  EXPECT_FALSE(type_from_name("FROB3", dummy));
}

TEST(CellLibrary, PinNames) {
  EXPECT_EQ(pin_name(CellType::kAnd2, 0), "Y");
  EXPECT_EQ(pin_name(CellType::kAnd2, 1), "A");
  EXPECT_EQ(pin_name(CellType::kAnd2, 2), "B");
  EXPECT_EQ(pin_name(CellType::kMux2, 3), "S");
  EXPECT_EQ(pin_name(CellType::kDffR, 0), "Q");
  EXPECT_EQ(pin_name(CellType::kDffR, 2), "RSTN");
}

TEST(CellLibrary, EvalPackedTruthTables) {
  const std::uint64_t a = 0b1100, b = 0b1010;
  std::uint64_t in2[] = {a, b};
  EXPECT_EQ(eval_packed(CellType::kAnd2, in2, 2) & 0xF, 0b1000u);
  EXPECT_EQ(eval_packed(CellType::kOr2, in2, 2) & 0xF, 0b1110u);
  EXPECT_EQ(eval_packed(CellType::kNand2, in2, 2) & 0xF, 0b0111u);
  EXPECT_EQ(eval_packed(CellType::kNor2, in2, 2) & 0xF, 0b0001u);
  EXPECT_EQ(eval_packed(CellType::kXor2, in2, 2) & 0xF, 0b0110u);
  EXPECT_EQ(eval_packed(CellType::kXnor2, in2, 2) & 0xF, 0b1001u);
  std::uint64_t in1[] = {a};
  EXPECT_EQ(eval_packed(CellType::kBuf, in1, 1) & 0xF, a);
  EXPECT_EQ(eval_packed(CellType::kNot, in1, 1) & 0xF, 0b0011u);
  // MUX: inputs {A, B, S}; S=1 selects B. Per lane: (S&B) | (~S&A).
  std::uint64_t in3[] = {a, b, 0b0101};
  EXPECT_EQ(eval_packed(CellType::kMux2, in3, 3) & 0xF,
            ((0b0101u & b) | (~0b0101u & a)) & 0xF);
  EXPECT_EQ(eval_packed<std::uint64_t>(CellType::kTie0, nullptr, 0), 0u);
  EXPECT_EQ(eval_packed<std::uint64_t>(CellType::kTie1, nullptr, 0), ~0ULL);
}

TEST(Netlist, BuildAndQuery) {
  Netlist nl("t");
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId y = nl.add_net("y");
  const CellId g = nl.add_cell(CellType::kAnd2, "u_g", y, {a, b});
  nl.add_output("out", y);

  EXPECT_EQ(nl.num_cells(), 4u);  // 2 inputs + gate + output
  EXPECT_EQ(nl.num_nets(), 3u);
  EXPECT_EQ(nl.find_input("a"), a);
  EXPECT_EQ(nl.find_input("zz"), kInvalidId);
  EXPECT_EQ(nl.find_cell("u_g"), g);
  EXPECT_EQ(nl.find_net("y"), y);
  EXPECT_EQ(nl.net(y).driver, g);
  ASSERT_EQ(nl.net(a).fanout.size(), 1u);
  EXPECT_EQ(nl.net(a).fanout[0].cell, g);
  EXPECT_EQ(nl.net(a).fanout[0].pin, 1);
  EXPECT_TRUE(nl.validate().empty());
}

TEST(Netlist, PinNetResolution) {
  Netlist nl("t");
  const NetId a = nl.add_input("a");
  const NetId y = nl.add_net("y");
  const CellId g = nl.add_cell(CellType::kBuf, "u_b", y, {a});
  EXPECT_EQ(nl.pin_net({g, 0}), y);
  EXPECT_EQ(nl.pin_net({g, 1}), a);
}

TEST(Netlist, DuplicateNamesGetUniquified) {
  Netlist nl("t");
  const NetId n1 = nl.add_net("n");
  const NetId n2 = nl.add_net("n");
  EXPECT_NE(nl.net(n1).name, nl.net(n2).name);
}

TEST(Netlist, RewireInputMovesFanout) {
  Netlist nl("t");
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId y = nl.add_net("y");
  const CellId g = nl.add_cell(CellType::kBuf, "u_b", y, {a});
  nl.add_output("o", y);
  nl.rewire_input(g, 0, b);
  EXPECT_TRUE(nl.net(a).fanout.empty());
  ASSERT_EQ(nl.net(b).fanout.size(), 1u);
  EXPECT_EQ(nl.cell(g).ins[0], b);
  EXPECT_TRUE(nl.validate().empty());
}

TEST(Netlist, ValidateReportsUndrivenNet) {
  Netlist nl("t");
  const NetId y = nl.add_net("floating");
  nl.add_output("o", y);
  const auto problems = nl.validate();
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems[0].find("no driver"), std::string::npos);
}

TEST(Netlist, ValidateReportsCombinationalLoop) {
  Netlist nl("t");
  const NetId a = nl.add_net("a");
  const NetId b = nl.add_net("b");
  nl.add_cell(CellType::kNot, "u_1", b, {a});
  nl.add_cell(CellType::kNot, "u_2", a, {b});
  std::vector<CellId> order;
  EXPECT_FALSE(nl.levelize(order));
}

TEST(Netlist, FlopsCutLoops) {
  Netlist nl("t");
  const NetId q = nl.add_net("q");
  const NetId d = nl.add_net("d");
  nl.add_cell(CellType::kNot, "u_inv", d, {q});
  nl.add_cell(CellType::kDff, "u_ff", q, {d});
  std::vector<CellId> order;
  EXPECT_TRUE(nl.levelize(order));
  EXPECT_EQ(order.size(), 1u);  // only the inverter is combinational
  EXPECT_TRUE(nl.validate().empty());
}

TEST(Netlist, LevelizeRespectsDependencies) {
  Netlist nl("t");
  WordOps w(nl, "m");
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId x = w.and2(a, b, "x");
  const NetId y = w.or2(x, a, "y");
  const NetId z = w.xor2(y, x, "z");
  nl.add_output("o", z);
  std::vector<CellId> order;
  ASSERT_TRUE(nl.levelize(order));
  std::vector<int> pos(nl.num_cells(), -1);
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = static_cast<int>(i);
  EXPECT_LT(pos[nl.net(x).driver], pos[nl.net(y).driver]);
  EXPECT_LT(pos[nl.net(y).driver], pos[nl.net(z).driver]);
}

TEST(Netlist, StatsCountCategories) {
  Netlist nl("t");
  WordOps w(nl, "m");
  const NetId a = nl.add_input("a");
  const NetId y = w.and2(a, w.lit(true), "y");
  RegWord r = w.reg_word({y}, "r");
  nl.add_output("o", r.q[0]);
  const NetlistStats s = nl.stats();
  EXPECT_EQ(s.inputs, 1u);
  EXPECT_EQ(s.outputs, 1u);
  EXPECT_EQ(s.flops, 1u);
  EXPECT_EQ(s.ties, 1u);
  EXPECT_EQ(s.gates, 1u);
  // pins: input(1) + output(1) + tie(1) + and(3) + dff(2)
  EXPECT_EQ(s.pins, 8u);
}

TEST(WordOps, ConstantSharesTieCells) {
  Netlist nl("t");
  WordOps w(nl, "m");
  const Bus c = w.constant(0b1010, 4);
  EXPECT_EQ(c[1], c[3]);
  EXPECT_EQ(c[0], c[2]);
  EXPECT_NE(c[0], c[1]);
}

// Exhaustively verify the ripple adder against arithmetic for small widths.
TEST(WordOps, AdderMatchesArithmeticExhaustive4Bit) {
  Netlist nl("t");
  WordOps w(nl, "m");
  Bus a(4), b(4);
  for (int i = 0; i < 4; ++i) {
    a[i] = nl.add_input("a" + std::to_string(i));
    b[i] = nl.add_input("b" + std::to_string(i));
  }
  const NetId cin = nl.add_input("cin");
  const auto r = w.add_word(a, b, cin, "sum");
  for (int i = 0; i < 4; ++i) nl.add_output("s" + std::to_string(i), r.sum[i]);
  nl.add_output("co", r.carry_out);
  ASSERT_TRUE(nl.validate().empty());

  Simulator sim(nl);
  for (int av = 0; av < 16; ++av) {
    for (int bv = 0; bv < 16; ++bv) {
      for (int c = 0; c < 2; ++c) {
        sim.set_input_word(a, static_cast<std::uint64_t>(av));
        sim.set_input_word(b, static_cast<std::uint64_t>(bv));
        sim.set_input(cin, c == 1);
        sim.eval();
        const int expect = av + bv + c;
        EXPECT_EQ(sim.read_word(r.sum), static_cast<std::uint64_t>(expect & 0xF));
        EXPECT_EQ(sim.value(r.carry_out) == Logic::V1, expect > 15);
      }
    }
  }
}

TEST(WordOps, SubWordComputesDifference) {
  Netlist nl("t");
  WordOps w(nl, "m");
  Bus a(8), b(8);
  for (int i = 0; i < 8; ++i) {
    a[i] = nl.add_input("a" + std::to_string(i));
    b[i] = nl.add_input("b" + std::to_string(i));
  }
  const auto r = w.sub_word(a, b, "diff");
  nl.add_output("co", r.carry_out);
  Simulator sim(nl);
  for (auto [av, bv] : {std::pair{200, 13}, {13, 200}, {77, 77}, {255, 0}}) {
    sim.set_input_word(a, static_cast<std::uint64_t>(av));
    sim.set_input_word(b, static_cast<std::uint64_t>(bv));
    sim.eval();
    EXPECT_EQ(sim.read_word(r.sum), static_cast<std::uint64_t>((av - bv) & 0xFF));
    // carry_out == no borrow == av >= bv
    EXPECT_EQ(sim.value(r.carry_out) == Logic::V1, av >= bv);
  }
}

TEST(WordOps, DecodeProducesOneHot) {
  Netlist nl("t");
  WordOps w(nl, "m");
  Bus sel(3);
  for (int i = 0; i < 3; ++i) sel[i] = nl.add_input("s" + std::to_string(i));
  const Bus onehot = w.decode(sel, "dec");
  for (std::size_t i = 0; i < onehot.size(); ++i)
    nl.add_output("o" + std::to_string(i), onehot[i]);
  Simulator sim(nl);
  for (int v = 0; v < 8; ++v) {
    sim.set_input_word(sel, static_cast<std::uint64_t>(v));
    sim.eval();
    EXPECT_EQ(sim.read_word(onehot), 1ULL << v);
  }
}

TEST(WordOps, ShifterMatchesCppShifts) {
  Netlist nl("t");
  WordOps w(nl, "m");
  Bus a(16), amt(4);
  for (int i = 0; i < 16; ++i) a[i] = nl.add_input("a" + std::to_string(i));
  for (int i = 0; i < 4; ++i) amt[i] = nl.add_input("n" + std::to_string(i));
  const Bus left = w.shift_word(a, amt, true, "sl");
  const Bus right = w.shift_word(a, amt, false, "sr");
  nl.add_output("l0", left[0]);
  Simulator sim(nl);
  const std::uint16_t pattern = 0x9C31;
  for (int n = 0; n < 16; ++n) {
    sim.set_input_word(a, pattern);
    sim.set_input_word(amt, static_cast<std::uint64_t>(n));
    sim.eval();
    EXPECT_EQ(sim.read_word(left), static_cast<std::uint64_t>(
                                       static_cast<std::uint16_t>(pattern << n)));
    EXPECT_EQ(sim.read_word(right),
              static_cast<std::uint64_t>(pattern >> n));
  }
}

TEST(WordOps, EqWordAndEqConst) {
  Netlist nl("t");
  WordOps w(nl, "m");
  Bus a(6), b(6);
  for (int i = 0; i < 6; ++i) {
    a[i] = nl.add_input("a" + std::to_string(i));
    b[i] = nl.add_input("b" + std::to_string(i));
  }
  const NetId eq = w.eq_word(a, b, "eq");
  const NetId eqc = w.eq_const(a, 0x2A, "eqc");
  nl.add_output("eq", eq);
  nl.add_output("eqc", eqc);
  Simulator sim(nl);
  for (int av : {0, 1, 0x2A, 0x3F}) {
    for (int bv : {0, 0x2A}) {
      sim.set_input_word(a, static_cast<std::uint64_t>(av));
      sim.set_input_word(b, static_cast<std::uint64_t>(bv));
      sim.eval();
      EXPECT_EQ(sim.value(eq) == Logic::V1, av == bv);
      EXPECT_EQ(sim.value(eqc) == Logic::V1, av == 0x2A);
    }
  }
}

TEST(WordOps, OnehotMuxSelectsWord) {
  Netlist nl("t");
  WordOps w(nl, "m");
  Bus sel(2);
  for (int i = 0; i < 2; ++i) sel[i] = nl.add_input("s" + std::to_string(i));
  std::vector<Bus> words;
  for (int k = 0; k < 4; ++k) words.push_back(w.constant(0x10 + k, 8));
  const Bus out = w.onehot_mux(w.decode(sel, "d"), words, "mx");
  nl.add_output("o0", out[0]);
  Simulator sim(nl);
  for (int v = 0; v < 4; ++v) {
    sim.set_input_word(sel, static_cast<std::uint64_t>(v));
    sim.eval();
    EXPECT_EQ(sim.read_word(out), static_cast<std::uint64_t>(0x10 + v));
  }
}

TEST(WordOps, MultiplierMatchesArithmetic) {
  Netlist nl("t");
  WordOps w(nl, "m");
  Bus a(8), b(8);
  for (int i = 0; i < 8; ++i) {
    a[i] = nl.add_input("a" + std::to_string(i));
    b[i] = nl.add_input("b" + std::to_string(i));
  }
  const Bus p = w.mul_word(a, b, "p");
  nl.add_output("p0", p[0]);
  ASSERT_TRUE(nl.validate().empty());
  Simulator sim(nl);
  for (auto [av, bv] : {std::pair{0, 0}, {1, 255}, {255, 255}, {17, 13},
                        {100, 200}, {85, 170}, {3, 7}, {128, 2}}) {
    sim.set_input_word(a, static_cast<std::uint64_t>(av));
    sim.set_input_word(b, static_cast<std::uint64_t>(bv));
    sim.eval();
    EXPECT_EQ(sim.read_word(p), static_cast<std::uint64_t>((av * bv) & 0xFF))
        << av << "*" << bv;
  }
}

TEST(WordOps, MultiplierExhaustive4Bit) {
  Netlist nl("t");
  WordOps w(nl, "m");
  Bus a(4), b(4);
  for (int i = 0; i < 4; ++i) {
    a[i] = nl.add_input("a" + std::to_string(i));
    b[i] = nl.add_input("b" + std::to_string(i));
  }
  const Bus p = w.mul_word(a, b, "p");
  nl.add_output("p0", p[0]);
  Simulator sim(nl);
  for (int av = 0; av < 16; ++av) {
    for (int bv = 0; bv < 16; ++bv) {
      sim.set_input_word(a, static_cast<std::uint64_t>(av));
      sim.set_input_word(b, static_cast<std::uint64_t>(bv));
      sim.eval();
      EXPECT_EQ(sim.read_word(p), static_cast<std::uint64_t>((av * bv) & 0xF));
    }
  }
}

TEST(WordOps, RegisterFeedbackViaDeclareConnect) {
  // A 4-bit counter: reg <= reg + 1.
  Netlist nl("t");
  WordOps w(nl, "m");
  RegWord r = w.reg_declare(4, "cnt");
  const auto inc = w.add_word(r.q, w.constant(1, 4), w.lit(false), "inc");
  w.reg_connect(r, inc.sum);
  nl.add_output("o", r.q[0]);
  ASSERT_TRUE(nl.validate().empty());

  Simulator sim(nl);
  sim.power_on();
  // Flops power up X; force a known state by clocking with DFFR? This
  // counter uses plain DFFs, so drive via packed 2-valued convention:
  PackedSim ps(nl);
  ps.power_on();
  ps.eval();
  for (int i = 1; i <= 20; ++i) {
    ps.clock();
    std::uint64_t v = 0;
    for (int b = 0; b < 4; ++b)
      v |= std::uint64_t{lane_test(ps.value(r.q[b]), 0)} << b;
    EXPECT_EQ(v, static_cast<std::uint64_t>(i & 0xF));
  }
}

TEST(WordOps, TagRegAppliesPerBitTags) {
  Netlist nl("t");
  WordOps w(nl, "m");
  RegWord r = w.reg_declare(2, "pc");
  w.reg_connect(r, w.constant(0, 2));
  w.tag_reg(r, "addr:code");
  EXPECT_EQ(nl.cell(r.flops[0]).tag, "addr:code:0");
  EXPECT_EQ(nl.cell(r.flops[1]).tag, "addr:code:1");
}

TEST(Netlist, ModuleHistogramGroupsByPrefix) {
  Netlist nl("t");
  WordOps a(nl, "alu");
  WordOps b(nl, "btb");
  a.lit(false);
  b.lit(false);
  b.lit(true);
  const auto hist = nl.module_histogram();
  EXPECT_EQ(hist.at("alu"), 1u);
  EXPECT_EQ(hist.at("btb"), 2u);
}

}  // namespace
}  // namespace olfui
