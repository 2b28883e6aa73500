#include <gtest/gtest.h>

#include "fault/fault_list.hpp"
#include "fault/universe.hpp"
#include "netlist/wordops.hpp"
#include "scan/scan.hpp"
#include "sim/packed.hpp"
#include "sta/sta.hpp"

namespace olfui {
namespace {

/// A little sequential design: 6 flops of assorted kinds with some logic.
struct Design {
  Netlist nl{"t"};
  NetId rstn, a, b;
  std::vector<RegWord> regs;

  Design() {
    WordOps w(nl, "core");
    rstn = nl.add_input("rstn");
    a = nl.add_input("a");
    b = nl.add_input("b");
    RegWord r0 = w.reg_word({w.and2(a, b, "x0")}, "r0");
    RegWord r1 = w.reg_word({w.xor2(r0.q[0], a, "x1")}, "r1", rstn);
    RegWord r2 = w.reg_word({w.or2(r1.q[0], b, "x2")}, "r2");
    RegWord r3 = w.reg_word({w.not_(r2.q[0], "x3")}, "r3", rstn);
    RegWord r4 = w.reg_word({w.mux(a, r3.q[0], b, "x4")}, "r4");
    RegWord r5 = w.reg_word({w.buf(r4.q[0], "x5")}, "r5");
    nl.add_output("o", r5.q[0]);
    for (auto& r : {r0, r1, r2, r3, r4, r5}) regs.push_back(r);
  }
};

TEST(ScanInsert, AddsPortsAndMuxes) {
  Design d;
  const auto before = d.nl.stats();
  const ScanChains chains = insert_scan(d.nl, {.num_chains = 2,
                                               .buffers_per_link = 1});
  const auto after = d.nl.stats();
  EXPECT_EQ(chains.chains.size(), 2u);
  EXPECT_EQ(chains.num_flops(), before.flops);
  EXPECT_EQ(after.inputs, before.inputs + 3);   // scan_en + 2 scan_in
  EXPECT_EQ(after.outputs, before.outputs + 2); // 2 scan_out
  // One mux per flop, plus link+tail buffers.
  EXPECT_EQ(after.gates, before.gates + before.flops /*mux*/ +
                             before.flops /*link bufs*/ + 2 /*tail bufs*/);
  EXPECT_TRUE(d.nl.validate().empty());
}

TEST(ScanInsert, FunctionalBehaviourUnchangedInMissionMode) {
  // With SE = functional value the scanned design must compute exactly
  // what the original computed.
  Design ref, dut;
  const ScanChains chains = insert_scan(dut.nl, {.num_chains = 1,
                                                 .buffers_per_link = 2});
  PackedSim ps_ref(ref.nl), ps_dut(dut.nl);
  ps_ref.power_on();
  ps_dut.power_on();
  ps_dut.set_input_all(chains.se_net, false);
  for (const ScanChain& c : chains.chains)
    ps_dut.set_input_all(c.scan_in_net, false);
  std::uint64_t lfsr = 0x12345;
  for (int cyc = 0; cyc < 30; ++cyc) {
    const bool av = lfsr & 1, bv = lfsr & 2, rv = cyc > 2;
    lfsr = lfsr * 6364136223846793005ULL + 1442695040888963407ULL;
    for (PackedSim* s : {&ps_ref, &ps_dut}) {
      s->set_input_all(ref.a, av);  // same net ids in both netlists
      s->set_input_all(ref.b, bv);
      s->set_input_all(ref.rstn, rv);
      s->eval();
    }
    const CellId oref = ref.nl.find_output("o");
    const CellId odut = dut.nl.find_output("o");
    EXPECT_EQ(lane_test(ps_ref.observed(oref), 0), lane_test(ps_dut.observed(odut), 0)) << cyc;
    ps_ref.clock();
    ps_dut.clock();
  }
}

TEST(ScanInsert, ShiftModeMovesDataThroughChain) {
  // In scan mode (SE=1) the chain is one long shift register.
  Design d;
  const ScanChains chains = insert_scan(d.nl, {.num_chains = 1,
                                               .buffers_per_link = 0});
  PackedSim ps(d.nl);
  ps.power_on();
  ps.set_input_all(chains.se_net, true);
  ps.set_input_all(d.a, false);
  ps.set_input_all(d.b, false);
  ps.set_input_all(d.rstn, true);
  const ScanChain& chain = chains.chains[0];
  // Shift in the pattern 1,0,1,1,0,1 (LSB first reaches the last flop).
  const int n = static_cast<int>(chain.elements.size());
  std::vector<int> pattern = {1, 0, 1, 1, 0, 1};
  for (int i = 0; i < n; ++i) {
    ps.set_input_all(chain.scan_in_net, pattern[static_cast<std::size_t>(i)] != 0);
    ps.eval();
    ps.clock();
  }
  // After n shifts flop k holds pattern[n-1-k].
  for (int k = 0; k < n; ++k) {
    const CellId flop = chain.elements[static_cast<std::size_t>(k)].flop;
    EXPECT_EQ(lane_test(ps.value(d.nl.cell(flop).out), 0),
              static_cast<std::uint64_t>(pattern[static_cast<std::size_t>(n - 1 - k)]))
        << k;
  }
}

TEST(ScanTrace, RecoversInsertedChains) {
  Design d;
  const ScanChains inserted = insert_scan(d.nl, {.num_chains = 2,
                                                 .buffers_per_link = 1});
  const ScanChains traced = trace_scan(d.nl);
  ASSERT_EQ(traced.chains.size(), inserted.chains.size());
  EXPECT_EQ(traced.se_net, inserted.se_net);
  for (std::size_t c = 0; c < traced.chains.size(); ++c) {
    const ScanChain& ti = traced.chains[c];
    const ScanChain& ii = inserted.chains[c];
    ASSERT_EQ(ti.elements.size(), ii.elements.size()) << c;
    for (std::size_t k = 0; k < ti.elements.size(); ++k) {
      EXPECT_EQ(ti.elements[k].flop, ii.elements[k].flop);
      EXPECT_EQ(ti.elements[k].mux, ii.elements[k].mux);
      EXPECT_EQ(ti.elements[k].link_buffers, ii.elements[k].link_buffers);
    }
    EXPECT_EQ(ti.scan_out_port, ii.scan_out_port);
    EXPECT_EQ(ti.tail_buffers, ii.tail_buffers);
  }
}

TEST(ScanTrace, ThrowsWithoutScanEnable) {
  Design d;
  EXPECT_THROW(trace_scan(d.nl), std::runtime_error);
}

TEST(ScanPrune, Fig2FaultSetExactlyPruned) {
  Design d;
  const ScanChains chains = insert_scan(d.nl, {.num_chains = 1,
                                               .buffers_per_link = 1});
  const FaultUniverse u(d.nl);
  FaultList fl(u);
  const std::size_t pruned = prune_scan_faults(chains, u, fl);
  EXPECT_EQ(fl.count_source(OnlineSource::kScan), pruned);

  const ScanChain& chain = chains.chains[0];
  const std::size_t flops = chain.elements.size();
  // Per element: SI s-a-0/1 + SE s-a-func (3); per link buffer: 4 faults;
  // scan-in stem: 2; scan-out port: 2; tail buffer: 4; SE stem: 1.
  const std::size_t buffers = flops + 1;  // one per link + tail
  EXPECT_EQ(pruned, flops * 3 + buffers * 4 + 2 + 2 + 1);

  for (const ScanElement& e : chain.elements) {
    const Pin si{e.mux, kMuxB + 1};
    const Pin se{e.mux, kMuxS + 1};
    const Pin fi{e.mux, kMuxA + 1};
    EXPECT_EQ(fl.online_source(u.id_of(si, false)), OnlineSource::kScan);
    EXPECT_EQ(fl.online_source(u.id_of(si, true)), OnlineSource::kScan);
    EXPECT_EQ(fl.online_source(u.id_of(se, false)), OnlineSource::kScan);
    // "The only fault that needs to be taken into consideration is the
    // stuck-at-1 on SE" (paper §3.1): it must NOT be pruned.
    EXPECT_EQ(fl.online_source(u.id_of(se, true)), OnlineSource::kNone);
    // Functional path fully kept.
    EXPECT_EQ(fl.online_source(u.id_of(fi, false)), OnlineSource::kNone);
    EXPECT_EQ(fl.online_source(u.id_of(fi, true)), OnlineSource::kNone);
  }
}

TEST(ScanPrune, AgreesWithStructuralEngine) {
  // Cross-validation (paper §4: Tetramax classifies the tied-SE faults as
  // "untestable due to tied value"): every fault the tracer prunes must
  // also be proven untestable by the structural engine under the scan
  // mission config.
  Design d;
  const ScanChains chains = insert_scan(d.nl, {.num_chains = 2,
                                               .buffers_per_link = 1});
  const FaultUniverse u(d.nl);
  FaultList direct(u), structural(u);
  prune_scan_faults(chains, u, direct);

  const StructuralAnalyzer sta(d.nl, u);
  sta.classify_faults(sta.analyze(scan_mission_config(d.nl, chains)),
                      structural, OnlineSource::kScan);

  for (FaultId f = 0; f < u.size(); ++f) {
    if (direct.untestable_kind(f) != UntestableKind::kNone) {
      EXPECT_NE(structural.untestable_kind(f), UntestableKind::kNone)
          << u.fault_name(f);
    }
  }
}

TEST(ScanPrune, SeStuckAtScanValueRemainsDetectable) {
  // Ground truth for keeping SE s-a-1: inject it and watch the mission-mode
  // machine diverge (the flop loads serial data instead of its D cone).
  Design d;
  const ScanChains chains = insert_scan(d.nl, {.num_chains = 1,
                                               .buffers_per_link = 0});
  const FaultUniverse u(d.nl);
  const ScanElement& e = chains.chains[0].elements[1];
  PackedSim good(d.nl), bad(d.nl);
  bad.add_injection({e.mux, kMuxS + 1, true, ~LaneWord{}});
  bool diverged = false;
  for (PackedSim* s : {&good, &bad}) {
    s->power_on();
    s->set_input_all(chains.se_net, false);
    s->set_input_all(chains.chains[0].scan_in_net, false);
    s->set_input_all(d.rstn, true);
  }
  for (int cyc = 0; cyc < 10 && !diverged; ++cyc) {
    for (PackedSim* s : {&good, &bad}) {
      s->set_input_all(d.a, cyc % 2 == 0);
      s->set_input_all(d.b, cyc % 3 == 0);
      s->eval();
    }
    const CellId o = d.nl.find_output("o");
    if (lane_test(good.observed(o) ^ bad.observed(o), 0)) diverged = true;
    good.clock();
    bad.clock();
  }
  EXPECT_TRUE(diverged);
}

}  // namespace
}  // namespace olfui
