// Structural testability analysis tests. Several cases reproduce the
// paper's figures directly:
//   Fig. 2 — mux-scan flop with SE tied to functional mode,
//   Fig. 4 — debug mux with DE tied and DO floating,
//   Fig. 5 — constant-value DFF leaving only two testable faults,
//   Fig. 6 — constants propagating through a flop into the downstream cone.
// The StaProof cases compare the worklist observability proof with the
// sweep oracle of divergence_oracle.hpp, pin by pin.
#include <gtest/gtest.h>

#include "divergence_oracle.hpp"
#include "fault/fault_list.hpp"
#include "fault/universe.hpp"
#include "netlist/wordops.hpp"
#include "random_design.hpp"
#include "sta/sta.hpp"

namespace olfui {
namespace {

struct Rig {
  Netlist nl{"t"};
  WordOps w{nl, "m"};
};

TEST(StaConstants, TieCellsPropagate) {
  Rig r;
  const NetId a = r.nl.add_input("a");
  const NetId y = r.w.and2(a, r.w.lit(false), "y");  // a & 0 == 0
  const NetId z = r.w.or2(y, r.w.lit(true), "z");    // 1
  r.nl.add_output("o", z);
  const FaultUniverse u(r.nl);
  const StructuralAnalyzer sta(r.nl, u);
  const StaResult res = sta.analyze({});
  EXPECT_EQ(res.net_value[y], Logic::V0);
  EXPECT_EQ(res.net_value[z], Logic::V1);
  EXPECT_EQ(res.net_value[a], Logic::VX);
}

TEST(StaConstants, MissionTiesOverrideFreeInputs) {
  Rig r;
  const NetId a = r.nl.add_input("a");
  const NetId b = r.nl.add_input("b");
  const NetId y = r.w.and2(a, b, "y");
  r.nl.add_output("o", y);
  const FaultUniverse u(r.nl);
  const StructuralAnalyzer sta(r.nl, u);
  MissionConfig cfg;
  cfg.tie(a, true);
  cfg.tie(b, true);
  const StaResult res = sta.analyze(cfg);
  EXPECT_EQ(res.net_value[y], Logic::V1);
}

TEST(StaConstants, PropagateThroughFlops) {
  // Paper Fig. 6: a constant reaching a flop's D makes Q constant at the
  // mission fixpoint, feeding constants onward.
  Rig r;
  const NetId d = r.nl.add_input("d");
  RegWord reg = r.w.reg_word({d}, "ff");
  const NetId y = r.w.not_(reg.q[0], "y");
  r.nl.add_output("o", y);
  const FaultUniverse u(r.nl);
  const StructuralAnalyzer sta(r.nl, u);
  MissionConfig cfg;
  cfg.tie(d, false);
  const StaResult res = sta.analyze(cfg);
  EXPECT_EQ(res.net_value[reg.q[0]], Logic::V0);
  EXPECT_EQ(res.net_value[y], Logic::V1);
}

TEST(StaConstants, FeedbackLoopsStayUnknown) {
  // A toggle flop has no mission constant: q must remain X.
  Rig r;
  RegWord reg = r.w.reg_declare(1, "ff");
  const NetId d = r.w.not_(reg.q[0], "inv");
  r.w.reg_connect(reg, {d});
  r.nl.add_output("o", reg.q[0]);
  const FaultUniverse u(r.nl);
  const StructuralAnalyzer sta(r.nl, u);
  const StaResult res = sta.analyze({});
  EXPECT_EQ(res.net_value[reg.q[0]], Logic::VX);
}

TEST(StaObservability, SideInputBlocking) {
  Rig r;
  const NetId a = r.nl.add_input("a");
  const NetId en = r.nl.add_input("en");
  const NetId y = r.w.and2(a, en, "y");
  r.nl.add_output("o", y);
  const FaultUniverse u(r.nl);
  const StructuralAnalyzer sta(r.nl, u);
  const CellId g = r.nl.net(y).driver;

  // Free enable: both inputs observable.
  StaResult res = sta.analyze({});
  EXPECT_TRUE(res.pin_observable[sta.pin_ordinal({g, 1})]);
  // en tied 0: the data pin is blocked.
  MissionConfig cfg;
  cfg.tie(en, false);
  res = sta.analyze(cfg);
  EXPECT_FALSE(res.pin_observable[sta.pin_ordinal({g, 1})]);
}

TEST(StaObservability, MuxSelectBlocking) {
  Rig r;
  const NetId a = r.nl.add_input("a");
  const NetId b = r.nl.add_input("b");
  const NetId s = r.nl.add_input("s");
  const NetId y = r.w.mux(s, a, b, "y");
  r.nl.add_output("o", y);
  const FaultUniverse u(r.nl);
  const StructuralAnalyzer sta(r.nl, u);
  const CellId g = r.nl.net(y).driver;
  MissionConfig cfg;
  cfg.tie(s, false);  // select A forever
  const StaResult res = sta.analyze(cfg);
  EXPECT_TRUE(res.pin_observable[sta.pin_ordinal({g, kMuxA + 1})]);
  EXPECT_FALSE(res.pin_observable[sta.pin_ordinal({g, kMuxB + 1})]);
}

TEST(StaObservability, UnobservedOutputKillsPrivateConeOnly) {
  Rig r;
  const NetId a = r.nl.add_input("a");
  const NetId y1 = r.w.buf(a, "y1");       // feeds the floating port only
  const NetId y2 = r.w.not_(a, "y2");      // feeds the kept port
  const CellId dead_port = r.nl.add_output("dbg", y1);
  r.nl.add_output("bus", y2);
  const FaultUniverse u(r.nl);
  const StructuralAnalyzer sta(r.nl, u);
  MissionConfig cfg;
  cfg.unobserve(dead_port);
  const StaResult res = sta.analyze(cfg);
  const CellId b1 = r.nl.net(y1).driver;
  const CellId b2 = r.nl.net(y2).driver;
  EXPECT_FALSE(res.pin_observable[sta.pin_ordinal({b1, 0})]);
  EXPECT_FALSE(res.pin_observable[sta.pin_ordinal({dead_port, 1})]);
  EXPECT_TRUE(res.pin_observable[sta.pin_ordinal({b2, 0})]);
  // The shared input stem is still observable through the kept cone.
  EXPECT_TRUE(res.pin_observable[sta.pin_ordinal({r.nl.net(a).driver, 0})]);
}

TEST(StaClassify, Fig5ConstantDffLeavesTwoTestableFaults) {
  // DFFR with active-low reset whose value is constant 0. The analysis
  // must leave exactly s-a-1 on D and s-a-1 on Q testable.
  Rig r;
  const NetId d = r.nl.add_input("d");
  const NetId rstn = r.nl.add_input("rstn");
  RegWord reg = r.w.reg_declare(1, "ff", rstn);
  r.w.reg_connect(reg, {d});
  r.nl.add_output("q", reg.q[0]);
  const FaultUniverse u(r.nl);
  const StructuralAnalyzer sta(r.nl, u);
  FaultList fl(u);
  MissionConfig cfg;
  cfg.tie(d, false);       // paper: tie the flop input...
  cfg.tie(reg.q[0], false);  // ...and its output
  const StaResult res = sta.analyze(cfg);
  sta.classify_faults(res, fl, OnlineSource::kMemoryMap);

  const CellId ff = reg.flops[0];
  // s-a-0 faults on D and Q: unexcitable (tied).
  EXPECT_EQ(fl.untestable_kind(u.id_of({ff, 1}, false)), UntestableKind::kTied);
  EXPECT_EQ(fl.untestable_kind(u.id_of({ff, 0}, false)), UntestableKind::kTied);
  // s-a-1 on D and on Q: the two faults the paper keeps testable.
  EXPECT_EQ(fl.untestable_kind(u.id_of({ff, 1}, true)), UntestableKind::kNone);
  EXPECT_EQ(fl.untestable_kind(u.id_of({ff, 0}, true)), UntestableKind::kNone);
  // RSTN pin: blocked by the constant-0 D (asserting reset is invisible).
  EXPECT_EQ(fl.untestable_kind(u.id_of({ff, 2}, false)),
            UntestableKind::kUnobservable);
  EXPECT_EQ(fl.untestable_kind(u.id_of({ff, 2}, true)),
            UntestableKind::kUnobservable);
}

TEST(StaClassify, Fig2ScanMuxFaults) {
  // Mux-scan structure with SE tied to functional mode (0): SI branch
  // untestable both ways, SE s-a-0 untestable, SE s-a-1 stays testable.
  Rig r;
  const NetId fi = r.nl.add_input("fi");
  const NetId si = r.nl.add_input("si");
  const NetId se = r.nl.add_input("se");
  const NetId md = r.w.mux(se, fi, si, "md");
  RegWord reg = r.w.reg_word({md}, "ff");
  r.nl.add_output("q", reg.q[0]);
  const FaultUniverse u(r.nl);
  const StructuralAnalyzer sta(r.nl, u);
  FaultList fl(u);
  MissionConfig cfg;
  cfg.tie(se, false);
  sta.classify_faults(sta.analyze(cfg), fl, OnlineSource::kScan);

  const CellId mux = r.nl.net(md).driver;
  const Pin si_pin{mux, kMuxB + 1};
  const Pin se_pin{mux, kMuxS + 1};
  const Pin fi_pin{mux, kMuxA + 1};
  EXPECT_NE(fl.untestable_kind(u.id_of(si_pin, false)), UntestableKind::kNone);
  EXPECT_NE(fl.untestable_kind(u.id_of(si_pin, true)), UntestableKind::kNone);
  EXPECT_EQ(fl.untestable_kind(u.id_of(se_pin, false)), UntestableKind::kTied);
  EXPECT_EQ(fl.untestable_kind(u.id_of(se_pin, true)), UntestableKind::kNone);
  EXPECT_EQ(fl.untestable_kind(u.id_of(fi_pin, false)), UntestableKind::kNone);
  EXPECT_EQ(fl.untestable_kind(u.id_of(fi_pin, true)), UntestableKind::kNone);
  // The SI input port stem is dead too.
  const CellId si_drv = r.nl.net(si).driver;
  EXPECT_NE(fl.untestable_kind(u.id_of({si_drv, 0}, false)), UntestableKind::kNone);
}

TEST(StaClassify, Fig4DebugMuxFaults) {
  // Debug-write mux: D = DE ? DI : FI, plus a debug observation output DO.
  // Mission: DE tied 0, DO floating.
  Rig r;
  const NetId fi = r.nl.add_input("fi");
  const NetId di = r.nl.add_input("di");
  const NetId de = r.nl.add_input("de");
  const NetId md = r.w.mux(de, fi, di, "md");
  RegWord reg = r.w.reg_word({md}, "ff");
  const NetId dout = r.w.buf(reg.q[0], "do");
  const CellId do_port = r.nl.add_output("dbg_do", dout);
  r.nl.add_output("q", reg.q[0]);
  const FaultUniverse u(r.nl);
  const StructuralAnalyzer sta(r.nl, u);
  FaultList fl(u);
  MissionConfig cfg;
  cfg.tie(de, false);
  cfg.unobserve(do_port);
  sta.classify_faults(sta.analyze(cfg), fl, OnlineSource::kDebugControl);

  const CellId mux = r.nl.net(md).driver;
  // DE s-a-0 untestable, DI both untestable (paper §3.2.1).
  EXPECT_EQ(fl.untestable_kind(u.id_of({mux, kMuxS + 1}, false)),
            UntestableKind::kTied);
  EXPECT_EQ(fl.untestable_kind(u.id_of({mux, kMuxS + 1}, true)),
            UntestableKind::kNone);
  EXPECT_NE(fl.untestable_kind(u.id_of({mux, kMuxB + 1}, false)),
            UntestableKind::kNone);
  EXPECT_NE(fl.untestable_kind(u.id_of({mux, kMuxB + 1}, true)),
            UntestableKind::kNone);
  // DO buffer: unobservable once the debugger is gone (§3.2.2).
  const CellId dob = r.nl.net(dout).driver;
  EXPECT_EQ(fl.untestable_kind(u.id_of({dob, 0}, false)),
            UntestableKind::kUnobservable);
  // The flop's functional path stays fully testable.
  EXPECT_EQ(fl.untestable_kind(u.id_of({mux, kMuxA + 1}, false)),
            UntestableKind::kNone);
}

TEST(StaClassify, NewlyMarkedCountIsIncremental) {
  Rig r;
  const NetId a = r.nl.add_input("a");
  const NetId en = r.nl.add_input("en");
  const NetId y = r.w.and2(a, en, "y");
  r.nl.add_output("o", y);
  const FaultUniverse u(r.nl);
  const StructuralAnalyzer sta(r.nl, u);
  FaultList fl(u);
  MissionConfig cfg;
  cfg.tie(en, false);
  const StaResult res = sta.analyze(cfg);
  const std::size_t first = sta.classify_faults(res, fl, OnlineSource::kScan);
  EXPECT_GT(first, 0u);
  const std::size_t second = sta.classify_faults(res, fl, OnlineSource::kMemoryMap);
  EXPECT_EQ(second, 0u);  // nothing new on the second pass
  EXPECT_EQ(fl.count_source(OnlineSource::kMemoryMap), 0u);
}

TEST(StaClassify, TieCellFaultsAreStructurallyUntestable) {
  Rig r;
  const NetId a = r.nl.add_input("a");
  const NetId y = r.w.or2(a, r.w.lit(false), "y");
  r.nl.add_output("o", y);
  const FaultUniverse u(r.nl);
  const StructuralAnalyzer sta(r.nl, u);
  FaultList fl(u);
  sta.classify_faults(sta.analyze({}), fl, OnlineSource::kStructural);
  const NetId tie_net = r.nl.cell(r.nl.find_cell("m/u_tie0")).out;
  const CellId tie_cell = r.nl.net(tie_net).driver;
  EXPECT_EQ(fl.untestable_kind(u.id_of({tie_cell, 0}, false)),
            UntestableKind::kTied);
  EXPECT_EQ(fl.untestable_kind(u.id_of({tie_cell, 0}, true)),
            UntestableKind::kNone);
}

TEST(StaClassify, XorPathNeverBlocked) {
  Rig r;
  const NetId a = r.nl.add_input("a");
  const NetId b = r.nl.add_input("b");
  const NetId y = r.w.xor2(a, b, "y");
  r.nl.add_output("o", y);
  const FaultUniverse u(r.nl);
  const StructuralAnalyzer sta(r.nl, u);
  MissionConfig cfg;
  cfg.tie(b, false);  // even a tied side input does not block an XOR
  const StaResult res = sta.analyze(cfg);
  const CellId g = r.nl.net(y).driver;
  EXPECT_TRUE(res.pin_observable[sta.pin_ordinal({g, 1})]);
}

TEST(StaProof, ReconvergentSideInputReopensBlockedReader) {
  // y = AND(p, s) with p and s both two-cell copies of the
  // mission-constant-0 net f; on the `via_flop` row, the second cell on
  // the way to s is a flop. Each AND input is blocked by the other's
  // constant 0, so the fast filter flags the stem of f unobservable. But
  // a fault on f drives both inputs: whichever input the proof reaches
  // first still sees the other blocking (its copy is one cell behind),
  // and the reader must re-open when that side input turns divergent
  // too. f s-a-1 is testable (y goes to 1).
  struct Row {
    const char* name;
    bool via_flop;
  };
  const Row rows[] = {{"combinational", false}, {"via flop", true}};
  for (const Row& row : rows) {
    Rig r;
    const NetId f = r.nl.add_input("f");
    const NetId p = r.w.buf(r.w.buf(f, "p0"), "p");
    const NetId s0 = r.w.buf(f, "s0");
    const NetId s = row.via_flop ? r.w.reg_word({s0}, "ff").q[0]
                                 : r.w.buf(s0, "s");
    const NetId y = r.w.and2(p, s, "y");
    r.nl.add_output("o", y);
    const FaultUniverse u(r.nl);
    const StructuralAnalyzer sta(r.nl, u);
    const SweepObservabilityOracle oracle(r.nl);
    MissionConfig cfg;
    cfg.tie(f, false);
    const StaResult res = sta.analyze(cfg);
    const Pin stem{r.nl.net(f).driver, 0};
    EXPECT_EQ(res.net_value[y], Logic::V0) << row.name;
    EXPECT_FALSE(res.pin_observable[sta.pin_ordinal(stem)]) << row.name;
    EXPECT_TRUE(sta.fault_possibly_observable(res, stem)) << row.name;
    EXPECT_TRUE(oracle.possibly_observable(res, stem)) << row.name;
    FaultList fl(u);
    sta.classify_faults(res, fl, OnlineSource::kStructural);
    EXPECT_EQ(fl.untestable_kind(u.id_of(stem, false)), UntestableKind::kTied)
        << row.name;
    EXPECT_EQ(fl.untestable_kind(u.id_of(stem, true)), UntestableKind::kNone)
        << row.name;
  }
}

TEST(StaProof, WorklistMatchesSweepOracleOnRandomDesigns) {
  // Every pin of random sequential designs, under random mission
  // configurations that tie random nets to random values and unobserve
  // random outputs. Both answers of the proof must occur, so the early
  // exit and the exhausted worklist are both compared. One memoized
  // ObservabilityProver per configuration walks the pins in id order and
  // another in reverse, so each verdict is also checked against memo
  // state left by the proofs before it.
  struct Row {
    std::uint64_t seed;
    int inputs, flops, gates;
  };
  const Row rows[] = {
      {1, 4, 4, 40}, {2, 6, 8, 80}, {3, 3, 12, 120},
      {4, 8, 2, 60}, {5, 5, 16, 200},
  };
  constexpr int kConfigsPerDesign = 6;
  std::size_t observable = 0, unobservable = 0;
  for (const Row& row : rows) {
    Rng rng(row.seed);
    const RandomDesign d =
        random_design(rng, row.inputs, row.flops, row.gates);
    const FaultUniverse u(d.nl);
    const StructuralAnalyzer sta(d.nl, u);
    const SweepObservabilityOracle oracle(d.nl);
    for (int k = 0; k < kConfigsPerDesign; ++k) {
      MissionConfig cfg;
      const std::uint64_t ties = rng.next_below(d.nl.num_nets() / 4 + 1);
      for (std::uint64_t t = 0; t < ties; ++t)
        cfg.tie(static_cast<NetId>(rng.next_below(d.nl.num_nets())),
                rng.next_bool());
      for (CellId oc : d.output_cells)
        if (rng.next_below(3) == 0) cfg.unobserve(oc);
      const StaResult res = sta.analyze(cfg);
      ObservabilityProver forward(sta, res), backward(sta, res);
      std::vector<bool> want(sta.num_pins());
      for (std::size_t ord = 0; ord < sta.num_pins(); ++ord) {
        const Pin pin = u.fault(static_cast<FaultId>(2 * ord)).pin;
        const bool worklist = sta.fault_possibly_observable(res, pin);
        want[ord] = oracle.possibly_observable(res, pin);
        ASSERT_EQ(worklist, want[ord])
            << "seed " << row.seed << " config " << k << " cell "
            << d.nl.cell(pin.cell).name << " pin " << int(pin.pin);
        ASSERT_EQ(forward.possibly_observable(pin), want[ord])
            << "seed " << row.seed << " config " << k << " memo, pin " << ord;
        ++(worklist ? observable : unobservable);
      }
      for (std::size_t ord = sta.num_pins(); ord-- > 0;) {
        const Pin pin = u.fault(static_cast<FaultId>(2 * ord)).pin;
        ASSERT_EQ(backward.possibly_observable(pin), want[ord])
            << "seed " << row.seed << " config " << k
            << " reverse memo, pin " << ord;
      }
    }
  }
  EXPECT_GT(observable, 0u);
  EXPECT_GT(unobservable, 0u);
}

TEST(StaConfig, MergeAccumulates) {
  MissionConfig a, b;
  a.tie(1, true);
  b.tie(2, false);
  b.unobserve(7);
  a.merge(b);
  EXPECT_EQ(a.constants.size(), 2u);
  EXPECT_EQ(a.unobserved_outputs.size(), 1u);
}

}  // namespace
}  // namespace olfui
