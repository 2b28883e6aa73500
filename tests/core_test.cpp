#include <gtest/gtest.h>

#include <iterator>
#include <utility>

#include "core/analyzer.hpp"
#include "debug/debug.hpp"
#include "divergence_oracle.hpp"
#include "memmap/memmap.hpp"
#include "scan/scan.hpp"

namespace olfui {
namespace {

struct Case {
  std::unique_ptr<Soc> soc;
  std::unique_ptr<FaultUniverse> universe;

  explicit Case(SocConfig cfg = {}) {
    soc = build_soc(cfg);
    universe = std::make_unique<FaultUniverse>(soc->netlist);
  }
};

TEST(Analyzer, FullFlowFindsAllFourSources) {
  Case c;
  FaultList fl(*c.universe);
  OnlineUntestabilityAnalyzer az(*c.soc, *c.universe);
  const AnalysisReport rep = az.run(fl);

  EXPECT_EQ(rep.universe, c.universe->size());
  EXPECT_GT(rep.scan, 0u);
  EXPECT_GT(rep.debug_control, 0u);
  EXPECT_GT(rep.debug_observe, 0u);
  EXPECT_GT(rep.memmap, 0u);
  EXPECT_GT(rep.structural_baseline, 0u);
  // Counts agree with the fault-list labels.
  EXPECT_EQ(rep.scan, fl.count_source(OnlineSource::kScan));
  EXPECT_EQ(rep.debug_control, fl.count_source(OnlineSource::kDebugControl));
  EXPECT_EQ(rep.debug_observe, fl.count_source(OnlineSource::kDebugObserve));
  EXPECT_EQ(rep.memmap, fl.count_source(OnlineSource::kMemoryMap));
  EXPECT_EQ(rep.total_online() + rep.structural_baseline, fl.count_untestable());
}

TEST(Analyzer, PaperShapeScanDominatesDebugThenMemory) {
  // Table I shape: scan is by far the largest class, debug next, memory
  // smallest; the total lands in the paper's low-to-mid teens percent.
  Case c;
  FaultList fl(*c.universe);
  OnlineUntestabilityAnalyzer az(*c.soc, *c.universe);
  const AnalysisReport rep = az.run(fl);
  EXPECT_GT(rep.scan, rep.debug_control + rep.debug_observe);
  EXPECT_GT(rep.debug_control + rep.debug_observe, rep.memmap);
  EXPECT_GT(rep.online_pct(), 8.0);
  EXPECT_LT(rep.online_pct(), 25.0);
}

TEST(Analyzer, Table1RowsArePinned) {
  // Table I on the case-study SoC, and two ablations. Scan-path buffers
  // per link move the Scan row alone (every buffer sits on the idle shift
  // path). BTB entries move the Memory row (each entry adds address
  // registers), and the Scan row with it (each entry adds scanned flops).
  struct Row {
    const char* config;
    int buffers_per_link;
    int btb_entries;
    std::size_t universe, structural, scan, debug_control, debug_observe,
        memmap;
  };
  const Row rows[] = {
      {"default", 1, 4, 60520, 1443, 5073, 2023, 1105, 1884},
      {"scan buffers 0", 0, 4, 57624, 1443, 2177, 2023, 1105, 1884},
      {"scan buffers 3", 3, 4, 66312, 1443, 10865, 2023, 1105, 1884},
      {"btb entries 1", 1, 1, 53920, 1436, 3701, 2023, 1105, 1026},
      {"btb entries 8", 1, 8, 69396, 1449, 6900, 2023, 1105, 3044},
  };
  for (const Row& r : rows) {
    SocConfig cfg;
    cfg.scan.buffers_per_link = r.buffers_per_link;
    cfg.cpu.btb_entries = r.btb_entries;
    Case c(cfg);
    FaultList fl(*c.universe);
    const AnalysisReport rep =
        OnlineUntestabilityAnalyzer(*c.soc, *c.universe).run(fl);
    EXPECT_EQ(rep.universe, r.universe) << r.config;
    EXPECT_EQ(rep.structural_baseline, r.structural) << r.config;
    EXPECT_EQ(rep.scan, r.scan) << r.config;
    EXPECT_EQ(rep.debug_control, r.debug_control) << r.config;
    EXPECT_EQ(rep.debug_observe, r.debug_observe) << r.config;
    EXPECT_EQ(rep.memmap, r.memmap) << r.config;
  }
}

TEST(Analyzer, AnalysisRecordsRuntime) {
  // The functional half of the old wall-clock test: the flow records a
  // positive structural-analysis time in the report.
  Case c;
  FaultList fl(*c.universe);
  OnlineUntestabilityAnalyzer az(*c.soc, *c.universe);
  const AnalysisReport rep = az.run(fl);
  EXPECT_GT(rep.analysis_seconds, 0.0);
}

TEST(Analyzer, ProofWorkloadRowsAgreeWithSweepOracle) {
  // The pins each Table-I pass hands to the sound observability proof:
  // under the cumulative mission configuration, the pins the fast filter
  // flags unobservable. The proof confirms every one of them, and the
  // sweep oracle agrees with the worklist on every one.
  struct Row {
    const char* pass;
    std::size_t flagged;
  };
  const Row rows[] = {
      {"baseline", 428},          {"+scan", 2604},
      {"+debug control", 3320},   {"+debug observe", 4105},
      {"+memory map", 4361},
  };
  Case c;
  const Netlist& nl = c.soc->netlist;
  const StructuralAnalyzer sta(nl, *c.universe);
  const SweepObservabilityOracle oracle(nl);
  const MissionConfig passes[] = {
      MissionConfig{},
      scan_mission_config(nl, trace_scan(nl)),
      debug_control_config(c.soc->debug),
      debug_observe_config(c.soc->debug),
      memmap_config(nl, c.soc->map, 32),
  };
  MissionConfig cfg;
  for (std::size_t i = 0; i < std::size(rows); ++i) {
    cfg.merge(passes[i]);
    const StaResult res = sta.analyze(cfg);
    std::size_t flagged = 0, proven = 0, disagree = 0;
    for (std::size_t ord = 0; ord < sta.num_pins(); ++ord) {
      if (res.pin_observable[ord]) continue;
      ++flagged;
      const Pin pin = c.universe->fault(static_cast<FaultId>(2 * ord)).pin;
      const bool worklist = sta.fault_possibly_observable(res, pin);
      proven += !worklist;
      disagree += worklist != oracle.possibly_observable(res, pin);
    }
    EXPECT_EQ(flagged, rows[i].flagged) << rows[i].pass;
    EXPECT_EQ(proven, flagged) << rows[i].pass;
    EXPECT_EQ(disagree, 0u) << rows[i].pass;
  }
}

TEST(Analyzer, SourcesAreDisjoint) {
  Case c;
  FaultList fl(*c.universe);
  OnlineUntestabilityAnalyzer az(*c.soc, *c.universe);
  az.run(fl);
  std::size_t sum = 0;
  for (const OnlineSource s : kUntestableSources) sum += fl.count_source(s);
  EXPECT_EQ(sum, fl.count_untestable());
}

TEST(Analyzer, SocWithoutDftHasNoOnlineUntestables) {
  SocConfig cfg;
  cfg.with_debug = false;
  cfg.with_scan = false;
  cfg.cpu.with_multiplier = false;
  Case c(cfg);
  FaultList fl(*c.universe);
  OnlineUntestabilityAnalyzer az(*c.soc, *c.universe);
  const AnalysisReport rep = az.run(fl);
  EXPECT_EQ(rep.scan, 0u);
  EXPECT_EQ(rep.debug_control, 0u);
  EXPECT_EQ(rep.debug_observe, 0u);
  EXPECT_GT(rep.memmap, 0u);  // the memory map restriction always applies
}

TEST(Analyzer, Table1FormatMatchesPaperLayout) {
  Case c;
  FaultList fl(*c.universe);
  OnlineUntestabilityAnalyzer az(*c.soc, *c.universe);
  const AnalysisReport rep = az.run(fl);
  const std::string t = rep.table1();
  for (const char* key :
       {"On-line functionally untestable faults", "Original", "Scan", "Debug",
        "Memory", "TOTAL", "[#]", "[%]"})
    EXPECT_NE(t.find(key), std::string::npos) << key;
  // Debug row uses the paper's "control+observe" split format.
  EXPECT_NE(t.find("+"), std::string::npos);
}

TEST(Analyzer, MissionConfigAccumulatesAllPasses) {
  Case c;
  FaultList fl(*c.universe);
  OnlineUntestabilityAnalyzer az(*c.soc, *c.universe);
  az.run(fl);
  const MissionConfig& cfg = az.mission_config();
  // scan-enable + 17 debug controls + memmap ties.
  EXPECT_GT(cfg.constants.size(), 18u);
  // scan-outs + debug observation ports.
  EXPECT_GT(cfg.unobserved_outputs.size(), 4u);
}

TEST(Analyzer, RunIsDeterministic) {
  Case c;
  OnlineUntestabilityAnalyzer az(*c.soc, *c.universe);
  FaultList fl1(*c.universe), fl2(*c.universe);
  const AnalysisReport r1 = az.run(fl1);
  const AnalysisReport r2 = az.run(fl2);
  EXPECT_EQ(r1.scan, r2.scan);
  EXPECT_EQ(r1.debug_control, r2.debug_control);
  EXPECT_EQ(r1.debug_observe, r2.debug_observe);
  EXPECT_EQ(r1.memmap, r2.memmap);
  for (FaultId f = 0; f < fl1.size(); ++f)
    ASSERT_EQ(fl1.online_source(f), fl2.online_source(f)) << f;
}

TEST(Analyzer, TransitionModelRunsTheFullFlow) {
  Case c;
  FaultList fl(*c.universe);
  OnlineUntestabilityAnalyzer az(*c.soc, *c.universe);
  const AnalysisReport rep = az.run(fl, FaultModel::kTransition);
  EXPECT_GT(rep.scan, 0u);
  EXPECT_GT(rep.debug_control, 0u);
  EXPECT_GT(rep.memmap, 0u);
  // A transition fault on a constant site dies in both polarities, so the
  // tied class must contain even-odd sibling pairs.
  std::size_t paired = 0;
  for (FaultId f = 0; f + 1 < fl.size(); f += 2) {
    if (fl.untestable_kind(f) == UntestableKind::kTied &&
        fl.untestable_kind(f + 1) == UntestableKind::kTied)
      ++paired;
  }
  EXPECT_GT(paired, 0u);
  // Launching a transition needs both values at the site, so transition
  // pruning (structural + on-line) is strictly larger than stuck-at's.
  FaultList sa(*c.universe);
  const AnalysisReport sa_rep = az.run(sa);
  EXPECT_EQ(sa_rep.structural_baseline + sa_rep.total_online(), 11528u);
  EXPECT_EQ(rep.structural_baseline + rep.total_online(), 14334u);
  EXPECT_GT(rep.structural_baseline + rep.total_online(),
            sa_rep.structural_baseline + sa_rep.total_online());
}

TEST(Analyzer, CoverageAccountingUsesPrunedDenominator) {
  Case c;
  FaultList fl(*c.universe);
  OnlineUntestabilityAnalyzer az(*c.soc, *c.universe);
  const AnalysisReport rep = az.run(fl);
  // Mark an arbitrary detected set and check the arithmetic identity
  // pruned = detected_testable / (universe - untestable).
  std::size_t detected_testable = 0;
  for (FaultId f = 0; f < fl.size(); f += 3) {
    if (fl.untestable_kind(f) == UntestableKind::kNone) {
      fl.set_detected(f);
      ++detected_testable;
    }
  }
  const double expect =
      static_cast<double>(detected_testable) /
      static_cast<double>(c.universe->size() - fl.count_untestable());
  EXPECT_DOUBLE_EQ(fl.pruned_coverage(), expect);
  EXPECT_GT(fl.pruned_coverage(), fl.raw_coverage());
  (void)rep;
}

TEST(Analyzer, Fig1ContainmentHolds) {
  // Fig. 1: structurally untestable ⊆ functionally untestable ⊆ on-line
  // functionally untestable, checked fault by fault. Structural is
  // untestable with full pin access (tie-cell redundancy); functional adds
  // the memory-map restriction, which binds mission operation even with
  // full DfT access; on-line adds the scan and debug restrictions.
  Case c;
  const Netlist& nl = c.soc->netlist;
  const StructuralAnalyzer sta(nl, *c.universe);
  FaultList structural(*c.universe), functional(*c.universe),
      online(*c.universe);
  const StaResult base = sta.analyze(MissionConfig{});
  sta.classify_faults(base, structural, OnlineSource::kStructural);
  sta.classify_faults(base, functional, OnlineSource::kStructural);
  sta.classify_faults(sta.analyze(memmap_config(nl, c.soc->map, 32)),
                      functional, OnlineSource::kMemoryMap);
  OnlineUntestabilityAnalyzer(*c.soc, *c.universe).run(online);
  EXPECT_EQ(structural.count_untestable(), 1443u);
  EXPECT_EQ(functional.count_untestable(), 3845u);
  EXPECT_EQ(online.count_untestable(), 11528u);
  const std::pair<const FaultList*, const FaultList*> inclusions[] = {
      {&structural, &functional}, {&functional, &online}};
  for (const auto& [inner, outer] : inclusions) {
    for (FaultId f = 0; f < c.universe->size(); ++f) {
      if (inner->untestable_kind(f) != UntestableKind::kNone) {
        ASSERT_NE(outer->untestable_kind(f), UntestableKind::kNone)
            << c.universe->fault_name(f);
      }
    }
  }
}

}  // namespace
}  // namespace olfui
