// Property-based sweeps (TEST_P) over randomized netlists.
//
// The central invariant of the whole methodology: whatever the structural
// engine classifies as untestable must be genuinely undetectable. On
// random combinational netlists this is checked against *exhaustive*
// pattern sets — a complete ground truth, not another heuristic.
#include <gtest/gtest.h>

#include <memory>

#include "atpg/podem.hpp"
#include "campaign/campaign.hpp"
#include "fault/fault_list.hpp"
#include "fault/tdf.hpp"
#include "fault/universe.hpp"
#include "fsim/fsim.hpp"
#include "netlist/wordops.hpp"
#include "sbst/sbst.hpp"
#include "sta/sta.hpp"
#include "scan/scan.hpp"
#include "util/rng.hpp"
#include "verilog/verilog.hpp"
#include "random_design.hpp"
#include "divergence_oracle.hpp"
#include "uncollapsed_campaign.hpp"

namespace olfui {
namespace {

constexpr int kNumInputs = 8;

struct RandomCombDesign {
  Netlist nl{"t"};
  std::vector<NetId> inputs;
  std::vector<CellId> outputs;
};

RandomCombDesign make_random_comb(std::uint64_t seed, int gates) {
  RandomCombDesign d;
  WordOps w(d.nl, "m");
  Rng rng(seed);
  std::vector<NetId> pool;
  for (int i = 0; i < kNumInputs; ++i) {
    d.inputs.push_back(d.nl.add_input("i" + std::to_string(i)));
    pool.push_back(d.inputs.back());
  }
  // A couple of tie cells make structural UT faults reachable.
  pool.push_back(w.lit(false));
  pool.push_back(w.lit(true));
  for (int g = 0; g < gates; ++g) {
    const CellType types[] = {CellType::kAnd2,  CellType::kOr2,
                              CellType::kXor2,  CellType::kNand2,
                              CellType::kNor2,  CellType::kXnor2,
                              CellType::kMux2,  CellType::kAnd3,
                              CellType::kOr3,   CellType::kNot,
                              CellType::kBuf};
    const CellType t = types[rng.next_below(11)];
    std::vector<NetId> ins;
    for (int k = 0; k < num_inputs(t); ++k)
      ins.push_back(pool[rng.next_below(pool.size())]);
    pool.push_back(w.gate(t, "g" + std::to_string(g), ins));
  }
  // Observe the last few cones.
  for (int o = 0; o < 3; ++o) {
    d.outputs.push_back(
        d.nl.add_output("o" + std::to_string(o), pool[pool.size() - 1 - o]));
  }
  return d;
}

/// Exhaustive detection over all 2^kNumInputs assignments, honouring tied
/// inputs (they keep their mission value in every pattern).
bool exhaustively_detected(const RandomCombDesign& d, const FaultUniverse& u,
                           FaultId f, const MissionConfig& cfg) {
  std::vector<std::pair<NetId, bool>> tied;
  for (auto [net, v] : cfg.constants) tied.emplace_back(net, v);
  std::vector<std::vector<std::pair<NetId, bool>>> block;
  std::vector<CellId> observed;
  std::vector<std::uint8_t> unobs(d.nl.num_cells(), 0);
  for (CellId c : cfg.unobserved_outputs) unobs[c] = 1;
  for (CellId c : d.outputs)
    if (!unobs[c]) observed.push_back(c);
  if (observed.empty()) return false;

  for (int v = 0; v < (1 << kNumInputs); ++v) {
    std::vector<std::pair<NetId, bool>> pat = tied;
    for (int i = 0; i < kNumInputs; ++i) {
      bool is_tied = false;
      for (auto [net, tv] : tied)
        if (net == d.inputs[static_cast<std::size_t>(i)]) is_tied = true;
      if (!is_tied)
        pat.emplace_back(d.inputs[static_cast<std::size_t>(i)], (v >> i) & 1);
    }
    block.push_back(std::move(pat));
    if (block.size() == 64) {
      if (comb_detects(d.nl, u, f, block, observed)) return true;
      block.clear();
    }
  }
  return !block.empty() && comb_detects(d.nl, u, f, block, observed);
}

MissionConfig random_mission(const RandomCombDesign& d, std::uint64_t seed) {
  Rng rng(seed * 977 + 13);
  MissionConfig cfg;
  for (NetId in : d.inputs)
    if (rng.next_below(3) == 0) cfg.tie(in, rng.next_bool());
  for (CellId out : d.outputs)
    if (rng.next_below(4) == 0) cfg.unobserve(out);
  return cfg;
}

class StaSoundness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StaSoundness, UntestableFaultsAreUndetectableExhaustively) {
  const std::uint64_t seed = GetParam();
  const RandomCombDesign d = make_random_comb(seed, 40);
  const FaultUniverse u(d.nl);
  const StructuralAnalyzer sta(d.nl, u);
  const MissionConfig cfg = random_mission(d, seed);
  FaultList fl(u);
  sta.classify_faults(sta.analyze(cfg), fl, OnlineSource::kScan);
  std::size_t checked = 0;
  for (FaultId f = 0; f < u.size(); ++f) {
    if (fl.untestable_kind(f) == UntestableKind::kNone) continue;
    ++checked;
    EXPECT_FALSE(exhaustively_detected(d, u, f, cfg))
        << "seed " << seed << ": " << u.fault_name(f) << " classified "
        << to_string(fl.untestable_kind(f)) << " but detectable";
  }
  EXPECT_GT(checked, 0u) << "seed " << seed;
}

TEST_P(StaSoundness, BaselineClassificationSoundWithFullAccess) {
  const std::uint64_t seed = GetParam();
  const RandomCombDesign d = make_random_comb(seed, 60);
  const FaultUniverse u(d.nl);
  const StructuralAnalyzer sta(d.nl, u);
  FaultList fl(u);
  sta.classify_faults(sta.analyze({}), fl, OnlineSource::kStructural);
  for (FaultId f = 0; f < u.size(); ++f) {
    if (fl.untestable_kind(f) == UntestableKind::kNone) continue;
    EXPECT_FALSE(exhaustively_detected(d, u, f, {}))
        << "seed " << seed << ": " << u.fault_name(f);
  }
}

TEST_P(StaSoundness, MoreRestrictionsNeverShrinkTheUntestableSet) {
  // Fig. 1 containment as a property: on-line untestable ⊇ untestable.
  const std::uint64_t seed = GetParam();
  const RandomCombDesign d = make_random_comb(seed, 50);
  const FaultUniverse u(d.nl);
  const StructuralAnalyzer sta(d.nl, u);
  FaultList base(u), mission(u);
  sta.classify_faults(sta.analyze({}), base, OnlineSource::kStructural);
  sta.classify_faults(sta.analyze(random_mission(d, seed)), mission,
                      OnlineSource::kScan);
  for (FaultId f = 0; f < u.size(); ++f) {
    if (base.untestable_kind(f) != UntestableKind::kNone) {
      EXPECT_NE(mission.untestable_kind(f), UntestableKind::kNone)
          << "seed " << seed << ": " << u.fault_name(f);
    }
  }
}

TEST_P(StaSoundness, PodemNeverFindsTestsForStaUntestables) {
  const std::uint64_t seed = GetParam();
  const RandomCombDesign d = make_random_comb(seed, 40);
  const FaultUniverse u(d.nl);
  const StructuralAnalyzer sta(d.nl, u);
  const MissionConfig cfg = random_mission(d, seed);
  FaultList fl(u);
  sta.classify_faults(sta.analyze(cfg), fl, OnlineSource::kScan);
  Podem podem(d.nl, u, {.backtrack_limit = 3000, .mission = &cfg});
  for (FaultId f = 0; f < u.size(); ++f) {
    if (fl.untestable_kind(f) == UntestableKind::kNone) continue;
    EXPECT_NE(podem.run(f).outcome, AtpgOutcome::kTestFound)
        << "seed " << seed << ": " << u.fault_name(f);
  }
}

TEST_P(StaSoundness, CollapsedClassesShareDetectability) {
  const std::uint64_t seed = GetParam();
  const RandomCombDesign d = make_random_comb(seed, 30);
  const FaultUniverse u(d.nl);
  const auto map = u.collapse_map();
  Rng rng(seed + 1);
  // For a sample of equivalence pairs, exhaustive detectability agrees.
  std::size_t pairs = 0;
  for (FaultId f = 0; f < u.size() && pairs < 12; ++f) {
    if (map[f] == f || rng.next_below(4) != 0) continue;
    ++pairs;
    EXPECT_EQ(exhaustively_detected(d, u, f, {}),
              exhaustively_detected(d, u, map[f], {}))
        << "seed " << seed << ": " << u.fault_name(f) << " vs "
        << u.fault_name(map[f]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StaSoundness,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                           12, 13, 14, 15, 16));

class PodemCompleteness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PodemCompleteness, VerdictMatchesExhaustiveSimulation) {
  // PODEM's testable/untestable verdicts agree with exhaustive ground
  // truth on every sampled fault (no false proofs in either direction).
  const std::uint64_t seed = GetParam();
  const RandomCombDesign d = make_random_comb(seed + 1000, 35);
  const FaultUniverse u(d.nl);
  Podem podem(d.nl, u, {.backtrack_limit = 50000});
  for (FaultId f = 0; f < u.size(); f += 5) {
    const AtpgResult r = podem.run(f);
    if (r.outcome == AtpgOutcome::kAborted) continue;  // honest, just slow
    EXPECT_EQ(r.outcome == AtpgOutcome::kTestFound,
              exhaustively_detected(d, u, f, {}))
        << "seed " << seed << ": " << u.fault_name(f);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PodemCompleteness,
                         ::testing::Values(21, 22, 23, 24, 25, 26, 27, 28));

// ---- sequential properties --------------------------------------------------

struct RandomSeqDesign {
  Netlist nl{"t"};
  std::vector<NetId> inputs;
  std::vector<CellId> outputs;
  NetId rstn = kInvalidId;
};

RandomSeqDesign make_random_seq(std::uint64_t seed, int gates, int flops) {
  RandomSeqDesign d;
  WordOps w(d.nl, "m");
  Rng rng(seed);
  d.rstn = d.nl.add_input("rstn");
  std::vector<NetId> pool;
  for (int i = 0; i < 5; ++i) {
    d.inputs.push_back(d.nl.add_input("i" + std::to_string(i)));
    pool.push_back(d.inputs.back());
  }
  // Declare flops up front so combinational logic can read them.
  std::vector<RegWord> regs;
  for (int f = 0; f < flops; ++f) {
    regs.push_back(w.reg_declare(1, "r" + std::to_string(f),
                                 rng.next_below(2) ? d.rstn : kInvalidId));
    pool.push_back(regs.back().q[0]);
  }
  for (int g = 0; g < gates; ++g) {
    const CellType types[] = {CellType::kAnd2, CellType::kOr2, CellType::kXor2,
                              CellType::kNand2, CellType::kNor2, CellType::kMux2,
                              CellType::kNot};
    const CellType t = types[rng.next_below(7)];
    std::vector<NetId> ins;
    for (int k = 0; k < num_inputs(t); ++k)
      ins.push_back(pool[rng.next_below(pool.size())]);
    pool.push_back(w.gate(t, "g" + std::to_string(g), ins));
  }
  for (auto& reg : regs) {
    Bus dnet{pool[rng.next_below(pool.size())]};
    w.reg_connect(reg, dnet);
  }
  for (int o = 0; o < 2; ++o)
    d.outputs.push_back(
        d.nl.add_output("o" + std::to_string(o), pool[pool.size() - 1 - o]));
  return d;
}

class SeqProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeqProperties, UntestableSetGrowsWithMissionRestrictions) {
  const std::uint64_t seed = GetParam();
  RandomSeqDesign d = make_random_seq(seed, 40, 6);
  ASSERT_TRUE(d.nl.validate().empty());
  const FaultUniverse u(d.nl);
  const StructuralAnalyzer sta(d.nl, u);
  Rng rng(seed + 5);
  MissionConfig small, big;
  for (NetId in : d.inputs) {
    if (rng.next_below(3) == 0) {
      const bool v = rng.next_bool();
      small.tie(in, v);
      big.tie(in, v);
    } else if (rng.next_below(2) == 0) {
      big.tie(in, rng.next_bool());
    }
  }
  big.unobserve(d.outputs[0]);
  FaultList fs(u), fb(u);
  sta.classify_faults(sta.analyze(small), fs, OnlineSource::kScan);
  sta.classify_faults(sta.analyze(big), fb, OnlineSource::kScan);
  for (FaultId f = 0; f < u.size(); ++f) {
    if (fs.untestable_kind(f) != UntestableKind::kNone) {
      EXPECT_NE(fb.untestable_kind(f), UntestableKind::kNone)
          << "seed " << seed << ": " << u.fault_name(f);
    }
  }
}

TEST_P(SeqProperties, ScanInsertionPreservesMissionBehaviour) {
  const std::uint64_t seed = GetParam();
  RandomSeqDesign ref = make_random_seq(seed, 35, 5);
  RandomSeqDesign dut = make_random_seq(seed, 35, 5);
  ScanConfig scfg;
  scfg.num_chains = 1 + static_cast<int>(seed % 3);
  scfg.buffers_per_link = static_cast<int>(seed % 2);
  const ScanChains chains = insert_scan(dut.nl, scfg);
  PackedSim a(ref.nl), b(dut.nl);
  a.power_on();
  b.power_on();
  b.set_input_all(chains.se_net, chains.se_functional_value);
  for (const ScanChain& c : chains.chains) b.set_input_all(c.scan_in_net, false);
  Rng rng(seed * 3 + 1);
  for (int cyc = 0; cyc < 25; ++cyc) {
    const bool rv = cyc > 1;
    for (std::size_t i = 0; i < ref.inputs.size(); ++i) {
      const bool v = rng.next_bool();
      a.set_input_all(ref.inputs[i], v);
      b.set_input_all(dut.inputs[i], v);
    }
    a.set_input_all(ref.rstn, rv);
    b.set_input_all(dut.rstn, rv);
    a.eval();
    b.eval();
    for (std::size_t o = 0; o < ref.outputs.size(); ++o) {
      ASSERT_EQ(lane_test(a.observed(ref.outputs[o]), 0), lane_test(b.observed(dut.outputs[o]), 0))
          << "seed " << seed << " cycle " << cyc << " output " << o;
    }
    a.clock();
    b.clock();
  }
}

TEST_P(SeqProperties, VerilogRoundTripPreservesSimulation) {
  const std::uint64_t seed = GetParam();
  RandomSeqDesign d = make_random_seq(seed, 30, 4);
  const Netlist back = parse_verilog(write_verilog(d.nl));
  ASSERT_TRUE(back.validate().empty());
  EXPECT_EQ(d.nl.stats().pins, back.stats().pins);
  PackedSim a(d.nl), b(back);
  a.power_on();
  b.power_on();
  Rng rng(seed + 77);
  for (int cyc = 0; cyc < 20; ++cyc) {
    for (CellId c : d.nl.input_cells()) {
      const bool v = rng.next_bool();
      a.set_input_all(d.nl.cell(c).out, v);
      b.set_input_all(back.find_input(d.nl.cell(c).name), v);
    }
    a.eval();
    b.eval();
    for (CellId oc : d.nl.output_cells()) {
      ASSERT_EQ(lane_test(a.observed(oc), 0),
                lane_test(b.observed(back.find_output(d.nl.cell(oc).name)), 0))
          << "seed " << seed << " cycle " << cyc;
    }
    a.clock();
    b.clock();
  }
}

TEST_P(SeqProperties, TransitionUntestablesIncludeStuckAtTied) {
  const std::uint64_t seed = GetParam();
  RandomSeqDesign d = make_random_seq(seed, 40, 6);
  const FaultUniverse u(d.nl);
  const StructuralAnalyzer sta(d.nl, u);
  Rng rng(seed ^ 0xBEEF);
  MissionConfig cfg;
  for (NetId in : d.inputs)
    if (rng.next_below(2) == 0) cfg.tie(in, rng.next_bool());
  const StaResult r = sta.analyze(cfg);
  FaultList sa(u), tdf(u);
  sta.classify_faults(r, sa, OnlineSource::kScan);
  sta.classify_transition_faults(r, tdf, OnlineSource::kScan);
  for (FaultId f = 0; f < u.size(); ++f) {
    if (sa.untestable_kind(f) == UntestableKind::kTied) {
      EXPECT_NE(tdf.untestable_kind(f), UntestableKind::kNone)
          << "seed " << seed << ": " << u.fault_name(f);
    }
  }
  EXPECT_GE(tdf.count_untestable(), sa.count_untestable()) << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeqProperties,
                         ::testing::Values(31, 32, 33, 34, 35, 36, 37, 38, 39,
                                           40, 41, 42));

// ---- equivalence-class collapsing ---------------------------------------------
// CampaignEngine::run grades one member per equivalence class of the fault
// model (collapse_map for stuck-at, tdf_collapse_map for TDF). On random
// sequential netlists, with random stimulus programs, their own activation
// screens and a randomly pruned fault list, it must mark exactly the
// faults the uncollapsed per-target grade marks, test by test, under
// either model.

/// One stimulus program over a random design, graded against the trace
/// its good machine records.
class ScriptedRunner final : public FaultBatchRunner {
 public:
  ScriptedRunner(const RandomDesign& d, const FaultUniverse& u,
                 const std::vector<std::vector<bool>>& words,
                 std::shared_ptr<const ReferenceTrace> trace, FaultModel model)
      : env_(d.input_nets, words),
        fsim_(d.nl, u),
        trace_(std::move(trace)),
        model_(model) {
    fsim_.set_observed(d.output_cells);
  }
  LaneMask run_batch(std::span<const FaultId> faults) override {
    return fsim_.run_batch(faults, env_, *trace_, model_);
  }

 private:
  ScriptedEnv env_;
  SequentialFaultSimulator fsim_;
  std::shared_ptr<const ReferenceTrace> trace_;
  FaultModel model_;
};

/// Records the good machine of program `words` over `d`, with its
/// activation in `act`.
std::shared_ptr<const ReferenceTrace> record_scripted(
    const RandomDesign& d, const FaultUniverse& u,
    const std::vector<std::vector<bool>>& words, NetActivation& act) {
  ScriptedEnv env(d.input_nets, words);
  SequentialFaultSimulator tracer(d.nl, u);
  tracer.set_observed(d.output_cells);
  return std::make_shared<const ReferenceTrace>(
      tracer.record_reference_trace(env, static_cast<int>(words.size()),
                                    &act));
}

/// The program as a campaign test graded against `trace`, with no screen.
CampaignTest scripted_grader(const RandomDesign& d, const FaultUniverse& u,
                             const std::vector<std::vector<bool>>& words,
                             std::shared_ptr<const ReferenceTrace> trace,
                             std::string name, FaultModel model) {
  CampaignTest test;
  test.name = std::move(name);
  test.make_runner = [&d, &u, &words, trace = std::move(trace), model]() {
    return std::make_unique<ScriptedRunner>(d, u, words, trace, model);
  };
  return test;
}

/// The program as a campaign test whose screen is the activation screen
/// of its good-machine run: a stuck-at fault whose site never leaves the
/// stuck value at any settle, or a transition fault whose site never
/// makes its transition.
CampaignTest scripted_test(const RandomDesign& d, const FaultUniverse& u,
                           const std::vector<std::vector<bool>>& words,
                           std::string name, FaultModel model) {
  NetActivation act;
  auto trace = record_scripted(d, u, words, act);
  BitVec inert(u.size());
  for (FaultId f = 0; f < u.size(); ++f) {
    const Fault& fault = u.fault(f);
    const std::vector<std::uint64_t>& active =
        model == FaultModel::kTransition
            ? (tdf_slow_to_rise(fault) ? act.rose : act.fell)
            : (fault.sa1 ? act.seen0 : act.seen1);
    if (!NetActivation::test(active, d.nl.pin_net(fault.pin)))
      inert.set(f, true);
  }
  CampaignTest test =
      scripted_grader(d, u, words, std::move(trace), std::move(name), model);
  test.screen = [inert = std::move(inert)] { return inert; };
  return test;
}

class CollapsedCampaign : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CollapsedCampaign, MatchesUncollapsedGrade) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  const RandomDesign d = random_design(rng, 6, 10, 80);
  const FaultUniverse u(d.nl);

  // Three programs of 16 random cycles each: the later ones grade what
  // the earlier ones left.
  std::vector<std::vector<std::vector<bool>>> programs(3);
  for (auto& words : programs) {
    words.resize(16);
    for (auto& w : words) {
      w.resize(d.input_nets.size());
      for (std::size_t i = 0; i < w.size(); ++i) w[i] = rng.next_bool();
    }
  }

  for (const FaultModel model :
       {FaultModel::kStuckAt, FaultModel::kTransition}) {
    std::vector<CampaignTest> tests;
    for (std::size_t p = 0; p < programs.size(); ++p)
      tests.push_back(
          scripted_test(d, u, programs[p], "p" + std::to_string(p), model));

    // Prune a third of the class roots and a tenth of the other faults, so
    // some classes grade through a member past their lowest id.
    const std::vector<FaultId> class_of = model == FaultModel::kStuckAt
                                              ? u.collapse_map()
                                              : u.tdf_collapse_map();
    FaultList pruned(u);
    for (FaultId f = 0; f < u.size(); ++f)
      if (rng.next_below(class_of[f] == f ? 3 : 10) == 0)
        pruned.mark_untestable(f, UntestableKind::kTied, OnlineSource::kScan);

    for (const std::size_t limit : {0u, 90u}) {
      const CampaignEngine engine(
          u, {.threads = 2, .fault_model = model, .target_limit = limit});
      FaultList collapsed = pruned, uncollapsed = pruned;
      const CampaignResult r = engine.run(collapsed, tests);
      const UncollapsedCampaign want =
          run_uncollapsed(engine, uncollapsed, tests);
      const std::string what = std::string(to_string(model)) + " seed " +
                               std::to_string(seed) + " limit " +
                               std::to_string(limit);
      // Transition classes are sparser: a 90-target slice of a design
      // this small may hold no two members of one.
      if (model == FaultModel::kStuckAt || limit == 0) {
        EXPECT_GT(r.stats.faults_collapsed, 0u) << what;
      }
      EXPECT_GT(r.total_new_detections, 0u) << what;
      EXPECT_EQ(r.detected, want.detected) << what;
      ASSERT_EQ(r.tests.size(), want.new_detections.size()) << what;
      for (std::size_t t = 0; t < r.tests.size(); ++t)
        EXPECT_EQ(r.tests[t].new_detections, want.new_detections[t])
            << what << " " << r.tests[t].name;
      for (FaultId f = 0; f < u.size(); ++f)
        if (pruned.untestable_kind(f) != UntestableKind::kNone)
          EXPECT_FALSE(r.detected.get(f)) << what << ": " << u.fault_name(f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CollapsedCampaign,
                         ::testing::Values(61, 62, 63, 64, 65, 66, 67, 68));

// ---- the trace-constant observability screen ----------------------------------
// unobservable_faults proves, under the nets one run held at a single value,
// that a fault's effect reaches no observed output. On random sequential
// netlists whose programs hold some inputs fixed, with only some outputs
// observed, each of its pin verdicts equals the sweep oracle's under the
// same constants, and no fault it drops is detected by the run under
// either model.

class TraceScreen : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TraceScreen, ProofMatchesTheOracleAndDropsNoDetectableFault) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  RandomDesign d = random_design(rng, 6, 10, 80);
  std::erase_if(d.output_cells, [&](CellId) { return rng.next_bool(); });
  if (d.output_cells.empty()) d.output_cells.push_back(d.nl.output_cells()[0]);
  const FaultUniverse u(d.nl);
  const StructuralAnalyzer sta(d.nl, u);
  const SweepObservabilityOracle oracle(d.nl);

  std::size_t dropped_active = 0;
  for (int p = 0; p < 3; ++p) {
    // Each input is held at a random value or toggles at random.
    std::vector<int> held(d.input_nets.size());
    for (int& h : held) h = static_cast<int>(rng.next_below(3)) - 1;
    std::vector<std::vector<bool>> words(20);
    for (auto& w : words) {
      w.resize(d.input_nets.size());
      for (std::size_t i = 0; i < w.size(); ++i)
        w[i] = held[i] < 0 ? rng.next_bool() : held[i] == 1;
    }
    NetActivation act;
    auto trace = record_scripted(d, u, words, act);
    const std::string what =
        "seed " + std::to_string(seed) + " program " + std::to_string(p);

    const StaResult r = sta.analyze_values(
        trace_constants(act, d.nl.num_nets()), d.output_cells);
    ObservabilityProver prover(sta, r);
    const BitVec unobservable = unobservable_faults(u, act, d.output_cells);
    for (FaultId f = 0; f < u.size(); f += 2) {
      const Pin pin = u.fault(f).pin;
      const bool proved = prover.possibly_observable(pin);
      ASSERT_EQ(proved, oracle.possibly_observable(r, pin))
          << what << " cell " << d.nl.cell(pin.cell).name << " pin "
          << int(pin.pin);
      ASSERT_EQ(unobservable.get(f), !proved) << what;
      ASSERT_EQ(unobservable.get(f + 1), !proved) << what;
    }

    for (const FaultModel model :
         {FaultModel::kStuckAt, FaultModel::kTransition}) {
      BitVec active = unobservable;
      active.subtract(inert_faults(u, act, model));
      dropped_active += active.count();
      std::vector<FaultId> ids;
      for (std::size_t f = unobservable.find_first(); f < unobservable.size();
           f = unobservable.find_next(f + 1))
        ids.push_back(static_cast<FaultId>(f));
      const CampaignTest test = scripted_grader(d, u, words, trace, "p", model);
      EXPECT_EQ(CampaignEngine(u, {.threads = 2}).grade(ids, test).count(), 0u)
          << what << " " << to_string(model);
    }
  }
  EXPECT_GT(dropped_active, 0u) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceScreen,
                         ::testing::Values(71, 72, 73, 74, 75, 76, 77, 78));

TEST(TraceScreenFlop, PowerOnValueKeepsAPathOpen) {
  // y = a | q, where q is a flop whose D is tied to 1: q shows its
  // power-on 0 in cycle 0 and 1 ever after. The ternary fixpoint calls q
  // constant 1 (the flop steady-state rule), which blocks the OR and makes
  // a's faults unobservable; yet in cycle 0 the OR passes a, and a s-a-1
  // flips y. The trace holds q at both values, so the screen keeps the
  // fault, and the campaign detects it.
  RandomDesign d;
  WordOps w(d.nl, "m");
  const NetId a = d.nl.add_input("a");
  d.input_nets.push_back(a);
  const NetId q = w.reg_word({w.lit(true)}, "ff").q[0];
  const NetId y = w.or2(a, q, "y");
  d.output_cells.push_back(d.nl.add_output("o", y));
  const FaultUniverse u(d.nl);
  const FaultId a_sa1 = u.id_of({d.nl.net(a).driver, 0}, true);

  const StructuralAnalyzer sta(d.nl, u);
  const StaResult ternary = sta.analyze({});
  EXPECT_EQ(ternary.net_value[q], Logic::V1);
  FaultList pruned(u);
  sta.classify_faults(ternary, pruned, OnlineSource::kStructural);
  EXPECT_EQ(pruned.untestable_kind(a_sa1), UntestableKind::kUnobservable);

  const std::vector<std::vector<bool>> words(4, std::vector<bool>{false});
  NetActivation act;
  auto trace = record_scripted(d, u, words, act);
  EXPECT_TRUE(NetActivation::test(act.seen0, q));
  EXPECT_TRUE(NetActivation::test(act.seen1, q));
  BitVec screen = inert_faults(u, act, FaultModel::kStuckAt);
  screen |= unobservable_faults(u, act, d.output_cells);
  EXPECT_FALSE(screen.get(a_sa1));

  CampaignTest test = scripted_grader(d, u, words, std::move(trace), "p",
                                      FaultModel::kStuckAt);
  test.screen = [screen] { return screen; };
  FaultList fl(u);
  const CampaignResult r =
      CampaignEngine(u, {.threads = 1}).run(fl, std::span(&test, 1));
  EXPECT_TRUE(r.detected.get(a_sa1));
}

}  // namespace
}  // namespace olfui
