// Lane-word helpers, campaign thread invariance and the span width.
//
// The lane helpers must visit and count exactly the set lanes of every
// 64-bit word of the vector. Batches pushed through the campaign
// orchestrator must detect the same faults at any thread count, and the
// engine cuts every test into kLanes - 1 fault spans.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "fault/fault_list.hpp"
#include "fault/universe.hpp"
#include "fsim/fsim.hpp"
#include "netlist/netlist.hpp"
#include "sbst/sbst.hpp"
#include "sim/packed.hpp"
#include "util/lanes.hpp"
#include "util/rng.hpp"

namespace olfui {
namespace {

// ---------------------------------------------------------------------------
// Random netlist generation (the eventsim_test recipe): inputs and
// declared flops first so feedback paths exist, then a DAG of random
// gates, then outputs and the flop D connections.

struct RandomDesign {
  Netlist nl{"rand"};
  std::vector<NetId> input_nets;
  std::vector<CellId> output_cells;
};

RandomDesign random_design(Rng& rng, int n_inputs, int n_flops, int n_gates) {
  RandomDesign d;
  std::vector<NetId> nets;
  for (int i = 0; i < n_inputs; ++i) {
    const NetId n = d.nl.add_input("in" + std::to_string(i));
    d.input_nets.push_back(n);
    nets.push_back(n);
  }
  nets.push_back(d.nl.add_cell(CellType::kTie0, "u_t0", d.nl.add_net("t0"), {}));
  nets.push_back(d.nl.add_cell(CellType::kTie1, "u_t1", d.nl.add_net("t1"), {}));
  const NetId rstn = d.input_nets[0];

  std::vector<CellId> flops;
  for (int f = 0; f < n_flops; ++f) {
    const NetId q = d.nl.add_net("q" + std::to_string(f));
    const CellId cell =
        rng.next_bool()
            ? d.nl.add_cell(CellType::kDffR, "u_ff" + std::to_string(f), q,
                            {kInvalidId, rstn})
            : d.nl.add_cell(CellType::kDff, "u_ff" + std::to_string(f), q,
                            {kInvalidId});
    flops.push_back(cell);
    nets.push_back(q);
  }

  const CellType kGateTypes[] = {
      CellType::kBuf,   CellType::kNot,   CellType::kAnd2,  CellType::kAnd3,
      CellType::kOr2,   CellType::kOr3,   CellType::kNand2, CellType::kNor2,
      CellType::kXor2,  CellType::kXnor2, CellType::kMux2};
  for (int g = 0; g < n_gates; ++g) {
    const CellType t =
        kGateTypes[rng.next_below(sizeof kGateTypes / sizeof kGateTypes[0])];
    std::vector<NetId> ins(static_cast<std::size_t>(num_inputs(t)));
    for (NetId& in : ins) in = nets[rng.next_below(nets.size())];
    const NetId out = d.nl.add_net("g" + std::to_string(g));
    d.nl.add_cell(t, "u_g" + std::to_string(g), out, std::move(ins));
    nets.push_back(out);
  }
  for (CellId f : flops)
    d.nl.connect_input(f, 0, nets[rng.next_below(nets.size())]);
  for (int o = 0; o < 8; ++o)
    d.output_cells.push_back(d.nl.add_output(
        "out" + std::to_string(o), nets[rng.next_below(nets.size())]));

  EXPECT_TRUE(d.nl.validate().empty());
  return d;
}

/// Replays a fixed per-cycle stimulus (identical on all lanes), so every
/// pass of every engine sees the same test "program".
class ScriptedEnv : public FsimEnvironment {
 public:
  ScriptedEnv(const std::vector<NetId>& inputs,
               const std::vector<std::vector<bool>>& words)
      : inputs_(&inputs), words_(&words) {}
  void reset(PackedSim& sim) override {
    for (NetId in : *inputs_) sim.set_input_all(in, false);
    sim.eval();
  }
  bool step(PackedSim& sim, int cycle) override {
    if (cycle >= static_cast<int>(words_->size())) return false;
    const std::vector<bool>& w = (*words_)[static_cast<std::size_t>(cycle)];
    for (std::size_t i = 0; i < inputs_->size(); ++i)
      sim.set_input_all((*inputs_)[i], w[i]);
    sim.eval();
    return true;
  }

 private:
  const std::vector<NetId>* inputs_;
  const std::vector<std::vector<bool>>* words_;
};

TEST(LaneWidth, ForEachLaneVisitsSetLanesInOrder) {
  Rng rng(41);
  for (int round = 0; round < 16; ++round) {
    LaneWord mask{};
    for (int k = 0; k < kLaneWords; ++k)
      mask[k] = round == 0 ? 0 : rng.next_u64() & rng.next_u64();
    std::vector<int> want, got;
    for (int l = 0; l < kLanes; ++l)
      if (lane_test(mask, l)) want.push_back(l);
    for_each_lane(mask, [&](int l) { got.push_back(l); });
    EXPECT_EQ(got, want) << "round " << round;
    EXPECT_EQ(lane_count(mask), static_cast<int>(want.size()))
        << "round " << round;
  }
}

/// lane_uniform holds exactly for the two broadcast words: one differing
/// lane in any 64-bit word of the vector breaks it.
TEST(LaneWidth, LaneUniformAcceptsOnlyBroadcastWords) {
  EXPECT_TRUE(lane_uniform(LaneWord{}));
  EXPECT_TRUE(lane_uniform(~LaneWord{}));
  for (const int lane : {0, 1, 63, 64, 191, kLanes - 1}) {
    EXPECT_FALSE(lane_uniform(lane_bit(lane))) << lane;
    EXPECT_FALSE(lane_uniform(~lane_bit(lane))) << lane;
  }
}

/// Lane i + 1 is fault i: lanes_to_faults drops lane 0 and carries each
/// word's low lane into the mask word below.
TEST(LaneWidth, LanesToFaultsShiftsAcrossWords) {
  LaneWord lanes = lane_bit(0);
  for (const int lane : {1, 64, 65, 128, 192, kLanes - 1})
    lanes |= lane_bit(lane);
  LaneMask want;
  for (const int fault : {0, 63, 64, 127, 191, kLanes - 2})
    want.set_bit(fault);
  EXPECT_EQ(lanes_to_faults(lanes), want);
}

// ---------------------------------------------------------------------------
// Campaign-level thread invariance: batches flow through the engine's
// spans, its worker pool, and the multi-word mask merge.

class DesignBatchRunner final : public FaultBatchRunner {
 public:
  DesignBatchRunner(const RandomDesign& d, const FaultUniverse& u,
                    const std::vector<std::vector<bool>>& words)
      : env_(d.input_nets, words), fsim_(d.nl, u) {
    fsim_.set_observed(d.output_cells);
    trace_ =
        fsim_.record_reference_trace(env_, static_cast<int>(words.size()));
  }
  LaneMask run_batch(std::span<const FaultId> faults) override {
    return fsim_.run_batch(faults, env_, trace_);
  }

 private:
  ScriptedEnv env_;
  SequentialFaultSimulator fsim_;
  ReferenceTrace trace_;
};

CampaignTest make_design_test(const RandomDesign& d, const FaultUniverse& u,
                              const std::vector<std::vector<bool>>& words) {
  CampaignTest test;
  test.name = "rand";
  test.good_cycles = static_cast<int>(words.size());
  test.make_runner = [&d, &u, &words] {
    return std::make_unique<DesignBatchRunner>(d, u, words);
  };
  return test;
}

TEST(LaneWidth, CampaignDetectionsInvariantAcrossThreads) {
  Rng rng(41);
  RandomDesign d = random_design(rng, 6, 12, 90);
  const FaultUniverse u(d.nl);
  const int cycles = 20;
  std::vector<std::vector<bool>> words(static_cast<std::size_t>(cycles));
  for (auto& w : words) {
    w.resize(d.input_nets.size());
    for (std::size_t i = 0; i < w.size(); ++i) w[i] = rng.next_bool();
  }

  const std::vector<CampaignTest> tests{make_design_test(d, u, words)};
  BitVec expect_detected;
  for (const int threads : {1, 2, 4}) {
    FaultList fl(u);
    const CampaignResult r =
        CampaignEngine(u, {.threads = threads}).run(fl, tests);
    if (threads == 1) {
      expect_detected = r.detected;
      EXPECT_GT(r.total_new_detections, 0u);
    }
    EXPECT_EQ(r.detected, expect_detected) << threads << " threads";
  }
}

// ---------------------------------------------------------------------------
// The span width: the engine cuts every test into kLanes - 1 = 255 fault
// spans, the faults one packed pass grades.

/// The span sizes a test's runners were handed, across worker threads.
struct SpanLog {
  std::mutex mu;
  std::vector<std::size_t> sizes;
};

class RecordingRunner final : public FaultBatchRunner {
 public:
  RecordingRunner(std::unique_ptr<FaultBatchRunner> inner,
                  std::shared_ptr<SpanLog> log)
      : inner_(std::move(inner)), log_(std::move(log)) {}
  LaneMask run_batch(std::span<const FaultId> faults) override {
    {
      std::lock_guard lock(log_->mu);
      log_->sizes.push_back(faults.size());
    }
    return inner_->run_batch(faults);
  }

 private:
  std::unique_ptr<FaultBatchRunner> inner_;
  std::shared_ptr<SpanLog> log_;
};

/// `test` with every runner wrapped to log its span sizes into `log`.
CampaignTest recording(CampaignTest test, std::shared_ptr<SpanLog> log) {
  test.make_runner = [inner = std::move(test.make_runner), log]() {
    return std::make_unique<RecordingRunner>(inner(), log);
  };
  return test;
}

TEST(BatchBound, SbstTestsGradeInFullWidthSpans) {
  auto soc = build_soc({});
  auto suite = build_sbst_suite(soc->config);
  suite.erase(suite.begin() + 1, suite.end());  // alu_arith
  const FaultUniverse u(soc->netlist);
  const CampaignEngine engine(u, {.threads = 2, .target_limit = 600});
  std::vector<CampaignTest> tests =
      build_sbst_campaign_tests(*soc, suite, u, engine);
  ASSERT_EQ(tests.size(), 1u);

  auto log = std::make_shared<SpanLog>();
  tests[0] = recording(std::move(tests[0]), log);
  FaultList fl(u);
  const CampaignResult r = engine.run(fl, tests);
  const std::size_t graded = r.stats.faults_simulated;
  ASSERT_GT(graded, 255u);
  EXPECT_EQ(r.tests.at(0).batches, (graded + 254) / 255);
  // Every span but the last is a full 255-fault span.
  std::vector<std::size_t>& sizes = log->sizes;
  ASSERT_EQ(sizes.size(), r.tests.at(0).batches);
  EXPECT_EQ(*std::max_element(sizes.begin(), sizes.end()), 255u);
  EXPECT_EQ(std::count(sizes.begin(), sizes.end(), 255u),
            static_cast<std::ptrdiff_t>(graded / 255));
}

}  // namespace
}  // namespace olfui
