#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>

#include "campaign/cache.hpp"
#include "campaign/campaign.hpp"
#include "campaign/json.hpp"
#include "campaign/report.hpp"
#include "campaign/worker_pool.hpp"
#include "fault/fault_list.hpp"
#include "fault/universe.hpp"
#include "fsim/fsim.hpp"
#include "netlist/wordops.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sbst/sbst.hpp"
#include "uncollapsed_campaign.hpp"

namespace olfui {
namespace {

// ---------------------------------------------------------------------------
// Rig: a 12-bit enabled counter. Big enough for several 255-fault
// shards (so the pool's participants actually share work), small enough
// for unit-test time.

class CounterEnv : public FsimEnvironment {
 public:
  explicit CounterEnv(NetId en) : en_(en) {}
  void reset(PackedSim& sim) override {
    sim.set_input_all(en_, false);
    sim.eval();
  }
  /// Drives only: the caller settles, so a batch replays the trace's
  /// frames.
  bool step(PackedSim& sim, int) override {
    sim.set_input_all(en_, true);
    return true;
  }

 private:
  NetId en_;
};

constexpr int kBits = 12;
constexpr int kCycles = 40;

struct CounterRig {
  Netlist nl{"t"};
  NetId en;
  RegWord cnt;
  std::vector<CellId> outputs;

  CounterRig() {
    WordOps w(nl, "m");
    en = nl.add_input("en");
    cnt = w.reg_declare(kBits, "cnt");
    const auto inc = w.add_word(cnt.q, w.constant(1, kBits), w.lit(false), "inc");
    const Bus d = w.mux_word(en, cnt.q, inc.sum, "d");
    w.reg_connect(cnt, d);
    for (int i = 0; i < kBits; ++i)
      outputs.push_back(nl.add_output("o" + std::to_string(i), cnt.q[i]));
  }
};

/// Per-worker runner over the rig; shares one recorded good trace.
class RigBatchRunner final : public FaultBatchRunner {
 public:
  RigBatchRunner(const CounterRig& rig, const FaultUniverse& u,
                 std::vector<CellId> observed,
                 std::shared_ptr<const ReferenceTrace> trace,
                 FaultModel model = FaultModel::kStuckAt)
      : env_(rig.en),
        fsim_(rig.nl, u),
        trace_(std::move(trace)),
        model_(model) {
    fsim_.set_observed(std::move(observed));
  }
  LaneMask run_batch(std::span<const FaultId> faults) override {
    return fsim_.run_batch(faults, env_, *trace_, model_);
  }

 private:
  CounterEnv env_;
  SequentialFaultSimulator fsim_;
  std::shared_ptr<const ReferenceTrace> trace_;
  FaultModel model_;
};

CampaignTest make_rig_test(const CounterRig& rig, const FaultUniverse& u,
                           std::vector<CellId> observed, std::string name,
                           FaultModel model = FaultModel::kStuckAt) {
  CounterEnv trace_env(rig.en);
  SequentialFaultSimulator tracer(rig.nl, u);
  tracer.set_observed(observed);
  auto trace = std::make_shared<const ReferenceTrace>(
      tracer.record_reference_trace(trace_env, kCycles));
  CampaignTest test;
  test.name = std::move(name);
  test.good_cycles = kCycles;
  test.make_runner = [&rig, &u, observed = std::move(observed),
                      trace = std::move(trace), model]() {
    return std::make_unique<RigBatchRunner>(rig, u, observed, trace, model);
  };
  return test;
}

/// Suite of two tests with growing observability, so the second test sees
/// faults the first one missed (exercises between-test fault dropping).
std::vector<CampaignTest> make_rig_suite(const CounterRig& rig,
                                         const FaultUniverse& u) {
  std::vector<CampaignTest> tests;
  tests.push_back(make_rig_test(
      rig, u,
      std::vector<CellId>(rig.outputs.begin(), rig.outputs.begin() + 4),
      "low_bits"));
  tests.push_back(make_rig_test(rig, u, rig.outputs, "all_bits"));
  return tests;
}

/// Enables the global tracer + metrics for one scope and restores the
/// disabled-and-empty state on exit (pass or fail), so observability
/// tests can never leak state into the rest of the suite.
struct ScopedObservability {
  ScopedObservability() {
    obs::tracer().set_enabled(true);
    obs::metrics().set_enabled(true);
  }
  ~ScopedObservability() {
    obs::tracer().set_enabled(false);
    obs::tracer().clear();
    obs::metrics().set_enabled(false);
    obs::metrics().reset_values();
  }
};

// ---------------------------------------------------------------------------
// WorkerPool

TEST(WorkerPool, RunsEveryParticipantAndReusesParkedThreads) {
  WorkerPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
  // Many dispatches through one pool: the scan-ATPG once-per-pattern shape.
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::uint64_t> mask{0};
    pool.run(4, [&](std::size_t w) {
      mask.fetch_or(1ULL << w, std::memory_order_relaxed);
    });
    EXPECT_EQ(mask.load(), 0xFULL) << round;
  }
  // Fewer participants than threads: only those indexes run.
  std::atomic<std::uint64_t> mask{0};
  pool.run(2, [&](std::size_t w) { mask.fetch_or(1ULL << w); });
  EXPECT_EQ(mask.load(), 0x3ULL);
}

TEST(WorkerPool, ClampsParticipantsAndSupportsZeroThreads) {
  WorkerPool inline_only(0);
  std::atomic<std::uint64_t> mask{0};
  // Clamped to size() + 1 == 1: everything runs on the caller.
  inline_only.run(8, [&](std::size_t w) { mask.fetch_or(1ULL << w); });
  EXPECT_EQ(mask.load(), 0x1ULL);
  inline_only.run(0, [&](std::size_t) { ADD_FAILURE() << "0 participants"; });
}

TEST(WorkerPool, PropagatesWorkerExceptionsToCaller) {
  WorkerPool pool(2);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      pool.run(3,
               [&](std::size_t w) {
                 if (w == 1) throw std::runtime_error("boom");
                 ++completed;
               }),
      std::runtime_error);
  EXPECT_EQ(completed.load(), 2);
  // The pool must still be usable after a failed job.
  std::atomic<std::uint64_t> mask{0};
  pool.run(3, [&](std::size_t w) { mask.fetch_or(1ULL << w); });
  EXPECT_EQ(mask.load(), 0x7ULL);
}

// ---------------------------------------------------------------------------
// Json

TEST(Json, RoundTripsDocument) {
  const std::string text =
      R"({"name":"campaign","count":42,"ratio":0.5,"ok":true,"none":null,)"
      R"("tags":["a","b\n\"c\""],"nested":{"x":-7}})";
  const Json doc = Json::parse(text);
  EXPECT_EQ(doc.at("name").as_string(), "campaign");
  EXPECT_EQ(doc.at("count").as_size(), 42u);
  EXPECT_DOUBLE_EQ(doc.at("ratio").as_number(), 0.5);
  EXPECT_TRUE(doc.at("ok").as_bool());
  EXPECT_TRUE(doc.at("none").is_null());
  EXPECT_EQ(doc.at("tags").size(), 2u);
  EXPECT_EQ(doc.at("tags").at(1).as_string(), "b\n\"c\"");
  EXPECT_EQ(doc.at("nested").at("x").as_int(), -7);
  // dump -> parse -> dump is a fixed point.
  const std::string once = doc.dump();
  EXPECT_EQ(Json::parse(once).dump(), once);
  const std::string pretty = doc.dump(2);
  EXPECT_EQ(Json::parse(pretty).dump(), once);
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(Json::parse("{"), JsonError);
  EXPECT_THROW(Json::parse("[1,]"), JsonError);
  EXPECT_THROW(Json::parse("{\"a\":1} trailing"), JsonError);
  EXPECT_THROW(Json::parse("\"unterminated"), JsonError);
  EXPECT_THROW(Json::parse("tru"), JsonError);
  EXPECT_THROW(Json::parse(""), JsonError);
  EXPECT_THROW(Json::parse("{\"a\"}"), JsonError);
  // Unbounded nesting must fail cleanly, not overflow the stack.
  EXPECT_THROW(Json::parse(std::string(100000, '[')), JsonError);
}

TEST(Json, MissingKeyAndKindMismatchThrow) {
  const Json doc = Json::parse(R"({"a":1})");
  EXPECT_THROW(doc.at("b"), JsonError);
  EXPECT_THROW(doc.at("a").as_string(), JsonError);
  EXPECT_THROW(doc.at(std::size_t{0}), JsonError);
  EXPECT_TRUE(doc.contains("a"));
  EXPECT_FALSE(doc.contains("b"));
}

TEST(Json, IntegerAccessorsRejectOutOfRangeValues) {
  // A corrupt import must throw, not hit UB in the double->int cast.
  EXPECT_THROW(Json::parse("-1").as_size(), JsonError);
  EXPECT_THROW(Json::parse("1e300").as_size(), JsonError);
  EXPECT_THROW(Json::parse("1.5").as_size(), JsonError);
  EXPECT_THROW(Json::parse("3000000000").as_int(), JsonError);
  EXPECT_THROW(Json::parse("-3000000000").as_int(), JsonError);
  EXPECT_EQ(Json::parse("9007199254740992").as_size(), 9007199254740992ull);
  EXPECT_EQ(Json::parse("-2147483648").as_int(), -2147483648);
  EXPECT_EQ(Json::parse("2147483647").as_int(), 2147483647);
}

TEST(BitVecHex, RoundTrips) {
  BitVec bits(131);
  for (std::size_t i = 0; i < bits.size(); i += 3) bits.set(i, true);
  bits.set(130, true);
  const std::string hex = bitvec_to_hex(bits);
  EXPECT_EQ(bitvec_from_hex(hex), bits);
  // Empty vector round-trips too.
  EXPECT_EQ(bitvec_from_hex(bitvec_to_hex(BitVec())), BitVec());
  EXPECT_THROW(bitvec_from_hex("12"), JsonError);
  EXPECT_THROW(bitvec_from_hex("65:00"), JsonError);
}

// ---------------------------------------------------------------------------
// ReferenceTrace checkpoint

TEST(ReferenceTrace, BatchesRejectATraceOfAnotherNetlist) {
  CounterRig rig;
  const FaultUniverse u(rig.nl);
  SequentialFaultSimulator fsim(rig.nl, u);
  fsim.set_observed(rig.outputs);
  CounterEnv env(rig.en);
  // Frame settles read one bit per net of the netlist: a trace of fewer
  // nets would be read past its end.
  ReferenceTrace other;
  other.reset(rig.nl.num_nets() / 2);
  const std::vector<std::uint64_t> words(other.columns.size(), 0);
  for (int c = 0; c < kCycles; ++c) other.append_cycle(words.data());
  const std::vector<FaultId> batch = {0, 1, 2};
  EXPECT_THROW(fsim.run_batch(batch, env, other), std::invalid_argument);
  EXPECT_THROW(fsim.run_batch(batch, env, other, FaultModel::kTransition),
               std::invalid_argument);
}

TEST(ReferenceTrace, ColumnRleMatchesReplayOnEveryNet) {
  CounterRig rig;
  const FaultUniverse u(rig.nl);
  SequentialFaultSimulator fsim(rig.nl, u);
  fsim.set_observed(rig.outputs);
  CounterEnv env(rig.en);
  const ReferenceTrace trace = fsim.record_reference_trace(env, kCycles);
  EXPECT_EQ(trace.cycles, kCycles);
  EXPECT_EQ(trace.num_nets, rig.nl.num_nets());
  ASSERT_EQ(trace.columns.size(), (rig.nl.num_nets() + 63) / 64);

  // Reference: replay the good machine and compare every net_bit readback.
  PackedSim sim(rig.nl);
  sim.power_on();
  env.reset(sim);
  for (int cycle = 0; cycle < trace.cycles; ++cycle) {
    ASSERT_TRUE(env.step(sim, cycle));
    sim.eval();
    for (NetId n = 0; n < rig.nl.num_nets(); ++n)
      ASSERT_EQ(trace.net_bit(cycle, n), (lane_test(sim.value(n), 0)) != 0)
          << "cycle " << cycle << " net " << n;
    sim.clock();
  }
  // Column RLE: a column never stores more runs than cycles, and the
  // quiet columns (high counter bits, constant nets) collapse.
  EXPECT_LE(trace.run_count(),
            static_cast<std::size_t>(trace.cycles) * trace.columns.size());
  EXPECT_GT(trace.run_count(), 0u);
}

/// The message of the std::out_of_range `f` throws ("" if none).
template <typename F>
std::string out_of_range_message(F f) {
  try {
    f();
  } catch (const std::out_of_range& e) {
    return e.what();
  }
  return "";
}

TEST(ReferenceTrace, NetBitRejectsCyclesOutsideTheTrace) {
  // A zero-cycle trace has no run to read; past the last cycle there is
  // no value either.
  ReferenceTrace empty;
  empty.reset(100);
  const std::string msg = out_of_range_message([&] { empty.net_bit(0, 7); });
  EXPECT_NE(msg.find("cycle 0"), std::string::npos) << msg;
  EXPECT_NE(msg.find("net 7"), std::string::npos) << msg;
  const std::string net_msg =
      out_of_range_message([&] { empty.net_bit(0, 128); });
  EXPECT_NE(net_msg.find("net 128"), std::string::npos) << net_msg;

  CounterRig rig;
  const FaultUniverse u(rig.nl);
  SequentialFaultSimulator fsim(rig.nl, u);
  CounterEnv env(rig.en);
  const ReferenceTrace trace = fsim.record_reference_trace(env, kCycles);
  EXPECT_NO_THROW(trace.net_bit(kCycles - 1, 0));
  EXPECT_THROW(trace.net_bit(kCycles, 0), std::out_of_range);
  EXPECT_THROW(trace.net_bit(-1, 0), std::out_of_range);
  EXPECT_THROW(trace.net_bit(0, static_cast<NetId>(trace.num_nets)),
               std::out_of_range);
}

TEST(ReferenceTrace, ActivationMatchesReplayAndFoldsInTheResetPhase) {
  CounterRig rig;
  const FaultUniverse u(rig.nl);
  SequentialFaultSimulator fsim(rig.nl, u);
  CounterEnv env(rig.en);
  NetActivation act;
  const ReferenceTrace trace = fsim.record_reference_trace(env, kCycles, &act);
  const NetActivation traced = trace.activation();

  for (NetId n = 0; n < rig.nl.num_nets(); ++n) {
    bool seen[2] = {false, false}, rose = false, fell = false;
    for (int c = 0; c < trace.cycles; ++c) {
      const bool v = trace.net_bit(c, n);
      seen[v] = true;
      if (c == 0) continue;
      const bool prev = trace.net_bit(c - 1, n);
      rose |= !prev && v;
      fell |= prev && !v;
    }
    ASSERT_EQ(NetActivation::test(traced.seen0, n), seen[0]) << "net " << n;
    ASSERT_EQ(NetActivation::test(traced.seen1, n), seen[1]) << "net " << n;
    ASSERT_EQ(NetActivation::test(traced.rose, n), rose) << "net " << n;
    ASSERT_EQ(NetActivation::test(traced.fell, n), fell) << "net " << n;
    // The reset phase only adds values.
    if (seen[0]) ASSERT_TRUE(NetActivation::test(act.seen0, n)) << n;
    if (seen[1]) ASSERT_TRUE(NetActivation::test(act.seen1, n)) << n;
  }
  // Transitions are the trace's alone.
  EXPECT_EQ(act.rose, traced.rose);
  EXPECT_EQ(act.fell, traced.fell);
  // The enable input is low only during reset: only the reset-phase
  // samples see it at 0.
  EXPECT_FALSE(NetActivation::test(traced.seen0, rig.en));
  EXPECT_TRUE(NetActivation::test(act.seen0, rig.en));

  // OR-ing two runs' summaries is per bit; an empty summary takes the
  // first one whole, and a summary of another net count is refused.
  NetActivation both;
  both |= traced;
  EXPECT_EQ(both.seen0, traced.seen0);
  both |= act;
  for (std::size_t w = 0; w < both.seen0.size(); ++w) {
    EXPECT_EQ(both.seen0[w], traced.seen0[w] | act.seen0[w]) << w;
    EXPECT_EQ(both.seen1[w], traced.seen1[w] | act.seen1[w]) << w;
  }
  EXPECT_TRUE(NetActivation::test(both.seen0, rig.en));
  NetActivation wider = traced;
  wider.seen0.push_back(0);
  EXPECT_THROW(both |= wider, std::invalid_argument);
}

// ---------------------------------------------------------------------------
// CampaignEngine

TEST(Campaign, SingleAndMultiThreadResultsAreIdentical) {
  CounterRig rig;
  const FaultUniverse u(rig.nl);
  ASSERT_GT(u.size(), 2u * (kLanes - 1)) << "rig too small to shard";
  const std::vector<CampaignTest> tests = make_rig_suite(rig, u);

  FaultList fl1(u);
  const CampaignResult r1 =
      CampaignEngine(u, {.threads = 1}).run(fl1, tests);
  FaultList fl4(u);
  const CampaignResult r4 =
      CampaignEngine(u, {.threads = 4}).run(fl4, tests);

  EXPECT_GT(r1.total_new_detections, 0u);
  EXPECT_EQ(r1, r4);  // bit-identical deterministic payload
  EXPECT_EQ(r1.detected, r4.detected);
  EXPECT_EQ(r1.stats.threads, 1);
  EXPECT_EQ(r4.stats.threads, 4);
  for (FaultId f = 0; f < u.size(); ++f)
    ASSERT_EQ(fl1.detect_state(f), fl4.detect_state(f)) << f;
}

TEST(Campaign, EveryShardGradedExactlyOnce) {
  // 25,503 targets in 255-fault spans: 101 shards, the last holding 3
  // faults.
  // The kernel counts its calls by each span's first target and its
  // grades by target, so a shard graded twice or never, or spans that
  // overlap or leave a gap, show at every participant count, the uneven
  // last round of 3 participants included. It detects every id divisible
  // by 3, and the ids are the target positions, so the merge must put
  // each lane's verdict back on its own target. grade() hands the ids to
  // the kernel only, so they need not be the universe's.
  CounterRig rig;
  const FaultUniverse u(rig.nl);
  constexpr std::size_t kSpan = kLanes - 1;
  std::vector<FaultId> targets(100 * kSpan + 3);
  std::iota(targets.begin(), targets.end(), 0u);
  std::vector<std::atomic<int>> calls(targets.size()), graded(targets.size());
  const CampaignTest test = make_function_test(
      "counted", [&calls, &graded](std::span<const FaultId> faults) {
        calls[faults.front()].fetch_add(1, std::memory_order_relaxed);
        LaneMask mask;
        for (std::size_t i = 0; i < faults.size(); ++i) {
          graded[faults[i]].fetch_add(1, std::memory_order_relaxed);
          if (faults[i] % 3 == 0) mask.set_bit(static_cast<int>(i));
        }
        return mask;
      });
  BitVec first;
  for (const int threads : {1, 3, 4}) {
    for (std::atomic<int>& c : calls) c.store(0);
    for (std::atomic<int>& g : graded) g.store(0);
    const BitVec det =
        CampaignEngine(u, {.threads = threads}).grade(targets, test);
    for (std::size_t f = 0; f < calls.size(); ++f) {
      ASSERT_EQ(calls[f].load(), f % kSpan == 0 ? 1 : 0)
          << "target " << f << " at " << threads << " threads";
      ASSERT_EQ(graded[f].load(), 1)
          << "target " << f << " at " << threads << " threads";
      ASSERT_EQ(det.get(f), f % 3 == 0)
          << "target " << f << " at " << threads << " threads";
    }
    if (threads == 1) {
      first = det;
      EXPECT_EQ(first.count(), (targets.size() + 2) / 3);
    } else {
      EXPECT_EQ(det, first) << threads << " threads";
    }
  }
}

TEST(Campaign, SharedEngineGradesConcurrently) {
  // A const engine is safe to share across threads: two threads grade
  // through one 4-thread engine at once (their grades serialize onto the
  // engine's one pool), and every grade equals the 1-thread grade.
  CounterRig rig;
  const FaultUniverse u(rig.nl);
  const std::vector<CampaignTest> tests = make_rig_suite(rig, u);
  std::vector<FaultId> targets(u.size());
  std::iota(targets.begin(), targets.end(), 0u);
  const CampaignEngine serial(u, {.threads = 1});
  const BitVec expected[2] = {serial.grade(targets, tests[0]),
                              serial.grade(targets, tests[1])};
  ASSERT_GT(expected[0].count(), 0u);

  const CampaignEngine shared(u, {.threads = 4});
  constexpr int kRounds = 4;
  BitVec got[2][kRounds];
  const auto grader = [&](int t) {
    for (int r = 0; r < kRounds; ++r)
      got[t][r] = shared.grade(targets, tests[(t + r) % 2]);
  };
  std::thread a(grader, 0);
  std::thread b(grader, 1);
  a.join();
  b.join();
  for (int t = 0; t < 2; ++t)
    for (int r = 0; r < kRounds; ++r)
      EXPECT_EQ(got[t][r], expected[(t + r) % 2])
          << "thread " << t << " round " << r;
}

TEST(Campaign, FaultDroppingMatchesNoDropBaseline) {
  CounterRig rig;
  const FaultUniverse u(rig.nl);
  const std::vector<CampaignTest> tests = make_rig_suite(rig, u);
  const CampaignEngine engine(u, {.threads = 2});

  FaultList drop(u);
  const CampaignResult rd = engine.run(drop, tests);

  // The no-drop baseline: every test grades every testable fault (all of
  // them, on a fresh list); a test's new detections are the ones no
  // earlier test made.
  std::vector<FaultId> all(u.size());
  std::iota(all.begin(), all.end(), 0u);
  BitVec keep(u.size());
  std::vector<std::size_t> keep_new;
  for (const CampaignTest& test : tests) {
    const BitVec det = engine.grade(all, test);
    std::size_t fresh = 0;
    for (std::size_t f = det.find_first(); f < det.size();
         f = det.find_next(f + 1)) {
      if (!keep.get(f)) ++fresh;
      keep.set(f, true);
    }
    keep_new.push_back(fresh);
  }

  // Dropping changes only how much work is done, never the outcome.
  EXPECT_EQ(rd.detected, keep);
  EXPECT_EQ(rd.total_new_detections, keep.count());
  ASSERT_EQ(rd.tests.size(), keep_new.size());
  for (std::size_t i = 0; i < rd.tests.size(); ++i)
    EXPECT_EQ(rd.tests[i].new_detections, keep_new[i]) << i;
  // The second test's queue shrank by the first test's detections.
  EXPECT_EQ(rd.tests[1].faults_targeted,
            all.size() - rd.tests[0].new_detections);
  EXPECT_LT(rd.stats.faults_simulated, tests.size() * all.size());
}

TEST(Campaign, MarksFaultListAndSkipsUntestable) {
  CounterRig rig;
  const FaultUniverse u(rig.nl);
  FaultList fl(u);
  const FaultId skip = u.id_of({rig.cnt.flops[0], 0}, false);
  fl.mark_untestable(skip, UntestableKind::kTied, OnlineSource::kMemoryMap);
  const std::vector<CampaignTest> tests = make_rig_suite(rig, u);
  const CampaignResult r = CampaignEngine(u, {.threads = 2}).run(fl, tests);
  EXPECT_GT(r.total_new_detections, 0u);
  EXPECT_EQ(fl.detect_state(skip), DetectState::kUndetected);
  EXPECT_EQ(fl.count_detected(), r.total_new_detections);
  EXPECT_EQ(r.detected.count(), r.total_new_detections);
  // Idempotent: nothing new on a second run.
  const CampaignResult again =
      CampaignEngine(u, {.threads = 2}).run(fl, tests);
  EXPECT_EQ(again.total_new_detections, 0u);
}

TEST(Campaign, ReportsClassCoverage) {
  CounterRig rig;
  const FaultUniverse u(rig.nl);
  FaultList fl(u);
  const std::vector<CampaignTest> tests = make_rig_suite(rig, u);
  const CampaignResult r = CampaignEngine(u, {.threads = 1}).run(fl, tests);

  std::size_t sa_total = 0;
  bool saw_sa0 = false, saw_sa1 = false, saw_module = false;
  for (const auto& cc : r.classes) {
    if (cc.name == "sa0") { saw_sa0 = true; sa_total += cc.total; }
    if (cc.name == "sa1") { saw_sa1 = true; sa_total += cc.total; }
    if (cc.name.starts_with("module:")) saw_module = true;
    EXPECT_LE(cc.detected, cc.total) << cc.name;
  }
  EXPECT_TRUE(saw_sa0);
  EXPECT_TRUE(saw_sa1);
  EXPECT_TRUE(saw_module);
  EXPECT_EQ(sa_total, u.size());
}

TEST(Campaign, ProgressCoversEveryTargetedFault) {
  CounterRig rig;
  const FaultUniverse u(rig.nl);
  FaultList fl(u);
  const std::vector<CampaignTest> tests = make_rig_suite(rig, u);
  std::map<std::string, std::size_t> last_done, totals;
  const CampaignResult r =
      CampaignEngine(u, {.threads = 4})
          .run(fl, tests,
               [&](const std::string& name, std::size_t done,
                   std::size_t total) {
                 last_done[name] = std::max(last_done[name], done);
                 totals[name] = total;
               });
  ASSERT_EQ(last_done.size(), 2u);
  // Progress counts the graded class representatives: each test's last
  // call reaches its total, the totals add up to the pairs graded, and
  // the collapsed members make up the rest of the targets.
  std::size_t graded = 0, targeted = 0;
  for (const auto& pt : r.tests) {
    EXPECT_EQ(last_done[pt.name], totals[pt.name]) << pt.name;
    graded += totals[pt.name];
    targeted += pt.faults_targeted;
  }
  EXPECT_EQ(graded, r.stats.faults_simulated);
  EXPECT_EQ(r.stats.faults_screened, 0u);  // the rig has no screen
  EXPECT_EQ(targeted, r.stats.faults_simulated + r.stats.faults_collapsed);
  EXPECT_EQ(r.tests.at(0).faults_targeted, 534u);
  EXPECT_EQ(r.tests.at(1).faults_targeted, 406u);
  EXPECT_EQ(totals["low_bits"], 366u);
  EXPECT_EQ(totals["all_bits"], 275u);
}

TEST(Campaign, RunScreensInertFaultsAfterTheTargetSlice) {
  // The engine trusts CampaignTest::screen: every third fault is
  // screened, and neither it nor any member of its equivalence class may
  // reach a batch. The slice is taken first, so the first 100 ids stay the
  // targets. They fall into 89 classes: 34 hold a screened target and are
  // dropped, 55 are graded through their lowest id, and the other 11
  // targets are collapsed onto those.
  CounterRig rig;
  const FaultUniverse u(rig.nl);
  CampaignTest test = make_rig_test(rig, u, rig.outputs, "all_bits");
  BitVec inert(u.size());
  for (FaultId f = 0; f < u.size(); f += 3) inert.set(f, true);
  test.screen = [inert] { return inert; };

  ScopedObservability guard;
  FaultList fl(u);
  std::size_t last_done = 0, last_total = 0;
  const CampaignResult r =
      CampaignEngine(u, {.threads = 2, .target_limit = 100})
          .run(fl, std::span(&test, 1),
               [&](const std::string&, std::size_t done, std::size_t total) {
                 last_done = std::max(last_done, done);
                 last_total = total;
               });
  ASSERT_EQ(r.tests.size(), 1u);
  EXPECT_EQ(r.tests[0].faults_targeted, 100u);
  EXPECT_EQ(r.stats.faults_screened, 34u);
  EXPECT_EQ(r.stats.faults_simulated, 55u);
  EXPECT_EQ(r.stats.faults_collapsed, 11u);
  EXPECT_EQ(r.tests[0].batches, 1u);  // 55 graded pairs in spans of 255
  EXPECT_EQ(last_done, 55u);          // progress counts graded pairs
  EXPECT_EQ(last_total, 55u);
  std::size_t plan_screened = 0, plan_collapsed = 0;
  for (const obs::TraceEvent& ev : obs::tracer().drain())
    if (ev.name == "plan")
      for (const auto& [key, value] : ev.args) {
        if (key == "screened") plan_screened += value.as_size();
        if (key == "collapsed") plan_collapsed += value.as_size();
      }
  EXPECT_EQ(plan_screened, 34u);
  EXPECT_EQ(plan_collapsed, 11u);

  // The same counts, derived from the collapse map: a class is screened
  // if any of its targets is.
  const std::vector<FaultId> class_of = u.collapse_map();
  std::set<FaultId> classes, screened;
  for (FaultId f = 0; f < 100; ++f) {
    classes.insert(class_of[f]);
    if (inert.get(f)) screened.insert(class_of[f]);
  }
  EXPECT_EQ(screened.size(), r.stats.faults_screened);
  EXPECT_EQ(classes.size() - screened.size(), r.stats.faults_simulated);

  // Every target outside a screened class, graded in its own lane by the
  // uncollapsed primitive, detects exactly what the run detected; the
  // screened classes stay undetected.
  std::vector<FaultId> graded;
  for (FaultId f = 0; f < 100; ++f)
    if (!screened.contains(class_of[f])) graded.push_back(f);
  const BitVec det = CampaignEngine(u, {.threads = 2}).grade(graded, test);
  BitVec expected(u.size());
  for (std::size_t i = 0; i < graded.size(); ++i)
    if (det.get(i)) expected.set(graded[i], true);
  EXPECT_GT(expected.count(), 0u);
  EXPECT_EQ(r.detected, expected);
}

TEST(Campaign, CollapsingGradesPastPrunedMembersAndNeverMarksThem) {
  // A class whose two lowest ids the analyzer pruned still grades, through
  // its third member, and its detection reaches every unpruned member
  // but neither pruned one.
  CounterRig rig;
  const FaultUniverse u(rig.nl);
  const std::vector<CampaignTest> tests = make_rig_suite(rig, u);
  const CampaignEngine engine(u, {.threads = 2});
  FaultList reference(u);
  const CampaignResult full = engine.run(reference, tests);
  const std::vector<FaultId> class_of = u.collapse_map();
  std::map<FaultId, std::vector<FaultId>> members;
  for (FaultId f = 0; f < u.size(); ++f) members[class_of[f]].push_back(f);
  const std::vector<FaultId>* cls = nullptr;
  for (const auto& [root, m] : members)
    if (m.size() >= 4 && full.detected.get(root)) {
      cls = &m;
      break;
    }
  ASSERT_NE(cls, nullptr) << "no detected class with four members";

  FaultList fl(u), oracle(u);
  for (FaultList* list : {&fl, &oracle})
    for (const FaultId f : {(*cls)[0], (*cls)[1]})
      list->mark_untestable(f, UntestableKind::kTied, OnlineSource::kScan);
  const CampaignResult r = engine.run(fl, tests);
  for (std::size_t i = 0; i < cls->size(); ++i) {
    const FaultId f = (*cls)[i];
    EXPECT_EQ(r.detected.get(f), i >= 2) << u.fault_name(f);
    EXPECT_EQ(fl.untestable_kind(f) != UntestableKind::kNone, i < 2)
        << u.fault_name(f);
  }
  // No pruned fault anywhere is marked, and the run matches the
  // uncollapsed grade of the same pruned list.
  for (FaultId f = 0; f < u.size(); ++f)
    if (fl.untestable_kind(f) != UntestableKind::kNone)
      EXPECT_FALSE(r.detected.get(f)) << u.fault_name(f);
  EXPECT_EQ(r.detected, run_uncollapsed(engine, oracle, tests).detected);
}

TEST(Campaign, ResultJsonRoundTrips) {
  CounterRig rig;
  const FaultUniverse u(rig.nl);
  FaultList fl(u);
  const std::vector<CampaignTest> tests = make_rig_suite(rig, u);
  const CampaignResult r = CampaignEngine(u, {.threads = 2}).run(fl, tests);

  const std::string json = campaign_result_to_json_string(r);
  const CampaignResult back = campaign_result_from_json_string(json);
  EXPECT_EQ(back, r);  // deterministic payload
  EXPECT_EQ(back.detected, r.detected);
  // Runtime stats travel too (compared manually: operator== skips them).
  EXPECT_EQ(back.stats.threads, r.stats.threads);
  EXPECT_EQ(back.stats.batches, r.stats.batches);
  EXPECT_EQ(back.stats.faults_simulated, r.stats.faults_simulated);
  EXPECT_DOUBLE_EQ(back.stats.wall_seconds, r.stats.wall_seconds);
  // Compact and pretty dumps parse to the same document.
  EXPECT_EQ(campaign_result_from_json_string(
                campaign_result_to_json(r).dump(0)),
            r);
}

TEST(Campaign, TransitionModelLabelsClassesAndRoundTrips) {
  CounterRig rig;
  const FaultUniverse u(rig.nl);
  FaultList fl(u);
  std::vector<CampaignTest> tests;
  tests.push_back(make_rig_test(rig, u, rig.outputs, "tdf_all_bits",
                                FaultModel::kTransition));
  const CampaignResult r =
      CampaignEngine(u, {.threads = 2, .fault_model = FaultModel::kTransition})
          .run(fl, tests);
  EXPECT_EQ(r.fault_model, FaultModel::kTransition);
  EXPECT_GT(r.total_new_detections, 0u);

  // Polarity classes carry transition labels; the stuck-at ones are gone.
  std::size_t tdf_total = 0;
  bool saw_str = false, saw_stf = false;
  for (const auto& cc : r.classes) {
    EXPECT_NE(cc.name, "sa0");
    EXPECT_NE(cc.name, "sa1");
    if (cc.name == "str") { saw_str = true; tdf_total += cc.total; }
    if (cc.name == "stf") { saw_stf = true; tdf_total += cc.total; }
  }
  EXPECT_TRUE(saw_str);
  EXPECT_TRUE(saw_stf);
  EXPECT_EQ(tdf_total, u.size());

  // The model travels through the JSON report and back.
  const CampaignResult back =
      campaign_result_from_json_string(campaign_result_to_json_string(r));
  EXPECT_EQ(back, r);
  EXPECT_EQ(back.fault_model, FaultModel::kTransition);

  // Unknown model strings are a malformed document, not a silent default,
  // and so is a document that names no model.
  Json doc = campaign_result_to_json(r);
  Json no_model = Json::object();
  for (std::size_t i = 0; i < doc.size(); ++i)
    if (doc.key(i) != "fault_model") no_model.set(doc.key(i), doc.value(i));
  EXPECT_THROW(campaign_result_from_json(no_model), JsonError);
  doc.set("fault_model", "bogus");
  EXPECT_THROW(campaign_result_from_json(doc), JsonError);
}

TEST(Campaign, UntestableTransitionFaultsAreSkipped) {
  // A fault pruned by classify_transition_faults-style marking never
  // reaches a TDF batch: the engine's target selection is model-agnostic.
  CounterRig rig;
  const FaultUniverse u(rig.nl);
  FaultList fl(u);
  const FaultId skip0 = u.id_of({rig.cnt.flops[1], 0}, false);
  const FaultId skip1 = u.id_of({rig.cnt.flops[1], 0}, true);
  fl.mark_untestable(skip0, UntestableKind::kTied, OnlineSource::kStructural);
  fl.mark_untestable(skip1, UntestableKind::kTied, OnlineSource::kStructural);
  std::vector<CampaignTest> tests;
  tests.push_back(make_rig_test(rig, u, rig.outputs, "tdf",
                                FaultModel::kTransition));
  const CampaignResult r =
      CampaignEngine(u, {.threads = 2, .fault_model = FaultModel::kTransition})
          .run(fl, tests);
  EXPECT_GT(r.total_new_detections, 0u);
  EXPECT_EQ(fl.detect_state(skip0), DetectState::kUndetected);
  EXPECT_EQ(fl.detect_state(skip1), DetectState::kUndetected);
  EXPECT_FALSE(r.detected.get(skip0));
  EXPECT_FALSE(r.detected.get(skip1));
}

TEST(Campaign, ShardTimingsCoverEveryShardAtEveryThreadCount) {
  // The report's timing layout: one strictly positive wall time per
  // shard, at every thread count. The stronger property — slot s holds
  // shard s's time, not the s-th completion (grade() writes
  // timings[shard], see campaign.cpp) — is not assertable from the
  // values without a load-sensitive duration probe, which is exactly the
  // kind of check this suite bans; this test pins the layout's shape so
  // a completion-order append that drops or double-writes slots fails.
  CounterRig rig;
  const FaultUniverse u(rig.nl);
  const std::vector<CampaignTest> tests = make_rig_suite(rig, u);
  for (const int threads : {1, 4}) {
    FaultList fl(u);
    const CampaignResult r =
        CampaignEngine(u, {.threads = threads}).run(fl, tests);
    std::size_t shards = 0;
    for (const auto& pt : r.tests) shards += pt.batches;
    ASSERT_EQ(r.stats.shard_seconds.size(), shards) << threads;
    for (std::size_t s = 0; s < shards; ++s)
      EXPECT_GT(r.stats.shard_seconds[s], 0.0)
          << "threads " << threads << " shard " << s;
  }
}

TEST(Campaign, WallSecondsBoundsTheShardTimes) {
  // RuntimeStats.wall_seconds is a sum of per-test monotonic clock pairs
  // bracketing grade(); every shard window nests inside one of those
  // pairs, so with one thread the shard times are disjoint sub-intervals
  // and can never sum past the wall time. This is a structural nesting
  // invariant, not a duration claim — it holds at any machine load.
  CounterRig rig;
  const FaultUniverse u(rig.nl);
  const std::vector<CampaignTest> tests = make_rig_suite(rig, u);
  FaultList fl(u);
  const CampaignResult r = CampaignEngine(u, {.threads = 1}).run(fl, tests);
  EXPECT_GT(r.stats.wall_seconds, 0.0);
  std::size_t shards = 0;
  for (const auto& pt : r.tests) shards += pt.batches;
  ASSERT_EQ(r.stats.shard_seconds.size(), shards);
  double sum = 0.0;
  for (double s : r.stats.shard_seconds) {
    EXPECT_GE(s, 0.0);
    sum += s;
  }
  EXPECT_LE(sum, r.stats.wall_seconds + 1e-9);
}

TEST(Campaign, TracingOnLeavesResultsByteIdentical) {
  // The observability contract: telemetry is strictly side-band. The
  // same campaign with tracing + metrics enabled must produce the same
  // CampaignResult and the same deterministic JSON document (modulo the
  // stats section, which carries wall times) as a silent run.
  CounterRig rig;
  const FaultUniverse u(rig.nl);
  const std::vector<CampaignTest> tests = make_rig_suite(rig, u);

  FaultList fl_off(u);
  const CampaignResult off =
      CampaignEngine(u, {.threads = 2}).run(fl_off, tests);
  const std::string off_json = campaign_result_to_json_string(off, 2, false);

  CampaignResult on;
  std::string on_json;
  {
    ScopedObservability guard;
    FaultList fl_on(u);
    on = CampaignEngine(u, {.threads = 2}).run(fl_on, tests);
    on_json = campaign_result_to_json_string(on, 2, false);
    // The run was actually observed, not silently skipped.
    EXPECT_GT(obs::tracer().event_count(), 0u);
    EXPECT_GT(obs::metrics().counter("kernel.evals").value(), 0u);
    EXPECT_GT(obs::metrics().counter("kernel.frame_replays").value(), 0u);
  }
  EXPECT_EQ(on, off);
  EXPECT_EQ(on.detected, off.detected);
  EXPECT_EQ(on_json, off_json);
}

TEST(Campaign, ExceptionsCarryTestAndShardContext) {
  // A runner failure must name the work item that died, not just rethrow
  // the bare error: the caller sees test name + shard id (and, through a
  // pool, the participant index) prefixed onto the original message.
  CounterRig rig;
  const FaultUniverse u(rig.nl);
  std::vector<FaultId> targets(600);
  std::iota(targets.begin(), targets.end(), 0u);
  const CampaignTest bad = make_function_test(
      "explodes", [](std::span<const FaultId> faults) -> std::uint64_t {
        for (FaultId f : faults)
          if (f == 300) throw std::runtime_error("boom");
        return 0;
      });
  for (const int threads : {1, 2}) {
    try {
      CampaignEngine(u, {.threads = threads}).grade(targets, bad);
      FAIL() << "runner exception swallowed at " << threads << " threads";
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      // Fault 300 lands in shard 1 of the fixed 255-fault spans.
      EXPECT_NE(msg.find("campaign test 'explodes'"), std::string::npos) << msg;
      EXPECT_NE(msg.find("shard 1"), std::string::npos) << msg;
      EXPECT_NE(msg.find("boom"), std::string::npos) << msg;
      if (threads > 1)
        EXPECT_NE(msg.find("worker pool participant"), std::string::npos)
            << msg;
    }
  }
}

TEST(Campaign, GradeEdgeCases) {
  // Empty target list, a single-fault list, and targets == exactly one
  // full batch: the one-batch shapes really plan one shard, and the
  // single fault grades the same alone as inside the full batch.
  CounterRig rig;
  const FaultUniverse u(rig.nl);
  ASSERT_GE(u.size(), std::size_t{kLanes - 1});
  const CampaignTest test = make_rig_test(rig, u, rig.outputs, "all_bits");
  std::vector<FaultId> full_batch(kLanes - 1);
  std::iota(full_batch.begin(), full_batch.end(), 0u);
  const CampaignEngine engine(u, {.threads = 2});

  EXPECT_EQ(engine.grade({}, test).size(), 0u);

  std::vector<double> single_seconds;
  const BitVec single =
      engine.grade(std::span(full_batch).first(1), test, {}, &single_seconds);
  EXPECT_EQ(single_seconds.size(), 1u);

  std::vector<double> batch_seconds;
  const BitVec full = engine.grade(full_batch, test, {}, &batch_seconds);
  EXPECT_EQ(batch_seconds.size(), 1u);  // 255 targets = one shard
  EXPECT_EQ(full.get(0), single.get(0));
  EXPECT_GT(full.count(), 0u);
}

TEST(Campaign, TinyUniverseRunsIdenticallyAtEveryThreadCount) {
  // A universe far smaller than one batch: run() must behave at every
  // thread count (the degenerate end of the sharding spectrum, where each
  // test grades a single shard).
  Netlist nl("t");
  WordOps w(nl, "m");
  const NetId a = nl.add_input("a");
  const NetId en = nl.add_input("en");
  nl.add_output("o", w.and2(a, en, "y"));
  const FaultUniverse u(nl);
  ASSERT_LT(u.size(), std::size_t{kLanes - 1});
  std::vector<CampaignTest> tests;
  tests.push_back(make_function_test(
      "parity", [](std::span<const FaultId> faults) {
        std::uint64_t mask = 0;
        for (std::size_t i = 0; i < faults.size(); ++i)
          if (faults[i] % 2) mask |= 1ULL << i;
        return mask;
      }));

  CampaignResult first;
  for (const int threads : {1, 2}) {
    FaultList fl(u);
    const CampaignResult r =
        CampaignEngine(u, {.threads = threads}).run(fl, tests);
    EXPECT_EQ(r.tests.at(0).batches, 1u);
    EXPECT_GT(r.total_new_detections, 0u);
    if (threads == 1) {
      first = r;
    } else {
      EXPECT_EQ(r, first);
      EXPECT_EQ(r.detected, first.detected);
    }
  }
}

TEST(Campaign, SbstSliceDetectionPayloadIsPinned) {
  // The CI slice (olfui_cli --sbst --programs 2 --limit 320) under both
  // fault models, pinned as data. Every other check compares sibling
  // execution paths of the same code; these constants catch drift that
  // moves all of them together. Batch counts are deliberately not
  // pinned: they follow the lane width. The cycle counts and the tests
  // fingerprint are the result cache key's trace component: while they
  // hold, cache entries written by earlier builds stay hits.
  struct Row {
    FaultModel model;
    std::uint64_t detected_fnv;  ///< fnv1a64(bitvec_to_hex(detected))
    std::vector<std::size_t> new_detections;  ///< per test, suite order
    std::vector<int> good_cycles;             ///< per test, suite order
    std::uint64_t tests_fp;  ///< campaign_tests_fingerprint of the tests
  };
  const std::vector<Row> rows = {
      {FaultModel::kStuckAt, 0x71e6ed5a089d103aULL, {200, 137}, {134, 31},
       0xdc108f33d638acd4ULL},
      {FaultModel::kTransition, 0x4ba9ac3f628fbcbeULL, {139, 77}, {134, 31},
       0xdc108f33d638acd4ULL},
  };
  auto soc = build_soc({});
  auto suite = build_sbst_suite(soc->config);
  suite.erase(suite.begin() + 2, suite.end());
  const FaultUniverse u(soc->netlist);
  for (const Row& row : rows) {
    const std::string_view model = to_string(row.model);
    // The concurrent build yields the same tests for any participant count.
    const auto build = [&](int threads) {
      return build_sbst_campaign_tests(
          *soc, suite, u,
          CampaignEngine(u, {.threads = threads, .fault_model = row.model}));
    };
    const std::vector<CampaignTest> serial = build(1), concurrent = build(4);
    EXPECT_EQ(campaign_tests_fingerprint(serial), row.tests_fp) << model;
    EXPECT_EQ(campaign_tests_fingerprint(concurrent), row.tests_fp) << model;
    ASSERT_EQ(serial.size(), row.good_cycles.size()) << model;
    ASSERT_EQ(concurrent.size(), serial.size()) << model;
    for (std::size_t t = 0; t < serial.size(); ++t) {
      EXPECT_EQ(serial[t].good_cycles, row.good_cycles[t])
          << model << " " << serial[t].name;
      EXPECT_EQ(concurrent[t].screen(), serial[t].screen())
          << model << " " << serial[t].name;
    }
    FaultList fl(u);
    const CampaignResult r =
        run_sbst_campaign(*soc, suite, fl, {},
                          {.threads = 2,
                           .fault_model = row.model,
                           .target_limit = 320})
            .campaign;
    EXPECT_EQ(fnv1a64(bitvec_to_hex(r.detected)), row.detected_fnv) << model;
    ASSERT_EQ(r.tests.size(), row.new_detections.size()) << model;
    for (std::size_t t = 0; t < r.tests.size(); ++t) {
      EXPECT_EQ(r.tests[t].new_detections, row.new_detections[t])
          << model << " " << r.tests[t].name;
      EXPECT_EQ(r.tests[t].good_cycles, row.good_cycles[t])
          << model << " " << r.tests[t].name;
    }
  }
}

TEST(Campaign, SbstSliceKernelCountersRepeatAtEveryThreadCount) {
  // The simulated work of the CI slice (olfui_cli --sbst --programs 2
  // --limit 320) is a function of the shards alone, never of which
  // participant ran which shard after which: every kernel.* counter and
  // the graded pair count repeat exactly at 1, 3 and 4 threads and across
  // two runs at 4, under both models (the invariant the benchmark's traced
  // operations check). The CI slice grades one shard per test, so a wider
  // one (--limit 4000, 16 stuck-at and 6 TDF shards) gives a participant
  // several shards in a row.
  auto soc = build_soc({});
  auto suite = build_sbst_suite(soc->config);
  suite.erase(suite.begin() + 2, suite.end());
  const FaultUniverse u(soc->netlist);
  const auto work_of = [&](FaultModel model, std::size_t limit, int threads) {
    ScopedObservability guard;
    FaultList fl(u);
    const CampaignResult r =
        run_sbst_campaign(
            *soc, suite, fl, {},
            {.threads = threads, .fault_model = model, .target_limit = limit})
            .campaign;
    std::map<std::string, double> work;
    const Json counters = obs::metrics().to_json().at("counters");
    for (std::size_t i = 0; i < counters.size(); ++i)
      if (counters.key(i).starts_with("kernel."))
        work[counters.key(i)] = counters.value(i).as_number();
    work["faults_simulated"] = static_cast<double>(r.stats.faults_simulated);
    return work;
  };
  for (const FaultModel model :
       {FaultModel::kStuckAt, FaultModel::kTransition}) {
    for (const std::size_t limit : {320u, 4000u}) {
      std::map<std::string, double> first;
      for (const int threads : {1, 3, 4, 4}) {
        const std::string ctx = std::string(to_string(model)) + " limit " +
                                std::to_string(limit) + " at " +
                                std::to_string(threads);
        const std::map<std::string, double> work =
            work_of(model, limit, threads);
        EXPECT_GT(work.at("kernel.cells_evaluated"), 0.0) << ctx;
        EXPECT_EQ(work.at("kernel.full_sweeps"), 0.0) << ctx;
        if (first.empty())
          first = work;
        else
          EXPECT_EQ(work, first) << ctx;
      }
    }
  }
}

TEST(Campaign, SbstSliceCollapsedRunMatchesUncollapsedGrade) {
  // The CI slice (olfui_cli --sbst --programs 2 --limit 320): run()
  // grades one member per equivalence class (collapse_map for stuck-at,
  // tdf_collapse_map for TDF), the test-side loop every target in its own
  // lane, with the same inert screen and fault dropping. Both models
  // collapse some targets, and the detection state and every test's new
  // detections agree.
  auto soc = build_soc({});
  auto suite = build_sbst_suite(soc->config);
  suite.erase(suite.begin() + 2, suite.end());
  const FaultUniverse u(soc->netlist);
  for (const FaultModel model :
       {FaultModel::kStuckAt, FaultModel::kTransition}) {
    const std::string_view name = to_string(model);
    const CampaignEngine engine(
        u, {.threads = 2, .fault_model = model, .target_limit = 320});
    const std::vector<CampaignTest> tests =
        build_sbst_campaign_tests(*soc, suite, u, engine);
    FaultList collapsed(u), uncollapsed(u);
    const CampaignResult r = engine.run(collapsed, tests);
    const UncollapsedCampaign want =
        run_uncollapsed(engine, uncollapsed, tests);
    EXPECT_GT(r.stats.faults_collapsed, 0u) << name;
    EXPECT_EQ(r.detected, want.detected) << name;
    ASSERT_EQ(r.tests.size(), want.new_detections.size()) << name;
    for (std::size_t t = 0; t < r.tests.size(); ++t)
      EXPECT_EQ(r.tests[t].new_detections, want.new_detections[t])
          << name << " " << r.tests[t].name;
  }
}

// ---------------------------------------------------------------------------
// Activation screening on the SoC

/// Fault id by FaultUniverse::fault_name, or kInvalidId.
FaultId find_fault(const FaultUniverse& u, const std::string& name) {
  for (FaultId f = 0; f < u.size(); ++f)
    if (u.fault_name(f) == name) return f;
  return kInvalidId;
}

TEST(ActivationScreen, ResetPhaseFaultsStayGradedAndDetected) {
  // alu_arith stuck-at faults whose site leaves the stuck value only while
  // rstn is low. A screen built from the end-of-cycle trace alone would
  // drop every one of them, yet the test detects them all: the faulty
  // machine leaves reset in a different state.
  static constexpr const char* kResetOnly[] = {
      // clang-format off
      "rstn/Y s-a-1",
      "core/u_rst/Y s-a-0",
      "core/u_rst/A s-a-1",
      "core/u_ctl/pc_d_15/S s-a-0",
      "core/u_ctl/pc_d_16/S s-a-0",
      "core/u_ctl/pc_d_17/S s-a-0",
      "core/u_ctl/pc_d_18/S s-a-0",
      // clang-format on
  };
  auto soc = build_soc({});
  auto suite = build_sbst_suite(soc->config);
  const FaultUniverse u(soc->netlist);
  ASSERT_EQ(suite.front().name, "alu_arith");
  const SbstCampaignTest built = build_sbst_campaign_test(
      *soc, suite.front(), u, PackedTopology::build(soc->netlist));
  const NetActivation trace_only = built.trace->activation();
  const BitVec screen = built.test.screen();

  std::vector<FaultId> ids;
  for (const char* name : kResetOnly) {
    const FaultId f = find_fault(u, name);
    ASSERT_NE(f, kInvalidId) << name;
    const Fault& fault = u.fault(f);
    const NetId site = soc->netlist.pin_net(fault.pin);
    EXPECT_FALSE(NetActivation::test(
        fault.sa1 ? trace_only.seen0 : trace_only.seen1, site))
        << name << " is active in the end-of-cycle trace";
    EXPECT_FALSE(screen.get(f)) << name;
    ids.push_back(f);
  }
  const BitVec det = CampaignEngine(u, {.threads = 2}).grade(ids, built.test);
  for (std::size_t i = 0; i < ids.size(); ++i)
    EXPECT_TRUE(det.get(i)) << kResetOnly[i];
}

TEST(ActivationScreen, MidStepSampledPortsIgnoreLateInputs) {
  // record_reference_trace samples only the last settle of each step. The
  // environment drives instr_in and rdata_in mid-step, so earlier settles
  // differ from the recorded ones only in those inputs' combinational
  // fanout. That is sound only if no port the environment reads mid-step
  // (or at the end) sits in that fanout: walk every such port's fan-in
  // back to flops and primary inputs.
  auto soc = build_soc({});
  const Netlist& nl = soc->netlist;
  std::set<NetId> late(soc->cpu.instr_in.begin(), soc->cpu.instr_in.end());
  late.insert(soc->cpu.rdata_in.begin(), soc->cpu.rdata_in.end());
  std::vector<std::string> ports = {"bwr_o", "brd_o", "halted_o"};
  for (int i = 0; i < 32; ++i)
    for (const char* bus : {"iaddr_o", "baddr_o", "bwdata_o"})
      ports.push_back(bus + std::to_string(i));

  std::vector<bool> visited(nl.num_nets(), false);
  for (const std::string& port : ports) {
    const CellId oc = nl.find_output(port);
    ASSERT_NE(oc, kInvalidId) << port;
    std::vector<NetId> stack{nl.cell(oc).ins[0]};
    while (!stack.empty()) {
      const NetId n = stack.back();
      stack.pop_back();
      if (visited[n]) continue;
      visited[n] = true;
      ASSERT_FALSE(late.contains(n))
          << port << " depends combinationally on input net " << n;
      const CellId drv = nl.net(n).driver;
      if (drv == kInvalidId || is_sequential(nl.cell(drv).type)) continue;
      for (const NetId in : nl.cell(drv).ins) stack.push_back(in);
    }
  }
}

/// The ids of the set bits of `set`, in order.
std::vector<FaultId> ids_of(const BitVec& set) {
  std::vector<FaultId> ids;
  for (std::size_t f = set.find_first(); f < set.size();
       f = set.find_next(f + 1))
    ids.push_back(static_cast<FaultId>(f));
  return ids;
}

/// The suite's program named `name` (the SoC's stock suite has each once).
SbstProgram& program_named(std::vector<SbstProgram>& suite,
                           const std::string& name) {
  for (SbstProgram& p : suite)
    if (p.name == name) return p;
  throw std::invalid_argument("no program " + name);
}

TEST(ActivationScreen, InertFaultsAreNeverDetected) {
  // The activation half's soundness, checked the expensive way: grade
  // every fault each test calls inert through the unscreened primitive.
  auto soc = build_soc({});
  auto suite = build_sbst_suite(soc->config);
  const FaultUniverse u(soc->netlist);
  const auto topo = PackedTopology::build(soc->netlist);
  for (const FaultModel model :
       {FaultModel::kStuckAt, FaultModel::kTransition}) {
    const CampaignEngine engine(u, {.threads = 2, .fault_model = model});
    for (const char* name : {"alu_arith", "alu_logic"}) {
      const SbstCampaignTest built = build_sbst_campaign_test(
          *soc, program_named(suite, name), u, topo, model);
      const std::vector<FaultId> inert =
          ids_of(inert_faults(u, *built.activation, model));
      EXPECT_GT(inert.size(), u.size() / 10) << name;
      EXPECT_EQ(engine.grade(inert, built.test).count(), 0u)
          << to_string(model) << " " << name;
    }
  }
}

TEST(ObservabilityScreen, UnobservableFaultsAreNeverDetected) {
  // The observability half's soundness, the same way: every fault whose
  // effect the proof keeps from the bus under a program's trace constants,
  // graded without a screen, stays undetected. Most of them are active in
  // the run, so only the proof (not the activation half) drops them.
  auto soc = build_soc({});
  auto suite = build_sbst_suite(soc->config);
  const FaultUniverse u(soc->netlist);
  const auto topo = PackedTopology::build(soc->netlist);
  for (const FaultModel model :
       {FaultModel::kStuckAt, FaultModel::kTransition}) {
    const CampaignEngine engine(u, {.threads = 2, .fault_model = model});
    for (const char* name : {"alu_logic", "decode"}) {
      const std::string ctx = std::string(to_string(model)) + " " + name;
      const SbstCampaignTest built = build_sbst_campaign_test(
          *soc, program_named(suite, name), u, topo, model);
      const BitVec unobservable = unobservable_faults(
          u, *built.activation, soc->cpu.bus_output_cells);
      BitVec activated = unobservable;
      activated.subtract(inert_faults(u, *built.activation, model));
      EXPECT_GT(activated.count(), u.size() / 10) << ctx;
      EXPECT_EQ(engine.grade(ids_of(unobservable), built.test).count(), 0u)
          << ctx;
      // The test's screen is both halves.
      BitVec both = inert_faults(u, *built.activation, model);
      both |= unobservable;
      EXPECT_EQ(built.test.screen(), both) << ctx;
    }
  }
}

}  // namespace
}  // namespace olfui
