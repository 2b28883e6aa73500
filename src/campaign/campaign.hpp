// olfui/campaign: the parallel fault-campaign orchestrator.
//
// The paper's core experiment — grade a test suite against the full
// stuck-at universe under a mission observation policy — is a *campaign*:
// an embarrassingly parallel sweep of (test, fault-batch) work items with
// bookkeeping between tests. This engine is the single entry point for
// every such sweep (sbst, scan ATPG, the fig benches):
//
//  * batching — the target fault list is cut into contiguous spans of
//    B = kLanes - 1 = 255 faults in target order (one parallel-fault
//    simulator pass each, every lane but the good machine's): shard s
//    grades targets[s*B, min(n, (s+1)*B));
//  * execution — the shards run on the engine's persistent worker pool
//    (worker_pool.hpp), each participant taking the next shard index from
//    one atomic cursor (parallel_for);
//  * fault dropping — a fault detected by test k leaves the queue before
//    test k+1, so late tests grade ever-shrinking target lists;
//  * class collapsing — structurally equivalent faults
//    (FaultUniverse::collapse_map, or tdf_collapse_map under TDF) share
//    one faulty machine, so run() grades only the lowest-id targeted
//    member of each class and marks the class's other targeted members
//    with its verdict;
//  * screening — faults a test provably cannot detect (CampaignTest::
//    screen: for an SBST test, the faults its good-machine run never
//    activates plus those whose effect cannot reach an observed port
//    under the run's constant nets) leave that test's target list, with
//    their whole class, before batching and cost no simulation;
//  * good-machine checkpointing — each test's fault-free run is recorded
//    once (fsim::ReferenceTrace, all nets), and every batch grades against
//    it: the trace is the only good machine, supplying the observed
//    outputs' good bits, the settle's replay and, under TDF, each site's
//    launches;
//  * deterministic merge — batch boundaries depend only on the target
//    list, each worker writes its batches' detection masks to dedicated
//    slots, and the merge walks shards in index order, so the
//    CampaignResult is bit-identical for any thread count.
//
// Workloads plug in through FaultBatchRunner: the SBST campaign wraps
// SequentialFaultSimulator + SocFsimEnvironment, the scan flow wraps
// ScanTestRunner, and ad-hoc sweeps can wrap anything that grades a
// span of up to kLanes - 1 faults.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "campaign/json.hpp"
#include "campaign/worker_pool.hpp"
#include "fault/fault_list.hpp"
#include "util/bitvec.hpp"
#include "util/lanes.hpp"

namespace olfui {

class ResultCache;  // campaign/cache.hpp

/// One worker's private grading kernel: simulator + environment state.
/// Instances are confined to a single worker thread; the factory that
/// creates them must be callable from any thread.
class FaultBatchRunner {
 public:
  virtual ~FaultBatchRunner() = default;
  /// Grades up to kLanes - 1 faults (one packed pass); bit i of the
  /// result = faults[i] detected.
  virtual LaneMask run_batch(std::span<const FaultId> faults) = 0;
};

/// One test in a campaign: a name for reporting plus a thread-safe factory
/// producing per-worker runners. `good_cycles` is reporting metadata (the
/// good machine's functional cycle count, 0 where meaningless, e.g. scan
/// patterns).
struct CampaignTest {
  std::string name;
  int good_cycles = 0;
  std::function<std::unique_ptr<FaultBatchRunner>()> make_runner;
  /// Optional identity of this test for the result cache: a JSON document
  /// naming the grading state make_runner captures (program and
  /// good-machine trace fingerprint — see build_sbst_campaign_test).
  /// campaign_tests_fingerprint hashes it, so its bytes are part of every
  /// cache key. Null = not cacheable.
  Json spec;
  /// Deferred screen over the universe: returns a set bit for every fault
  /// this test provably cannot detect (for an SBST test, the faults its
  /// good-machine run never activates or whose effect cannot reach an
  /// observed port; see build_sbst_campaign_test). CampaignEngine::run
  /// calls it once per run on a cache miss, before planning the first
  /// test, and drops these faults, with every targeted member of their
  /// equivalence class, from the test's targets. It must be a pure,
  /// thread-safe function of state that outlives the campaign; a cache hit
  /// never calls it. Null = none known (scan and function tests).
  std::function<BitVec()> screen;
};

struct CampaignOptions {
  /// Worker threads; 0 picks std::thread::hardware_concurrency().
  int threads = 0;
  /// How the shared fault ids are read (fault/tdf.hpp): labels the result's
  /// polarity classes (sa0/sa1 vs str/stf) and the JSON report. The tests'
  /// runners must grade the matching model — the engine only shards and
  /// merges, it never reinterprets a batch.
  FaultModel fault_model = FaultModel::kStuckAt;
  /// Grade only the first N eligible targets per test (0 = all): the
  /// smoke/CI slicing knob. Deterministic — the slice is a prefix of the
  /// id-ordered target list — but coverage figures then describe the
  /// slice, not the universe.
  std::size_t target_limit = 0;
  /// Grade-result cache (cache.hpp). Before planning anything, run()
  /// looks the whole campaign up by CacheKey — a hit decodes the stored
  /// deterministic payload and returns with ZERO shards executed; a miss
  /// grades normally and stores. Null = off. A run in which any test lacks
  /// a spec is not cacheable and bypasses the cache
  /// (stats.cache = "bypass").
  std::shared_ptr<ResultCache> cache;
};

/// Campaign-wide outcome. Everything except `stats` is a pure function of
/// (universe, fault list, tests) — thread count never shows through,
/// which operator== checks (it deliberately ignores the nondeterministic
/// runtime stats). tests[].batches counts the test's kLanes - 1 fault
/// spans.
struct CampaignResult {
  struct PerTest {
    std::string name;
    int good_cycles = 0;
    std::size_t faults_targeted = 0;  ///< queue length when the test ran
    std::size_t batches = 0;
    std::size_t new_detections = 0;
    bool operator==(const PerTest&) const = default;
  };

  /// Coverage bucketed by fault class (polarity, module, Table-I source).
  struct ClassCoverage {
    std::string name;
    std::size_t total = 0;
    std::size_t detected = 0;
    double coverage() const {
      return total ? static_cast<double>(detected) / static_cast<double>(total)
                   : 0.0;
    }
    bool operator==(const ClassCoverage&) const = default;
  };

  struct RuntimeStats {
    /// Sum of per-test grading time, each test measured by one monotonic
    /// (steady_clock) pair bracketing its grade() call — per-test
    /// bookkeeping and final class tallies are excluded, and every
    /// shard_seconds slot nests inside one bracket.
    double wall_seconds = 0;
    /// The engine's worker count (resolved_threads).
    int threads = 0;
    /// Fault x test pairs actually graded, one per equivalence class left
    /// after the test's screen: targeted minus screened minus collapsed.
    std::size_t faults_simulated = 0;
    /// Class representatives dropped by the test's screen
    /// (CampaignTest::screen; for SBST, never activated or unobservable
    /// under the run's constant nets) without simulation.
    std::size_t faults_screened = 0;
    /// Targeted fault x test pairs that took the verdict of their class's
    /// representative instead of a lane of their own.
    std::size_t faults_collapsed = 0;
    std::size_t batches = 0;
    double faults_per_second = 0;
    /// Wall time of every shard, all tests concatenated in shard index
    /// order (test boundaries recoverable from tests[].batches): where the
    /// grading time went, shard by shard.
    std::vector<double> shard_seconds;
    /// Result-cache disposition of this run: "off" (no cache configured),
    /// "bypass" (cache configured but a test has no spec), "miss" (graded
    /// and stored), or "hit" (decoded from the cache, zero shards
    /// executed).
    std::string cache = "off";
    /// campaign_options_hash() of the payload-affecting options (also the
    /// cache key's options component).
    std::uint64_t options_hash = 0;
  };

  std::size_t universe = 0;
  /// The model the campaign graded (copied from CampaignOptions).
  FaultModel fault_model = FaultModel::kStuckAt;
  std::size_t total_new_detections = 0;
  /// Detection state over the whole universe at campaign end (includes
  /// faults already detected before the campaign started).
  BitVec detected;
  std::vector<PerTest> tests;
  std::vector<ClassCoverage> classes;
  double raw_coverage = 0;
  double pruned_coverage = 0;
  RuntimeStats stats;  ///< nondeterministic; excluded from operator==

  bool operator==(const CampaignResult& o) const;
};

/// Wraps a stateless, thread-safe grading function (e.g. a const
/// ScanTestRunner kernel) as a CampaignTest: every worker's runner calls
/// the one shared function. State referenced by `kernel` must outlive the
/// campaign.
CampaignTest make_function_test(
    std::string name,
    std::function<LaneMask(std::span<const FaultId>)> kernel,
    int good_cycles = 0);

/// Progress callback: (test name, faults graded so far, faults to grade).
/// Both counts are over the pairs the test actually grades: run() passes
/// the class representatives left after the test's screen, so a
/// test's final call reports faults_targeted minus its screened and
/// collapsed faults.
using CampaignProgress =
    std::function<void(const std::string&, std::size_t, std::size_t)>;

class CampaignEngine {
 public:
  explicit CampaignEngine(const FaultUniverse& universe,
                          CampaignOptions opts = {});

  const CampaignOptions& options() const { return opts_; }
  /// Worker count after resolving threads == 0.
  int resolved_threads() const;

  /// The engine's one parallel loop: calls body(item, participant) exactly
  /// once for every item in [0, n), on min(resolved_threads(), n)
  /// participants of the engine's worker pool (the caller is participant
  /// 0). Each participant takes the next item from one shared atomic
  /// cursor, so items start in index order. The first exception a body
  /// throws is rethrown here once every participant has stopped (through
  /// the pool, prefixed with the participant index). Concurrent calls
  /// serialize onto the one pool; a body must not call back into the
  /// engine's parallel_for, grade or run.
  void parallel_for(
      std::size_t n,
      const std::function<void(std::size_t item, std::size_t participant)>&
          body) const;

  /// The deterministic parallel grading primitive, an explicit
  /// plan -> execute -> merge pipeline: cuts `targets` into
  /// kLanes - 1 fault spans in target order, grades every span on the
  /// engine's worker pool, and merges the per-shard masks back, returning
  /// per-target detection flags (aligned with `targets`). A caller that
  /// wants batch-mates grouped by some key sorts `targets` first. Flows
  /// with their own between-test bookkeeping (e.g. scan ATPG's
  /// equivalence-class propagation) build on this directly. With
  /// `shard_seconds`, each shard's wall time is appended in shard index
  /// order. grade() never applies test.screen and never collapses: every
  /// target is simulated.
  BitVec grade(std::span<const FaultId> targets, const CampaignTest& test,
               const CampaignProgress& progress = {},
               std::vector<double>* shard_seconds = nullptr) const;

  /// Runs the full campaign. On a cache miss it first evaluates every
  /// test's screen on the pool; then, for each test in order, it takes the
  /// testable faults no earlier test detected (target_limit permitting),
  /// keeps the lowest-id one of each equivalence class, drops the classes
  /// with a screened target, grades the rest, marks every targeted member
  /// of a detected class in `fl`, and accumulates the result. The payload
  /// equals grading every target one by one: equivalent faults have one
  /// faulty machine.
  CampaignResult run(FaultList& fl, std::span<const CampaignTest> tests,
                     const CampaignProgress& progress = {}) const;

 private:
  /// grade() with the number of targets the caller screened out and
  /// collapsed beforehand, reported on the plan span.
  BitVec grade_screened(std::span<const FaultId> targets,
                        std::size_t screened, std::size_t collapsed,
                        const CampaignTest& test,
                        const CampaignProgress& progress,
                        std::vector<double>* shard_seconds) const;

  const FaultUniverse* universe_;
  CampaignOptions opts_;
  /// resolved_threads() - 1 parked workers (the caller is the extra
  /// participant), created on the first multi-participant parallel_for
  /// and parked between calls. pool_mu_ guards the creation and
  /// serializes concurrent calls onto the one pool, so a const engine
  /// stays safe to share across threads.
  mutable std::mutex pool_mu_;
  mutable std::unique_ptr<WorkerPool> pool_;
};

}  // namespace olfui
