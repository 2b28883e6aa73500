#include "campaign/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <mutex>
#include <numeric>
#include <thread>

#include "campaign/cache.hpp"
#include "campaign/executor.hpp"
#include "fault/tdf.hpp"
#include "netlist/netlist.hpp"
#include "obs/trace.hpp"

namespace olfui {

namespace {

/// Undetected (unless dropping is off), testable faults in id order,
/// truncated to `limit` when nonzero (the smoke-slicing knob).
std::vector<FaultId> campaign_targets(const FaultList& fl, bool drop_detected,
                                      std::size_t limit) {
  std::vector<FaultId> targets;
  for (FaultId f = 0; f < fl.size(); ++f) {
    if (fl.untestable_kind(f) != UntestableKind::kNone) continue;
    if (drop_detected && fl.detect_state(f) == DetectState::kDetected) continue;
    targets.push_back(f);
    if (limit && targets.size() == limit) break;
  }
  return targets;
}

class FunctionBatchRunner final : public FaultBatchRunner {
 public:
  explicit FunctionBatchRunner(
      std::function<LaneMask(std::span<const FaultId>)> kernel)
      : kernel_(std::move(kernel)) {}
  LaneMask run_batch(std::span<const FaultId> faults) override {
    return kernel_(faults);
  }

 private:
  std::function<LaneMask(std::span<const FaultId>)> kernel_;
};

}  // namespace

std::size_t shard_count(std::size_t targets, std::size_t batch_size) {
  return (targets + batch_size - 1) / batch_size;
}

std::span<const FaultId> shard_span(std::span<const FaultId> targets,
                                    std::size_t batch_size,
                                    std::uint32_t shard) {
  const std::size_t lo = static_cast<std::size_t>(shard) * batch_size;
  return targets.subspan(lo, std::min(batch_size, targets.size() - lo));
}

CampaignTest make_function_test(
    std::string name,
    std::function<LaneMask(std::span<const FaultId>)> kernel,
    int good_cycles) {
  CampaignTest test;
  test.name = std::move(name);
  test.good_cycles = good_cycles;
  test.make_runner = [kernel = std::move(kernel)]() {
    return std::make_unique<FunctionBatchRunner>(kernel);
  };
  return test;
}

bool CampaignResult::operator==(const CampaignResult& o) const {
  return universe == o.universe && fault_model == o.fault_model &&
         total_new_detections == o.total_new_detections &&
         detected == o.detected && tests == o.tests && classes == o.classes &&
         raw_coverage == o.raw_coverage && pruned_coverage == o.pruned_coverage;
}

CampaignEngine::CampaignEngine(const FaultUniverse& universe,
                               CampaignOptions opts)
    : universe_(&universe), opts_(std::move(opts)) {}

std::size_t CampaignEngine::batch_size(const CampaignTest& test) const {
  // A span wider than the detection mask could not be merged back.
  const int bound = std::clamp(test.max_batch, 1, LaneMask::kWords * 64 - 1);
  return static_cast<std::size_t>(
      opts_.batch_size == 0 ? bound : std::clamp(opts_.batch_size, 1, bound));
}

int CampaignEngine::resolved_threads() const {
  if (opts_.threads > 0) return opts_.threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw ? static_cast<int>(hw) : 1;
}

ShardExecutor& CampaignEngine::executor() const {
  if (opts_.executor) return *opts_.executor;
  std::lock_guard lock(exec_mu_);
  if (!default_executor_)
    default_executor_ = std::make_shared<InProcessExecutor>(opts_.threads);
  return *default_executor_;
}

BitVec CampaignEngine::grade(std::span<const FaultId> targets,
                             const CampaignTest& test,
                             const CampaignProgress& progress,
                             std::vector<double>* shard_seconds) const {
  return grade_screened(targets, 0, test, progress, shard_seconds);
}

BitVec CampaignEngine::grade_screened(std::span<const FaultId> targets,
                                      std::size_t screened,
                                      const CampaignTest& test,
                                      const CampaignProgress& progress,
                                      std::vector<double>* shard_seconds) const {
  BitVec detected(targets.size());
  if (targets.empty()) return detected;

  // --- plan ---------------------------------------------------------------
  // Contiguous batch_size spans in target order: shard s grades
  // targets[s*B, min(n, (s+1)*B)), so the plan is just the shard count.
  auto plan_span = obs::tracer().span("plan", "campaign");
  plan_span.arg("test", Json(test.name));
  plan_span.arg("targets", Json(targets.size()));
  plan_span.arg("screened", Json(screened));
  const std::size_t batch = batch_size(test);
  std::vector<std::uint32_t> shard_ids(shard_count(targets.size(), batch));
  std::iota(shard_ids.begin(), shard_ids.end(), 0u);
  plan_span.arg("shards", Json(shard_ids.size()));
  plan_span.end();

  // --- execute ------------------------------------------------------------
  // Where the shards run is the executor's (executor.hpp); a lost or
  // failed shard throws out of execute(), never shrinks the merge.
  std::mutex progress_mu;
  std::size_t graded = 0;
  ShardWork work{targets,           batch,
                 shard_ids,         test,
                 opts_.fault_model, universe_->size(),
                 {},                opts_.shard_timeout};
  if (progress)
    work.progress = [&](std::size_t n) {
      std::lock_guard lock(progress_mu);
      graded += n;
      progress(test.name, graded, targets.size());
    };
  auto exec_span = obs::tracer().span("execute", "campaign");
  exec_span.arg("test", Json(test.name));
  exec_span.arg("shards", Json(shard_ids.size()));
  const std::vector<ShardResult> results = executor().execute(work);
  exec_span.end();

  // --- merge --------------------------------------------------------------
  // Deterministic: shard order, then lane order within the shard — so the
  // shards, run anywhere, yield the same detection flags in target order.
  // Timings stay slot-indexed by shard id (never completion order), so
  // the report's layout is thread- and placement-independent too.
  auto merge_span = obs::tracer().span("merge", "campaign");
  merge_span.arg("test", Json(test.name));
  for (std::size_t shard = 0; shard < results.size(); ++shard) {
    const std::size_t lo = shard * batch;
    const std::size_t n =
        shard_span(targets, batch, static_cast<std::uint32_t>(shard)).size();
    for (std::size_t j = 0; j < n; ++j)
      if (results[shard].mask.bit(static_cast<int>(j)))
        detected.set(lo + j, true);
  }
  if (shard_seconds)
    for (const ShardResult& r : results) shard_seconds->push_back(r.seconds);
  return detected;
}

CampaignResult CampaignEngine::run(FaultList& fl,
                                   std::span<const CampaignTest> tests,
                                   const CampaignProgress& progress) const {
  CampaignResult result;
  result.universe = universe_->size();
  result.fault_model = opts_.fault_model;
  result.stats.executor = std::string(executor().name());
  result.stats.options_hash = campaign_options_hash(opts_);

  // --- cache lookup -------------------------------------------------------
  // Ahead of any planning or execution: a full hit decodes the stored
  // deterministic payload and returns with zero shards executed — no plan,
  // no executor work, no worker spawn (SubprocessExecutor spawns lazily on
  // its first execute(), which a hit never reaches). Spec-less campaigns
  // are not cacheable and bypass the lookup entirely.
  CacheKey cache_key;
  bool cacheable = false;
  if (opts_.cache) {
    result.stats.cache = "bypass";
    const std::uint64_t tests_fp = campaign_tests_fingerprint(tests);
    if (tests_fp != 0) {
      cacheable = true;
      cache_key.universe_fp =
          fnv1a64_word(fault_list_fingerprint(fl), universe_fingerprint(*universe_));
      cache_key.trace_fp = tests_fp;
      cache_key.options_hash = result.stats.options_hash;
      cache_key.fault_model = std::string(to_string(opts_.fault_model));
      auto lookup_span = obs::tracer().span("cache_lookup", "campaign");
      std::optional<CampaignResult> hit = opts_.cache->lookup(cache_key);
      lookup_span.arg("outcome", Json(std::string(hit ? "hit" : "miss")));
      lookup_span.end();
      if (hit) {
        CampaignResult cached = std::move(*hit);
        // The cached detection state replays onto the fault list exactly
        // as the original run left it (the key covers fl's start state,
        // so the delta is the cached run's own detections).
        for (std::size_t f = cached.detected.find_first();
             f < cached.detected.size(); f = cached.detected.find_next(f + 1))
          if (fl.detect_state(static_cast<FaultId>(f)) ==
              DetectState::kUndetected)
            fl.set_detected(static_cast<FaultId>(f));
        // The payload carries no stats; label this run's own context.
        cached.stats.executor = result.stats.executor;
        cached.stats.threads = resolved_threads();
        cached.stats.options_hash = result.stats.options_hash;
        cached.stats.cache = "hit";
        return cached;
      }
      result.stats.cache = "miss";
    }
  }

  // Recovery counters are cumulative on the executor (it outlives runs);
  // the run reports its own delta.
  const ExecutorHealth health0 = executor().health();

  for (const CampaignTest& test : tests) {
    const std::vector<FaultId> targets =
        campaign_targets(fl, opts_.fault_dropping, opts_.target_limit);
    // Activation screen, after the target_limit slice so a sliced run
    // covers the same faults with or without it: an inert fault's faulty
    // machine equals the good one for the whole test, so simulating it
    // cannot detect anything.
    std::vector<FaultId> graded = targets;
    if (!test.inert.empty())
      std::erase_if(graded, [&](FaultId f) { return test.inert.get(f); });
    CampaignResult::PerTest pt;
    pt.name = test.name;
    pt.good_cycles = test.good_cycles;
    pt.faults_targeted = targets.size();

    // One timing slot lands per shard, so the batch count is the timing
    // delta.
    const std::size_t shards_before = result.stats.shard_seconds.size();
    // wall_seconds is the sum of per-grade() monotonic clock pairs — each
    // bracket encloses exactly one plan/execute/merge pass, so every
    // shard's timing slot nests inside one bracket and bookkeeping
    // between tests (class tallies, fault-list updates) never leaks in.
    const auto g0 = std::chrono::steady_clock::now();
    const BitVec det =
        grade_screened(graded, targets.size() - graded.size(), test, progress,
                       &result.stats.shard_seconds);
    result.stats.wall_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - g0)
            .count();
    pt.batches = result.stats.shard_seconds.size() - shards_before;
    for (std::size_t i = det.find_first(); i < det.size();
         i = det.find_next(i + 1)) {
      if (fl.detect_state(graded[i]) == DetectState::kUndetected) {
        fl.set_detected(graded[i]);
        ++pt.new_detections;
      }
    }
    result.total_new_detections += pt.new_detections;
    result.stats.faults_simulated += graded.size();
    result.stats.faults_screened += targets.size() - graded.size();
    result.stats.batches += pt.batches;
    result.tests.push_back(std::move(pt));
  }

  // Final detection state and coverage figures.
  result.detected.resize(fl.size());
  for (FaultId f = 0; f < fl.size(); ++f)
    if (fl.detect_state(f) == DetectState::kDetected)
      result.detected.set(f, true);
  result.raw_coverage = fl.raw_coverage();
  result.pruned_coverage = fl.pruned_coverage();

  // Per-class coverage: polarity, Table-I source, and top-of-hierarchy
  // module. std::map keeps class order deterministic.
  std::map<std::string, CampaignResult::ClassCoverage> classes;
  const Netlist& nl = universe_->netlist();
  for (FaultId f = 0; f < universe_->size(); ++f) {
    const Fault& fault = universe_->fault(f);
    const bool det = fl.detect_state(f) == DetectState::kDetected;
    const auto tally = [&](std::string name) {
      CampaignResult::ClassCoverage& row = classes[name];
      row.name = std::move(name);
      ++row.total;
      if (det) ++row.detected;
    };
    tally(opts_.fault_model == FaultModel::kTransition
              ? std::string(tdf_class_name(fault))
              : (fault.sa1 ? "sa1" : "sa0"));
    const OnlineSource src = fl.online_source(f);
    if (src != OnlineSource::kNone)
      tally("source:" + std::string(to_string(src)));
    const std::string& cell = nl.cell(fault.pin.cell).name;
    const auto slash = cell.find('/');
    tally("module:" + (slash == std::string::npos ? std::string("<top>")
                                                  : cell.substr(0, slash)));
  }
  result.classes.reserve(classes.size());
  for (auto& [key, row] : classes) result.classes.push_back(std::move(row));

  const ExecutorHealth health1 = executor().health();
  result.stats.respawns = health1.respawns - health0.respawns;
  result.stats.shard_reissues = health1.shard_reissues - health0.shard_reissues;
  result.stats.timeouts = health1.timeouts - health0.timeouts;
  result.stats.degraded_shards =
      health1.degraded_shards - health0.degraded_shards;

  result.stats.threads = resolved_threads();
  result.stats.faults_per_second =
      result.stats.wall_seconds > 0
          ? static_cast<double>(result.stats.faults_simulated) /
                result.stats.wall_seconds
          : 0.0;
  if (cacheable) opts_.cache->store(cache_key, result);
  return result;
}

}  // namespace olfui
