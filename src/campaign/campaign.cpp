#include "campaign/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "campaign/cache.hpp"
#include "fault/tdf.hpp"
#include "netlist/netlist.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace olfui {

namespace {

/// Faults per shard: one packed pass, every lane but the good machine's.
constexpr std::size_t kSpan = kLanes - 1;
static_assert(kSpan == LaneMask::kWords * 64 - 1,
              "a shard's span must fill exactly the faults a LaneMask holds");

/// Undetected, testable faults in id order, truncated to `limit` when
/// nonzero (the smoke-slicing knob).
std::vector<FaultId> campaign_targets(const FaultList& fl, std::size_t limit) {
  std::vector<FaultId> targets;
  for (FaultId f = 0; f < fl.size(); ++f) {
    if (fl.untestable_kind(f) != UntestableKind::kNone) continue;
    if (fl.detect_state(f) == DetectState::kDetected) continue;
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

/// The engine's batch arithmetic: `targets` faults cut into spans of
/// kSpan make ceil(targets / kSpan) shards, and shard s is
/// targets[s*kSpan, min(n, (s+1)*kSpan)).
std::size_t shard_count(std::size_t targets) {
  return (targets + kSpan - 1) / kSpan;
}

std::span<const FaultId> shard_span(std::span<const FaultId> targets,
                                    std::size_t shard) {
  const std::size_t lo = shard * kSpan;
  return targets.subspan(lo, std::min(kSpan, targets.size() - lo));
}

}  // namespace

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

int CampaignEngine::resolved_threads() const {
  if (opts_.threads > 0) return opts_.threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw ? static_cast<int>(hw) : 1;
}

void CampaignEngine::parallel_for(
    std::size_t n,
    const std::function<void(std::size_t, std::size_t)>& body) const {
  const std::size_t threads = static_cast<std::size_t>(resolved_threads());
  const std::size_t participants = std::min(threads, n);
  std::atomic<std::size_t> next{0};
  const auto drain = [&](std::size_t p) {
    for (std::size_t i = next++; i < n; i = next++) body(i, p);
  };
  if (participants <= 1) {
    drain(0);
    return;
  }
  // The pool captures a throw from any participant and rethrows the first
  // one here, matching the 1-participant path.
  std::lock_guard lock(pool_mu_);
  if (!pool_) pool_ = std::make_unique<WorkerPool>(threads - 1);
  pool_->run(participants, drain);
}

BitVec CampaignEngine::grade(std::span<const FaultId> targets,
                             const CampaignTest& test,
                             const CampaignProgress& progress,
                             std::vector<double>* shard_seconds) const {
  return grade_screened(targets, 0, 0, test, progress, shard_seconds);
}

BitVec CampaignEngine::grade_screened(std::span<const FaultId> targets,
                                      std::size_t screened,
                                      std::size_t collapsed,
                                      const CampaignTest& test,
                                      const CampaignProgress& progress,
                                      std::vector<double>* shard_seconds) const {
  BitVec detected(targets.size());
  if (targets.empty()) return detected;

  // --- plan ---------------------------------------------------------------
  // Contiguous spans of B = kSpan faults in target order: shard s grades
  // targets[s*B, min(n, (s+1)*B)), so the plan is just the shard count.
  auto plan_span = obs::tracer().span("plan", "campaign");
  plan_span.arg("test", Json(test.name));
  plan_span.arg("targets", Json(targets.size()));
  plan_span.arg("screened", Json(screened));
  plan_span.arg("collapsed", Json(collapsed));
  const std::size_t shards = shard_count(targets.size());
  plan_span.arg("shards", Json(shards));
  plan_span.end();

  // --- execute ------------------------------------------------------------
  // Each shard writes only its own slots, so the participants share no
  // result state; a failed shard throws out of the pool, never shrinks
  // the merge.
  std::vector<LaneMask> masks(shards);
  std::vector<double> seconds(shards);
  // One runner per participant, created on its first shard.
  std::vector<std::unique_ptr<FaultBatchRunner>> runners(
      static_cast<std::size_t>(resolved_threads()));
  std::mutex progress_mu;
  std::size_t graded = 0;
  const bool tracing = obs::tracer().enabled();
  const auto grade_shard = [&](std::size_t shard, std::size_t w) {
    const std::span<const FaultId> faults = shard_span(targets, shard);
    try {
      // Runner construction stays outside the timed span: shard_seconds
      // reports grading cost, not one-time per-worker setup.
      std::unique_ptr<FaultBatchRunner>& runner = runners[w];
      if (!runner) runner = test.make_runner();
      const std::int64_t s0 = tracing ? obs::tracer().now_us() : 0;
      const auto t0 = std::chrono::steady_clock::now();
      masks[shard] = runner->run_batch(faults);
      seconds[shard] = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
      if (obs::metrics().enabled())
        obs::metrics()
            .histogram("campaign.shard_seconds",
                       {0.001, 0.01, 0.1, 1.0, 10.0})
            .observe(seconds[shard]);
      if (tracing) {
        // tid = participant index, so the trace lane matches the worker
        // that actually ran the shard.
        obs::TraceEvent ev;
        ev.name = "shard";
        ev.cat = "campaign";
        ev.ts_us = s0;
        ev.dur_us = obs::tracer().now_us() - s0;
        ev.tid = static_cast<std::int64_t>(w);
        ev.args.emplace_back("shard", Json(shard));
        ev.args.emplace_back("test", Json(test.name));
        ev.args.emplace_back("faults", Json(faults.size()));
        obs::tracer().record(std::move(ev));
      }
    } catch (const std::exception& e) {
      // The runner knows neither which shard it was grading nor for
      // which test — attach both before the pool rethrows on the
      // caller, so a campaign failure names the work item that died.
      throw std::runtime_error("campaign test '" + test.name + "' shard " +
                               std::to_string(shard) + ": " + e.what());
    }
    if (progress) {
      std::lock_guard lock(progress_mu);
      graded += faults.size();
      progress(test.name, graded, targets.size());
    }
  };
  auto exec_span = obs::tracer().span("execute", "campaign");
  exec_span.arg("test", Json(test.name));
  exec_span.arg("shards", Json(shards));
  parallel_for(shards, grade_shard);
  exec_span.end();

  // --- merge --------------------------------------------------------------
  // Deterministic: shard order, then lane order within the shard — so the
  // shards, run by any participant, yield the same detection flags in
  // target order. Timings stay slot-indexed by shard id (never completion
  // order), so the report's layout is thread-independent too.
  auto merge_span = obs::tracer().span("merge", "campaign");
  merge_span.arg("test", Json(test.name));
  for (std::size_t shard = 0; shard < shards; ++shard) {
    const std::size_t n = shard_span(targets, shard).size();
    for (std::size_t j = 0; j < n; ++j)
      if (masks[shard].bit(static_cast<int>(j)))
        detected.set(shard * kSpan + j, true);
  }
  if (shard_seconds)
    shard_seconds->insert(shard_seconds->end(), seconds.begin(),
                          seconds.end());
  return detected;
}

CampaignResult CampaignEngine::run(FaultList& fl,
                                   std::span<const CampaignTest> tests,
                                   const CampaignProgress& progress) const {
  CampaignResult result;
  result.universe = universe_->size();
  result.fault_model = opts_.fault_model;
  result.stats.options_hash = campaign_options_hash(opts_);

  // --- cache lookup -------------------------------------------------------
  // Ahead of any planning or execution: a full hit decodes the stored
  // deterministic payload and returns with zero shards executed — no plan,
  // no runner built, no pool started. Spec-less campaigns are not
  // cacheable and bypass the lookup entirely.
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
      std::optional<CampaignResult> hit =
          opts_.cache->lookup(cache_key, universe_->size());
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
        cached.stats.threads = resolved_threads();
        cached.stats.options_hash = result.stats.options_hash;
        cached.stats.cache = "hit";
        return cached;
      }
      result.stats.cache = "miss";
    }
  }

  // Equivalence classes, indexed by each fault's class root: structurally
  // equivalent faults share one faulty machine, so they share one verdict
  // in every test and one member grades for the class. Built after the
  // cache lookup, so a hit never pays for it. Each model has its own map:
  // the stuck-at controlling-input classes would merge transition faults
  // that a test tells apart.
  const std::vector<FaultId> class_of =
      opts_.fault_model == FaultModel::kStuckAt
          ? universe_->collapse_map()
          : universe_->tdf_collapse_map();
  // Every test's screen, evaluated once on the pool: a pure function of
  // the test, so a cache hit never pays for it and the order in which the
  // participants take the tests shows nowhere.
  std::vector<BitVec> screens(tests.size());
  parallel_for(tests.size(), [&](std::size_t t, std::size_t) {
    if (tests[t].screen) screens[t] = tests[t].screen();
  });
  // Per class, reset after each test: its lowest-id targeted member (the
  // one graded), and whether the screen or the grade hit it.
  std::vector<FaultId> class_rep(class_of.size(), kInvalidId);
  std::vector<std::uint8_t> class_screened(class_of.size(), 0);
  std::vector<std::uint8_t> class_detected(class_of.size(), 0);

  for (std::size_t t = 0; t < tests.size(); ++t) {
    const CampaignTest& test = tests[t];
    const BitVec& screen = screens[t];
    // The target_limit slice is cut over the whole target list before
    // anything is collapsed or screened, so a sliced run covers the same
    // faults either way.
    const std::vector<FaultId> targets =
        campaign_targets(fl, opts_.target_limit);
    // A screened fault's faulty machine shows the good one's outputs for
    // the whole test, and so does every member of its class, so
    // simulating the class cannot detect anything. An untestable member
    // is no target, so a class whose lowest id the analyzer pruned grades
    // through its next member.
    for (const FaultId f : targets) {
      const FaultId c = class_of[f];
      if (class_rep[c] == kInvalidId) class_rep[c] = f;
      if (!screen.empty() && screen.get(f)) class_screened[c] = 1;
    }
    std::vector<FaultId> graded;
    std::size_t screened = 0;
    for (const FaultId f : targets) {
      const FaultId c = class_of[f];
      if (class_rep[c] != f) continue;
      if (class_screened[c])
        ++screened;
      else
        graded.push_back(f);
    }
    const std::size_t collapsed = targets.size() - graded.size() - screened;
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
    const BitVec det = grade_screened(graded, screened, collapsed, test,
                                      progress, &result.stats.shard_seconds);
    result.stats.wall_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - g0)
            .count();
    pt.batches = result.stats.shard_seconds.size() - shards_before;
    // A detected class detects every targeted member, and only those: a
    // pruned or sliced-off member stays as it was.
    for (std::size_t i = det.find_first(); i < det.size();
         i = det.find_next(i + 1))
      class_detected[class_of[graded[i]]] = 1;
    for (const FaultId f : targets) {
      if (!class_detected[class_of[f]]) continue;
      fl.set_detected(f);
      ++pt.new_detections;
    }
    for (const FaultId f : targets) {
      const FaultId c = class_of[f];
      class_rep[c] = kInvalidId;
      class_screened[c] = 0;
      class_detected[c] = 0;
    }
    result.total_new_detections += pt.new_detections;
    result.stats.faults_simulated += graded.size();
    result.stats.faults_screened += screened;
    result.stats.faults_collapsed += collapsed;
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
