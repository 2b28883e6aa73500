// olfui_bench: the benchmark program.
//
//   olfui_bench --workload NAME [--seed S] [--trace 0|1] [--out DIR]
//
// One process runs one workload as a closed loop: one client runs one
// operation at a time, each operation a full SBST grading run on
// min(4, nproc) threads, a fixed number of operations per workload. It
// times every layer from outside, by
// timing its calls into the library's public functions, and checks every
// operation's output. It prints `workload metric value unit` lines and,
// as its last line, one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// with the end-to-end metrics, or with --trace 1 the per-layer metrics of
// two extra operations run with the obs tracer and metrics on. The exit
// code is nonzero when any check failed. See README.md for the workloads
// and the metric catalogue.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/cache.hpp"
#include "campaign/campaign.hpp"
#include "core/analyzer.hpp"
#include "cpu/soc.hpp"
#include "fault/fault_list.hpp"
#include "fault/universe.hpp"
#include "harness.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pinned.hpp"
#include "sbst/sbst.hpp"

namespace olfui::bench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

// ---------------------------------------------------------------------------
// Workloads.

enum class Flow {
  kCampaign,  ///< grade the full universe
  kAnalyze,   ///< run the analyzer, then grade the pruned list
  kCacheHit,  ///< re-grade from a populated on-disk result cache
};

struct Workload {
  const char* name;
  FaultModel model;
  Flow flow;
  /// Operations in the timed loop: fixed, so every run of a workload takes
  /// its order statistics over the same number of samples.
  std::size_t timed_ops;
};

constexpr Workload kWorkloads[] = {
    {"sa_full", FaultModel::kStuckAt, Flow::kCampaign, 5},
    {"tdf_full", FaultModel::kTransition, Flow::kCampaign, 4},
    {"olfui_flow", FaultModel::kStuckAt, Flow::kAnalyze, 5},
    {"regrade_warm", FaultModel::kStuckAt, Flow::kCacheHit, 40},
};

/// Setups per run; setup_s is their median. One setup takes ~12 ms and
/// the host slows down in bursts of ~100 ms, so a few would not do.
constexpr int kSetups = 31;
/// Traced operations per --trace 1 run; their counts must agree exactly.
constexpr int kTracedOps = 2;
/// Standalone good-machine functional runs after each traced operation.
constexpr int kGoodRuns = 3;
/// Targets per test of the warm-up operation of the campaign workloads:
/// the same code path as a timed operation at a fraction of its cost.
constexpr std::size_t kWarmupTargets = 1024;

struct Setup {
  std::unique_ptr<Soc> soc;
  std::unique_ptr<FaultUniverse> universe;
  std::vector<SbstProgram> suite;
  double build_soc_s = 0, universe_s = 0, suite_s = 0;

  double total_s() const { return build_soc_s + universe_s + suite_s; }
};

Setup make_setup(const SocConfig& cfg) {
  Setup s;
  auto t0 = Clock::now();
  s.soc = build_soc(cfg);
  s.build_soc_s = seconds_since(t0);
  t0 = Clock::now();
  s.universe = std::make_unique<FaultUniverse>(s.soc->netlist);
  s.universe_s = seconds_since(t0);
  t0 = Clock::now();
  s.suite = build_sbst_suite(s.soc->config);
  s.suite_s = seconds_since(t0);
  return s;
}

struct OpOutcome {
  double wall_s = 0;
  double cpu_s = 0;
  CampaignResult campaign;
  AnalysisReport analysis;
  std::size_t pruned = 0;
  bool pruned_detected = false;
  ResultCacheStats cache;
  std::uint64_t hash = 0;
};

/// One operation, timed as a whole and, when the obs tracer is on, span by
/// span around each public call. A fresh fault list (and for kCacheHit a
/// fresh cache object over `cache_dir`) per operation, as a new CLI
/// process would start.
OpOutcome run_op(Setup& s, const Workload& w, const CampaignOptions& base,
                 const std::string& cache_dir) {
  obs::Tracer& tr = obs::tracer();
  OpOutcome out;
  const double c0 = process_cpu_seconds();
  const auto t0 = Clock::now();
  auto op_span = tr.span("op", "bench");

  auto list_span = tr.span("fault.list", "bench");
  FaultList fl(*s.universe);
  list_span.end();

  CampaignOptions opts = base;
  if (w.flow == Flow::kAnalyze) {
    auto sta_span = tr.span("core.sta", "bench");
    OnlineUntestabilityAnalyzer analyzer(*s.soc, *s.universe);
    sta_span.end();
    auto analyze_span = tr.span("core.analyze", "bench");
    out.analysis = analyzer.run(fl);
    analyze_span.end();
  }
  std::shared_ptr<ResultCache> cache;
  if (!cache_dir.empty()) {
    auto open_span = tr.span("cache.open", "bench");
    cache = std::make_shared<ResultCache>(1, cache_dir);
    opts.cache = cache;
  }
  auto run_span = tr.span("campaign.run", "bench");
  out.campaign = run_sbst_campaign(*s.soc, s.suite, fl, {}, opts).campaign;
  run_span.end();

  op_span.end();
  out.wall_s = seconds_since(t0);
  out.cpu_s = process_cpu_seconds() - c0;

  if (cache) out.cache = cache->stats();
  out.hash = fnv1a_ids(out.campaign.detected);
  out.pruned = fl.count_untestable();
  const BitVec pruned = fl.untestable_mask();
  for (std::size_t f = pruned.find_first(); f < pruned.size();
       f = pruned.find_next(f + 1))
    if (out.campaign.detected.get(f)) out.pruned_detected = true;
  return out;
}

// ---------------------------------------------------------------------------
// Output checks.

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string fixed6(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  return buf;
}

/// The values an operation is pinned on, by the keys of kPinnedSeed1.
std::map<std::string, std::string> observed_values(const OpOutcome& o) {
  std::map<std::string, std::string> v;
  v["detected"] = std::to_string(o.campaign.detected.count());
  for (const CampaignResult::PerTest& t : o.campaign.tests)
    v["new." + t.name] = std::to_string(t.new_detections);
  v["raw_coverage"] = fixed6(o.campaign.raw_coverage);
  v["pruned_coverage"] = fixed6(o.campaign.pruned_coverage);
  v["detected_fnv"] = hex64(o.hash);
  const AnalysisReport& a = o.analysis;
  v["analyzer.structural"] = std::to_string(a.structural_baseline);
  v["analyzer.scan"] = std::to_string(a.scan);
  v["analyzer.debug_control"] = std::to_string(a.debug_control);
  v["analyzer.debug_observe"] = std::to_string(a.debug_observe);
  v["analyzer.memmap"] = std::to_string(a.memmap);
  v["analyzer.online"] = std::to_string(a.total_online());
  return v;
}

/// Every way the operation's output is wrong; empty when it is right.
/// `reference_hash` is the detection-set hash every operation of the run
/// must repeat.
std::vector<std::string> check_op(const Workload& w, std::uint64_t seed,
                                  const OpOutcome& o,
                                  std::uint64_t reference_hash) {
  std::vector<std::string> problems;
  if (seed == 1) {
    const auto got = observed_values(o);
    for (const PinnedRow& row : kPinnedSeed1) {
      if (std::string(row.workload) != w.name) continue;
      const auto it = got.find(row.key);
      const std::string value = it == got.end() ? "<missing>" : it->second;
      if (value != row.value)
        problems.push_back(std::string("pinned ") + row.key + ": expected " +
                           row.value + ", got " + value);
    }
  }
  if (o.hash != reference_hash)
    problems.push_back("detection hash " + hex64(o.hash) + " differs from " +
                       hex64(reference_hash));
  if (w.flow == Flow::kAnalyze && o.pruned_detected)
    problems.push_back("a fault the analyzer pruned was detected");
  if (w.flow == Flow::kCacheHit) {
    const ResultCacheStats& c = o.cache;
    if (o.campaign.stats.cache != "hit" || o.campaign.stats.batches != 0 ||
        c.hits != 1 || c.disk_hits != 1 || c.misses != 0)
      problems.push_back("expected a disk cache hit with 0 shards, got cache=" +
                         o.campaign.stats.cache + " shards=" +
                         std::to_string(o.campaign.stats.batches));
  }
  return problems;
}

// ---------------------------------------------------------------------------
// Traced operations.

constexpr const char* kKernelCounters[] = {
    "kernel.evals",          "kernel.cells_evaluated", "kernel.quiet_cells",
    "kernel.events_drained", "kernel.sched_pushes",    "kernel.levels_touched",
    "kernel.flops_latched",  "kernel.flops_skipped",   "kernel.full_sweeps",
};

constexpr const char* kOtherCounters[] = {
    "fsim.trace_cache_hits", "fsim.trace_cache_misses",
    "campaign.shard_steals", "campaign.pool_parks",
    "cache.hits",            "cache.disk_hits",
    "cache.misses",
};

struct TracedOp {
  OpOutcome outcome;
  std::vector<obs::TraceEvent> events;  ///< as the tracer recorded them
  std::vector<Span> spans;              ///< events[i], parented
  std::vector<std::int64_t> self_us;
  std::map<std::string, double> layer;  ///< per-layer values of this op
};

TracedOp run_traced_op(Setup& s, const Workload& w, const CampaignOptions& opts,
                       const std::string& cache_dir, int threads) {
  obs::tracer().drain();
  obs::metrics().reset_values();
  obs::tracer().set_enabled(true);
  obs::metrics().set_enabled(true);
  TracedOp t;
  t.outcome = run_op(s, w, opts, cache_dir);
  obs::tracer().set_enabled(false);
  obs::metrics().set_enabled(false);

  // The good-machine functional run on its own, right after the op so that
  // it meets the same host speed. run_sbst_campaign runs it inside the
  // bench's campaign.run span with no span of its own.
  std::vector<double> good_s;
  double good_cycles = 0;
  for (int i = 0; i < kGoodRuns; ++i) {
    const auto g0 = Clock::now();
    const std::vector<int> cycles = run_suite_functional(*s.soc, s.suite);
    good_s.push_back(seconds_since(g0));
    good_cycles = std::accumulate(cycles.begin(), cycles.end(), 0.0);
  }
  const double good_run_s = median(good_s);

  t.events = obs::tracer().drain();
  for (const obs::TraceEvent& ev : t.events)
    t.spans.push_back(Span{ev.name, ev.ts_us, ev.dur_us, ev.tid});
  assign_parents(t.spans, 0);
  t.self_us = self_times_us(t.spans);

  std::map<std::string, double> sum_s;  // main-lane span time by name
  // Self time of the bench's wrapper spans: the op itself, and campaign.run
  // around run_sbst_campaign. No layer is named there except the good run.
  double wrapper_self_s = 0, shard_s = 0;
  std::vector<double> shard_ms;
  for (std::size_t i = 0; i < t.spans.size(); ++i) {
    const Span& sp = t.spans[i];
    const double dur_s = 1e-6 * static_cast<double>(sp.dur_us);
    if (sp.name == "shard") {
      shard_s += dur_s;
      shard_ms.push_back(1e3 * dur_s);
    } else if (sp.tid == 0) {
      sum_s[sp.name] += dur_s;
      if (sp.name == "op" || sp.name == "campaign.run")
        wrapper_self_s += 1e-6 * static_cast<double>(t.self_us[i]);
    }
  }
  const OpOutcome& o = t.outcome;
  const double pairs = static_cast<double>(o.campaign.stats.faults_simulated);
  const double grade = sum_s["plan"] + sum_s["execute"] + sum_s["merge"];
  const double capacity = threads * sum_s["execute"];
  std::map<std::string, double>& m = t.layer;
  m["core.sta_s"] = sum_s["core.sta"];
  m["core.analyze_s"] = sum_s["core.analyze"];
  m["core.pruned_faults"] = static_cast<double>(o.pruned);
  m["sbst.good_run_s"] = good_run_s;
  m["sbst.good_cycles"] = good_cycles;
  m["sbst.record_trace_s"] = sum_s["record_trace"];
  m["campaign.grade_s"] = grade;
  m["campaign.serial_s"] =
      o.wall_s - grade - sum_s["core.sta"] - sum_s["core.analyze"];
  m["campaign.plan_s"] = sum_s["plan"];
  m["campaign.execute_s"] = sum_s["execute"];
  m["campaign.merge_s"] = sum_s["merge"];
  m["campaign.pairs_graded"] = pairs;
  m["campaign.shards"] = static_cast<double>(o.campaign.stats.batches);
  m["campaign.pool_util"] = capacity > 0 ? shard_s / capacity : 0;
  m["campaign.idle_s"] = std::max(0.0, capacity - shard_s);
  m["campaign.shard_ms_p50"] = percentile(shard_ms, 50);
  m["campaign.shard_ms_p99"] = percentile(shard_ms, 99);
  m["fsim.busy_s"] = shard_s;
  m["fsim.pairs_per_busy_s"] = shard_s > 0 ? pairs / shard_s : 0;
  m["fsim.detect_yield"] =
      pairs > 0 ? static_cast<double>(o.campaign.total_new_detections) / pairs
                : 0;
  m["cache.lookup_s"] = sum_s["cache_lookup"];
  m["unattributed_s"] = wrapper_self_s - good_run_s;
  for (const char* name : kKernelCounters)
    m[name] = static_cast<double>(obs::metrics().counter(name).value());
  for (const char* name : kOtherCounters)
    m[name] = static_cast<double>(obs::metrics().counter(name).value());
  m["kernel.quiet_ratio"] =
      m["kernel.cells_evaluated"] > 0
          ? m["kernel.quiet_cells"] / m["kernel.cells_evaluated"]
          : 0;
  return t;
}

/// Writes the traced operations as one Chrome trace through the tracer's
/// own exporter, each event's args extended with its trace id (the
/// operation), span id, parent id (time containment) and self time.
void write_chrome_trace(const std::string& path,
                        const std::vector<TracedOp>& ops) {
  obs::Tracer& tr = obs::tracer();
  tr.clear();
  tr.set_enabled(true);
  std::size_t base_id = 0;
  for (std::size_t op = 0; op < ops.size(); ++op) {
    for (std::size_t i = 0; i < ops[op].events.size(); ++i) {
      obs::TraceEvent ev = ops[op].events[i];
      const int parent = ops[op].spans[i].parent;
      ev.args.emplace_back("trace_id", Json(op + 1));
      ev.args.emplace_back("span_id", Json(base_id + i + 1));
      ev.args.emplace_back(
          "parent_id",
          Json(parent < 0 ? 0 : base_id + static_cast<std::size_t>(parent) + 1));
      ev.args.emplace_back("self_us",
                           Json(static_cast<double>(ops[op].self_us[i])));
      tr.record(std::move(ev));
    }
    base_id += ops[op].events.size();
  }
  tr.set_enabled(false);
  const std::string doc = tr.to_json().dump() + "\n";
  tr.clear();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) throw std::runtime_error("cannot write " + path);
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  if (std::fclose(f) != 0 || !ok)
    throw std::runtime_error("cannot write " + path);
}

// ---------------------------------------------------------------------------
// Metric catalogue (mirrors BENCHMARK.json).

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"op_s", "s"},     {"faults_per_s", "1/s"}, {"cpu_s", "s"},
    {"setup_s", "s"},  {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"cpu.build_soc_s", "s"},
    {"fault.universe_s", "s"},
    {"core.sta_s", "s"},
    {"core.analyze_s", "s"},
    {"core.pruned_faults", "count"},
    {"sbst.good_run_s", "s"},
    {"sbst.record_trace_s", "s"},
    {"sbst.good_cycles", "count"},
    {"campaign.grade_s", "s"},
    {"campaign.serial_s", "s"},
    {"campaign.plan_s", "s"},
    {"campaign.execute_s", "s"},
    {"campaign.merge_s", "s"},
    {"campaign.pairs_graded", "count"},
    {"campaign.shards", "count"},
    {"campaign.pool_util", "ratio"},
    {"campaign.idle_s", "s"},
    {"campaign.shard_ms_p50", "ms"},
    {"campaign.shard_ms_p99", "ms"},
    {"campaign.shard_steals", "count"},
    {"campaign.pool_parks", "count"},
    {"fsim.busy_s", "s"},
    {"fsim.pairs_per_busy_s", "1/s"},
    {"fsim.detect_yield", "ratio"},
    {"fsim.trace_cache_hits", "count"},
    {"fsim.trace_cache_misses", "count"},
    {"kernel.evals", "count"},
    {"kernel.cells_evaluated", "count"},
    {"kernel.quiet_cells", "count"},
    {"kernel.quiet_ratio", "ratio"},
    {"kernel.events_drained", "count"},
    {"kernel.sched_pushes", "count"},
    {"kernel.levels_touched", "count"},
    {"kernel.flops_latched", "count"},
    {"kernel.flops_skipped", "count"},
    {"kernel.full_sweeps", "count"},
    {"cache.lookup_s", "s"},
    {"cache.hits", "count"},
    {"cache.disk_hits", "count"},
    {"cache.misses", "count"},
    {"cache.fill_s", "s"},
    {"trace_overhead", "ratio"},
    {"unattributed_s", "s"},
    {"op_s_tail", "s"},
};

// ---------------------------------------------------------------------------
// Main loop.

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  bool trace = false;
  std::string out_dir = "benchmark/out";
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: olfui_bench --workload sa_full|tdf_full|olfui_flow|"
               "regrade_warm [--seed S] [--trace 0|1] [--out DIR]\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage();
    const std::string val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      for (const Workload& w : kWorkloads)
        if (val == w.name) a.workload = &w;
      if (!a.workload) usage();
    } else if (arg == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      if (val.empty() || *end) usage();
    } else if (arg == "--trace") {
      if (val != "0" && val != "1") usage();
      a.trace = val == "1";
    } else if (arg == "--out") {
      a.out_dir = val;
    } else {
      usage();
    }
  }
  if (!a.workload) usage();
  return a;
}

/// Removes the run's private cache directory however the run ends.
struct DirGuard {
  std::string path;
  ~DirGuard() {
    std::error_code ec;
    if (!path.empty()) std::filesystem::remove_all(path, ec);
  }
};

int run(const Args& args) {
  const Workload& w = *args.workload;
  obs::set_thread_lane(0);
  const int threads = std::min(4, usable_cpus());
  const SocConfig cfg = soc_config_for_seed(args.seed);
  std::filesystem::create_directories(args.out_dir);

  // Every checked operation counts once in `attempted`, and once in
  // `failed` however many of its checks fail.
  std::size_t attempted = 0, failed = 0;
  std::optional<std::uint64_t> reference_hash;  // the run's first op sets it
  const auto check = [&](const Workload& as, const OpOutcome& o,
                         const char* what,
                         std::vector<std::string> problems = {}) {
    ++attempted;
    if (!reference_hash) reference_hash = o.hash;
    for (std::string& p : check_op(as, args.seed, o, *reference_hash))
      problems.push_back(std::move(p));
    for (const std::string& p : problems)
      std::fprintf(stderr, "%s: %s op %zu: %s\n", w.name, what, attempted,
                   p.c_str());
    if (!problems.empty()) ++failed;
  };

  // --- setup: built kSetups times, the last one kept ------------------------
  Setup setup;
  std::vector<double> setup_s, build_soc_s, universe_s;
  for (int i = 0; i < kSetups; ++i) {
    setup = make_setup(cfg);
    setup_s.push_back(setup.total_s());
    build_soc_s.push_back(setup.build_soc_s);
    universe_s.push_back(setup.universe_s);
  }
  double setup_median = median(setup_s);

  CampaignOptions opts;
  opts.threads = threads;
  opts.fault_model = w.model;
  DirGuard cache_dir;
  double fill_s = 0;
  if (w.flow == Flow::kCacheHit) {
    // The cold miss + store is this workload's setup: it writes the entry
    // every timed operation then reads back through a fresh cache object.
    cache_dir.path = args.out_dir + "/cache-" + std::to_string(::getpid());
    std::filesystem::remove_all(cache_dir.path);
    const OpOutcome fill = run_op(setup, w, opts, cache_dir.path);
    fill_s = fill.wall_s;
    setup_median += fill_s;
    // The fill grades for real: it is checked as a plain campaign.
    Workload cold = w;
    cold.flow = Flow::kCampaign;
    std::vector<std::string> problems;
    if (fill.campaign.stats.cache != "miss" || fill.cache.stores != 1)
      problems.push_back("the cache fill did not miss and store");
    check(cold, fill, "fill", std::move(problems));
  }

  // --- warm-up: discarded ---------------------------------------------------
  {
    CampaignOptions warm = opts;
    if (w.flow != Flow::kCacheHit) warm.target_limit = kWarmupTargets;
    run_op(setup, w, warm, cache_dir.path);
  }

  // --- timed closed loop ----------------------------------------------------
  std::vector<double> op_s, cpu_s;
  while (op_s.size() < w.timed_ops) {
    const OpOutcome o = run_op(setup, w, opts, cache_dir.path);
    op_s.push_back(o.wall_s);
    cpu_s.push_back(o.cpu_s);
    check(w, o, "timed");
  }
  const double op_median = median(op_s);

  std::map<std::string, double> values;
  if (!args.trace) {
    values["op_s"] = op_median;
    values["faults_per_s"] =
        static_cast<double>(setup.universe->size()) / op_median;
    values["cpu_s"] = median(cpu_s);
    values["setup_s"] = setup_median;
    values["peak_rss_mb"] = peak_rss_mb();
  } else {
    // --- traced operations --------------------------------------------------
    std::vector<TracedOp> traced;
    for (int i = 0; i < kTracedOps; ++i)
      traced.push_back(run_traced_op(setup, w, opts, cache_dir.path, threads));
    for (TracedOp& t : traced) {
      // The attributed share is a timing, so host noise moves it: it is
      // reported against its 95% target, never counted as a failed op.
      const double attributed =
          1.0 - t.layer["unattributed_s"] / t.outcome.wall_s;
      std::printf("%s attributed %.1f%% of traced op %zu (target 95%%)%s\n",
                  w.name, 100.0 * attributed, attempted + 1,
                  attributed < 0.95 ? ": below target" : "");
      // Simulated work must repeat exactly; timings may not.
      std::vector<std::string> problems;
      std::vector<std::string> exact(std::begin(kKernelCounters),
                                     std::end(kKernelCounters));
      exact.push_back("campaign.pairs_graded");
      for (const std::string& name : exact)
        if (t.layer[name] != traced.front().layer[name])
          problems.push_back(name + " differs from the first traced op");
      check(w, t.outcome, "traced", std::move(problems));
    }

    for (const TracedOp& t : traced)
      for (const auto& [name, v] : t.layer) values[name] += v / kTracedOps;
    double traced_wall = 0;
    for (const TracedOp& t : traced) traced_wall += t.outcome.wall_s / kTracedOps;
    const std::optional<Tail> tail = tail_percentile(op_s);
    values["cpu.build_soc_s"] = median(build_soc_s);
    values["fault.universe_s"] = median(universe_s);
    values["cache.fill_s"] = fill_s;
    values["trace_overhead"] = traced_wall / op_median;
    values["op_s_tail"] = tail ? tail->value : 0;

    // Self time per span name on the main lane: these add up to the op's
    // wall time (the worker lanes' share is fsim.busy_s).
    std::map<std::string, double> self_s;
    for (const TracedOp& t : traced)
      for (std::size_t i = 0; i < t.spans.size(); ++i)
        if (t.spans[i].tid == 0)
          self_s[t.spans[i].name] +=
              1e-6 * static_cast<double>(t.self_us[i]) / kTracedOps;
    for (const auto& [name, s] : self_s)
      std::printf("%s self.%s %.6f s (%.1f%% of the traced op)\n", w.name,
                  name.c_str(), s, 100.0 * s / traced_wall);
    const std::string trace_path = args.out_dir + "/trace-" + w.name + "-seed" +
                                   std::to_string(args.seed) + ".json";
    write_chrome_trace(trace_path, traced);
    std::printf("%s trace %s\n", w.name, trace_path.c_str());
  }

  Json metrics = Json::object();
  for (const MetricDef& def : args.trace ? std::span<const MetricDef>(kPerLayer)
                                         : std::span<const MetricDef>(kEndToEnd)) {
    const double value = values.at(def.name);
    std::printf("%s %s %.17g %s\n", w.name, def.name, value, def.unit);
    Json m = Json::object();
    m.set("value", value);
    m.set("unit", def.unit);
    metrics.set(def.name, std::move(m));
  }
  Json result = Json::object();
  result.set("correct", failed == 0);
  result.set("attempted", attempted);
  result.set("failed", failed);
  result.set("metrics", std::move(metrics));
  std::printf("%s\n", result.dump().c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace olfui::bench

int main(int argc, char** argv) {
  const olfui::bench::Args args = olfui::bench::parse_args(argc, argv);
  try {
    return olfui::bench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "olfui_bench: %s\n", e.what());
    return 1;
  }
}
