// Campaign orchestrator scaling on the SBST workload. Writes
// BENCH_campaign.json; CI runs it as a smoke step.
//
// Sections:
//  * thread scaling — the slice graded at 1/2/4/8 worker threads with the
//    determinism cross-check (every thread count must produce the same
//    detections). NOTE: on a 1-core container every speedup degenerates
//    to ~1.0x; on an N-core host expect near-linear scaling to min(N, 8).
//  * kernel cross-check — event-driven vs full-sweep detections.
//  * tracing overhead — the same grade with observability off vs fully
//    on (tracer + metrics), with the side-band cross-check (identical
//    detections) and the overhead ratio recorded in the JSON.
//  * result cache — the same campaign cold (miss + store) and warm (full
//    hit: zero shards executed, byte-identical deterministic payload).
//  * full-universe scaling table — the original whole-suite campaign at
//    1/2/4/8 threads; minutes of work, so it only runs with
//    OLFUI_BENCH_FULL=1 (CI smoke skips it).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <thread>

#include "campaign/cache.hpp"
#include "campaign/campaign.hpp"
#include "campaign/json.hpp"
#include "campaign/report.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sbst/sbst.hpp"

namespace {

using namespace olfui;

SocConfig lean_config() {
  SocConfig cfg;
  cfg.cpu.with_multiplier = false;
  cfg.cpu.btb_entries = 2;
  cfg.scan.num_chains = 4;
  return cfg;
}

/// A fixed fault slice keeps runs comparable and fast enough for CI.
std::vector<FaultId> fault_slice(const FaultUniverse& universe,
                                 std::size_t count, FaultId stride) {
  std::vector<FaultId> targets;
  for (FaultId f = 0; f < universe.size() && targets.size() < count;
       f += stride)
    targets.push_back(f);
  return targets;
}

struct SliceRun {
  double seconds = 0;
  BitVec detected;
};

/// Grades `targets` against every test, timing the whole sweep.
SliceRun grade_slice(const FaultUniverse& universe,
                     std::span<const CampaignTest> tests,
                     std::span<const FaultId> targets, int threads) {
  const CampaignEngine engine(universe, {.threads = threads});
  SliceRun run;
  run.detected = BitVec(targets.size());
  const auto t0 = std::chrono::steady_clock::now();
  for (const CampaignTest& test : tests) {
    const BitVec det = engine.grade(targets, test);
    for (std::size_t i = det.find_first(); i < det.size();
         i = det.find_next(i + 1))
      run.detected.set(i, true);
  }
  run.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return run;
}

void run_thread_scaling(const Soc& soc, const FaultUniverse& universe,
                        Json& doc) {
  auto suite = build_sbst_suite(soc.config);
  suite.erase(suite.begin() + 1, suite.end());
  const std::vector<CampaignTest> tests =
      build_sbst_campaign_tests(soc, suite, universe);
  const std::vector<FaultId> targets = fault_slice(universe, 2048, 5);

  std::printf("== thread scaling: one program, %zu faults (host: %u cores) ==\n",
              targets.size(), std::thread::hardware_concurrency());
  std::printf("%8s %10s %10s %10s\n", "threads", "wall [s]", "speedup",
              "detected");
  Json rows = Json::array();
  double base_seconds = 0;
  BitVec reference;
  bool deterministic = true;
  for (const int threads : {1, 2, 4, 8}) {
    const SliceRun run = grade_slice(universe, tests, targets, threads);
    if (threads == 1) {
      base_seconds = run.seconds;
      reference = run.detected;
    } else if (!(run.detected == reference)) {
      deterministic = false;
      std::printf("DETERMINISM VIOLATION at %d threads!\n", threads);
    }
    const double speedup = run.seconds > 0 ? base_seconds / run.seconds : 0.0;
    std::printf("%8d %10.3f %9.2fx %10zu\n", threads, run.seconds, speedup,
                run.detected.count());
    Json r = Json::object();
    r.set("threads", threads);
    r.set("wall_seconds", run.seconds);
    r.set("speedup", speedup);
    rows.push_back(std::move(r));
  }
  std::printf("%s\n\n", deterministic
                            ? "detection sets bit-identical across all "
                              "thread counts."
                            : "DETERMINISM VIOLATION!");
  doc.set("slice", targets.size());
  doc.set("threads", std::move(rows));
  doc.set("thread_detections_identical", deterministic);
}

/// Cross-check: the campaign graded with the event-driven kernel and with
/// the full-sweep oracle must produce the bit-identical detection BitVec —
/// the kernel is a work-skipping optimisation, never an approximation.
void run_kernel_cross_check(const Soc& soc, const FaultUniverse& universe,
                            Json& doc) {
  auto suite = build_sbst_suite(soc.config);
  suite.erase(suite.begin() + 2, suite.end());

  const std::vector<FaultId> targets = fault_slice(universe, 2048, 5);
  const CampaignEngine engine(universe, {.threads = 2});

  std::printf("== kernel cross-check: event-driven vs full sweep ================\n");
  bool identical = true;
  for (std::size_t p = 0; p < suite.size(); ++p) {
    std::vector<SbstProgram> one{suite[p]};
    const std::vector<CampaignTest> event_tests =
        build_sbst_campaign_tests(soc, one, universe, /*event_driven=*/true);
    const std::vector<CampaignTest> sweep_tests =
        build_sbst_campaign_tests(soc, one, universe, /*event_driven=*/false);
    const BitVec ev = engine.grade(targets, event_tests[0]);
    const BitVec sw = engine.grade(targets, sweep_tests[0]);
    identical &= ev == sw;
    std::printf("%12s: %5zu detected, kernels %s\n", one[0].name.c_str(),
                ev.count(), ev == sw ? "identical" : "DIFFER!");
  }
  std::printf(identical
                  ? "detection BitVecs bit-identical with the kernel switched "
                    "either way.\n\n"
                  : "KERNEL MISMATCH — event-driven kernel bug!\n\n");
  doc.set("kernel_detections_identical", identical);
}

/// Tracing overhead: the same grade with observability off and
/// fully on (tracer + metrics). The off run is the hot path shipped to
/// users — its only cost is the enabled() branch — so the ratio should
/// hover near 1.0; a regression here means an instrumentation site
/// started doing work outside its enabled() guard.
void run_tracing_overhead(const Soc& soc, const FaultUniverse& universe,
                          Json& doc) {
  auto suite = build_sbst_suite(soc.config);
  suite.erase(suite.begin() + 1, suite.end());
  const std::vector<CampaignTest> tests =
      build_sbst_campaign_tests(soc, suite, universe);
  const std::vector<FaultId> targets = fault_slice(universe, 1024, 7);
  const CampaignEngine engine(universe, {.threads = 2});

  std::printf("== tracing overhead: %zu faults, observability off vs on ====\n",
              targets.size());
  const auto t0 = std::chrono::steady_clock::now();
  const BitVec off = engine.grade(targets, tests[0]);
  const double off_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  obs::tracer().set_enabled(true);
  obs::metrics().set_enabled(true);
  const auto t1 = std::chrono::steady_clock::now();
  const BitVec on = engine.grade(targets, tests[0]);
  const double on_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t1)
          .count();
  const std::size_t spans = obs::tracer().event_count();
  obs::tracer().set_enabled(false);
  obs::tracer().clear();
  obs::metrics().set_enabled(false);
  obs::metrics().reset_values();

  const bool identical = off == on;
  std::printf("%12s %10.3f s\n%12s %10.3f s (%zu spans recorded)\n",
              "tracing off", off_seconds, "tracing on", on_seconds, spans);
  std::printf("overhead %.2fx; detection BitVecs %s\n\n",
              off_seconds > 0 ? on_seconds / off_seconds : 0.0,
              identical ? "bit-identical" : "DIFFER — side-band violation!");
  Json t = Json::object();
  t.set("off_seconds", off_seconds);
  t.set("on_seconds", on_seconds);
  t.set("overhead_ratio", off_seconds > 0 ? on_seconds / off_seconds : 0.0);
  t.set("spans_recorded", spans);
  doc.set("tracing", std::move(t));
  doc.set("tracing_detections_identical", identical);
}

/// Result-cache section: the same campaign graded cold (miss + store) and
/// warm (full hit — zero shards executed, payload byte-identical to the
/// cold run's deterministic JSON).
void run_cache_comparison(const Soc& soc, const FaultUniverse& universe,
                          Json& doc) {
  auto suite = build_sbst_suite(soc.config);
  suite.erase(suite.begin() + 1, suite.end());
  const std::vector<CampaignTest> tests =
      build_sbst_campaign_tests(soc, suite, universe);

  CampaignOptions opts;
  opts.threads = 2;
  opts.target_limit = 1024;
  opts.cache = std::make_shared<ResultCache>(8);

  std::printf("== result cache: cold vs warm ==============================\n");
  FaultList fl_cold(universe);
  const auto t0 = std::chrono::steady_clock::now();
  const CampaignResult cold =
      CampaignEngine(universe, opts).run(fl_cold, tests);
  const double cold_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  FaultList fl_warm(universe);
  const auto t1 = std::chrono::steady_clock::now();
  const CampaignResult warm =
      CampaignEngine(universe, opts).run(fl_warm, tests);
  const double warm_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t1)
          .count();
  const bool warm_hit = warm.stats.cache == "hit" && warm.stats.batches == 0;
  const bool byte_identical =
      campaign_result_to_json_string(warm, 2, false) ==
      campaign_result_to_json_string(cold, 2, false);

  std::printf("%12s %10.3f s (%s)\n", "cold", cold_seconds,
              cold.stats.cache.c_str());
  std::printf("%12s %10.3f s (%s, %zu batches executed)\n", "warm",
              warm_seconds, warm.stats.cache.c_str(), warm.stats.batches);
  std::printf("warm speedup %.1fx; payload %s\n\n",
              warm_seconds > 0 ? cold_seconds / warm_seconds : 0.0,
              byte_identical ? "byte-identical" : "DIFFERS — cache bug!");

  const ResultCacheStats cs = opts.cache->stats();
  Json c = Json::object();
  c.set("cold_seconds", cold_seconds);
  c.set("warm_seconds", warm_seconds);
  c.set("warm_speedup", warm_seconds > 0 ? cold_seconds / warm_seconds : 0.0);
  c.set("warm_zero_shards", warm_hit);
  c.set("hits", cs.hits);
  c.set("misses", cs.misses);
  c.set("stores", cs.stores);
  doc.set("cache", std::move(c));
  doc.set("cache_payload_identical", byte_identical);
}

/// The original whole-suite, whole-universe campaign at every thread
/// count — minutes of simulation, gated out of the CI smoke run.
void print_full_scaling_table() {
  const SocConfig cfg = lean_config();
  auto soc = build_soc(cfg);
  const FaultUniverse universe(soc->netlist);
  auto suite = build_sbst_suite(cfg);

  std::printf("== campaign scaling: full-universe SBST campaign =================\n");
  std::printf("universe: %zu faults, %zu programs, host concurrency: %u\n\n",
              universe.size(), suite.size(),
              std::thread::hardware_concurrency());
  std::printf("%8s %10s %12s %10s %10s\n", "threads", "wall [s]", "faults/sec",
              "speedup", "detected");

  double base_seconds = 0;
  BitVec reference;
  for (const int threads : {1, 2, 4, 8}) {
    FaultList fl(universe);
    const SbstCampaignResult result = run_sbst_campaign(
        *soc, suite, fl, {}, CampaignOptions{.threads = threads});
    const auto& stats = result.campaign.stats;
    if (threads == 1) {
      base_seconds = stats.wall_seconds;
      reference = result.campaign.detected;
    } else if (!(result.campaign.detected == reference)) {
      std::printf("DETERMINISM VIOLATION at %d threads!\n", threads);
    }
    std::printf("%8d %10.2f %12.0f %9.2fx %10zu\n", threads,
                stats.wall_seconds, stats.faults_per_second,
                stats.wall_seconds > 0 ? base_seconds / stats.wall_seconds : 0.0,
                result.campaign.detected.count());
  }
  std::printf("\ndetection sets bit-identical across all thread counts: the\n"
              "orchestrator's deterministic-merge guarantee.\n\n");
}

/// Microbenchmark: one program's grade() fan-out at a fixed thread count,
/// so orchestration regressions show up without the full campaign.
void BM_CampaignGrade(benchmark::State& state) {
  const SocConfig cfg = lean_config();
  auto soc = build_soc(cfg);
  const FaultUniverse universe(soc->netlist);
  auto suite = build_sbst_suite(cfg);
  suite.erase(suite.begin() + 1, suite.end());
  const std::vector<CampaignTest> tests =
      build_sbst_campaign_tests(*soc, suite, universe);
  const CampaignEngine engine(
      universe, {.threads = static_cast<int>(state.range(0))});
  const std::vector<FaultId> targets = fault_slice(universe, 1024, 7);
  for (auto _ : state)
    benchmark::DoNotOptimize(engine.grade(targets, tests[0]));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(targets.size()));
}
BENCHMARK(BM_CampaignGrade)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // One SoC + universe serves every smoke section (the dominant setup
  // cost on the 1-core CI runner); sections build their own suite
  // subsets and campaign tests.
  const auto soc = build_soc(lean_config());
  const FaultUniverse universe(soc->netlist);
  Json doc = Json::object();
  doc.set("bench", "campaign_scaling");
  run_thread_scaling(*soc, universe, doc);
  run_kernel_cross_check(*soc, universe, doc);
  run_tracing_overhead(*soc, universe, doc);
  run_cache_comparison(*soc, universe, doc);
  std::ofstream("BENCH_campaign.json") << doc.dump(2) << "\n";
  std::printf("BENCH_campaign.json written.\n\n");
  if (const char* full = std::getenv("OLFUI_BENCH_FULL"); full && *full == '1')
    print_full_scaling_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
