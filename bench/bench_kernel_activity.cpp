// Kernel activity: event-driven eval() vs the levelized full sweep on the
// SBST campaign workload.
//
// The event-driven kernel only visits cells whose input words changed, so
// its win is the complement of the workload's activity ratio: on a CPU
// running self-test code most of the netlist is quiet on any given eval
// (idle multiplier rows, untouched BTB tags, stable high address bits).
// This bench grades identical fault batches with both kernels on one
// simulator thread, reports cycles/sec, the measured activity ratio
// (cells evaluated / cells a sweep would have evaluated), and the
// speedup, cross-checks that both kernels detect the bit-identical fault
// set, and writes BENCH_kernel.json for the perf trajectory. CI runs it
// as a smoke test.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <span>
#include <utility>
#include <vector>

#include "campaign/json.hpp"
#include "cpu/soc.hpp"
#include "fault/universe.hpp"
#include "fsim/fsim.hpp"
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

struct KernelRun {
  double wall_seconds = 0;
  double cycles_per_second = 0;
  double activity_ratio = 0;  ///< cells evaluated / sweep-equivalent cells
  /// Scheduler-overhead counters for the graded slice (PackedActivity):
  /// how much bookkeeping the event arena and the dirty-D clock did.
  std::uint64_t events_drained = 0;
  std::uint64_t sched_pushes = 0;
  std::uint64_t flops_latched = 0;
  std::uint64_t flops_skipped = 0;
  std::vector<bool> detections;  ///< per-target flags (cross-check)
};

/// Grades `targets` in (W-1)-fault batches with one kernel on one thread.
template <int W = 64>
KernelRun run_kernel(const Soc& soc, const FaultUniverse& universe,
                     SbstProgram& program, int good_cycles,
                     std::span<const FaultId> targets, bool event_driven,
                     bool incremental = true) {
  const int max_cycles = good_cycles + 8;
  FlashImage flash(soc.config.flash_base, soc.config.flash_size);
  flash.load(program.program.base(), program.program.words());

  SocFsimEnvironmentT<W> trace_env(soc, flash, max_cycles);
  SequentialFaultSimulatorT<W> tracer(
      soc.netlist, universe,
      {.max_cycles = max_cycles,
       .event_driven = event_driven,
       .incremental_clocking = incremental});
  tracer.set_observed(soc.cpu.bus_output_cells);
  const ReferenceTrace trace = tracer.record_reference_trace(trace_env);

  SocFsimEnvironmentT<W> env(soc, flash, max_cycles);
  SequentialFaultSimulatorT<W> fsim(
      soc.netlist, universe,
      {.max_cycles = max_cycles,
       .event_driven = event_driven,
       .incremental_clocking = incremental});
  fsim.set_observed(soc.cpu.bus_output_cells);

  KernelRun run;
  fsim.sim().reset_activity();
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t batch_cycles = 0;
  constexpr std::size_t kBatch = W - 1;
  for (std::size_t i = 0; i < targets.size(); i += kBatch) {
    const std::size_t n = std::min(kBatch, targets.size() - i);
    const LaneMask det = fsim.run_batch(targets.subspan(i, n), env, &trace);
    for (std::size_t j = 0; j < n; ++j)
      run.detections.push_back(det.bit(static_cast<int>(j)));
    batch_cycles += static_cast<std::uint64_t>(trace.cycles);
  }
  run.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const PackedActivity& act = fsim.sim().activity();
  const double sweep_equivalent = static_cast<double>(act.evals) *
                                  static_cast<double>(fsim.sim().comb_cell_count());
  run.activity_ratio =
      sweep_equivalent > 0
          ? static_cast<double>(act.cells_evaluated) / sweep_equivalent
          : 0.0;
  run.events_drained = act.events_drained;
  run.sched_pushes = act.sched_pushes;
  run.flops_latched = act.flops_latched;
  run.flops_skipped = act.flops_skipped;
  run.cycles_per_second = run.wall_seconds > 0
                              ? static_cast<double>(batch_cycles) / run.wall_seconds
                              : 0.0;
  return run;
}

void run_activity_table() {
  const SocConfig cfg = lean_config();
  auto soc = build_soc(cfg);
  const FaultUniverse universe(soc->netlist);
  auto suite = build_sbst_suite(cfg);
  const std::vector<int> cycles = run_suite_functional(*soc, suite);

  // A fixed fault slice keeps the bench comparable across runs and fast
  // enough for a CI smoke test.
  std::vector<FaultId> targets;
  for (FaultId f = 0; f < universe.size() && targets.size() < 2048; f += 5)
    targets.push_back(f);

  std::printf("== kernel activity: event-driven vs full sweep ===================\n");
  std::printf("netlist: %zu cells, universe: %zu faults, slice: %zu faults\n\n",
              soc->netlist.num_cells(), universe.size(), targets.size());
  std::printf("%12s %12s %14s %10s %10s %9s\n", "program", "kernel",
              "cycles/sec", "wall [s]", "activity", "speedup");

  Json programs = Json::array();
  bool all_identical = true;
  double speedup_product = 1.0;
  int speedup_count = 0;
  // Two contrasting programs: a straight-line ALU burst and the
  // branch/BTB exerciser (control-heavy, long loops).
  for (const std::size_t pi : {std::size_t{0}, std::size_t{4}}) {
    if (pi >= suite.size()) continue;
    const KernelRun sweep =
        run_kernel(*soc, universe, suite[pi], cycles[pi], targets, false);
    const KernelRun event =
        run_kernel(*soc, universe, suite[pi], cycles[pi], targets, true);
    const bool identical = event.detections == sweep.detections;
    all_identical &= identical;
    const double speedup = sweep.wall_seconds > 0 && event.wall_seconds > 0
                               ? sweep.wall_seconds / event.wall_seconds
                               : 0.0;
    speedup_product *= speedup;
    ++speedup_count;
    std::printf("%12s %12s %14.0f %10.3f %9.1f%% %9s\n",
                suite[pi].name.c_str(), "sweep", sweep.cycles_per_second,
                sweep.wall_seconds, 100.0 * sweep.activity_ratio, "1.00x");
    std::printf("%12s %12s %14.0f %10.3f %9.1f%% %8.2fx  %s\n",
                suite[pi].name.c_str(), "event", event.cycles_per_second,
                event.wall_seconds, 100.0 * event.activity_ratio, speedup,
                identical ? "[detections identical]" : "[MISMATCH!]");

    Json p = Json::object();
    p.set("program", suite[pi].name);
    p.set("good_cycles", cycles[pi]);
    p.set("sweep_cycles_per_second", sweep.cycles_per_second);
    p.set("event_cycles_per_second", event.cycles_per_second);
    p.set("sweep_wall_seconds", sweep.wall_seconds);
    p.set("event_wall_seconds", event.wall_seconds);
    p.set("event_activity_ratio", event.activity_ratio);
    p.set("speedup", speedup);
    p.set("detections_identical", identical);
    programs.push_back(std::move(p));
  }

  // Per-width throughput + scheduler overhead: the same slice through
  // the 64-lane oracle and the 128-lane SBST grading width (event-driven
  // kernel, program 0), detections cross-checked bit-identical. The
  // overhead counters (events drained, arena pushes, flops latched /
  // skipped) track the per-cell bookkeeping that grows with width.
  std::printf("\n%6s %12s %9s %7s %11s %11s %9s %9s\n", "width",
              "cycles/sec", "wall [s]", "vs 64", "drained", "pushes",
              "latched", "skipped");
  Json widths = Json::array();
  const KernelRun w64 =
      run_kernel<64>(*soc, universe, suite[0], cycles[0], targets, true);
  const KernelRun w128 =
      run_kernel<128>(*soc, universe, suite[0], cycles[0], targets, true);
  const double base_wall = w64.wall_seconds;
  for (const auto& [lanes, r] : {std::pair<int, const KernelRun&>{64, w64},
                                 {128, w128}}) {
    Json wj = Json::object();
    wj.set("lanes", lanes);
    const bool identical = r.detections == w64.detections;
    all_identical &= identical;
    const double vs64 = base_wall > 0 && r.wall_seconds > 0
                            ? base_wall / r.wall_seconds
                            : 0.0;
    std::printf("%6d %12.0f %9.3f %6.2fx %11llu %11llu %9llu %9llu  %s\n",
                lanes, r.cycles_per_second, r.wall_seconds, vs64,
                static_cast<unsigned long long>(r.events_drained),
                static_cast<unsigned long long>(r.sched_pushes),
                static_cast<unsigned long long>(r.flops_latched),
                static_cast<unsigned long long>(r.flops_skipped),
                identical ? "[detections identical]" : "[MISMATCH!]");
    wj.set("cycles_per_second", r.cycles_per_second);
    wj.set("wall_seconds", r.wall_seconds);
    wj.set("speedup_vs_64", vs64);
    wj.set("events_drained", r.events_drained);
    wj.set("sched_pushes", r.sched_pushes);
    wj.set("flops_latched", r.flops_latched);
    wj.set("flops_skipped", r.flops_skipped);
    wj.set("detections_identical", identical);
    widths.push_back(std::move(wj));
  }

  // Clocking modes: the full-sweep oracle vs the event kernel with the
  // full two-pass latch vs the shipped default (event + dirty-D
  // incremental clocking), all on the same slice. The three detection
  // vectors must be bit-identical — CI greps the flag.
  std::printf("\n%24s %14s %10s %9s %9s\n", "clocking", "cycles/sec",
              "wall [s]", "latched", "skipped");
  const KernelRun ck_sweep =
      run_kernel(*soc, universe, suite[0], cycles[0], targets, false, false);
  const KernelRun ck_full =
      run_kernel(*soc, universe, suite[0], cycles[0], targets, true, false);
  const KernelRun ck_incr =
      run_kernel(*soc, universe, suite[0], cycles[0], targets, true, true);
  const bool clocking_identical = ck_full.detections == ck_sweep.detections &&
                                  ck_incr.detections == ck_sweep.detections;
  all_identical &= clocking_identical;
  const auto print_clocking = [](const char* label, const KernelRun& r) {
    std::printf("%24s %14.0f %10.3f %9llu %9llu\n", label,
                r.cycles_per_second, r.wall_seconds,
                static_cast<unsigned long long>(r.flops_latched),
                static_cast<unsigned long long>(r.flops_skipped));
  };
  print_clocking("sweep oracle", ck_sweep);
  print_clocking("event + full latch", ck_full);
  print_clocking("event + incremental", ck_incr);
  std::printf("%24s %s\n", "",
              clocking_identical ? "[detections identical]" : "[MISMATCH!]");
  const auto clocking_json = [](const KernelRun& r) {
    Json cj = Json::object();
    cj.set("cycles_per_second", r.cycles_per_second);
    cj.set("wall_seconds", r.wall_seconds);
    cj.set("flops_latched", r.flops_latched);
    cj.set("flops_skipped", r.flops_skipped);
    return cj;
  };
  Json clocking = Json::object();
  clocking.set("sweep", clocking_json(ck_sweep));
  clocking.set("event_full_latch", clocking_json(ck_full));
  clocking.set("event_incremental", clocking_json(ck_incr));
  clocking.set("incremental_speedup",
               ck_incr.wall_seconds > 0
                   ? ck_full.wall_seconds / ck_incr.wall_seconds
                   : 0.0);

  Json doc = Json::object();
  doc.set("bench", "kernel_activity");
  doc.set("cells", soc->netlist.num_cells());
  doc.set("universe", universe.size());
  doc.set("fault_slice", targets.size());
  doc.set("programs", std::move(programs));
  doc.set("widths", std::move(widths));
  doc.set("clocking", std::move(clocking));
  doc.set("clocking_detections_identical", clocking_identical);
  doc.set("all_detections_identical", all_identical);
  std::ofstream("BENCH_kernel.json") << doc.dump(2) << "\n";

  std::printf("\n%s; geometric-mean speedup %.2fx; BENCH_kernel.json written.\n\n",
              all_identical ? "detections bit-identical across kernels"
                            : "DETECTION MISMATCH — kernel bug!",
              speedup_count > 0
                  ? std::pow(speedup_product, 1.0 / speedup_count)
                  : 0.0);
}

/// Microbenchmark: one batch through each kernel, for -benchmark_filter use.
void BM_KernelBatch(benchmark::State& state) {
  const bool event_driven = state.range(0) != 0;
  const SocConfig cfg = lean_config();
  auto soc = build_soc(cfg);
  const FaultUniverse universe(soc->netlist);
  auto suite = build_sbst_suite(cfg);
  const std::vector<int> cycles = run_suite_functional(*soc, suite);
  std::vector<FaultId> targets;
  for (FaultId f = 0; f < universe.size() && targets.size() < 63; f += 11)
    targets.push_back(f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_kernel(*soc, universe, suite[0], cycles[0],
                                        targets, event_driven));
  }
}
BENCHMARK(BM_KernelBatch)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  run_activity_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
