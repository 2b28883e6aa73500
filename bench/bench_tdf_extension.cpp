// Extension — "We are currently working to extend the proposed technique
// to other fault models" (paper §5).
//
// Transition-delay faults (slow-to-rise / slow-to-fall) share the stuck-at
// sites, but launching a transition needs BOTH logic values at the site:
// every mission-constant net loses both of its transition faults, so the
// on-line untestable share for the transition model is strictly larger
// than for stuck-at. This bench reports the side-by-side Table-I rows and
// exits 1 if the transition model's pruning is not strictly larger.
// Campaign throughput for both models is measured by benchmark/
// (olfui_bench's sa_full and tdf_full workloads).
#include <benchmark/benchmark.h>

#include <cstdio>

#include "core/analyzer.hpp"

namespace {

using namespace olfui;

bool print_tdf_comparison() {
  auto soc = build_soc({});
  const FaultUniverse universe(soc->netlist);
  OnlineUntestabilityAnalyzer analyzer(*soc, universe);

  FaultList sa(universe), tdf(universe);
  const AnalysisReport sa_rep = analyzer.run(sa);
  AnalyzerOptions topts;
  topts.fault_model = FaultModel::kTransition;
  const AnalysisReport tdf_rep = analyzer.run(tdf, topts);

  std::printf("== extension: stuck-at vs transition-delay untestability ========\n");
  std::printf("(universe: %zu sites -> %zu faults per model)\n",
              universe.size() / 2, universe.size());
  std::printf("%-16s %14s %14s\n", "source", "stuck-at", "transition");
  const auto row = [&](const char* name, std::size_t a, std::size_t b) {
    std::printf("%-16s %14zu %14zu\n", name, a, b);
  };
  row("structural", sa_rep.structural_baseline, tdf_rep.structural_baseline);
  row("scan", sa_rep.scan, tdf_rep.scan);
  row("debug-control", sa_rep.debug_control, tdf_rep.debug_control);
  row("debug-observe", sa_rep.debug_observe, tdf_rep.debug_observe);
  row("memory-map", sa_rep.memmap, tdf_rep.memmap);
  row("TOTAL on-line", sa_rep.total_online(), tdf_rep.total_online());
  std::printf("share of universe: %.1f%% (stuck-at) vs %.1f%% (transition)\n",
              sa_rep.online_pct(), tdf_rep.online_pct());
  const bool larger = tdf_rep.total_online() + tdf_rep.structural_baseline >
                     sa_rep.total_online() + sa_rep.structural_baseline;
  std::printf("transition-model pruning is strictly larger: %s\n\n",
              larger ? "CONFIRMED" : "VIOLATED");
  return larger;
}

void BM_TransitionClassification(benchmark::State& state) {
  auto soc = build_soc({});
  const FaultUniverse universe(soc->netlist);
  OnlineUntestabilityAnalyzer analyzer(*soc, universe);
  AnalyzerOptions topts;
  topts.fault_model = FaultModel::kTransition;
  for (auto _ : state) {
    FaultList fl(universe);
    benchmark::DoNotOptimize(analyzer.run(fl, topts));
  }
}
BENCHMARK(BM_TransitionClassification)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const bool ok = print_tdf_comparison();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return ok ? 0 : 1;
}
