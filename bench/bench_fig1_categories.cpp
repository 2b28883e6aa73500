// E2 — Fig. 1: the containment of fault categories.
//
//   structurally untestable ⊂ functionally untestable
//                           ⊂ on-line functionally untestable ⊂ universe
//
// Operationalization on the reproduction SoC:
//   structural  = untestable with full pin access (tie-cell redundancy);
//   functional  = structural + memory-map restrictions (they constrain
//                 mission operation even with full DfT access);
//   on-line     = functional + scan + debug restrictions.
// The bench prints the set sizes and verifies containment fault by fault;
// it exits 1 if either containment is violated.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "core/analyzer.hpp"

namespace {

using namespace olfui;

bool print_categories() {
  auto soc = build_soc({});
  const FaultUniverse universe(soc->netlist);
  OnlineUntestabilityAnalyzer analyzer(*soc, universe);

  AnalyzerOptions structural_only;
  structural_only.run_scan = structural_only.run_debug_control = false;
  structural_only.run_debug_observe = structural_only.run_memmap = false;
  FaultList structural(universe);
  analyzer.run(structural, structural_only);

  AnalyzerOptions functional_only = structural_only;
  functional_only.run_memmap = true;
  FaultList functional(universe);
  analyzer.run(functional, functional_only);

  FaultList online(universe);
  analyzer.run(online);

  const std::size_t s = structural.count_untestable();
  const std::size_t f = functional.count_untestable();
  const std::size_t o = online.count_untestable();

  bool s_in_f = true, f_in_o = true;
  for (FaultId id = 0; id < universe.size(); ++id) {
    if (structural.untestable_kind(id) != UntestableKind::kNone &&
        functional.untestable_kind(id) == UntestableKind::kNone)
      s_in_f = false;
    if (functional.untestable_kind(id) != UntestableKind::kNone &&
        online.untestable_kind(id) == UntestableKind::kNone)
      f_in_o = false;
  }

  std::printf("== E2: Fig. 1 fault-category containment ========================\n");
  std::printf("%-38s %10s %8s\n", "category", "faults", "share");
  const double total = static_cast<double>(universe.size());
  std::printf("%-38s %10zu %7.1f%%\n", "ON-LINE FAULT UNIVERSE", universe.size(),
              100.0);
  std::printf("%-38s %10zu %7.1f%%\n", "  on-line functionally untestable", o,
              100.0 * static_cast<double>(o) / total);
  std::printf("%-38s %10zu %7.1f%%\n", "    functionally untestable", f,
              100.0 * static_cast<double>(f) / total);
  std::printf("%-38s %10zu %7.1f%%\n", "      structurally untestable", s,
              100.0 * static_cast<double>(s) / total);
  std::printf("%-38s %10zu %7.1f%%\n", "  on-line detectable (upper bound)",
              universe.size() - o, 100.0 * static_cast<double>(universe.size() - o) / total);
  std::printf("containment: structural ⊆ functional: %s, functional ⊆ on-line: %s\n\n",
              s_in_f ? "HOLDS" : "VIOLATED", f_in_o ? "HOLDS" : "VIOLATED");
  return s_in_f && f_in_o;
}

void BM_CategoryClassification(benchmark::State& state) {
  auto soc = build_soc({});
  const FaultUniverse universe(soc->netlist);
  OnlineUntestabilityAnalyzer analyzer(*soc, universe);
  for (auto _ : state) {
    FaultList online(universe);
    benchmark::DoNotOptimize(analyzer.run(online));
  }
}
BENCHMARK(BM_CategoryClassification)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const bool ok = print_categories();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return ok ? 0 : 1;
}
