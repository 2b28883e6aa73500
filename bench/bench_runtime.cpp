// E8 — §4: engineering cost of the flow.
//
// "From the CPU time point of view, the modified circuit is analyzed by
// Tetramax in less than 1 second." The manual part (finding the
// untestability sources) took the paper's engineer about a week; here it
// is automated (scan tracing + quiet-input screening + tag scan), so the
// bench reports both the structural-analysis time and the source-search
// time across netlist sizes, and exits 1 if the full configuration's
// analysis takes 1 s or more.
#include <chrono>
#include <cstdio>

#include "core/analyzer.hpp"
#include "sbst/sbst.hpp"

namespace {

using namespace olfui;

SocConfig sized_config(int size_class) {
  SocConfig cfg;
  switch (size_class) {
    case 0:  // lean: no multiplier, small BTB
      cfg.cpu.with_multiplier = false;
      cfg.cpu.btb_entries = 1;
      break;
    case 1:  // mid: no multiplier
      cfg.cpu.with_multiplier = false;
      break;
    case 2:  // full case study
      break;
    case 3:  // enlarged: bigger BTB, more chains/buffers
      cfg.cpu.btb_entries = 8;
      cfg.scan.num_chains = 8;
      cfg.scan.buffers_per_link = 2;
      break;
    default:
      break;
  }
  return cfg;
}

/// Returns true when the paper's "<1 s" structural-analysis claim holds on
/// the full case-study configuration. The unit suite deliberately does NOT
/// assert this (wall-clock checks flake under `ctest -j` on loaded
/// machines); this bench owns the claim, asserted in its own isolated
/// process.
bool print_runtime_table() {
  bool under_one_second = true;
  std::printf("== E8: analysis runtime vs netlist size ==========================\n");
  std::printf("paper: structural analysis < 1 s; source search ~1 engineer week "
              "(manual)\n");
  std::printf("%-10s %10s %10s %14s %16s\n", "config", "cells", "faults",
              "analysis [s]", "source search [s]");
  for (int size_class = 0; size_class < 4; ++size_class) {
    const SocConfig cfg = sized_config(size_class);
    auto soc = build_soc(cfg);
    const FaultUniverse universe(soc->netlist);
    FaultList fl(universe);
    OnlineUntestabilityAnalyzer analyzer(*soc, universe);

    // Source search: trace scan chains + screen the inputs one program's
    // recorded trace never moves + collect address-register tags.
    const auto t0 = std::chrono::steady_clock::now();
    (void)trace_scan(soc->netlist);
    auto suite = build_sbst_suite(cfg);
    const SbstCampaignTest test = build_sbst_campaign_test(
        *soc, suite[0], universe, PackedTopology::build(soc->netlist));
    (void)find_quiet_inputs(soc->netlist, test.trace->activation());
    (void)find_address_registers(soc->netlist);
    const double search_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    const AnalysisReport rep = analyzer.run(fl);
    if (size_class == 2 && rep.analysis_seconds >= 1.0)
      under_one_second = false;
    static const char* kNames[] = {"lean", "mid", "full", "large"};
    std::printf("%-10s %10zu %10zu %14.3f %16.3f\n", kNames[size_class],
                soc->netlist.stats().cells, universe.size(),
                rep.analysis_seconds, search_s);
  }
  std::printf("paper claim (<1 s on the full config): %s\n\n",
              under_one_second ? "HOLDS" : "VIOLATED");
  return under_one_second;
}

}  // namespace

int main() { return print_runtime_table() ? 0 : 1; }
