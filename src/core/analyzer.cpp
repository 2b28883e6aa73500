#include "core/analyzer.hpp"

#include <chrono>

#include "debug/debug.hpp"
#include "memmap/memmap.hpp"
#include "scan/scan.hpp"
#include "util/strings.hpp"

namespace olfui {

std::string AnalysisReport::table1() const {
  const auto pct = [&](std::size_t n) {
    return universe == 0 ? 0.0
                         : 100.0 * static_cast<double>(n) /
                               static_cast<double>(universe);
  };
  std::string out;
  out += "On-line functionally untestable faults\n";
  out += format("  %-10s %10s %7s\n", "", "[#]", "[%]");
  out += format("  %-10s %10s %6.1f%%\n", "Original", "0", 0.0);
  out += format("  %-10s %10s %6.1f%%\n", "Scan", with_commas(scan).c_str(),
                pct(scan));
  out += format("  %-10s %6s+%-5s %6.1f%%\n", "Debug",
                with_commas(debug_control).c_str(),
                with_commas(debug_observe).c_str(),
                pct(debug_control + debug_observe));
  out += format("  %-10s %10s %6.1f%%\n", "Memory", with_commas(memmap).c_str(),
                pct(memmap));
  out += format("  %-10s %10s %6.1f%%\n", "TOTAL",
                with_commas(total_online()).c_str(), online_pct());
  out += format("  (fault universe: %s; pre-existing structural: %s; "
                "analysis time: %.3f s)\n",
                with_commas(universe).c_str(),
                with_commas(structural_baseline).c_str(), analysis_seconds);
  return out;
}

OnlineUntestabilityAnalyzer::OnlineUntestabilityAnalyzer(
    const Soc& soc, const FaultUniverse& universe)
    : soc_(&soc), universe_(&universe), sta_(soc.netlist, universe) {}

AnalysisReport OnlineUntestabilityAnalyzer::run(FaultList& fl,
                                                FaultModel model) {
  using Clock = std::chrono::steady_clock;
  AnalysisReport report;
  report.universe = universe_->size();
  accumulated_ = MissionConfig{};

  const auto t0 = Clock::now();
  const auto classify = [&](const StaResult& r, FaultList& list,
                            OnlineSource src) {
    return model == FaultModel::kStuckAt
               ? sta_.classify_faults(r, list, src)
               : sta_.classify_transition_faults(r, list, src);
  };

  // Baseline: structurally untestable faults of the original, fully
  // accessible circuit (Fig. 1 innermost set). These are not "on-line"
  // faults — the paper's Table I reports 0 for the original circuit.
  const StaResult base = sta_.analyze(MissionConfig{});
  report.structural_baseline = classify(base, fl, OnlineSource::kStructural);

  // §3.1 scan circuitry: trace the chains, prune directly (for stuck-at,
  // the paper's "ad-hoc tool"); the transition model goes through the
  // structural engine, which subsumes the Fig.-2 rules.
  if (soc_->config.with_scan) {
    const ScanChains traced = trace_scan(soc_->netlist);
    accumulated_.merge(scan_mission_config(soc_->netlist, traced));
    if (model == FaultModel::kStuckAt) {
      report.scan = prune_scan_faults(traced, *universe_, fl);
    } else {
      const StaResult r = sta_.analyze(accumulated_);
      report.scan = classify(r, fl, OnlineSource::kScan);
    }
  }

  // §3.2.1 unused debug control logic: tie the debug inputs, re-run the
  // structural engine, attribute newly proven faults to this source.
  if (soc_->config.with_debug) {
    accumulated_.merge(debug_control_config(soc_->debug));
    const StaResult r = sta_.analyze(accumulated_);
    report.debug_control = classify(r, fl, OnlineSource::kDebugControl);
  }

  // §3.2.2 unused debug observation logic: float the debug outputs.
  if (soc_->config.with_debug) {
    accumulated_.merge(debug_observe_config(soc_->debug));
    const StaResult r = sta_.analyze(accumulated_);
    report.debug_observe = classify(r, fl, OnlineSource::kDebugObserve);
  }

  // §3.3 addressing resources under the mission memory map.
  accumulated_.merge(memmap_config(soc_->netlist, soc_->map, 32));
  const StaResult r = sta_.analyze(accumulated_);
  report.memmap = classify(r, fl, OnlineSource::kMemoryMap);

  report.analysis_seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();
  return report;
}

}  // namespace olfui
