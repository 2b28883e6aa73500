// olfui/core: the paper's primary contribution — the end-to-end on-line
// functionally untestable fault identification flow (§3, evaluated in §4):
//
//   1) Search for sources of untestability
//        - scan circuitry        (chain tracing, §3.1)
//        - debug control logic   (quiet-input screening + port list, §3.2.1)
//        - debug observation     (debug-only outputs, §3.2.2)
//        - addressing resources  (memory-map bit analysis, §3.3)
//   2) Circuit manipulation
//        - tie constant nets, unobserve floating outputs (MissionConfig)
//   3) Screen out on-line functionally untestable faults
//        a. direct pruning from the fault list (scan trace)
//        b. structural untestability checking (olfui_sta)
//
// The result reproduces the paper's Table I: per-source counts of on-line
// functionally untestable faults and the coverage gained by pruning them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cpu/soc.hpp"
#include "fault/fault_list.hpp"
#include "fault/universe.hpp"
#include "sta/sta.hpp"

namespace olfui {

struct AnalysisReport {
  std::size_t universe = 0;
  std::size_t structural_baseline = 0;  ///< untestable with full access
  std::size_t scan = 0;
  std::size_t debug_control = 0;
  std::size_t debug_observe = 0;
  std::size_t memmap = 0;
  double analysis_seconds = 0.0;  ///< structural analysis CPU time (§4: <1s)

  std::size_t total_online() const {
    return scan + debug_control + debug_observe + memmap;
  }
  double online_pct() const {
    return universe == 0 ? 0.0
                         : 100.0 * static_cast<double>(total_online()) /
                               static_cast<double>(universe);
  }
  /// Formats the paper's Table I.
  std::string table1() const;
};

class OnlineUntestabilityAnalyzer {
 public:
  /// Both references must outlive the analyzer.
  OnlineUntestabilityAnalyzer(const Soc& soc, const FaultUniverse& universe);

  /// Runs the full flow, marking faults in `fl`. Each fault keeps the
  /// source of the *first* pass that proves it untestable, so the Table-I
  /// rows are disjoint (the flow order matches the paper: structural
  /// baseline -> scan -> debug control -> debug observation -> memory
  /// map). `model` selects the classification: stuck-at, or transition
  /// (StructuralAnalyzer::classify_transition_faults, which prunes both
  /// transition faults of a constant site).
  AnalysisReport run(FaultList& fl, FaultModel model = FaultModel::kStuckAt);

  /// The accumulated mission configuration after run() (for cross-checks
  /// with ATPG or fault simulation).
  const MissionConfig& mission_config() const { return accumulated_; }

 private:
  const Soc* soc_;
  const FaultUniverse* universe_;
  StructuralAnalyzer sta_;
  MissionConfig accumulated_;
};

}  // namespace olfui
