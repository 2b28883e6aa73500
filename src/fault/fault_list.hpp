// olfui/fault: fault status bookkeeping and the Fig.-1 taxonomy.
//
// Every fault carries two orthogonal labels:
//  * UntestableKind — *why* the structural engine proved it untestable
//    (tied / unobservable / ATPG-redundant), mirroring the UT/UU/UR
//    classes of commercial tools;
//  * OnlineSource — *which mission-mode restriction* produced it (scan,
//    debug control, debug observation, memory map), i.e. the rows of the
//    paper's Table I, or kStructural for faults untestable even with full
//    access, or kMission for restrictions a user declares on a
//    third-party netlist.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fault/universe.hpp"
#include "util/bitvec.hpp"

namespace olfui {

enum class DetectState : std::uint8_t { kUndetected, kDetected };

/// The fault model a flow grades against. Both models share the universe's
/// site enumeration: under kTransition, the s-a-0 slot of a pin is read as
/// its slow-to-rise fault and the s-a-1 slot as slow-to-fall (see
/// fault/tdf.hpp), so fault ids, BitVec exchanges, and FaultList
/// bookkeeping work unchanged for either model.
enum class FaultModel : std::uint8_t {
  kStuckAt,     ///< the paper's model
  kTransition,  ///< extension: slow-to-rise / slow-to-fall on the same sites
};

std::string_view to_string(FaultModel m);

enum class UntestableKind : std::uint8_t {
  kNone,           ///< not proven untestable
  kTied,           ///< unexcitable: site carries a constant ("UT" class)
  kUnobservable,   ///< no sensitizable path to an observed output ("UU/UB")
  kRedundant,      ///< ATPG exhausted the search space ("UR")
};

enum class OnlineSource : std::uint8_t {
  kNone,          ///< testable (or not yet classified)
  kStructural,    ///< untestable in the original, fully accessible circuit
  kScan,          ///< §3.1  — scan-chain circuitry
  kDebugControl,  ///< §3.2.1 — unused debug control logic
  kDebugObserve,  ///< §3.2.2 — unused debug observation logic
  kMemoryMap,     ///< §3.3  — addressing resources under the mission map
  kMission,       ///< a user-declared mission restriction (tied nets,
                  ///< unread outputs) outside the paper's four sources
};

/// Every source an untestable fault can carry (all but kNone), in report
/// order: the one list the summaries and reports walk.
inline constexpr OnlineSource kUntestableSources[] = {
    OnlineSource::kStructural,   OnlineSource::kScan,
    OnlineSource::kDebugControl, OnlineSource::kDebugObserve,
    OnlineSource::kMemoryMap,    OnlineSource::kMission};

std::string_view to_string(UntestableKind k);
std::string_view to_string(OnlineSource s);

/// Per-fault status array over a FaultUniverse, with the set algebra the
/// identification flow needs (prune, merge, count, report).
class FaultList {
 public:
  explicit FaultList(const FaultUniverse& universe);

  const FaultUniverse& universe() const { return *universe_; }
  std::size_t size() const { return detect_.size(); }

  DetectState detect_state(FaultId f) const { return detect_[f]; }
  UntestableKind untestable_kind(FaultId f) const { return kind_[f]; }
  OnlineSource online_source(FaultId f) const { return source_[f]; }

  void set_detected(FaultId f) { detect_[f] = DetectState::kDetected; }

  /// Marks `f` untestable. An already-classified fault keeps its first
  /// source label (the flow runs scan -> debug -> memory, so earlier,
  /// more specific sources win — matching the paper's disjoint Table I rows).
  void mark_untestable(FaultId f, UntestableKind k, OnlineSource s);

  /// All faults currently marked untestable (any kind).
  BitVec untestable_mask() const;
  /// Faults from one Table-I source.
  BitVec source_mask(OnlineSource s) const;

  std::size_t count_untestable() const;
  std::size_t count_source(OnlineSource s) const;
  std::size_t count_detected() const;

  /// Fault coverage with no pruning: detected / all.
  double raw_coverage() const;
  /// Coverage after removing untestable faults from the denominator —
  /// the paper's "raise the fault coverage by ~13%" effect.
  double pruned_coverage() const;

  /// Plain-text classification summary (one line per source, Table-I style).
  std::string summary() const;

 private:
  const FaultUniverse* universe_;
  std::vector<DetectState> detect_;
  std::vector<UntestableKind> kind_;
  std::vector<OnlineSource> source_;
};

}  // namespace olfui
