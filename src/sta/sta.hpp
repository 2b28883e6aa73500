// olfui/sta: structural testability analysis — the engine the paper
// delegates to a commercial tool ("run any EDA tool able to identify
// structural untestable faults").
//
// The paper's circuit manipulations — "connect to ground or Vdd" selected
// nets, "unconnect (leave floating)" debug outputs — are expressed here as
// a MissionConfig overlay instead of a destructive netlist edit, keeping
// fault ids stable across passes:
//
//  * constants: nets that carry a fixed logic value in fault-free mission
//    operation (tied debug inputs, scan-enable, constant address-register
//    bits). The *fault-free* value is fixed; faults on the net itself can
//    still flip it, which is why s-a-1 on a grounded scan-enable remains
//    testable (Fig. 2) while s-a-0 on it is pruned.
//  * unobserved_outputs: top-level outputs nobody reads in mission mode
//    (floating debug/observation buses, scan-out).
//
// analyze() runs a ternary constant fixpoint (propagating through flops —
// the native equivalent of the paper's tie-both-FF-input-and-output
// workaround of Figs. 5/6) and a backward observability pass with
// controlling-side-input blocking. classify_faults() then labels each
// fault UT (tied/unexcitable) or UO (unobservable), the two structural
// untestability classes the flow prunes. analyze_values() runs the same
// backward pass over fault-free values known from elsewhere (a recorded
// good-machine run), and an ObservabilityProver answers the sound
// per-fault proof over either result, memoized per net.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fault/fault_list.hpp"
#include "fault/universe.hpp"
#include "netlist/netlist.hpp"
#include "sim/logic.hpp"

namespace olfui {

/// Mission-mode circuit configuration (the paper's §3 manipulations).
struct MissionConfig {
  /// Fault-free constant-value assumptions per net.
  std::vector<std::pair<NetId, bool>> constants;
  /// kOutput port cells whose value is never read in mission mode.
  std::vector<CellId> unobserved_outputs;

  void tie(NetId net, bool value) { constants.emplace_back(net, value); }
  void unobserve(CellId output_cell) { unobserved_outputs.push_back(output_cell); }
  /// Merges another configuration (used when stacking passes).
  void merge(const MissionConfig& other);
};

/// Result of one structural analysis run.
struct StaResult {
  /// Fault-free value of each net at the mission fixpoint (V0/V1/VX).
  std::vector<Logic> net_value;
  /// Per-pin observability, indexed by pin ordinal (see pin_ordinal()).
  /// This is the fast structural approximation; classification verifies
  /// every unobservable candidate with the sound per-fault check below.
  std::vector<std::uint8_t> pin_observable;
  /// Per top-level-output-cell flag: 1 if read in mission mode.
  std::vector<std::uint8_t> port_observed;

  bool net_const(NetId n, bool v) const {
    return net_value[n] == (v ? Logic::V1 : Logic::V0);
  }
};

class StructuralAnalyzer {
 public:
  /// Both references must outlive the analyzer.
  StructuralAnalyzer(const Netlist& nl, const FaultUniverse& universe);

  /// Dense index of a pin: FaultUniverse stores the two stuck-at faults of
  /// a pin adjacently, so ordinal == id_of(pin, false) / 2.
  std::uint32_t pin_ordinal(Pin p) const;
  std::size_t num_pins() const { return universe_->size() / 2; }

  const Netlist& netlist() const { return *nl_; }

  StaResult analyze(const MissionConfig& config) const;

  /// The observability half of analyze() over fault-free net values known
  /// from elsewhere, e.g. the nets one recorded good-machine run held at a
  /// single value. `net_value` (one entry per net) is taken as is: no
  /// constant propagation runs over it, since its flop steady-state rule
  /// would call a flop's Q constant as soon as its D is, although Q holds
  /// its power-on 0 first. Only the `observed` output cells are read.
  StaResult analyze_values(std::vector<Logic> net_value,
                           std::span<const CellId> observed) const;

  /// Marks faults proven untestable by `r` into `fl` with source label `s`:
  /// fault s-a-v at a pin whose fault-free value is v  -> kTied;
  /// fault at a pin with no sensitizable path to an observed output ->
  /// kUnobservable (one ObservabilityProver over `r` decides).
  /// Returns the number of *newly* marked faults.
  std::size_t classify_faults(const StaResult& r, FaultList& fl,
                              OnlineSource s) const;

  /// Extension (the paper's conclusion: "extend the proposed technique to
  /// other fault models"): transition-delay fault classification. The
  /// universe sites are shared with stuck-at faults: id 2k is the
  /// slow-to-rise fault of pin k, id 2k+1 the slow-to-fall fault.
  /// A transition fault needs BOTH logic values at its site (launch and
  /// capture), so any site with a constant mission value loses both
  /// transition faults — strictly more pruning than stuck-at, matching
  /// the literature on functionally untestable delay faults.
  std::size_t classify_transition_faults(const StaResult& r, FaultList& fl,
                                         OnlineSource s) const;

  /// Sound per-fault observability proof. Propagates a "possibly differs
  /// between good and faulty machine" marker forward from the fault pin;
  /// a side input blocks propagation only when it carries a controlling
  /// fault-free constant AND is itself provably unaffected by the fault
  /// (otherwise reconvergent fault effects could unblock the path — the
  /// classic multi-path sensitization trap of static blocking rules).
  /// The marker spreads as an event-driven worklist over Net::fanout:
  /// only the readers of a newly divergent net are re-evaluated, flop
  /// edges included, and the first observed output port that reads a
  /// divergent net ends the proof. Returns false only when no observed
  /// output can ever differ. tests/divergence_oracle.hpp keeps the
  /// whole-netlist sweep fixpoint this replaces; the sta and core suites
  /// compare the two pin by pin. One-shot: a caller with many pins to
  /// prove over one result keeps an ObservabilityProver instead.
  bool fault_possibly_observable(const StaResult& r, Pin pin) const;

  /// The proof's divergence transfer: true if the output of cell `c` may
  /// differ between the good and the faulty machine, given the per-net
  /// marks `div` and, when `branch` >= 0, a fault on input `branch` of
  /// `c` itself (the seed of a branch fault). Monotone in `div`.
  static bool cell_may_diverge(const Cell& c, const StaResult& r,
                               const std::vector<std::uint8_t>& div,
                               int branch = -1);

 private:
  /// Ternary constant fixpoint; nets flagged in `assumed` (config
  /// constants and tie cells) keep the value analyze() gave them.
  void propagate_constants(const std::vector<std::uint8_t>& assumed,
                           StaResult& r) const;
  /// Backward pass from the output cells r.port_observed flags.
  void propagate_observability(StaResult& r) const;
  /// True if input pin `pin` (1-based) of cell `c` is blocked by the
  /// fault-free constants on the cell's other inputs.
  bool pin_blocked(const Cell& c, int pin, const StaResult& r) const;

  const Netlist* nl_;
  const FaultUniverse* universe_;
  std::vector<CellId> order_;  // levelized combinational order
  std::vector<CellId> flops_;  // every kDff/kDffR cell
};

/// StructuralAnalyzer::fault_possibly_observable over one StaResult,
/// memoized per net, for callers that prove many pins (classify_faults,
/// the per-test screen of an SBST campaign). Every verdict equals the
/// one-shot proof's:
///  * a pin the backward filter (r.pin_observable) passes is observable:
///    the filter blocks at every controlling side input, the proof only at
///    non-divergent ones, so the filter passes fewer pins. A net whose
///    stem the filter passes starts out known observable;
///  * a branch fault first checks cell_may_diverge at its own cell, then
///    proves that cell's output net;
///  * a proof seeded at net n that reaches no observed port also proves
///    every net it marked unobservable (the fixpoint is monotone in the
///    seed set), and one that marks a net known observable stops there.
/// The prover holds two bytes per net plus the last proof's marks; it is
/// not thread-safe. `sta` and `r` must outlive it.
class ObservabilityProver {
 public:
  ObservabilityProver(const StructuralAnalyzer& sta, const StaResult& r);

  /// True unless a fault at `pin` provably changes no observed output.
  bool possibly_observable(Pin pin);
  /// Worklist proofs run so far (memo and filter answers excluded).
  std::size_t proofs() const { return proofs_; }

 private:
  enum Verdict : std::uint8_t { kUnknown, kUnobservable, kObservable };

  /// The proof for a fault that makes net `seed` diverge.
  bool net_observable(NetId seed);

  const StructuralAnalyzer* sta_;
  const StaResult* r_;
  std::vector<std::uint8_t> verdict_;  ///< per net, a Verdict
  std::vector<std::uint8_t> div_;      ///< per net; all 0 between proofs
  std::vector<NetId> marked_;          ///< the current proof's marks, in order
  std::size_t proofs_ = 0;
};

}  // namespace olfui
