// olfui/fsim: stuck-at and transition-delay fault simulation.
//
// Two engines share the 256-lane packed kernel (util/lanes.hpp):
//
//  * SequentialFaultSimulator — parallel-fault: lane 0 runs the good
//    machine, lanes 1..kLanes-1 run faulty machines, the whole test program is
//    simulated cycle by cycle, and a fault counts as DETECTED only when a
//    faulty lane diverges from the good machine on one of the *observed*
//    outputs. Matching the paper's rule, the SBST flow observes only the
//    system-bus ports ("the evaluation of the fault coverage ... is
//    obtained by only observing the system bus").
//    The good machine is recorded once per test program as a
//    ReferenceTrace (record_reference_trace appends the kernel's lane-0
//    bit plane each cycle), and every batch grades against it: the
//    trace's frames stream through one run cursor per 64-net column, and
//    each cycle's frame supplies the observed ports' good bits, the
//    transition-delay launches, and the settle's replay
//    (PackedSim::eval(const NetFrame*): the kernel copies the frame into
//    its lane-0 plane, reads every net no faulty lane diverges from out of
//    it, and evaluates only where a faulty lane diverges).
//    The environment callback makes stimuli reactive: the memory model
//    answers per-lane, so a faulty machine that issues a wrong address
//    reads wrong data, exactly as on silicon. Environments drive whole
//    lane words (PackedSim::set_input_lanes); SocFsimEnvironment builds
//    them from lane 0's answer, patched only on the lanes whose bus
//    differs.
//    A batch starts from the trace's power-on plane (the good machine's
//    first settle after power-on; PackedSim::power_on(plane)) instead of
//    a full sweep, and runs the environment's reset with its injections
//    armed: stuck-at lanes can diverge before cycle 0.
//    Every cycle is arm -> env.step -> eval(frame) -> observe -> latch ->
//    retire, in one batch loop for both fault models; only the arming
//    differs (a stuck-at fault is armed for the whole run, a transition
//    fault on its capture cycles — fault/tdf.hpp).
//    Detection is sticky, so a lane that diverged this cycle is done: the
//    retire step hands it back to the good machine
//    (PackedSim::retire_lanes), its injections disarmed and its flops
//    copied from lane 0, and it stops costing evaluations. The verdicts
//    are those of grading each fault alone.
//
//  * parallel-pattern combinational simulation (PPSF) — 256 patterns per
//    pass for one fault; used for ATPG validation and property tests.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "fault/fault_list.hpp"
#include "fault/universe.hpp"
#include "netlist/netlist.hpp"
#include "sim/packed.hpp"
#include "util/bitvec.hpp"
#include "util/lanes.hpp"

namespace olfui {

/// Drives the design-under-test's inputs each cycle.
class FsimEnvironment {
 public:
  virtual ~FsimEnvironment() = default;
  /// Called once per batch after power_on(); applies the reset sequence.
  /// It may end with input drives for cycle 0 (say, releasing the reset)
  /// that the first settle after step() applies. Lane 0's first settle
  /// (the reset's, or cycle 0's if the reset has none) must reach the
  /// plane it reached when the trace was recorded: a batch starts from it.
  virtual void reset(PackedSim& sim) = 0;
  /// Drives this cycle's inputs; the caller settles afterwards. It is
  /// called right after reset() or the previous cycle's latch(), when every
  /// flop Q net already holds this cycle's value, so it may read
  /// flop-driven outputs without settling. Lane 0 must see the stimulus
  /// the good machine sees. An implementation may still eval() itself (to
  /// read a combinational output); the caller's settle then has nothing
  /// left to do. Returns false to end the run early (e.g. the good machine
  /// executed HALT). The environment needs no cycle budget of its own: the
  /// tracer's max_cycles bounds the recording, and the trace's length
  /// bounds every batch.
  virtual bool step(PackedSim& sim, int cycle) = 0;
};

/// Lane-0 activity summary of one good-machine run, one bit per net (bit
/// n % 64 of word n / 64) — what activation screening reads. A stuck-at-v
/// fault whose site never held !v, or a transition fault whose site never
/// made its transition, leaves its faulty machine equal to the good one
/// for the whole run, so it cannot be detected by it.
struct NetActivation {
  std::vector<std::uint64_t> seen0;  ///< the net held 0 at some settle
  std::vector<std::uint64_t> seen1;  ///< the net held 1 at some settle
  /// The net changed 0 -> 1 (rose) / 1 -> 0 (fell) between two traced
  /// cycles, so at cycle >= 1: exactly a TDF launch.
  std::vector<std::uint64_t> rose;
  std::vector<std::uint64_t> fell;

  static bool test(const std::vector<std::uint64_t>& words, NetId net) {
    return (words[net / 64] >> (net % 64)) & 1ULL;
  }

  /// ORs `other` into this summary: the activity of both runs, e.g. of
  /// every program of a suite. An empty (default) summary becomes a copy
  /// of `other`; otherwise both must cover the same nets, or it throws
  /// std::invalid_argument.
  NetActivation& operator|=(const NetActivation& other);
};

/// Checkpoint of one fault-free run: the executed cycle count plus the
/// per-cycle lane-0 value of EVERY net. A campaign records the good
/// machine once per test program; every batch of every worker then reads
/// its reference from the checkpoint instead of re-deriving good values:
/// the observed outputs' good bits, each transition fault site's launches,
/// and the frame each settle replays.
///
/// Storage is column-oriented RLE: nets are packed 64 to a word column,
/// and each column stores (start cycle, word value) runs — a cycle that
/// changes none of a column's nets appends nothing, so the trace grows
/// with bus activity, not with cycles * nets. (A positional RLE over the
/// concatenated per-cycle words — what the old observed-only GoodTrace
/// used — degenerates once a cycle spans hundreds of words: an unchanged
/// cycle still re-emits every distinct adjacent word.)
struct ReferenceTrace {
  /// One 64-net word column: run r holds `value[r]` from `cycle[r]` until
  /// the next run's start (or the end of the trace).
  struct Column {
    std::vector<std::uint32_t> cycle;  ///< run starts, increasing, first 0
    std::vector<std::uint64_t> value;
  };

  int cycles = 0;
  std::size_t num_nets = 0;
  std::vector<Column> columns;  ///< ceil(num_nets / 64)
  /// Lane-0 plane of the first settle after power-on (one bit per net,
  /// columns.size() words; empty if the run never settled): set by the
  /// zeroed flops and the environment's reset drive, so the same for every
  /// batch, which starts from it (PackedSim::power_on). It is the reset's
  /// first settle, or cycle 0's if the reset never settles. fingerprint()
  /// does not cover it.
  std::vector<std::uint64_t> power_on;
  /// Per cycle, the columns whose next run starts there:
  /// change_columns[change_begin[c], change_begin[c + 1]) for cycle c
  /// (empty for cycle 0, where every column's first run starts). Built by
  /// append_cycle from the run starts, so fingerprint() does not cover it;
  /// a batch's frame stream visits only these columns.
  std::vector<std::uint32_t> change_begin;  ///< cycles + 1 entries
  std::vector<std::uint32_t> change_columns;

  /// Lane-0 value of `net` during `cycle` (binary search in the column).
  /// Throws std::out_of_range, naming both, unless cycle is in
  /// [0, cycles) and net < num_nets.
  bool net_bit(int cycle, NetId net) const;

  /// Every net's activity over the traced cycles, derived from the column
  /// runs in O(runs): seen0/seen1 from the run values, rose/fell from the
  /// value change at each run boundary (cycle >= 1 by construction).
  NetActivation activation() const;

  /// Clears and sizes the columns for a netlist with `nets` nets.
  void reset(std::size_t nets);
  /// Appends one cycle's net words (columns.size() of them). Cycles must
  /// be appended in order; increments `cycles` and extends the per-cycle
  /// change lists.
  void append_cycle(const std::uint64_t* words);

  /// Total stored runs across all columns (the compression measure).
  std::size_t run_count() const;

  /// Order-sensitive FNV-1a over the shape and every run: equal
  /// fingerprints mean bit-identical checkpoints. It is the state_fp of
  /// an SBST CampaignTest::spec, so the result cache keys on the good
  /// machine a test grades against (campaign/cache.hpp).
  std::uint64_t fingerprint() const;
};

class SequentialFaultSimulator {
 public:
  /// `topo`, if given, must be a PackedTopology over `nl`; campaign
  /// workers pass a shared one so per-worker construction stops re-running
  /// levelization and fanout-graph building.
  SequentialFaultSimulator(
      const Netlist& nl, const FaultUniverse& universe,
      std::shared_ptr<const PackedTopology> topo = nullptr);

  /// Observed output ports (system bus). Detection compares these only.
  /// Throws std::invalid_argument, naming the cell, for a cell id out of
  /// range or a cell that is not a kOutput port; the observed set is then
  /// unchanged.
  void set_observed(std::vector<CellId> output_cells);

  /// Runs the good machine once with no injections, recording every net
  /// each cycle and the plane of its first settle (ReferenceTrace::
  /// power_on), for at most `max_cycles` cycles or until env.step()
  /// returns false. The trace's cycle count then bounds every batch graded
  /// against it. The returned checkpoint is tied to `env`'s stimulus (not
  /// to the observed set — it carries all nets, so one recording serves
  /// both fault models and any observed set).
  ///
  /// With `activation`, it also receives the run's NetActivation: the
  /// trace's activation() with every settle inside env.reset() folded into
  /// seen0/seen1. The reset phase matters — a fault active only while the
  /// reset input is asserted never shows in the end-of-cycle trace, yet its
  /// faulty machine leaves reset in a different state. Each cycle settles
  /// once, after env.step(), so the trace samples every settle after reset
  /// (an environment that settles inside step() too leaves those extra
  /// settles unsampled; SocFsimEnvironment does not).
  ReferenceTrace record_reference_trace(FsimEnvironment& env, int max_cycles,
                                        NetActivation* activation = nullptr);

  /// Grades one batch of up to kLanes-1 faults against the good machine
  /// `trace` recorded (record_reference_trace over the same stimulus).
  /// Returns a bit per batch entry: detected or not. The run lasts the
  /// trace's cycles (or until env.step() returns false); its first settle
  /// starts from the trace's power-on plane and each cycle's settle
  /// replays the trace's frame, throwing std::logic_error if lane 0
  /// departs from either (the trace belongs to another environment), and a
  /// fault is detected once its lane differs from the frame's good bit on
  /// an observed output. `model` selects the injection: kStuckAt arms
  /// every fault for the whole run; kTransition (the TDF reading of the
  /// same fault ids — fault/tdf.hpp) arms a fault only on its capture
  /// cycles, the cycles whose frame shows its site just made the fault's
  /// transition (0->1 for slow-to-rise, 1->0 for slow-to-fall), holding
  /// the site at its pre-transition value. Cycle 0 has no previous cycle,
  /// so it never captures. Launches are read from the good machine (the
  /// standard parallel-TDF approximation), so verdicts are deterministic
  /// and kernel-independent. Throws std::invalid_argument, naming the
  /// size and the width, for kLanes or more faults, and, naming both counts,
  /// for a trace whose net count is not the netlist's, whose power-on
  /// plane is neither empty nor one word per 64 nets, or whose change
  /// lists do not cover its cycles.
  LaneMask run_batch(std::span<const FaultId> faults, FsimEnvironment& env,
                     const ReferenceTrace& trace,
                     FaultModel model = FaultModel::kStuckAt);

  /// The underlying packed simulator (activity counters; tests select the
  /// full-sweep oracle mode through it).
  PackedSim& sim() { return sim_; }
  const PackedSim& sim() const { return sim_; }

 private:
  /// One cycle's observed-output divergence word against the frame's
  /// good bits.
  LaneWord observe_divergence(const NetFrame& frame) const;
  /// Side-band metrics bridge (obs): publishes the PackedSim activity
  /// accumulated since the last publish as kernel.* counter deltas. Called
  /// once per batch (cold path); a branch when metrics are disabled.
  void publish_activity();

  const Netlist* nl_;
  const FaultUniverse* universe_;
  PackedSim sim_;
  std::vector<CellId> observed_;
  std::vector<NetId> observed_nets_;  ///< the net each observed port reads
  /// Activity already published to the metrics registry (delta base).
  PackedActivity published_activity_;
};

/// Parallel-pattern single-fault combinational simulation: returns true if
/// any of the patterns (one per lane, values keyed by controllable net)
/// detects `fault` on the observed outputs. For pure combinational netlists.
/// Throws std::invalid_argument for more than kLanes patterns.
bool comb_detects(const Netlist& nl, const FaultUniverse& universe, FaultId fault,
                  std::span<const std::vector<std::pair<NetId, bool>>> patterns,
                  const std::vector<CellId>& observed);

}  // namespace olfui
