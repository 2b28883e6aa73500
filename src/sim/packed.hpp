// olfui/sim: 256-lane bit-parallel 2-valued simulation kernel.
//
// Each net carries one packed lane word (util/lanes.hpp) = kLanes (256)
// independent machines. The fault simulator (olfui_fsim) packs a good
// machine in lane 0 plus up to kLanes-1 faulty machines per pass and
// injects stuck-at values at (cell, pin) sites per lane — the classic
// parallel-fault scheme. Simulation is 2-valued: callers must apply an
// explicit reset sequence so that no X state matters.
//
// The state is lane 0 plus the differences from it, as in PROOFS. The
// lane-0 bit plane holds lane 0 of every net, one bit per net; a net is
// *diverged* when some lane differs from lane 0, and only a diverged net
// keeps its whole word. Any other net reads as the broadcast of its plane
// bit, and a lane-uniform word is never stored. After every settle and
// every latch() the plane is current, so lane0_plane() is the good
// machine's settled state whenever lane 0 carries no injection.
//
// Evaluation is event-driven: the netlist is flattened once into a
// PackedTopology (levelized cells, per-cell levels, CSR fanout graph) and
// eval() drains, in level order, only cells scheduled since the last
// settle. A net whose word changes schedules its readers; a cell whose
// output word is unchanged schedules nothing. A levelized full sweep
// serves a power-on without a plane and injection changes, and
// PackedEvalMode::kFullSweep makes it the tests' cross-check oracle; both
// paths compute bit-identical values (the event path is a pure
// work-skipping optimisation, never an approximation).
// Events flow through a flat preallocated arena (per-level segments of one
// index array, epoch-stamped membership), and the clock edge is
// incremental: only flops whose D or reset input changed since their last
// latch (the dirty-D set) or that carry an injection are latched; after a
// full sweep, which tracks no changes, the next edge latches every flop. A
// flop whose pins and Q are not diverged and which carries no injection
// latches from the plane alone.
//
// The divergence frontier is every combinational cell with an injection
// or a diverged pin (input or output); a cell off it reads only lane-0
// broadcasts, so its output is the broadcast of its lane-0 value. Settles
// differ in two things only:
//  * a plain settle evaluates every scheduled cell, and a lane-0 change
//    schedules all readers of the net; a cell off the frontier is computed
//    on lane 0 alone, one 64-bit word through the same gate switch;
//  * a frame settle (eval(frame)) replays the good machine's recorded
//    values (a NetFrame streamed from the reference trace) when the last
//    settle was the frame of the previous cycle: it copies the frame into
//    the plane, schedules the frontier cells reading a net whose frame bit
//    changed (each net counts the frontier cells reading it, so only the
//    changed nets with such readers are visited), and evaluates only
//    frontier cells. An injected cell whose
//    inputs and lanes held still is not evaluated, since its output word
//    cannot have moved. The replay is exact and checked: an evaluated
//    cell, a primary input or a flop Q whose lane-0 value disagrees with
//    the frame throws. A frame settle that cannot replay settles plainly
//    and then compares the whole plane against the frame.
// A lane-0 change made outside a settle — a flop Q flipped at the clock
// edge — is left to the next settle: a replay takes it from the frame's
// changed bits, a plain settle schedules its readers first. A settle
// applies only the primary inputs whose word or injection changed since
// the last one.
//
// A batch starts without a sweep: power_on(plane) takes the good
// machine's first settle after power-on, which a fault-free run recorded,
// and the next settle loads it with no net diverged, exposes the faulty
// lanes of the sources and evaluates only the frontier of the injections,
// checking it as a replay checks a frame. Nothing of the previous batch
// survives it (its frontier and pending events are cleared at O(frontier)),
// so the work of a batch never depends on what the simulator ran before.
//
// What the frontier still holds is faulty-lane work, and a detected fault's
// lane has nothing left to report. retire_lanes() hands such lanes back to
// the good machine right after a latch(): it disarms their injections and
// copies lane 0's flop state into them, so their nets re-converge at the
// next settle and the cells they kept on the frontier drop off it. It costs
// one pass over the flops and injections, never a pass over the nets.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "netlist/netlist.hpp"
#include "netlist/wordops.hpp"
#include "util/lanes.hpp"

namespace olfui {

/// A stuck-at value injected at a pin for a subset of lanes.
struct PackedInjection {
  CellId cell = kInvalidId;
  std::uint8_t pin = 0;  ///< 0 = output pin, 1.. = input pins
  bool sa1 = false;
  LaneWord lanes{};  ///< lane mask where the fault is active
};

/// Immutable evaluation structures shared by every PackedSim over the same
/// netlist: the flattened levelized cell array, per-cell logic levels, and
/// the CSR fanout graph used for event scheduling. Building it is O(cells
/// + edges); flows that simulate one netlist many times (scan patterns,
/// campaign workers) build it once and share it across simulators.
struct PackedTopology {
  /// Flattened cell record for the hot evaluation loop.
  struct FlatCell {
    CellType type;
    std::uint8_t n;
    NetId out;
    CellId id;
    NetId in[4];
  };

  const Netlist* nl = nullptr;
  /// Combinational cells in topological order (kOutput excluded).
  std::vector<FlatCell> order;
  /// Logic level of order[i]: 1 + max level of its producers (sources and
  /// flop outputs are level 0), so every fanout edge strictly increases.
  std::vector<std::uint32_t> level;
  std::uint32_t num_levels = 0;  ///< max level + 1
  /// CSR fanout: combinational readers (order indexes) of each net.
  std::vector<std::uint32_t> fanout_start;  // size num_nets + 1
  std::vector<std::uint32_t> fanout;
  /// Arena offsets for the flat event scheduler: pending cells of level L
  /// live in [level_start[L], level_start[L+1]) of one preallocated index
  /// array. A cell is pending at most once, so each level's capacity is
  /// exactly its population.
  std::vector<std::uint32_t> level_start;  // size num_levels + 1
  /// CSR flop fanout: sequential readers of each net, as indexes into
  /// flop_cells — the dirty-D seed map of incremental clocking (a net
  /// change marks exactly the flops whose D/reset pins read it).
  std::vector<std::uint32_t> flop_fanout_start;  // size num_nets + 1
  std::vector<std::uint32_t> flop_fanout;
  /// Order index of each cell, or kInvalidId for non-combinational cells.
  std::vector<std::uint32_t> order_index;
  /// flop_cells index of each cell, or kInvalidId for non-flops.
  std::vector<std::uint32_t> flop_index;
  std::vector<CellId> flop_cells;
  std::vector<CellId> source_cells;  ///< kInput + ties (full-sweep order)
  std::vector<CellId> input_cells;   ///< kInput only
  std::vector<NetId> input_outs;     ///< the net input_cells[i] drives
  /// input_cells index of each cell, or kInvalidId for non-inputs.
  std::vector<std::uint32_t> input_index;
  /// The kInput cell driving each net, or kInvalidId: the input setters'
  /// argument check.
  std::vector<CellId> net_input;
  /// Flattened flop record for the clock edge: in[1] is the
  /// active-low reset of a kDffR and repeats the D net of a kDff (q' =
  /// in[0] & in[1] either way); n is the pin count.
  struct FlatFlop {
    CellId id;
    NetId q;
    NetId in[2];
    std::uint8_t n;
  };
  std::vector<FlatFlop> flops;  ///< parallel to flop_cells
  /// Nets driven by a flop, one bit per net (bit n % 64 of word n / 64):
  /// the nets a replay checks against its frame before taking it.
  std::vector<std::uint64_t> flop_nets;
  /// Nets driven by a kInput cell, one bit per net: a replay checks those
  /// not driven since the last settle against its frame the same way.
  std::vector<std::uint64_t> input_nets;
  /// Nets a flop's D or reset pin reads, one bit per net: the frame bits
  /// whose change marks flops for the latch() after a replay.
  std::vector<std::uint64_t> flop_inputs;

  /// Throws std::runtime_error on a combinational loop.
  static std::shared_ptr<const PackedTopology> build(const Netlist& nl);
};

/// eval() strategy; both produce bit-identical values. Every library
/// runner uses kEventDriven; kFullSweep is the tests' reference kernel.
enum class PackedEvalMode : std::uint8_t {
  kEventDriven,  ///< dirty-set scheduling over the fanout graph (default)
  /// Levelized sweep over every cell, and a latch of every flop after it
  /// (the oracle).
  kFullSweep,
};

/// Work counters for the activity benches and the obs metrics bridge
/// (fsim publishes per-batch deltas as kernel.* counters): how much of
/// the netlist the kernel actually touched. Plain counters, no locks —
/// the kernel itself stays observability-free.
struct PackedActivity {
  std::uint64_t evals = 0;            ///< eval() calls
  std::uint64_t full_sweeps = 0;      ///< evals resolved by a full sweep
  std::uint64_t cells_evaluated = 0;  ///< combinational cells computed
  /// Cells drained from the event arena, evaluated or (frame replay, off
  /// the frontier by the time they drain) skipped.
  std::uint64_t events_drained = 0;
  /// Settles that replayed a frame: evaluated only the divergence
  /// frontier and took every other net from the frame.
  std::uint64_t frame_replays = 0;
  std::uint64_t levels_touched = 0;   ///< non-empty level segments drained
  /// Drained cells whose output word was unchanged — their fanout was
  /// never scheduled (the event path's work-skipping payoff).
  std::uint64_t quiet_cells = 0;
  std::uint64_t sched_pushes = 0;     ///< cells pushed into the event arena
  std::uint64_t flops_latched = 0;    ///< flops latched across clock edges
  /// Flops skipped by incremental clocking: their D input provably
  /// unchanged since their last latch (the dirty-D payoff).
  std::uint64_t flops_skipped = 0;
  std::uint64_t lanes_retired = 0;    ///< lanes handed to retire_lanes()
};

/// Lane-0 settle accumulator (PackedSim::set_settle_log): one bit per
/// net, bit n % 64 of word n / 64. While attached, every eval() ORs the
/// settled lane-0 plane into `seen1` and its complement into `seen0`, so
/// the log records every value the good machine's nets held at any
/// settle, not just the end-of-cycle ones.
struct SettleLog {
  std::vector<std::uint64_t> seen0;
  std::vector<std::uint64_t> seen1;
  /// The lane-0 plane of the first settle while attached (empty before it).
  std::vector<std::uint64_t> first;
};

/// One cycle of the good machine's settled net values, for a frame settle
/// (PackedSim::eval). Both arrays hold one bit per net, bit n % 64 of word
/// n / 64, over ceil(nets / 64) words.
struct NetFrame {
  int cycle = 0;
  /// Lane-0 value of every net at the end of `cycle`; eval() copies or
  /// compares it, so the storage need only live through the call.
  const std::uint64_t* value = nullptr;
  /// Nets whose value differs from the frame of `cycle - 1`: a replay
  /// wakes the frontier cells and marks the flops that read them.
  const std::uint64_t* changed = nullptr;
};

class PackedSim {
 public:
  using Word = LaneWord;
  using Injection = PackedInjection;

  explicit PackedSim(const Netlist& nl);
  /// Shares a prebuilt topology (cheap: only per-net/per-cell state is
  /// allocated). The netlist behind `topo` must outlive the simulator.
  explicit PackedSim(std::shared_ptr<const PackedTopology> topo);

  void clear_injections();
  void add_injection(const Injection& inj);
  /// Rewrites the lane mask of an existing injection; `index` is the
  /// insertion order of add_injection calls since the last
  /// clear_injections(). Unlike add_injection this does NOT invalidate the
  /// event state: the injected cell set is unchanged, a changed
  /// combinational cell is scheduled for the next settle, source cells are
  /// re-scanned every eval, port faults apply at observed(), flop D/reset
  /// faults apply at latch() — only a flop Q fault needs (and gets) an
  /// explicit re-expose. This is the per-cycle arming primitive of the
  /// transition-delay flow, where a fault is live only on capture cycles.
  /// Throws std::out_of_range unless `index` names an injection.
  void set_injection_lanes(std::size_t index, Word lanes);

  /// Zeroes all state (flops and nets). 2-valued power-on; drive a reset
  /// sequence afterwards for circuits that need one.
  ///
  /// Without `settled`, the next settle is a full sweep. With it, `settled`
  /// (one bit per net, over ceil(nets / 64) words, alive until the next
  /// settle) is the lane-0 plane lane 0 — the good machine — reaches at its
  /// first settle after power-on, and in event mode that settle starts
  /// from it instead of sweeping: it loads the plane with no net diverged,
  /// exposes the faulty lanes of the sources, and evaluates only the
  /// divergence frontier, checking every primary input, flop Q and
  /// evaluated cell against the plane (a mismatch throws std::logic_error
  /// naming the net and the cycle). Any injection change or retire_lanes
  /// before it is taken in. kFullSweep mode ignores `settled`.
  void power_on(const std::uint64_t* settled = nullptr);

  /// Drives the same value on every lane of a primary input. Throws
  /// std::invalid_argument, naming the net, unless a kInput cell drives it.
  void set_input_all(NetId net, bool v);
  /// Drives an explicit per-lane word on a primary input (throws like
  /// set_input_all).
  void set_input_lanes(NetId net, Word lanes);
  /// Drives bit i of `value` on all lanes of bus[i].
  void set_input_word(const Bus& bus, std::uint64_t value);

  /// Settles combinational logic (applies injections). Event-driven unless
  /// the mode is kFullSweep or the state was invalidated (power-on without
  /// a plane, injection change), in which case it falls back to one full
  /// sweep; a pending power_on(plane) start takes precedence over the
  /// latter.
  ///
  /// With a `frame` (ignored in kFullSweep mode, so the sweep oracle never
  /// reads the trace), lane 0 must be the good machine and `frame` its
  /// values for this settle. If the previous settle was the frame of
  /// `frame->cycle - 1` with only latch(), input drives,
  /// set_injection_lanes and retire_lanes since, the settle replays: it
  /// copies the frame into the plane and evaluates only the frontier cells
  /// whose inputs changed, checking every evaluated cell's lane-0 output,
  /// every primary input and every flop Q against the frame. Otherwise it
  /// settles as without a frame and then checks the whole plane against
  /// the frame. A mismatch throws std::logic_error naming the net and the
  /// cycle.
  void eval(const NetFrame* frame = nullptr);
  /// Clock edge without the settle: latches the flops and leaves every
  /// flop Q net current in value() and in the plane (also when a full
  /// sweep is pending), so registered outputs are readable before the next
  /// eval().
  void latch();
  /// latch() then eval().
  void clock();
  /// Hands `lanes` back to the good machine: disarms their bits of every
  /// injection (set_injection_lanes, so each site kind keeps its re-arm
  /// semantics) and overwrites their flop state with lane 0's, exposing
  /// each changed Q and marking its flop for the next edge. Comb nets are
  /// left to the next settle. Meant right after latch(), for lanes whose
  /// result is final (a detected fault); a later set_injection_lanes may
  /// re-arm them. Lane 0 is never written: throws std::invalid_argument if
  /// `lanes` holds it.
  void retire_lanes(Word lanes);

  /// The tests' one way to the full-sweep oracle; no library runner
  /// switches. A switch settles the next eval() with a full sweep: the
  /// full-sweep mode keeps no divergence frontier.
  void set_eval_mode(PackedEvalMode mode) {
    needs_full_ |= mode != mode_;
    mode_ = mode;
  }
  PackedEvalMode eval_mode() const { return mode_; }

  /// Attaches (or, with null, detaches) a lane-0 settle accumulator,
  /// sized here to the netlist. Costs one pointer test per eval() while
  /// detached; attached, each eval() adds a pass over the plane.
  void set_settle_log(SettleLog* log);

  const PackedActivity& activity() const { return activity_; }
  void reset_activity() { activity_ = {}; }

  Word value(NetId net) const { return load(net); }
  /// Lane 0 of every net, one bit per net (bit n % 64 of word n / 64) over
  /// ceil(nets / 64) words; current after every settle and every latch().
  const std::vector<std::uint64_t>& lane0_plane() const { return plane_; }
  /// Value seen by a top-level output port, including any injection on the
  /// port cell's input pin (PO stuck-at faults). Throws
  /// std::invalid_argument, naming the cell, for a cell id out of range or
  /// a cell that is not a kOutput port, and std::logic_error between an
  /// injection change and the next eval() or latch(), which would silently
  /// miss port faults.
  Word observed(CellId output_cell) const;
  /// Whether observed(output_cell) is known to be lane-uniform without
  /// reading it: a port with no injection that reads a non-diverged net
  /// sees the broadcast of that net's lane-0 plane bit. False says nothing
  /// either way; read observed(). No argument checks: `output_cell` must
  /// be a kOutput port and `net` the net it reads (callers cache it).
  bool port_uniform(CellId output_cell, NetId net) const {
    return has_inj_[output_cell] == 0 && !diverged(net);
  }

  const Netlist& netlist() const { return *topo_->nl; }
  const PackedTopology& topology() const { return *topo_; }

 private:
  Word apply_inj(CellId id, Word* tmp, Word out_val, bool apply_output) const;
  /// The kInput cell driving `net`; throws std::invalid_argument, naming
  /// the net, if there is none.
  CellId input_driver(NetId net) const;
  /// Holds `lanes` on a primary input; if that changes its word, the next
  /// settle applies it.
  void set_held(CellId input_cell, const Word& lanes);
  /// Puts input_cells[ii] on the list the next settle applies.
  void mark_input(std::uint32_t ii);
  void clear_pending_inputs();
  void prepare_injections();
  /// Recomputes every net, sets the plane and the diverged bits, and
  /// rebuilds the frontier counts.
  void run_full_sweep();
  /// The first half of a start (power_on with a plane): loads the plane,
  /// clears the last batch's frontier and pending events at O(frontier),
  /// exposes the flop Qs and ties (checked against the plane) and
  /// schedules the injected cells. Returns the plane as the frame
  /// run_settle then replays: the settle of `frame`'s cycle, or of the
  /// reset (cycle -1) without one. Its `changed` is null.
  NetFrame begin_start(const NetFrame* frame);
  /// The event settle: with a `replay` frame, copies it into the plane
  /// (unless it is a start's, already there) and drains only frontier
  /// cells; without, schedules the pending lane-0 changes and drains every
  /// scheduled cell.
  void run_settle(const NetFrame* replay);
  /// Throws the mismatch of the first net whose plane bit `frame`
  /// contradicts.
  void check_plane(const NetFrame& frame);
  void push_event(std::uint32_t order_idx);
  void mark_flop_dirty(std::uint32_t flop_idx);
  /// Marks the flops reading `net` dirty for the next latch().
  [[gnu::always_inline]] void mark_flop_readers(NetId net);
  /// Schedules every combinational reader of `net` and marks its flop
  /// readers: the plain settle's answer to a lane-0 change.
  void schedule_readers(NetId net);
  /// Order index `k` gained a diverged pin or an injection; on joining
  /// the frontier its input nets count it as a reader.
  void join_frontier(std::uint32_t k);
  /// Order index `k` lost one; on leaving, its input nets stop counting it.
  void leave_frontier(std::uint32_t k);
  /// Empties the frontier and its reader counts at O(frontier).
  void clear_frontier();
  /// Writes a net's changed word: lane 0 to the plane, and the word itself
  /// only if it is not lane-uniform (diverging the net). A change of
  /// divergence moves the frontier counts of the combinational readers and
  /// of `driver`, the order index of the net's combinational driver
  /// (kInvalidId for a source or flop). Unless the net was and stays
  /// non-diverged, it schedules the frontier readers and marks the flop
  /// readers dirty. Returns whether lane 0 changed; scheduling that change
  /// is the caller's.
  bool write(NetId net, const Word& v, std::uint32_t driver);
  /// Writes a source's word (a flop Q, a tie) outside a settle; a lane-0
  /// change waits in flipped_ for the next one.
  void expose(NetId q, const Word& v);
  /// Throws the frame-mismatch std::logic_error, leaving the sim to settle
  /// with a full sweep next.
  [[noreturn]] void frame_mismatch(NetId net, const NetFrame& frame);
  void bump_event_epoch();
  void bump_flop_epoch();
  bool diverged(NetId net) const {
    return (diverged_[net / 64] >> (net % 64)) & 1ULL;
  }
  bool plane_bit(NetId net) const {
    return (plane_[net / 64] >> (net % 64)) & 1ULL;
  }
  /// A net's word: a non-diverged net reads the broadcast of its plane
  /// bit. Branch-free: whether a frontier cell's pin is diverged does not
  /// predict well.
  Word load(NetId net) const {
    const std::uint64_t div = 0 - ((diverged_[net / 64] >> (net % 64)) & 1);
    const std::uint64_t bit = 0 - ((plane_[net / 64] >> (net % 64)) & 1);
    return (values_[net] & div) | (bit & ~div);
  }
  /// A cell's output word with its injections; `in(i)` reads the word on
  /// input pin i: load() in the drain, values_ in the sweep, which writes
  /// every word before it is read. Inlined into both: it is the innermost
  /// call.
  template <class Read>
  [[gnu::always_inline]] Word compute_cell(const PackedTopology::FlatCell& fc,
                                           Read in) const;
  /// ORs the settled lane-0 plane into settle_log_.
  void sample_settle();

  std::shared_ptr<const PackedTopology> topo_;
  PackedEvalMode mode_ = PackedEvalMode::kEventDriven;
  // The lane-0 plane (one bit per net, bit n % 64 of word n / 64), the
  // diverged bit of every net, and the word of each diverged net. Outside
  // a full sweep, which writes every word before reading it, values_ is
  // read only where diverged_ is set, and its lane 0 agrees with plane_.
  std::vector<std::uint64_t> plane_;
  std::vector<std::uint64_t> diverged_;
  std::vector<Word> values_;       // per net
  // run_full_sweep() scratch: one flag byte per net, in whole 64-net
  // groups.
  std::vector<std::uint8_t> sweep_flags_;
  std::vector<Word> flop_state_;   // per flop (flop_index)
  std::vector<Word> input_hold_;   // per input (input_index): driven value
  // The inputs whose word or injection changed since the last settle
  // (input indexes), with their nets' bits: a plain settle or a replay
  // applies only these, and every other input's net already holds its
  // word. A full sweep or a start applies every input.
  std::vector<std::uint32_t> pending_inputs_;
  std::vector<std::uint64_t> pending_nets_;

  // Flat injection storage: inj_flat_ grouped by cell; cell c owns
  // inj_flat_[inj_start_[c] .. inj_start_[c] + has_inj_[c]). Rebuilt
  // lazily (inj_dirty_) by a stable sort, so per-cell application order
  // matches insertion order. inj_pos_[i] tracks where insertion i landed
  // after grouping (the set_injection_lanes handle).
  std::vector<Injection> inj_flat_;
  std::vector<std::uint32_t> inj_pos_;
  std::vector<std::uint32_t> inj_start_;  // per cell
  std::vector<std::uint8_t> has_inj_;     // per cell: injection count
  std::vector<std::uint32_t> active_flops_; // flop indexes of injected flops
  bool inj_dirty_ = false;

  // Flat event scheduler: one preallocated index arena segmented by level
  // (topology level_start offsets + per-level pending counts) with
  // epoch-stamped membership words — a drain or full sweep retires every
  // pending entry by bumping the epoch instead of clearing per-cell
  // flags. needs_full_ marks states (power-on, injection change,
  // construction, a frame mismatch) whose net values are stale beyond what
  // events track.
  std::vector<std::uint32_t> arena_;        // order.size() slots
  std::vector<std::uint32_t> level_count_;  // per level: pending entries
  std::vector<std::uint32_t> event_stamp_;  // per order index
  std::uint32_t event_epoch_ = 1;
  bool needs_full_ = true;
  // power_on()'s plane while its start is pending (needs_full_ is set too,
  // so everything that defers to a full sweep defers to the start); a
  // full sweep or a frame mismatch drops it.
  const std::uint64_t* start_ = nullptr;
  // Nets whose lane 0 changed outside a settle (flop Qs at the clock
  // edge) and whose combinational readers no settle has scheduled yet. A
  // replay drops them, the frame's changed bits cover them; a plain settle
  // schedules their readers; a latch() marks their flop readers.
  std::vector<NetId> flipped_;

  // Dirty-D clocking: flop indexes whose D/reset input changed since
  // their last latch, with the same epoch-stamp membership scheme.
  // all_flops_dirty_ is the untracked-state fallback — any full sweep
  // rewrites nets without change tracking, so the next edge must latch
  // everything before incremental clocking can resume.
  std::vector<std::uint32_t> dirty_flops_;
  std::vector<std::uint32_t> dirty_scratch_;  // swap target during latch()
  std::vector<std::uint32_t> flop_stamp_;     // per flop index
  std::vector<std::uint32_t> edge_flops_;     // latch() scratch
  std::uint32_t flop_epoch_ = 1;
  bool all_flops_dirty_ = true;

  // The last settle was the frame of synced_cycle_, so the next frame may
  // replay. Set by a frame settle; kept by latch(), input drives,
  // set_injection_lanes and retire_lanes; dropped by a settle without a
  // frame and by a frame mismatch. An injection add or clear and
  // power_on() block the replay through needs_full_.
  bool synced_ = false;
  int synced_cycle_ = 0;
  // Per order index, in event mode: the cell's diverged pins (inputs,
  // counted per pin, and output) plus one if it is injected. A cell is on
  // the divergence frontier iff its count is nonzero. frontier_list_
  // holds every frontier cell (and cells that left since it was last
  // emptied); listed_ marks its members. frontier_reads_ counts, per net,
  // the frontier cells' input pins on it, and frontier_read_ has one bit
  // per net with a nonzero count: a replay wakes the frontier readers of
  // the changed frame bits among these.
  std::vector<std::uint8_t> frontier_;
  std::vector<std::uint32_t> frontier_list_;
  std::vector<std::uint8_t> listed_;
  std::vector<std::uint32_t> frontier_reads_;
  std::vector<std::uint64_t> frontier_read_;

  PackedActivity activity_;
  SettleLog* settle_log_ = nullptr;
};

}  // namespace olfui
