#include "sim/packed.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <string>

namespace olfui {

std::shared_ptr<const PackedTopology> PackedTopology::build(const Netlist& nl) {
  auto topo = std::make_shared<PackedTopology>();
  topo->nl = &nl;

  std::vector<CellId> order;
  if (!nl.levelize(order))
    throw std::runtime_error("PackedSim: combinational loop in netlist");
  topo->order_index.assign(nl.num_cells(), kInvalidId);
  for (CellId id : order) {
    const Cell& c = nl.cell(id);
    if (c.type == CellType::kOutput) continue;
    FlatCell fc;
    fc.type = c.type;
    fc.n = static_cast<std::uint8_t>(c.ins.size());
    fc.out = c.out;
    fc.id = id;
    for (std::size_t i = 0; i < c.ins.size(); ++i) fc.in[i] = c.ins[i];
    topo->order_index[id] = static_cast<std::uint32_t>(topo->order.size());
    topo->order.push_back(fc);
  }

  // Logic levels: producers (sources, ties, flop Qs) sit at level 0, so a
  // combinational cell's level is strictly above every input's producer and
  // the event drain can process level buckets in ascending order.
  std::vector<std::uint32_t> net_level(nl.num_nets(), 0);
  topo->level.resize(topo->order.size());
  std::uint32_t max_level = 0;
  for (std::size_t i = 0; i < topo->order.size(); ++i) {
    const FlatCell& fc = topo->order[i];
    std::uint32_t lvl = 0;
    for (int k = 0; k < fc.n; ++k) lvl = std::max(lvl, net_level[fc.in[k]]);
    ++lvl;
    topo->level[i] = lvl;
    net_level[fc.out] = lvl;
    max_level = std::max(max_level, lvl);
  }
  topo->num_levels = max_level + 1;

  // Flat event-arena offsets: a cell is pending at most once, so each
  // level's segment capacity is exactly its population.
  topo->level_start.assign(topo->num_levels + 1, 0);
  for (const std::uint32_t lvl : topo->level) ++topo->level_start[lvl + 1];
  for (std::uint32_t l = 0; l < topo->num_levels; ++l)
    topo->level_start[l + 1] += topo->level_start[l];

  // CSR fanout graph: for each net, the order indexes of its combinational
  // readers (kOutput ports are read through observed(), flops at latch()).
  topo->fanout_start.assign(nl.num_nets() + 1, 0);
  for (const FlatCell& fc : topo->order)
    for (int k = 0; k < fc.n; ++k) ++topo->fanout_start[fc.in[k] + 1];
  for (std::size_t n = 0; n < nl.num_nets(); ++n)
    topo->fanout_start[n + 1] += topo->fanout_start[n];
  topo->fanout.resize(topo->fanout_start.back());
  std::vector<std::uint32_t> cursor(topo->fanout_start.begin(),
                                    topo->fanout_start.end() - 1);
  for (std::size_t i = 0; i < topo->order.size(); ++i) {
    const FlatCell& fc = topo->order[i];
    for (int k = 0; k < fc.n; ++k)
      topo->fanout[cursor[fc.in[k]]++] = static_cast<std::uint32_t>(i);
  }

  topo->flop_index.assign(nl.num_cells(), kInvalidId);
  topo->input_index.assign(nl.num_cells(), kInvalidId);
  topo->net_input.assign(nl.num_nets(), kInvalidId);
  topo->flop_nets.assign((nl.num_nets() + 63) / 64, 0);
  topo->input_nets.assign(topo->flop_nets.size(), 0);
  for (CellId id = 0; id < nl.num_cells(); ++id) {
    const Cell& c = nl.cell(id);
    const CellType t = c.type;
    if (is_sequential(t)) {
      topo->flop_index[id] = static_cast<std::uint32_t>(topo->flop_cells.size());
      topo->flop_cells.push_back(id);
      const auto n = static_cast<std::uint8_t>(c.ins.size());
      topo->flops.push_back({id, c.out, {c.ins[0], c.ins[n - 1]}, n});
      topo->flop_nets[c.out / 64] |= 1ULL << (c.out % 64);
    } else if (t == CellType::kInput) {
      topo->source_cells.push_back(id);
      topo->input_index[id] =
          static_cast<std::uint32_t>(topo->input_cells.size());
      topo->input_cells.push_back(id);
      topo->input_outs.push_back(c.out);
      topo->net_input[c.out] = id;
      topo->input_nets[c.out / 64] |= 1ULL << (c.out % 64);
    } else if (is_tie(t)) {
      topo->source_cells.push_back(id);
    }
  }

  // CSR flop fanout: for each net, the flop_cells indexes of the flops
  // reading it (D or reset pin) — the dirty-D marking map of incremental
  // clocking. A flop reading one net on two pins appears twice; the mark
  // is idempotent.
  topo->flop_fanout_start.assign(nl.num_nets() + 1, 0);
  for (const CellId id : topo->flop_cells)
    for (const NetId in : nl.cell(id).ins) ++topo->flop_fanout_start[in + 1];
  for (std::size_t n = 0; n < nl.num_nets(); ++n)
    topo->flop_fanout_start[n + 1] += topo->flop_fanout_start[n];
  topo->flop_fanout.resize(topo->flop_fanout_start.back());
  topo->flop_inputs.assign(topo->flop_nets.size(), 0);
  for (std::size_t n = 0; n < nl.num_nets(); ++n)
    if (topo->flop_fanout_start[n + 1] != topo->flop_fanout_start[n])
      topo->flop_inputs[n / 64] |= 1ULL << (n % 64);
  std::vector<std::uint32_t> fcursor(topo->flop_fanout_start.begin(),
                                     topo->flop_fanout_start.end() - 1);
  for (std::size_t fi = 0; fi < topo->flop_cells.size(); ++fi)
    for (const NetId in : nl.cell(topo->flop_cells[fi]).ins)
      topo->flop_fanout[fcursor[in]++] = static_cast<std::uint32_t>(fi);
  return topo;
}

PackedSim::PackedSim(const Netlist& nl)
    : PackedSim(PackedTopology::build(nl)) {}

PackedSim::PackedSim(std::shared_ptr<const PackedTopology> topo)
    : topo_(std::move(topo)) {
  const Netlist& nl = *topo_->nl;
  const std::size_t words = (nl.num_nets() + 63) / 64;
  plane_.assign(words, 0);
  diverged_.assign(words, 0);
  values_.assign(nl.num_nets(), Word{});
  flop_state_.assign(topo_->flop_cells.size(), Word{});
  input_hold_.assign(topo_->input_cells.size(), Word{});
  pending_nets_.assign(words, 0);
  inj_start_.assign(nl.num_cells(), 0);
  has_inj_.assign(nl.num_cells(), 0);
  arena_.assign(topo_->order.size(), 0);
  level_count_.assign(topo_->num_levels, 0);
  event_stamp_.assign(topo_->order.size(), 0);
  frontier_.assign(topo_->order.size(), 0);
  frontier_reads_.assign(nl.num_nets(), 0);
  frontier_read_.assign(words, 0);
  listed_.assign(topo_->order.size(), 0);
  flop_stamp_.assign(topo_->flop_cells.size(), 0);
  sweep_flags_.assign(words * 64, 0);
}

void PackedSim::clear_injections() {
  inj_flat_.clear();
  inj_pos_.clear();
  active_flops_.clear();
  std::fill(has_inj_.begin(), has_inj_.end(), 0);
  inj_dirty_ = false;
  needs_full_ = true;
}

void PackedSim::add_injection(const Injection& inj) {
  inj_pos_.push_back(static_cast<std::uint32_t>(inj_flat_.size()));
  inj_flat_.push_back(inj);
  inj_dirty_ = true;
  needs_full_ = true;
}

void PackedSim::set_injection_lanes(std::size_t index, Word lanes) {
  if (index >= inj_pos_.size())
    throw std::out_of_range("PackedSim: injection " + std::to_string(index) +
                            " out of range (" +
                            std::to_string(inj_pos_.size()) + " injections)");
  Injection& inj = inj_flat_[inj_pos_[index]];
  if (!lane_neq(inj.lanes, lanes)) return;
  inj.lanes = lanes;
  // A pending full sweep or start (or full-sweep mode) re-applies every
  // injection from scratch, so nothing is stale.
  if (needs_full_ || inj_dirty_ || mode_ == PackedEvalMode::kFullSweep) return;
  const Cell& c = topo_->nl->cell(inj.cell);
  if (const std::uint32_t oi = topo_->order_index[inj.cell]; oi != kInvalidId) {
    // Combinational: the next settle recomputes the cell (an injected cell
    // is on the frontier, so a replay evaluates it too).
    push_event(oi);
    return;
  }
  // The next settle re-applies a primary input's injections, and observed()
  // an output port's.
  if (c.type == CellType::kInput) {
    mark_input(topo_->input_index[inj.cell]);
    return;
  }
  if (c.type == CellType::kOutput) return;
  // The other sources change their word now. A flop's D/reset-pin faults
  // apply at the next latch(), but a Q-pin fault changes the exposed value
  // mid-cycle: re-apply injections over the latched state, as latch()
  // does, for this one flop. A tie re-applies them over its constant.
  const Word base = is_sequential(c.type)
                        ? flop_state_[topo_->flop_index[inj.cell]]
                        : lane_broadcast(c.type == CellType::kTie1);
  expose(c.out, apply_inj(inj.cell, nullptr, base, true));
}

void PackedSim::prepare_injections() {
  // Group by cell; stable so per-cell application order stays insertion
  // order (masking is order-sensitive when lanes overlap). The permutation
  // is tracked so set_injection_lanes handles survive the sort.
  std::vector<std::uint32_t> perm(inj_flat_.size());
  std::iota(perm.begin(), perm.end(), 0u);
  std::stable_sort(perm.begin(), perm.end(),
                   [this](std::uint32_t a, std::uint32_t b) {
                     return inj_flat_[a].cell < inj_flat_[b].cell;
                   });
  std::vector<Injection> sorted;
  sorted.reserve(inj_flat_.size());
  std::vector<std::uint32_t> inverse(inj_flat_.size());
  for (std::uint32_t k = 0; k < perm.size(); ++k) {
    inverse[perm[k]] = k;
    sorted.push_back(inj_flat_[perm[k]]);
  }
  inj_flat_ = std::move(sorted);
  for (std::uint32_t& pos : inj_pos_) pos = inverse[pos];
  active_flops_.clear();
  for (std::size_t i = 0; i < inj_flat_.size();) {
    const CellId c = inj_flat_[i].cell;
    std::size_t j = i;
    while (j < inj_flat_.size() && inj_flat_[j].cell == c) ++j;
    if (j - i > 0xFF)  // count must fit has_inj_; silent wrap would drop faults
      throw std::runtime_error("PackedSim: more than 255 injections on one cell");
    inj_start_[c] = static_cast<std::uint32_t>(i);
    has_inj_[c] = static_cast<std::uint8_t>(j - i);
    const std::uint32_t fi = topo_->flop_index[c];
    if (fi != kInvalidId) active_flops_.push_back(fi);
    i = j;
  }
  inj_dirty_ = false;
}

void PackedSim::power_on(const std::uint64_t* settled) {
  std::fill(plane_.begin(), plane_.end(), 0);
  std::fill(diverged_.begin(), diverged_.end(), 0);
  std::fill(flop_state_.begin(), flop_state_.end(), Word{});
  std::fill(input_hold_.begin(), input_hold_.end(), Word{});
  clear_pending_inputs();
  flipped_.clear();
  needs_full_ = true;
  start_ = settled;
  all_flops_dirty_ = true;
  synced_ = false;
}

CellId PackedSim::input_driver(NetId net) const {
  if (net < topo_->net_input.size() && topo_->net_input[net] != kInvalidId)
    return topo_->net_input[net];
  const Netlist& nl = *topo_->nl;
  if (net >= nl.num_nets())
    throw std::invalid_argument("PackedSim: net " + std::to_string(net) +
                                " out of range (" +
                                std::to_string(nl.num_nets()) + " nets)");
  const CellId drv = nl.net(net).driver;
  throw std::invalid_argument(
      "PackedSim: net " + nl.net(net).name +
      (drv == kInvalidId ? " is undriven"
                         : " is driven by " + nl.cell(drv).name) +
      ", not a primary input");
}

void PackedSim::set_input_all(NetId net, bool v) {
  set_held(input_driver(net), lane_broadcast(v));
}

void PackedSim::set_input_lanes(NetId net, Word lanes) {
  set_held(input_driver(net), lanes);
}

void PackedSim::set_held(CellId input_cell, const Word& lanes) {
  const std::uint32_t ii = topo_->input_index[input_cell];
  if (!lane_neq(input_hold_[ii], lanes)) return;
  input_hold_[ii] = lanes;
  mark_input(ii);
}

void PackedSim::mark_input(std::uint32_t ii) {
  const NetId net = topo_->input_outs[ii];
  std::uint64_t& word = pending_nets_[net / 64];
  const std::uint64_t bit = 1ULL << (net % 64);
  if (word & bit) return;
  word |= bit;
  pending_inputs_.push_back(ii);
}

void PackedSim::clear_pending_inputs() {
  for (const std::uint32_t ii : pending_inputs_) {
    const NetId net = topo_->input_outs[ii];
    pending_nets_[net / 64] &= ~(1ULL << (net % 64));
  }
  pending_inputs_.clear();
}

void PackedSim::set_input_word(const Bus& bus, std::uint64_t value) {
  for (std::size_t i = 0; i < bus.size(); ++i)
    set_input_all(bus[i], (value >> i) & 1);
}

LaneWord PackedSim::apply_inj(CellId id, Word* tmp, Word out_val,
                              bool apply_output) const {
  const Injection* j = inj_flat_.data() + inj_start_[id];
  const Injection* const end = j + has_inj_[id];
  for (; j != end; ++j) {
    if (j->pin == 0) {
      if (apply_output)
        out_val = j->sa1 ? (out_val | j->lanes) : (out_val & ~j->lanes);
    } else if (tmp != nullptr) {
      Word& w = tmp[j->pin - 1];
      w = j->sa1 ? (w | j->lanes) : (w & ~j->lanes);
    }
  }
  return out_val;
}

namespace {

/// A gate's output from `in(i)`, the word on input pin i, for either word
/// type: the lane word of compute_cell, and the one 64-bit word of lane-0
/// broadcasts a plain settle computes off the frontier. Gate semantics
/// live here once for the sweep, the frontier and lane 0.
template <class Word, class Read>
[[gnu::always_inline]] inline Word eval_gate(const PackedTopology::FlatCell& fc,
                                             Read in) {
  // Hot path: inline the common gates, fall back for the rest.
  switch (fc.type) {
    case CellType::kAnd2:
      return in(0) & in(1);
    case CellType::kOr2:
      return in(0) | in(1);
    case CellType::kXor2:
      return in(0) ^ in(1);
    case CellType::kMux2: {
      const Word s = in(kMuxS);
      return (s & in(kMuxB)) | (~s & in(kMuxA));
    }
    case CellType::kNot:
      return ~in(0);
    case CellType::kBuf:
      return in(0);
    default: {
      Word tmp[4];
      for (int i = 0; i < fc.n; ++i) tmp[i] = in(i);
      return eval_packed(fc.type, tmp, fc.n);
    }
  }
}

}  // namespace

template <class Read>
inline LaneWord PackedSim::compute_cell(const PackedTopology::FlatCell& fc,
                                        Read in) const {
  if (__builtin_expect(has_inj_[fc.id], 0)) {
    Word tmp[4];
    for (int i = 0; i < fc.n; ++i) tmp[i] = in(i);
    apply_inj(fc.id, tmp, Word{}, false);
    const Word out = eval_packed(fc.type, tmp, fc.n);
    return apply_inj(fc.id, nullptr, out, true);
  }
  return eval_gate<Word>(fc, in);
}

void PackedSim::push_event(std::uint32_t order_idx) {
  if (event_stamp_[order_idx] == event_epoch_) return;
  event_stamp_[order_idx] = event_epoch_;
  const std::uint32_t lvl = topo_->level[order_idx];
  arena_[topo_->level_start[lvl] + level_count_[lvl]++] = order_idx;
  ++activity_.sched_pushes;
}

void PackedSim::mark_flop_dirty(std::uint32_t flop_idx) {
  if (flop_stamp_[flop_idx] == flop_epoch_) return;
  flop_stamp_[flop_idx] = flop_epoch_;
  dirty_flops_.push_back(flop_idx);
}

inline void PackedSim::mark_flop_readers(NetId net) {
  const PackedTopology& t = *topo_;
  for (std::uint32_t j = t.flop_fanout_start[net];
       j < t.flop_fanout_start[net + 1]; ++j)
    mark_flop_dirty(t.flop_fanout[j]);
}

void PackedSim::schedule_readers(NetId net) {
  const PackedTopology& t = *topo_;
  for (std::uint32_t j = t.fanout_start[net]; j < t.fanout_start[net + 1]; ++j)
    push_event(t.fanout[j]);
  mark_flop_readers(net);
}

void PackedSim::join_frontier(std::uint32_t k) {
  if (frontier_[k]++ != 0) return;
  const PackedTopology::FlatCell& fc = topo_->order[k];
  for (int i = 0; i < fc.n; ++i) {
    const NetId n = fc.in[i];
    if (frontier_reads_[n]++ == 0) frontier_read_[n / 64] |= 1ULL << (n % 64);
  }
  if (listed_[k]) return;
  listed_[k] = 1;
  frontier_list_.push_back(k);
}

void PackedSim::leave_frontier(std::uint32_t k) {
  // Only the full-sweep mode, which keeps no frontier, writes a net whose
  // reader holds no count (a flop Q at the edge re-converging).
  if (frontier_[k] == 0 || --frontier_[k] != 0) return;
  const PackedTopology::FlatCell& fc = topo_->order[k];
  for (int i = 0; i < fc.n; ++i) {
    const NetId n = fc.in[i];
    if (--frontier_reads_[n] == 0)
      frontier_read_[n / 64] &= ~(1ULL << (n % 64));
  }
}

void PackedSim::clear_frontier() {
  for (const std::uint32_t k : frontier_list_) {
    if (frontier_[k] != 0) {
      const PackedTopology::FlatCell& fc = topo_->order[k];
      for (int i = 0; i < fc.n; ++i) {
        frontier_reads_[fc.in[i]] = 0;
        frontier_read_[fc.in[i] / 64] = 0;
      }
    }
    frontier_[k] = 0;
    listed_[k] = 0;
  }
  frontier_list_.clear();
}

bool PackedSim::write(NetId net, const Word& v, std::uint32_t driver) {
  const std::size_t o = net / 64;
  const std::uint64_t bit = 1ULL << (net % 64);
  const bool was = (diverged_[o] & bit) != 0;
  const bool now = !lane_uniform(v);
  const bool flip = ((plane_[o] & bit) != 0) != lane_test(v, 0);
  if (flip) plane_[o] ^= bit;
  if (now) values_[net] = v;
  // A lane-uniform change moves only the plane bit.
  if (!was && !now) return flip;
  const PackedTopology& t = *topo_;
  if (was != now) {
    diverged_[o] ^= bit;
    if (driver != kInvalidId) {
      if (now)
        join_frontier(driver);
      else
        leave_frontier(driver);
    }
  }
  for (std::uint32_t j = t.fanout_start[net]; j < t.fanout_start[net + 1];
       ++j) {
    const std::uint32_t k = t.fanout[j];
    if (was != now) {
      if (now)
        join_frontier(k);
      else
        leave_frontier(k);
    }
    if (frontier_[k] != 0) push_event(k);
  }
  mark_flop_readers(net);
  return flip;
}

void PackedSim::expose(NetId q, const Word& v) {
  if (lane_neq(v, load(q)) && write(q, v, kInvalidId)) flipped_.push_back(q);
}

void PackedSim::frame_mismatch(NetId net, const NetFrame& frame) {
  // The throw leaves a settle half done: resettle from scratch next time.
  needs_full_ = true;
  start_ = nullptr;
  const bool want = (frame.value[net / 64] >> (net % 64)) & 1ULL;
  // A start's frame is the power-on plane (it has no changed bits): the
  // settle of `cycle`, or of the reset when `cycle` is negative.
  std::string where = "the frame of cycle " + std::to_string(frame.cycle);
  if (frame.changed == nullptr)
    where = frame.cycle < 0 ? "the power-on plane (the settle before cycle 0)"
                            : "the power-on plane (the settle of cycle " +
                                  std::to_string(frame.cycle) + ")";
  throw std::logic_error("PackedSim: net " + topo_->nl->net(net).name +
                         " settles lane 0 to " + (want ? "0" : "1") + " but " +
                         where + " holds " + (want ? "1" : "0"));
}

void PackedSim::bump_event_epoch() {
  if (++event_epoch_ == 0) {  // wrap: stale stamps from the old era alias
    std::fill(event_stamp_.begin(), event_stamp_.end(), 0u);
    event_epoch_ = 1;
  }
}

void PackedSim::bump_flop_epoch() {
  if (++flop_epoch_ == 0) {
    std::fill(flop_stamp_.begin(), flop_stamp_.end(), 0u);
    flop_epoch_ = 1;
  }
}

void PackedSim::run_full_sweep() {
  const PackedTopology& t = *topo_;
  // The sweep writes every net's word before any reader needs it
  // (sources, flop Qs, then cells in topological order), so it reads
  // values_ directly. Each write also leaves the net's lane-0 value (bit 0)
  // and divergence (bit 1) in a flag byte; the plane and the diverged bits
  // are packed from them at the end.
  Word* const words = values_.data();
  std::uint8_t* const flags = sweep_flags_.data();
  const auto put = [words, flags](NetId net, const Word& v) {
    words[net] = v;
    flags[net] = static_cast<std::uint8_t>(lane_test(v, 0) |
                                           (lane_uniform(v) ? 0 : 2));
  };
  // Sources: primary inputs hold their driven value; ties their constant.
  for (CellId id : t.source_cells) {
    const Cell& c = t.nl->cell(id);
    Word v = c.type == CellType::kTie1   ? ~Word{}
             : c.type == CellType::kTie0 ? Word{}
                                         : input_hold_[t.input_index[id]];
    if (has_inj_[id]) v = apply_inj(id, nullptr, v, true);
    put(c.out, v);
  }
  // Expose flop state (with Q-pin faults).
  for (std::size_t fi = 0; fi < t.flops.size(); ++fi) {
    const PackedTopology::FlatFlop& f = t.flops[fi];
    Word v = flop_state_[fi];
    if (has_inj_[f.id]) v = apply_inj(f.id, nullptr, v, true);
    put(f.q, v);
  }
  // Levelized sweep over the flattened combinational cells. Both kernels
  // share compute_cell, so the sweep oracle and the event path can never
  // diverge on gate semantics.
  for (const PackedTopology::FlatCell& fc : t.order)
    put(fc.out,
        compute_cell(fc, [words, &fc](int i) { return words[fc.in[i]]; }));
  // Eight flag bytes per multiply: the product gathers bit 0 of each byte
  // into the top byte. The flags run in whole 64-net groups, zero past the
  // last net.
  constexpr std::uint64_t kLow = 0x0101010101010101ULL;
  constexpr std::uint64_t kGather = 0x0102040810204080ULL;
  for (std::size_t o = 0; o < plane_.size(); ++o) {
    std::uint64_t bits = 0;
    std::uint64_t div = 0;
    for (int g = 0; g < 8; ++g) {
      std::uint64_t x;
      std::memcpy(&x, flags + o * 64 + static_cast<std::size_t>(g) * 8, 8);
      bits |= (((x & kLow) * kGather) >> 56) << (g * 8);
      div |= ((((x >> 1) & kLow) * kGather) >> 56) << (g * 8);
    }
    plane_[o] = bits;
    diverged_[o] = div;
  }
  // The frontier, from scratch. The full-sweep oracle settles by sweeps
  // alone and keeps none (set_eval_mode resettles on a switch).
  clear_frontier();
  if (mode_ == PackedEvalMode::kEventDriven) {
    for (std::uint32_t k = 0; k < t.order.size(); ++k) {
      const PackedTopology::FlatCell& fc = t.order[k];
      std::uint8_t n = (has_inj_[fc.id] ? 1 : 0) + diverged(fc.out);
      for (int i = 0; i < fc.n; ++i) n += diverged(fc.in[i]);
      if (n == 0) continue;
      join_frontier(k);
      frontier_[k] = n;
    }
  }
  // The sweep recomputed everything: retire pending arena entries by
  // zeroing the per-level counts and bumping the membership epoch. The
  // writes above were untracked, so dirty-D state is invalid — the next
  // edge must latch every flop before incremental clocking can resume.
  std::fill(level_count_.begin(), level_count_.end(), 0u);
  bump_event_epoch();
  flipped_.clear();
  clear_pending_inputs();
  dirty_flops_.clear();
  all_flops_dirty_ = true;
  needs_full_ = false;
  start_ = nullptr;
  ++activity_.full_sweeps;
  activity_.cells_evaluated += t.order.size();
}

NetFrame PackedSim::begin_start(const NetFrame* frame) {
  const PackedTopology& t = *topo_;
  const NetFrame start{frame ? frame->cycle : -1, start_, nullptr};
  start_ = nullptr;
  needs_full_ = false;
  // The good machine's plane, no net diverged, and nothing left of the
  // last batch: its frontier (every cell with a nonzero count is listed)
  // and its pending events.
  std::copy(start.value, start.value + plane_.size(), plane_.begin());
  std::fill(diverged_.begin(), diverged_.end(), 0);
  clear_frontier();
  std::fill(level_count_.begin(), level_count_.end(), 0u);
  bump_event_epoch();
  flipped_.clear();
  // The sources: every primary input, flop Q and tie must settle lane 0 to
  // the plane, and a faulty lane's word diverges its net.
  const auto expose_source = [&](NetId out, const Word& v) {
    if (lane_test(v, 0) != plane_bit(out)) frame_mismatch(out, start);
    if (!lane_uniform(v)) write(out, v, kInvalidId);
  };
  for (std::size_t ii = 0; ii < t.input_cells.size(); ++ii) {
    const CellId id = t.input_cells[ii];
    const Word& v = input_hold_[ii];
    expose_source(t.input_outs[ii],
                  has_inj_[id] ? apply_inj(id, nullptr, v, true) : v);
  }
  clear_pending_inputs();
  for (std::size_t fi = 0; fi < t.flops.size(); ++fi) {
    const PackedTopology::FlatFlop& f = t.flops[fi];
    const Word& state = flop_state_[fi];
    expose_source(f.q, has_inj_[f.id] ? apply_inj(f.id, nullptr, state, true)
                                      : state);
  }
  for (const CellId id : t.source_cells) {
    const Cell& c = t.nl->cell(id);
    if (!is_tie(c.type)) continue;
    const Word v = lane_broadcast(c.type == CellType::kTie1);
    expose_source(c.out, has_inj_[id] ? apply_inj(id, nullptr, v, true) : v);
  }
  // The injected cells join the frontier; the writes above scheduled the
  // frontier readers of every diverged source.
  for (std::size_t i = 0; i < inj_flat_.size();) {
    const CellId id = inj_flat_[i].cell;
    i += has_inj_[id];
    if (const std::uint32_t k = t.order_index[id]; k != kInvalidId) {
      join_frontier(k);
      push_event(k);
    }
  }
  return start;
}

void PackedSim::run_settle(const NetFrame* replay) {
  const PackedTopology& t = *topo_;
  // A start's frame is already in the plane, with nothing changed.
  const bool changes = replay && replay->changed != nullptr;
  if (changes) {
    // Take the frame. Every flop Q, which the last latch() advanced, must
    // already hold the frame's value. A changed net marks the flops
    // reading it for the next edge; the frame covers every pending lane-0
    // change.
    for (std::size_t o = 0; o < plane_.size(); ++o) {
      const std::uint64_t bad =
          (plane_[o] ^ replay->value[o]) &
          (t.flop_nets[o] | (t.input_nets[o] & ~pending_nets_[o]));
      if (bad != 0)
        frame_mismatch(static_cast<NetId>(o * 64 + static_cast<unsigned>(
                                                       __builtin_ctzll(bad))),
                       *replay);
      plane_[o] = replay->value[o];
      for (std::uint64_t bits = replay->changed[o] & t.flop_inputs[o];
           bits != 0; bits &= bits - 1)
        mark_flop_readers(static_cast<NetId>(
            o * 64 + static_cast<unsigned>(__builtin_ctzll(bits))));
    }
  } else {
    for (const NetId n : flipped_) schedule_readers(n);
  }
  flipped_.clear();
  // The primary inputs driven since the last settle. A replay checks each
  // against the frame first, so there its writes never change lane 0.
  for (const std::uint32_t ii : pending_inputs_) {
    const CellId id = t.input_cells[ii];
    Word v = input_hold_[ii];
    if (has_inj_[id]) v = apply_inj(id, nullptr, v, true);
    const NetId out = t.input_outs[ii];
    if (replay && lane_test(v, 0) != plane_bit(out))
      frame_mismatch(out, *replay);
    pending_nets_[out / 64] &= ~(1ULL << (out % 64));
    if (lane_neq(v, load(out)) && write(out, v, kInvalidId))
      schedule_readers(out);
  }
  pending_inputs_.clear();
  if (changes) {
    // Schedule the frontier readers of every non-diverged net whose frame
    // bit changed. A diverged net whose lane 0 changed was written (at the
    // edge, or by its driver, which a change woke), and the write scheduled
    // its frontier readers; a changed injection scheduled its cell when it
    // was set. So an injected cell whose inputs and lanes held still keeps
    // its output word and is not evaluated.
    for (std::size_t o = 0; o < plane_.size(); ++o)
      for (std::uint64_t bits =
               replay->changed[o] & frontier_read_[o] & ~diverged_[o];
           bits != 0; bits &= bits - 1) {
        const auto n = static_cast<NetId>(
            o * 64 + static_cast<unsigned>(__builtin_ctzll(bits)));
        for (std::uint32_t j = t.fanout_start[n]; j < t.fanout_start[n + 1];
             ++j)
          if (frontier_[t.fanout[j]] != 0) push_event(t.fanout[j]);
      }
  }
  // Drain the arena's level segments in ascending order. Every fanout edge
  // strictly increases the level, so a cell processed here cannot be
  // re-scheduled within the same settle, and a segment cannot grow while
  // it drains.
  std::uint64_t drained = 0;
  std::uint64_t evaluated = 0;
  std::uint64_t quiet = 0;
  for (std::uint32_t lvl = 1; lvl < t.num_levels; ++lvl) {
    const std::uint32_t n = level_count_[lvl];
    if (n == 0) continue;
    ++activity_.levels_touched;
    const std::uint32_t* seg = arena_.data() + t.level_start[lvl];
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint32_t k = seg[i];
      const PackedTopology::FlatCell& fc = t.order[k];
      if (frontier_[k] == 0) {
        // Off the frontier every pin reads the good machine, and a replay
        // took the output from the frame. A plain settle computes lane 0
        // alone: no pin is diverged and nothing is injected, so the output
        // is the broadcast of its lane-0 value.
        if (replay) continue;
        ++evaluated;
        const bool bit = eval_gate<std::uint64_t>(fc, [this, &fc](int p) {
                           return 0 - std::uint64_t{plane_bit(fc.in[p])};
                         }) & 1;
        if (bit == plane_bit(fc.out)) {
          ++quiet;
        } else {
          plane_[fc.out / 64] ^= 1ULL << (fc.out % 64);
          schedule_readers(fc.out);
        }
        continue;
      }
      const Word out =
          compute_cell(fc, [this, &fc](int p) { return load(fc.in[p]); });
      ++evaluated;
      if (replay && lane_test(out, 0) != plane_bit(fc.out))
        frame_mismatch(fc.out, *replay);
      if (!lane_neq(out, load(fc.out)))
        ++quiet;
      else if (write(fc.out, out, k))
        schedule_readers(fc.out);
    }
    level_count_[lvl] = 0;
    drained += n;
  }
  // Retire membership stamps so the next settle's pushes start clean.
  bump_event_epoch();
  if (changes) ++activity_.frame_replays;
  activity_.cells_evaluated += evaluated;
  activity_.events_drained += drained;
  activity_.quiet_cells += quiet;
}

void PackedSim::check_plane(const NetFrame& frame) {
  for (std::size_t o = 0; o < plane_.size(); ++o)
    if (const std::uint64_t bad = plane_[o] ^ frame.value[o]; bad != 0)
      frame_mismatch(static_cast<NetId>(o * 64 + static_cast<unsigned>(
                                                     __builtin_ctzll(bad))),
                     frame);
}

void PackedSim::eval(const NetFrame* frame) {
  ++activity_.evals;
  if (mode_ == PackedEvalMode::kFullSweep) frame = nullptr;
  if (inj_dirty_) prepare_injections();
  const bool replay = frame && synced_ && !needs_full_ &&
                      frame->cycle == synced_cycle_ + 1;
  synced_ = false;
  if (mode_ == PackedEvalMode::kFullSweep) {
    run_full_sweep();
  } else if (start_) {
    const NetFrame start = begin_start(frame);
    run_settle(&start);
  } else if (needs_full_) {
    run_full_sweep();
  } else {
    run_settle(replay ? frame : nullptr);
  }
  if (frame) {
    if (!replay) check_plane(*frame);
    synced_ = true;
    synced_cycle_ = frame->cycle;
  }
  if (settle_log_) sample_settle();
}

void PackedSim::set_settle_log(SettleLog* log) {
  settle_log_ = log;
  if (!log) return;
  log->seen0.resize(plane_.size(), 0);
  log->seen1.resize(plane_.size(), 0);
}

void PackedSim::sample_settle() {
  if (settle_log_->first.empty()) settle_log_->first = plane_;
  for (std::size_t o = 0; o < plane_.size(); ++o) {
    settle_log_->seen1[o] |= plane_[o];
    settle_log_->seen0[o] |= ~plane_[o];
  }
  // Padding bits of the last word never hold a net.
  if (const std::size_t tail = values_.size() % 64; tail != 0)
    settle_log_->seen0.back() &= (1ULL << tail) - 1;
}

void PackedSim::latch() {
  if (inj_dirty_) prepare_injections();
  const PackedTopology& t = *topo_;
  // Lane-0 flips no settle has handled since an earlier edge: their flop
  // readers must latch on this one.
  for (const NetId n : flipped_) mark_flop_readers(n);
  // The flops to latch: the dirty set plus the injected flops, or every
  // flop after untracked state (a full sweep, power-on, an injection
  // change). Set_injection_lanes re-arms D/reset faults without touching
  // any net, so an injected flop's latched value can change even when its
  // D input was provably quiet.
  if (all_flops_dirty_ || needs_full_) {
    dirty_scratch_.resize(t.flops.size());
    std::iota(dirty_scratch_.begin(), dirty_scratch_.end(), 0u);
    dirty_flops_.clear();
    // Re-arm dirty-D tracking; if the next eval() is a full sweep it
    // re-invalidates, keeping this edge's marks conservative.
    all_flops_dirty_ = false;
  } else {
    for (const std::uint32_t fi : active_flops_) mark_flop_dirty(fi);
    dirty_scratch_.swap(dirty_flops_);
    dirty_flops_.clear();
  }
  // Bump BEFORE pass 2 so its change marks seed the NEXT edge.
  bump_flop_epoch();
  // Pass 1 reads the pre-edge values; a skipped flop's D (and reset) words
  // are unchanged since its last latch, so re-latching it would be a
  // no-op. A flop whose pins and Q are all non-diverged and which carries
  // no injection latches lane 0 of its D (and reset) plane bits; its Q
  // bit flips in pass 2 if that differs. Every other flop latches words.
  const std::size_t first_flip = flipped_.size();
  edge_flops_.clear();
  Word tmp[2];
  for (const std::uint32_t fi : dirty_scratch_) {
    const PackedTopology::FlatFlop& f = t.flops[fi];
    if (!has_inj_[f.id] &&
        !(diverged(f.q) | diverged(f.in[0]) | diverged(f.in[1]))) {
      const bool next = plane_bit(f.in[0]) & plane_bit(f.in[1]);
      flop_state_[fi] = lane_broadcast(next);
      if (next != plane_bit(f.q)) flipped_.push_back(f.q);
      continue;
    }
    tmp[0] = load(f.in[0]);
    tmp[1] = load(f.in[1]);
    if (has_inj_[f.id]) apply_inj(f.id, tmp, Word{}, false);
    // DFF: q' = d. DFFR (active-low reset to 0): q' = d & rstn.
    flop_state_[fi] = f.n == 1 ? tmp[kDffD] : (tmp[kDffD] & tmp[kDffRstn]);
    edge_flops_.push_back(fi);
  }
  activity_.flops_latched += dirty_scratch_.size();
  activity_.flops_skipped += t.flops.size() - dirty_scratch_.size();
  // Pass 2: advance the Q bits and expose the latched words (with Q-pin
  // faults). Readers of a flipped bit wait in flipped_ for the next settle.
  for (std::size_t i = first_flip; i < flipped_.size(); ++i)
    plane_[flipped_[i] / 64] ^= 1ULL << (flipped_[i] % 64);
  for (const std::uint32_t fi : edge_flops_) {
    const PackedTopology::FlatFlop& f = t.flops[fi];
    Word v = flop_state_[fi];
    if (has_inj_[f.id]) v = apply_inj(f.id, nullptr, v, true);
    expose(f.q, v);
  }
}

void PackedSim::clock() {
  latch();
  eval();
}

void PackedSim::retire_lanes(Word lanes) {
  if (lane_test(lanes, 0))
    throw std::invalid_argument(
        "PackedSim: lane 0 is the good machine and cannot retire");
  if (!lane_any(lanes)) return;
  activity_.lanes_retired += static_cast<std::uint64_t>(lane_count(lanes));
  if (inj_dirty_) prepare_injections();
  for (std::size_t i = 0; i < inj_pos_.size(); ++i)
    set_injection_lanes(i, inj_flat_[inj_pos_[i]].lanes & ~lanes);
  // Copy lane 0's state into the retired lanes. The flop latches again at
  // the next edge: its D still reads the lanes' old comb values, so a
  // skipped latch would not equal the full one. An injected flop's Q is
  // re-exposed even over an unchanged state (set_injection_lanes leaves it
  // to a pending full sweep), so every Q stays current as after latch().
  // An uninjected flop's Q is its state, except before the sweep that
  // follows an injection change, so a non-diverged one holds a
  // lane-uniform state that retiring cannot change.
  const PackedTopology& t = *topo_;
  for (std::size_t fi = 0; fi < t.flops.size(); ++fi) {
    const CellId id = t.flops[fi].id;
    const NetId out = t.flops[fi].q;
    if (!needs_full_ && !has_inj_[id] && !diverged(out)) continue;
    Word& state = flop_state_[fi];
    const Word next =
        (state & ~lanes) | (lane_broadcast(lane_test(state, 0)) & lanes);
    if (lane_neq(next, state)) {
      state = next;
      mark_flop_dirty(static_cast<std::uint32_t>(fi));
    } else if (!has_inj_[id]) {
      continue;
    }
    expose(out, has_inj_[id] ? apply_inj(id, nullptr, next, true) : next);
  }
}

LaneWord PackedSim::observed(CellId output_cell) const {
  const Netlist& nl = *topo_->nl;
  if (output_cell >= nl.num_cells())
    throw std::invalid_argument(
        "PackedSim: observed cell " + std::to_string(output_cell) +
        " out of range (" + std::to_string(nl.num_cells()) + " cells)");
  const Cell& c = nl.cell(output_cell);
  if (c.type != CellType::kOutput)
    throw std::invalid_argument("PackedSim: observed cell " + c.name +
                                " is not an output port");
  // Injections are grouped lazily; observing between add_injection() and
  // the next eval()/latch() would silently miss port faults.
  if (inj_dirty_)
    throw std::logic_error("PackedSim: observed(" + c.name +
                           ") before the injections changed since the last "
                           "eval() or latch() were applied");
  Word v = load(c.ins[0]);
  if (has_inj_[output_cell]) {
    const Injection* j = inj_flat_.data() + inj_start_[output_cell];
    const Injection* const end = j + has_inj_[output_cell];
    for (; j != end; ++j) {
      if (j->pin != 1) continue;
      v = j->sa1 ? (v | j->lanes) : (v & ~j->lanes);
    }
  }
  return v;
}

}  // namespace olfui
