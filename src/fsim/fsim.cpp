#include "fsim/fsim.hpp"

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>

#include "fault/tdf.hpp"
#include "obs/metrics.hpp"

namespace olfui {

namespace {

/// Fault i rides lane i + 1, so a pass holds at most kLanes - 1 faults;
/// one more would shift past the lane word.
void check_lane_capacity(std::size_t faults) {
  if (faults >= static_cast<std::size_t>(kLanes))
    throw std::invalid_argument(
        "run_batch: " + std::to_string(faults) +
        " faults exceed the " + std::to_string(kLanes - 1) +
        " faulty lanes of a " + std::to_string(kLanes) + "-lane pass");
}

/// Lane-0 bit of `net` in a frame's packed words.
bool frame_bit(const std::uint64_t* words, NetId net) {
  return (words[net / 64] >> (net % 64)) & 1ULL;
}

/// Streams a ReferenceTrace's frames in cycle order: one run cursor per
/// 64-net column yields each cycle's lane-0 words and the bits that changed
/// since the previous cycle. A cycle visits only the columns the trace
/// lists for it, plus last cycle's to clear their changed words. Nothing
/// per cycle is stored.
class FrameStream {
 public:
  explicit FrameStream(const ReferenceTrace& trace)
      : trace_(&trace),
        run_(trace.columns.size(), 0),
        value_(trace.columns.size()),
        changed_(trace.columns.size(), 0) {
    for (std::size_t o = 0; o < run_.size(); ++o) {
      const ReferenceTrace::Column& col = trace.columns[o];
      value_[o] = col.value.empty() ? 0 : col.value[0];
    }
    frame_.value = value_.data();
    frame_.changed = changed_.data();
  }

  /// The frame of `cycle`; calls must step through 0, 1, 2, ... in order.
  const NetFrame& at(int cycle) {
    for (const std::uint32_t o : last_) changed_[o] = 0;
    const auto c = static_cast<std::size_t>(cycle);
    last_ = std::span(trace_->change_columns)
                .subspan(trace_->change_begin[c],
                         trace_->change_begin[c + 1] - trace_->change_begin[c]);
    for (const std::uint32_t o : last_) {
      const std::uint64_t v = trace_->columns[o].value[++run_[o]];
      changed_[o] = value_[o] ^ v;
      value_[o] = v;
    }
    frame_.cycle = cycle;
    return frame_;
  }

 private:
  const ReferenceTrace* trace_;
  std::vector<std::size_t> run_;
  std::vector<std::uint64_t> value_, changed_;
  std::span<const std::uint32_t> last_;  // the columns the last cycle moved
  NetFrame frame_;
};

}  // namespace

bool ReferenceTrace::net_bit(int cycle, NetId net) const {
  if (net >= num_nets)
    throw std::out_of_range("ReferenceTrace: net " + std::to_string(net) +
                            " out of range (" + std::to_string(num_nets) +
                            " nets)");
  if (cycle < 0 || cycle >= cycles)
    throw std::out_of_range("ReferenceTrace: cycle " + std::to_string(cycle) +
                            " of net " + std::to_string(net) +
                            " out of range (" + std::to_string(cycles) +
                            " cycles)");
  const Column& col = columns[net / 64];
  // Last run starting at or before `cycle` (the first run starts at 0).
  const auto it = std::upper_bound(col.cycle.begin(), col.cycle.end(),
                                   static_cast<std::uint32_t>(cycle));
  const std::size_t r = static_cast<std::size_t>(it - col.cycle.begin()) - 1;
  return (col.value[r] >> (net % 64)) & 1ULL;
}

NetActivation ReferenceTrace::activation() const {
  NetActivation a;
  a.seen0.assign(columns.size(), 0);
  a.seen1.assign(columns.size(), 0);
  a.rose.assign(columns.size(), 0);
  a.fell.assign(columns.size(), 0);
  for (std::size_t o = 0; o < columns.size(); ++o) {
    const std::vector<std::uint64_t>& v = columns[o].value;
    for (std::size_t r = 0; r < v.size(); ++r) {
      a.seen1[o] |= v[r];
      a.seen0[o] |= ~v[r];
      if (r == 0) continue;
      a.rose[o] |= ~v[r - 1] & v[r];
      a.fell[o] |= v[r - 1] & ~v[r];
    }
  }
  // Padding bits of the last column never hold a net.
  if (num_nets % 64 != 0) a.seen0.back() &= (1ULL << (num_nets % 64)) - 1;
  return a;
}

NetActivation& NetActivation::operator|=(const NetActivation& other) {
  if (seen0.empty()) return *this = other;
  if (seen0.size() != other.seen0.size())
    throw std::invalid_argument("NetActivation: net counts differ");
  for (std::size_t w = 0; w < seen0.size(); ++w) {
    seen0[w] |= other.seen0[w];
    seen1[w] |= other.seen1[w];
    rose[w] |= other.rose[w];
    fell[w] |= other.fell[w];
  }
  return *this;
}

void ReferenceTrace::reset(std::size_t nets) {
  cycles = 0;
  num_nets = nets;
  columns.assign((nets + 63) / 64, {});
  power_on.clear();
  change_begin.assign(1, 0);
  change_columns.clear();
}

void ReferenceTrace::append_cycle(const std::uint64_t* words) {
  for (std::size_t o = 0; o < columns.size(); ++o) {
    Column& col = columns[o];
    if (col.value.empty() || col.value.back() != words[o]) {
      if (!col.value.empty())
        change_columns.push_back(static_cast<std::uint32_t>(o));
      col.cycle.push_back(static_cast<std::uint32_t>(cycles));
      col.value.push_back(words[o]);
    }
  }
  change_begin.push_back(static_cast<std::uint32_t>(change_columns.size()));
  ++cycles;
}

std::size_t ReferenceTrace::run_count() const {
  std::size_t n = 0;
  for (const Column& col : columns) n += col.value.size();
  return n;
}

std::uint64_t ReferenceTrace::fingerprint() const {
  std::uint64_t h = 14695981039346656037ull;  // FNV-1a offset basis
  const auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xFF;
      h *= 1099511628211ull;
    }
  };
  mix(static_cast<std::uint64_t>(cycles));
  mix(num_nets);
  for (const Column& col : columns) {
    mix(col.cycle.size());
    for (std::size_t r = 0; r < col.cycle.size(); ++r) {
      mix(col.cycle[r]);
      mix(col.value[r]);
    }
  }
  return h;
}

SequentialFaultSimulator::SequentialFaultSimulator(
    const Netlist& nl, const FaultUniverse& universe,
    std::shared_ptr<const PackedTopology> topo)
    : nl_(&nl),
      universe_(&universe),
      sim_(topo ? std::move(topo) : PackedTopology::build(nl)) {
  // A topology for a different netlist is a caller bug; silently
  // rebuilding would also quietly forfeit the sharing optimisation.
  if (sim_.topology().nl != &nl)
    throw std::invalid_argument(
        "SequentialFaultSimulator: topology is for a different netlist");
  // Default: observe every top-level output.
  set_observed(nl.output_cells());
}

void SequentialFaultSimulator::set_observed(std::vector<CellId> output_cells) {
  // observed() and the frame's good bit read each port's input net.
  std::vector<NetId> nets;
  nets.reserve(output_cells.size());
  for (const CellId c : output_cells) {
    if (c >= nl_->num_cells())
      throw std::invalid_argument(
          "SequentialFaultSimulator: observed cell " + std::to_string(c) +
          " out of range (" + std::to_string(nl_->num_cells()) + " cells)");
    if (nl_->cell(c).type != CellType::kOutput)
      throw std::invalid_argument("SequentialFaultSimulator: observed cell " +
                                  nl_->cell(c).name +
                                  " is not an output port");
    nets.push_back(nl_->cell(c).ins[0]);
  }
  observed_ = std::move(output_cells);
  observed_nets_ = std::move(nets);
}

ReferenceTrace SequentialFaultSimulator::record_reference_trace(
    FsimEnvironment& env, int max_cycles, NetActivation* activation) {
  ReferenceTrace trace;
  trace.reset(nl_->num_nets());
  sim_.clear_injections();
  sim_.power_on();
  struct Detach {
    PackedSim& sim;
    ~Detach() { sim.set_settle_log(nullptr); }
  } detach{sim_};
  // The reset's settles, for the activation, and the first settle after
  // power-on, which every batch starts from. A reset that never settles
  // leaves that to cycle 0, whose log is kept apart from the activation.
  SettleLog reset_log, cycle0_log;
  sim_.set_settle_log(&reset_log);
  env.reset(sim_);
  sim_.set_settle_log(reset_log.first.empty() ? &cycle0_log : nullptr);
  for (int cycle = 0; cycle < max_cycles; ++cycle) {
    if (!env.step(sim_, cycle)) break;
    sim_.eval();
    sim_.set_settle_log(nullptr);
    trace.append_cycle(sim_.lane0_plane().data());
    sim_.latch();
  }
  trace.power_on = std::move(reset_log.first.empty() ? cycle0_log.first
                                                     : reset_log.first);
  if (activation) {
    *activation = trace.activation();
    for (std::size_t w = 0; w < reset_log.seen0.size(); ++w) {
      activation->seen0[w] |= reset_log.seen0[w];
      activation->seen1[w] |= reset_log.seen1[w];
    }
  }
  return trace;
}

LaneWord SequentialFaultSimulator::observe_divergence(
    const NetFrame& frame) const {
  LaneWord diverged{};
  for (std::size_t i = 0; i < observed_.size(); ++i) {
    const CellId port = observed_[i];
    const NetId net = observed_nets_[i];
    // After the frame settle a lane-uniform port reads its frame bit.
    if (sim_.port_uniform(port, net)) continue;
    // The good machine runs without injections, so an output port's
    // observed value is exactly the value of the net it reads.
    diverged |= sim_.observed(port) ^
                lane_broadcast(frame_bit(frame.value, net));
  }
  return diverged;
}

LaneMask SequentialFaultSimulator::run_batch(std::span<const FaultId> faults,
                                             FsimEnvironment& env,
                                             const ReferenceTrace& trace,
                                             FaultModel model) {
  check_lane_capacity(faults.size());
  // The frame settle reads one frame bit per net of this netlist.
  if (trace.num_nets != nl_->num_nets())
    throw std::invalid_argument(
        "SequentialFaultSimulator: the trace covers " +
        std::to_string(trace.num_nets) + " nets, the netlist has " +
        std::to_string(nl_->num_nets()));
  // The start reads one plane word per 64 nets of this netlist.
  const std::size_t words = sim_.lane0_plane().size();
  if (!trace.power_on.empty() && trace.power_on.size() != words)
    throw std::invalid_argument(
        "SequentialFaultSimulator: the trace's power-on plane holds " +
        std::to_string(trace.power_on.size()) + " words, the netlist needs " +
        std::to_string(words));
  // The frame stream walks one change list per cycle.
  if (trace.change_begin.size() != static_cast<std::size_t>(trace.cycles) + 1)
    throw std::invalid_argument(
        "SequentialFaultSimulator: the trace's change lists cover " +
        std::to_string(trace.change_begin.size()) + " entries for " +
        std::to_string(trace.cycles) + " cycles");
  const bool tdf = model == FaultModel::kTransition;

  // Fault i rides lane i + 1. A transition fault's capture value is its
  // shared stuck-at slot's polarity (slow-to-rise holds the site at 0), so
  // both models inject the stuck-at record: stuck-at armed for the whole
  // run, transition unarmed until a capture cycle.
  struct Site {
    NetId net;
    bool capture;     // the value the site holds on a capture cycle
    std::uint32_t i;  // the fault's batch entry
  };
  std::vector<Site> sites;  // per transition fault, by net
  sim_.clear_injections();
  LaneWord fault_lanes{};
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const Fault& f = universe_->fault(faults[i]);
    const LaneWord lane = lane_bit(static_cast<int>(i) + 1);
    fault_lanes |= lane;
    sim_.add_injection(
        {f.pin.cell, f.pin.pin, f.sa1, tdf ? LaneWord{} : lane});
    if (tdf)
      sites.push_back({tdf_site_net(*nl_, f), tdf_capture_value(f),
                       static_cast<std::uint32_t>(i)});
  }
  // The frame words holding a site net, with those nets' bits: a cycle
  // visits only the sites whose net changed.
  std::sort(sites.begin(), sites.end(),
            [](const Site& a, const Site& b) { return a.net < b.net; });
  std::vector<std::pair<std::size_t, std::uint64_t>> site_words;
  for (const Site& s : sites) {
    const std::size_t o = s.net / 64;
    if (site_words.empty() || site_words.back().first != o)
      site_words.push_back({o, 0});
    site_words.back().second |= 1ULL << (s.net % 64);
  }
  std::vector<std::uint32_t> armed;  // batch entries armed this cycle

  // Every batch of the trace starts from its power-on settle: the reset
  // runs with the injections armed, but only the frontier is evaluated.
  sim_.power_on(trace.power_on.empty() ? nullptr : trace.power_on.data());
  env.reset(sim_);

  FrameStream frames(trace);
  LaneWord diverged{};
  for (int cycle = 0; cycle < trace.cycles; ++cycle) {
    const NetFrame& frame = frames.at(cycle);
    // A transition fault is live iff its site made the fault's transition
    // across the edge into this cycle: the site changed and now differs
    // from the capture value. Only a changed site net can launch, and no
    // site launches on two cycles running (its net would have to change
    // into the non-capture value twice in a row), so last cycle's sites
    // disarm first. A detected (retired) lane is never armed again.
    for (const std::uint32_t i : armed)
      sim_.set_injection_lanes(i, LaneWord{});
    armed.clear();
    std::size_t s = 0;
    for (const auto& [o, mask] : site_words) {
      for (std::uint64_t bits = frame.changed[o] & mask; bits != 0;
           bits &= bits - 1) {
        const auto net = static_cast<NetId>(
            o * 64 + static_cast<unsigned>(__builtin_ctzll(bits)));
        while (sites[s].net < net) ++s;
        for (; s < sites.size() && sites[s].net == net; ++s) {
          if (frame_bit(frame.value, net) == sites[s].capture) continue;
          const std::uint32_t i = sites[s].i;
          sim_.set_injection_lanes(
              i, lane_bit(static_cast<int>(i) + 1) & ~diverged);
          armed.push_back(i);
        }
      }
    }
    if (!env.step(sim_, cycle)) break;
    sim_.eval(&frame);
    const LaneWord seen = diverged;
    diverged = (diverged | observe_divergence(frame)) & fault_lanes;
    if (!lane_neq(diverged, fault_lanes)) break;
    sim_.latch();
    // A detected lane's verdict is final: hand it back to the good machine.
    sim_.retire_lanes(diverged & ~seen);
  }
  publish_activity();
  return lanes_to_faults(diverged);
}

void SequentialFaultSimulator::publish_activity() {
  if (!obs::metrics().enabled()) return;
  const PackedActivity& a = sim_.activity();
  PackedActivity& base = published_activity_;
  // A caller-side sim().reset_activity() rewinds the counters; restart the
  // delta base rather than wrapping the unsigned subtraction.
  if (a.evals < base.evals) base = {};
  obs::metrics().counter("kernel.evals").add(a.evals - base.evals);
  obs::metrics().counter("kernel.full_sweeps")
      .add(a.full_sweeps - base.full_sweeps);
  obs::metrics().counter("kernel.cells_evaluated")
      .add(a.cells_evaluated - base.cells_evaluated);
  obs::metrics().counter("kernel.events_drained")
      .add(a.events_drained - base.events_drained);
  obs::metrics().counter("kernel.frame_replays")
      .add(a.frame_replays - base.frame_replays);
  obs::metrics().counter("kernel.levels_touched")
      .add(a.levels_touched - base.levels_touched);
  obs::metrics().counter("kernel.quiet_cells")
      .add(a.quiet_cells - base.quiet_cells);
  obs::metrics().counter("kernel.sched_pushes")
      .add(a.sched_pushes - base.sched_pushes);
  obs::metrics().counter("kernel.flops_latched")
      .add(a.flops_latched - base.flops_latched);
  obs::metrics().counter("kernel.flops_skipped")
      .add(a.flops_skipped - base.flops_skipped);
  obs::metrics().counter("kernel.lanes_retired")
      .add(a.lanes_retired - base.lanes_retired);
  base = a;
}

bool comb_detects(const Netlist& nl, const FaultUniverse& universe, FaultId fault,
                  std::span<const std::vector<std::pair<NetId, bool>>> patterns,
                  const std::vector<CellId>& observed) {
  // One pattern per lane.
  if (patterns.size() > static_cast<std::size_t>(kLanes))
    throw std::invalid_argument(
        "comb_detects: " + std::to_string(patterns.size()) +
        " patterns exceed the " + std::to_string(kLanes) +
        " lanes of one pass");
  PackedSim good(nl), bad(nl);
  const Fault& f = universe.fault(fault);
  bad.add_injection({f.pin.cell, f.pin.pin, f.sa1, ~LaneWord{}});

  // Build per-net lane words; inputs not mentioned by any pattern stay 0.
  std::unordered_map<NetId, LaneWord> words;
  LaneWord used{};
  for (std::size_t p = 0; p < patterns.size(); ++p) {
    const LaneWord lane = lane_bit(static_cast<int>(p));
    used |= lane;
    for (auto [net, v] : patterns[p]) {
      auto [it, _] = words.try_emplace(net, LaneWord{});
      if (v) it->second |= lane;
    }
  }

  for (auto [net, w] : words) {
    good.set_input_lanes(net, w);
    bad.set_input_lanes(net, w);
  }
  good.eval();
  bad.eval();

  for (CellId oc : observed) {
    if (lane_any((good.observed(oc) ^ bad.observed(oc)) & used)) return true;
  }
  return false;
}

}  // namespace olfui
