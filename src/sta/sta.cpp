#include "sta/sta.hpp"

#include <cassert>
#include <stdexcept>
#include <string>

namespace olfui {

void MissionConfig::merge(const MissionConfig& other) {
  constants.insert(constants.end(), other.constants.begin(), other.constants.end());
  unobserved_outputs.insert(unobserved_outputs.end(),
                            other.unobserved_outputs.begin(),
                            other.unobserved_outputs.end());
}

StructuralAnalyzer::StructuralAnalyzer(const Netlist& nl,
                                       const FaultUniverse& universe)
    : nl_(&nl), universe_(&universe) {
  if (!nl.levelize(order_))
    throw std::runtime_error("StructuralAnalyzer: combinational loop");
  for (CellId id = 0; id < nl.num_cells(); ++id)
    if (is_sequential(nl.cell(id).type)) flops_.push_back(id);
}

std::uint32_t StructuralAnalyzer::pin_ordinal(Pin p) const {
  return universe_->id_of(p, false) / 2;
}

StaResult StructuralAnalyzer::analyze(const MissionConfig& config) const {
  StaResult r;
  r.net_value.assign(nl_->num_nets(), Logic::VX);
  r.pin_observable.assign(num_pins(), 0);

  // Assumption overlay: config constants and tie cells keep their fixed
  // fault-free value; the fixpoint never re-evaluates their drivers.
  std::vector<std::uint8_t> assumed(nl_->num_nets(), 0);
  for (auto [net, v] : config.constants) {
    assumed[net] = 1;
    r.net_value[net] = from_bool(v);
  }
  for (CellId id = 0; id < nl_->num_cells(); ++id) {
    const Cell& c = nl_->cell(id);
    if (is_tie(c.type) && !assumed[c.out]) {
      assumed[c.out] = 1;
      r.net_value[c.out] = from_bool(c.type == CellType::kTie1);
    }
  }
  propagate_constants(assumed, r);

  // Observed-port flags.
  r.port_observed.assign(nl_->num_cells(), 0);
  for (CellId oc : nl_->output_cells()) r.port_observed[oc] = 1;
  for (CellId c : config.unobserved_outputs) r.port_observed[c] = 0;

  // Observability.
  propagate_observability(r);
  return r;
}

StaResult StructuralAnalyzer::analyze_values(
    std::vector<Logic> net_value, std::span<const CellId> observed) const {
  if (net_value.size() != nl_->num_nets())
    throw std::invalid_argument(
        "StructuralAnalyzer::analyze_values: " +
        std::to_string(net_value.size()) + " values for " +
        std::to_string(nl_->num_nets()) + " nets");
  StaResult r;
  r.net_value = std::move(net_value);
  r.pin_observable.assign(num_pins(), 0);
  r.port_observed.assign(nl_->num_cells(), 0);
  for (const CellId c : observed) {
    if (c >= nl_->num_cells() || nl_->cell(c).type != CellType::kOutput)
      throw std::invalid_argument(
          "StructuralAnalyzer::analyze_values: observed cell " +
          std::to_string(c) + " is not an output port");
    r.port_observed[c] = 1;
  }
  propagate_observability(r);
  return r;
}

void StructuralAnalyzer::propagate_constants(
    const std::vector<std::uint8_t>& assumed, StaResult& r) const {
  // Monotone ternary fixpoint: combinational sweep + flop steady-state
  // update, repeated until stable. Ternary evaluation is monotone in the
  // information order, so values only ever refine X -> {0,1}.
  Logic in[4];
  bool changed = true;
  std::size_t guard = nl_->num_cells() + 2;
  while (changed && guard-- > 0) {
    changed = false;
    for (CellId id : order_) {
      const Cell& c = nl_->cell(id);
      if (c.type == CellType::kOutput || assumed[c.out]) continue;
      const int n = static_cast<int>(c.ins.size());
      for (int i = 0; i < n; ++i) in[i] = r.net_value[c.ins[i]];
      const Logic v = eval_ternary(c.type, in, n);
      if (v != r.net_value[c.out]) {
        r.net_value[c.out] = v;
        changed = true;
      }
    }
    for (CellId id : flops_) {
      const Cell& c = nl_->cell(id);
      if (assumed[c.out]) continue;
      const Logic d = r.net_value[c.ins[kDffD]];
      const Logic rstn = c.type == CellType::kDffR
                             ? r.net_value[c.ins[kDffRstn]]
                             : Logic::V1;
      // Steady-state: if the data input settles to a constant, the flop
      // output is that constant in mission operation (paper Figs. 5/6).
      const Logic v = flop_next(c.type, d, rstn);
      if (v != r.net_value[c.out]) {
        r.net_value[c.out] = v;
        changed = true;
      }
    }
  }
}

bool StructuralAnalyzer::pin_blocked(const Cell& c, int pin,
                                     const StaResult& r) const {
  const auto is_const = [&](NetId n, bool v) { return r.net_const(n, v); };
  switch (c.type) {
    case CellType::kAnd2:
    case CellType::kAnd3:
    case CellType::kAnd4:
    case CellType::kNand2:
    case CellType::kNand3:
    case CellType::kNand4:
      for (std::size_t i = 0; i < c.ins.size(); ++i)
        if (static_cast<int>(i) != pin - 1 && is_const(c.ins[i], false))
          return true;
      return false;
    case CellType::kOr2:
    case CellType::kOr3:
    case CellType::kOr4:
    case CellType::kNor2:
    case CellType::kNor3:
    case CellType::kNor4:
      for (std::size_t i = 0; i < c.ins.size(); ++i)
        if (static_cast<int>(i) != pin - 1 && is_const(c.ins[i], true))
          return true;
      return false;
    case CellType::kMux2: {
      const int data_pin = pin - 1;
      if (data_pin == kMuxA) return is_const(c.ins[kMuxS], true);
      if (data_pin == kMuxB) return is_const(c.ins[kMuxS], false);
      // Select pin: blocked only when both data inputs carry the same
      // known constant (toggling the select cannot change the output).
      const Logic a = r.net_value[c.ins[kMuxA]];
      const Logic b = r.net_value[c.ins[kMuxB]];
      return is_known(a) && a == b;
    }
    case CellType::kDffR:
      if (pin - 1 == kDffD) return is_const(c.ins[kDffRstn], false);
      // RSTN pin: releasing/asserting reset is invisible if D is already 0.
      return is_const(c.ins[kDffD], false);
    default:
      return false;  // BUF/NOT/XOR/XNOR/DFF/OUTPUT never block
  }
}

void StructuralAnalyzer::propagate_observability(StaResult& r) const {
  std::vector<std::uint8_t> net_obs(nl_->num_nets(), 0);
  std::vector<NetId> worklist;

  for (CellId oc : nl_->output_cells()) {
    if (!r.port_observed[oc]) continue;
    const Cell& c = nl_->cell(oc);
    r.pin_observable[pin_ordinal({oc, 1})] = 1;
    if (!net_obs[c.ins[0]]) {
      net_obs[c.ins[0]] = 1;
      worklist.push_back(c.ins[0]);
    }
  }

  while (!worklist.empty()) {
    const NetId n = worklist.back();
    worklist.pop_back();
    const CellId drv = nl_->net(n).driver;
    if (drv == kInvalidId) continue;
    const Cell& c = nl_->cell(drv);
    r.pin_observable[pin_ordinal({drv, 0})] = 1;
    for (std::size_t i = 0; i < c.ins.size(); ++i) {
      const int pin = static_cast<int>(i) + 1;
      if (pin_blocked(c, pin, r)) continue;
      r.pin_observable[pin_ordinal({drv, static_cast<std::uint8_t>(pin)})] = 1;
      const NetId in = c.ins[i];
      if (!net_obs[in]) {
        net_obs[in] = 1;
        worklist.push_back(in);
      }
    }
  }
}

std::size_t StructuralAnalyzer::classify_faults(const StaResult& r, FaultList& fl,
                                                OnlineSource s) const {
  std::size_t newly = 0;
  // The prover's memo serves both stuck-at polarities of a pin
  // (observability does not depend on polarity) and every pin whose
  // effect passes through an already proven net.
  ObservabilityProver prover(*this, r);
  for (FaultId f = 0; f < universe_->size(); ++f) {
    if (fl.untestable_kind(f) != UntestableKind::kNone) continue;
    const Fault& fault = universe_->fault(f);
    const NetId n = nl_->pin_net(fault.pin);
    const Logic v = r.net_value[n];
    if (is_known(v) && (v == Logic::V1) == fault.sa1) {
      // Unexcitable: the faulty value equals the mission value, so good
      // and faulty machines are identical. Sound unconditionally.
      fl.mark_untestable(f, UntestableKind::kTied, s);
      ++newly;
      continue;
    }
    if (!prover.possibly_observable(fault.pin)) {
      fl.mark_untestable(f, UntestableKind::kUnobservable, s);
      ++newly;
    }
  }
  return newly;
}

std::size_t StructuralAnalyzer::classify_transition_faults(
    const StaResult& r, FaultList& fl, OnlineSource s) const {
  std::size_t newly = 0;
  ObservabilityProver prover(*this, r);
  for (FaultId f = 0; f < universe_->size(); ++f) {
    if (fl.untestable_kind(f) != UntestableKind::kNone) continue;
    const Fault& fault = universe_->fault(f);
    const NetId n = nl_->pin_net(fault.pin);
    // Launching a transition requires both values at the site; a mission
    // constant of EITHER polarity kills both transition faults.
    if (is_known(r.net_value[n])) {
      fl.mark_untestable(f, UntestableKind::kTied, s);
      ++newly;
      continue;
    }
    if (!prover.possibly_observable(fault.pin)) {
      fl.mark_untestable(f, UntestableKind::kUnobservable, s);
      ++newly;
    }
  }
  return newly;
}

bool StructuralAnalyzer::cell_may_diverge(const Cell& c, const StaResult& r,
                                          const std::vector<std::uint8_t>& div,
                                          int branch) {
  const auto in_div = [&](std::size_t i) {
    return static_cast<int>(i) == branch || div[c.ins[i]] != 0;
  };
  // A side input blocks only with a controlling constant that is itself
  // provably fault-independent (non-divergent).
  const auto is_blocking = [&](NetId side, bool controlling) {
    return !div[side] && r.net_const(side, controlling);
  };
  switch (c.type) {
    case CellType::kAnd2:
    case CellType::kAnd3:
    case CellType::kAnd4:
    case CellType::kNand2:
    case CellType::kNand3:
    case CellType::kNand4:
    case CellType::kOr2:
    case CellType::kOr3:
    case CellType::kOr4:
    case CellType::kNor2:
    case CellType::kNor3:
    case CellType::kNor4: {
      const bool and_like =
          c.type == CellType::kAnd2 || c.type == CellType::kAnd3 ||
          c.type == CellType::kAnd4 || c.type == CellType::kNand2 ||
          c.type == CellType::kNand3 || c.type == CellType::kNand4;
      const bool ctrl = !and_like;  // OR-family controlled by 1
      for (std::size_t i = 0; i < c.ins.size(); ++i) {
        if (!in_div(i)) continue;
        bool blocked = false;
        for (std::size_t j = 0; j < c.ins.size(); ++j)
          if (j != i && is_blocking(c.ins[j], ctrl)) blocked = true;
        if (!blocked) return true;
      }
      return false;
    }
    case CellType::kMux2: {
      if (in_div(kMuxA) && !is_blocking(c.ins[kMuxS], true)) return true;
      if (in_div(kMuxB) && !is_blocking(c.ins[kMuxS], false)) return true;
      if (in_div(kMuxS)) {
        // Blocked only if both data inputs carry the same fault-free
        // constant and neither can diverge.
        const Logic a = r.net_value[c.ins[kMuxA]];
        const Logic b = r.net_value[c.ins[kMuxB]];
        const bool same_const = is_known(a) && a == b &&
                                !div[c.ins[kMuxA]] && !div[c.ins[kMuxB]];
        if (!same_const) return true;
      }
      return false;
    }
    case CellType::kDff:
      return in_div(kDffD);
    case CellType::kDffR: {
      if (in_div(kDffRstn)) {
        // A diverging reset is masked only by a constant-0 non-diverging D.
        if (!is_blocking(c.ins[kDffD], false)) return true;
      }
      if (in_div(kDffD) && !is_blocking(c.ins[kDffRstn], false)) return true;
      return false;
    }
    default: {  // BUF/NOT/XOR/XNOR: any diverging input passes
      for (std::size_t i = 0; i < c.ins.size(); ++i)
        if (in_div(i)) return true;
      return false;
    }
  }
}

bool StructuralAnalyzer::fault_possibly_observable(const StaResult& r,
                                                   Pin pin) const {
  return ObservabilityProver(*this, r).possibly_observable(pin);
}

ObservabilityProver::ObservabilityProver(const StructuralAnalyzer& sta,
                                         const StaResult& r)
    : sta_(&sta),
      r_(&r),
      verdict_(sta.netlist().num_nets(), kUnknown),
      div_(sta.netlist().num_nets(), 0) {
  const Netlist& nl = sta.netlist();
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    const CellId drv = nl.net(n).driver;
    if (drv != kInvalidId && r.pin_observable[sta.pin_ordinal({drv, 0})])
      verdict_[n] = kObservable;
  }
}

bool ObservabilityProver::possibly_observable(Pin pin) {
  const StaResult& r = *r_;
  if (r.pin_observable[sta_->pin_ordinal(pin)]) return true;
  // Seed. A branch fault diverges only inside its own cell's view; handle
  // the first cell specially, then net-level propagation takes over.
  const Cell& fcell = sta_->netlist().cell(pin.cell);
  if (pin.pin != 0) {
    if (fcell.type == CellType::kOutput)
      return r.port_observed[pin.cell] != 0;  // PO pin fault: directly read?
    if (!StructuralAnalyzer::cell_may_diverge(fcell, r, div_, pin.pin - 1))
      return false;
  }
  return net_observable(fcell.out);
}

bool ObservabilityProver::net_observable(NetId seed) {
  if (verdict_[seed] != kUnknown) return verdict_[seed] == kObservable;
  ++proofs_;
  const Netlist& nl = sta_->netlist();
  const StaResult& r = *r_;
  // Least fixpoint by fanout events. cell_may_diverge is monotone in
  // `div_`: a newly divergent net can only make its readers pass (as a
  // propagating input, or as a side input that stops blocking), so
  // re-evaluating the readers of each net as it turns divergent reaches
  // the same fixpoint as sweeping the whole netlist until stable, flop
  // edges included. Any observed port reading a divergent net decides,
  // and so does any divergent net already known to be observable.
  div_[seed] = 1;
  marked_.assign(1, seed);
  bool observable = false;
  for (std::size_t next = 0; next < marked_.size() && !observable; ++next) {
    for (const Pin& reader : nl.net(marked_[next]).fanout) {
      const Cell& c = nl.cell(reader.cell);
      if (c.type == CellType::kOutput) {
        if (r.port_observed[reader.cell]) {
          observable = true;
          break;
        }
        continue;
      }
      if (div_[c.out] || !StructuralAnalyzer::cell_may_diverge(c, r, div_))
        continue;
      if (verdict_[c.out] == kObservable) {
        observable = true;
        break;
      }
      div_[c.out] = 1;
      marked_.push_back(c.out);
    }
  }
  // Seeding any marked net instead reaches a subset of these marks, so an
  // exhausted proof settles all of them.
  for (const NetId n : marked_) {
    div_[n] = 0;
    if (!observable) verdict_[n] = kUnobservable;
  }
  if (observable) verdict_[seed] = kObservable;
  return observable;
}

}  // namespace olfui
