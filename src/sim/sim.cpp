#include "sim/sim.hpp"

#include <cassert>
#include <stdexcept>

namespace olfui {

Simulator::Simulator(const Netlist& nl) : nl_(&nl) {
  if (!nl.levelize(order_))
    throw std::runtime_error("Simulator: combinational loop in netlist");
  values_.assign(nl.num_nets(), Logic::VX);
  flop_state_.assign(nl.num_cells(), Logic::VX);
  for (CellId id = 0; id < nl.num_cells(); ++id) {
    const Cell& c = nl.cell(id);
    if (is_sequential(c.type)) flop_cells_.push_back(id);
    if (c.type == CellType::kTie0) values_[c.out] = Logic::V0;
    if (c.type == CellType::kTie1) values_[c.out] = Logic::V1;
  }
}

void Simulator::power_on() {
  for (auto& v : values_) v = Logic::VX;
  for (auto& v : flop_state_) v = Logic::VX;
  for (CellId id = 0; id < nl_->num_cells(); ++id) {
    const Cell& c = nl_->cell(id);
    if (c.type == CellType::kTie0) values_[c.out] = Logic::V0;
    if (c.type == CellType::kTie1) values_[c.out] = Logic::V1;
  }
}

void Simulator::set_input(NetId net, Logic v) {
  assert(nl_->net(net).driver != kInvalidId &&
         nl_->cell(nl_->net(net).driver).type == CellType::kInput);
  values_[net] = v;
}

void Simulator::set_input_word(const Bus& bus, std::uint64_t value) {
  for (std::size_t i = 0; i < bus.size(); ++i)
    set_input(bus[i], from_bool((value >> i) & 1));
}

void Simulator::eval() {
  // Expose current flop states on their Q nets, then sweep in level order.
  for (CellId id : flop_cells_) values_[nl_->cell(id).out] = flop_state_[id];
  Logic in[4];
  for (CellId id : order_) {
    const Cell& c = nl_->cell(id);
    if (c.type == CellType::kOutput) continue;
    const int n = static_cast<int>(c.ins.size());
    for (int i = 0; i < n; ++i) in[i] = values_[c.ins[i]];
    values_[c.out] = eval_ternary(c.type, in, n);
  }
}

void Simulator::clock() {
  for (CellId id : flop_cells_) {
    const Cell& c = nl_->cell(id);
    const Logic d = values_[c.ins[kDffD]];
    const Logic rstn =
        c.type == CellType::kDffR ? values_[c.ins[kDffRstn]] : Logic::V1;
    flop_state_[id] = flop_next(c.type, d, rstn);
  }
  eval();
}

std::uint64_t Simulator::read_word(const Bus& bus, bool* any_x) const {
  std::uint64_t v = 0;
  if (any_x) *any_x = false;
  for (std::size_t i = 0; i < bus.size(); ++i) {
    const Logic b = values_[bus[i]];
    if (b == Logic::V1) v |= 1ULL << i;
    if (!is_known(b) && any_x) *any_x = true;
  }
  return v;
}

}  // namespace olfui
