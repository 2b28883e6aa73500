// olfui/sim: cycle-accurate 4-valued good-machine simulator.
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"
#include "netlist/wordops.hpp"
#include "sim/logic.hpp"

namespace olfui {

/// Levelized 4-valued simulator over a single-clock netlist.
///
/// Usage per cycle: set_input(...) for every changed PI, eval() to settle
/// the combinational logic, read values, then clock() for the edge.
class Simulator {
 public:
  explicit Simulator(const Netlist& nl);

  /// Sets all flops and inputs to X (power-on state before reset).
  void power_on();
  void set_input(NetId net, Logic v);
  void set_input(NetId net, bool v) { set_input(net, from_bool(v)); }
  /// Drives bus[i] from bit i of value.
  void set_input_word(const Bus& bus, std::uint64_t value);

  /// Settles combinational logic from the current PI / flop values.
  void eval();
  /// Clock edge: latches flop next-states, then re-evaluates.
  void clock();

  Logic value(NetId net) const { return values_[net]; }
  /// Packs a bus of known bits into a word; unknown bits read as 0 and set
  /// *any_x if provided.
  std::uint64_t read_word(const Bus& bus, bool* any_x = nullptr) const;

  const Netlist& netlist() const { return *nl_; }

 private:
  const Netlist* nl_;
  std::vector<CellId> order_;
  std::vector<Logic> values_;       // per net
  std::vector<Logic> flop_state_;   // per cell (only flop entries used)
  std::vector<CellId> flop_cells_;
};

}  // namespace olfui
