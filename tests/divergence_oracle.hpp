// The sweep oracle for StructuralAnalyzer::fault_possibly_observable.
//
// The library proves unobservability with a fanout worklist. This is the
// proof it replaced: the same seed and the same divergence transfer
// (StructuralAnalyzer::cell_may_diverge), driven to its least fixpoint by
// repeated levelized sweeps over every combinational cell plus a scan of
// every flop until nothing changes, then a scan of every observed port.
// It costs a whole-netlist sweep per iteration, so it lives here, as the
// reference the sta and core suites compare the worklist against.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "netlist/netlist.hpp"
#include "sta/sta.hpp"

namespace olfui {

class SweepObservabilityOracle {
 public:
  explicit SweepObservabilityOracle(const Netlist& nl) : nl_(&nl) {
    if (!nl.levelize(order_))
      throw std::runtime_error("SweepObservabilityOracle: combinational loop");
  }

  bool possibly_observable(const StaResult& r, Pin pin) const {
    const Netlist& nl = *nl_;
    std::vector<std::uint8_t> div(nl.num_nets(), 0);

    const Cell& fcell = nl.cell(pin.cell);
    if (pin.pin == 0) {
      div[fcell.out] = 1;
    } else {
      if (fcell.type == CellType::kOutput) return r.port_observed[pin.cell] != 0;
      if (!StructuralAnalyzer::cell_may_diverge(fcell, r, div, pin.pin - 1))
        return false;
      div[fcell.out] = 1;
    }

    bool changed = true;
    while (changed) {
      changed = false;
      for (CellId id : order_) {
        const Cell& c = nl.cell(id);
        if (c.type == CellType::kOutput || div[c.out]) continue;
        if (StructuralAnalyzer::cell_may_diverge(c, r, div)) {
          div[c.out] = 1;
          changed = true;
        }
      }
      for (CellId id = 0; id < nl.num_cells(); ++id) {
        const Cell& c = nl.cell(id);
        if (!is_sequential(c.type) || div[c.out]) continue;
        if (StructuralAnalyzer::cell_may_diverge(c, r, div)) {
          div[c.out] = 1;
          changed = true;
        }
      }
    }

    for (CellId oc : nl.output_cells())
      if (r.port_observed[oc] && div[nl.cell(oc).ins[0]]) return true;
    return false;
  }

 private:
  const Netlist* nl_;
  std::vector<CellId> order_;
};

}  // namespace olfui
