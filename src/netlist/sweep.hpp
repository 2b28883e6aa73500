// olfui/netlist: constant sweep — a synthesis-lite cleanup pass.
//
// Rebuilds a netlist with tie-derived constants folded through the
// combinational logic and dead cells (driving no path to any output port)
// removed. Flops are kept verbatim: the pass never assumes steady state,
// so the swept netlist is cycle-accurate equivalent to the original from
// power-on (a property test checks exactly that).
//
// Why it exists here: structurally untestable faults live in redundant or
// constant logic that synthesis would remove; on-line functionally
// untestable faults live in logic the chip NEEDS (scan, debug, address
// handling) that mission mode merely cannot reach. Sweeping makes that
// distinction measurable: on the case-study SoC it shrinks the structural
// class 1,443 -> 161 and leaves the scan and debug rows unchanged
// (Sweep.SocSweepRemovesStructuralUntestablesOnly).
#pragma once

#include <cstddef>

#include "netlist/netlist.hpp"

namespace olfui {

struct SweepStats {
  std::size_t cells_in = 0;
  std::size_t cells_out = 0;
  std::size_t folded_constant = 0;  ///< cells whose output became a tie
  std::size_t simplified = 0;       ///< gates reduced (e.g. AND(a,1) -> BUF)
  std::size_t dead_removed = 0;     ///< cells with no path to any output
};

/// Returns the swept netlist; original is untouched. Cell and net names of
/// surviving logic are preserved (tags included).
Netlist constant_sweep(const Netlist& nl, SweepStats* stats = nullptr);

}  // namespace olfui
