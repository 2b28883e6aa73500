// olfui/debug: design-for-debug insertion and the §3.2 identification
// passes.
//
// insert_debug() grafts a Nexus-style debug unit onto a core:
//  * control side (§3.2.1 / Fig. 4): a JTAG-like access port (TDI/TMS/
//    TRSTN + TAP state machine), a 32-bit shift register, and per-flop
//    debug-write muxes (D = DE ? DI : FI) on every architected register,
//    plus halt/step/resume run control that can freeze the PC;
//  * observation side (§3.2.2): two word-wide observation buses that mux
//    architected register values out to dedicated top-level ports, read
//    only by an external debugger.
//
// In mission mode the external debugger is absent: the control inputs are
// tied to constants and the observation ports float. debug_control_config()
// and debug_observe_config() express exactly those two manipulations; the
// quiet-input finder reproduces the paper's activity screening that
// selected the "17 signals" of the case study.
#pragma once

#include <cstdint>
#include <vector>

#include "fsim/fsim.hpp"
#include "netlist/netlist.hpp"
#include "netlist/wordops.hpp"
#include "sta/sta.hpp"

namespace olfui {

struct DebugSpec {
  /// Registers that get Fig.-4 debug-write muxes (e.g. the GPR file).
  std::vector<RegWord*> writable_regs;
  /// Words multiplexed onto the first observation bus ("GPR bus");
  /// size must be a power of two.
  std::vector<Bus> bus_a_words;
  /// Words multiplexed onto the second observation bus ("SPR bus");
  /// size must be a power of two.
  std::vector<Bus> bus_b_words;
  /// Register frozen while halted (the PC), or nullptr.
  RegWord* hold_reg = nullptr;
  int width = 32;
};

struct DebugPorts {
  /// Every debug-related input port net (the case study's "17 signals",
  /// including the entire JTAG-like access port).
  std::vector<NetId> control_inputs;
  /// Values the control inputs take in mission mode (tie targets).
  std::vector<bool> control_values;
  /// The observation bus output port cells.
  std::vector<CellId> observe_outputs;
  NetId dbg_en = kInvalidId;
};

DebugPorts insert_debug(Netlist& nl, const DebugSpec& spec);

/// Activity screening (§4): input-port nets that held one value
/// throughout `activity` — the suspects for debug-only controls. Pass the
/// ReferenceTrace::activation() of every SBST program's trace, OR-ed.
std::vector<NetId> find_quiet_inputs(const Netlist& nl,
                                     const NetActivation& activity);

/// §3.2.1 manipulation: "connect to ground or Vdd all CPU inputs related
/// to debug and showing a constant value".
MissionConfig debug_control_config(const DebugPorts& ports);

/// §3.2.2 manipulation: "unconnect (leave floating) all CPU outputs
/// related to debug".
MissionConfig debug_observe_config(const DebugPorts& ports);

}  // namespace olfui
