#include "debug/debug.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "util/strings.hpp"

namespace olfui {

namespace {
[[maybe_unused]] bool is_power_of_two(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

std::size_t log2_size(std::size_t n) {
  std::size_t k = 0;
  while ((1ULL << k) < n) ++k;
  return k;
}
}  // namespace

DebugPorts insert_debug(Netlist& nl, const DebugSpec& spec) {
  assert(is_power_of_two(spec.bus_a_words.size()));
  assert(is_power_of_two(spec.bus_b_words.size()));
  WordOps w(nl, "dbg");
  DebugPorts ports;

  const auto add_ctl = [&](std::string_view name, bool mission_value) {
    const NetId n = nl.add_input(name);
    ports.control_inputs.push_back(n);
    ports.control_values.push_back(mission_value);
    return n;
  };

  // The debug access port: 9 discrete controls + an 8-bit select bus = the
  // "17 signals" of the paper's case study, including a JTAG-like port.
  const NetId dbg_en = add_ctl("dbg_en", false);
  const NetId dbg_wen = add_ctl("dbg_wen", false);
  const NetId dbg_shift = add_ctl("dbg_shift", false);
  const NetId dbg_tdi = add_ctl("jtag_tdi", false);
  const NetId dbg_tms = add_ctl("jtag_tms", false);
  const NetId dbg_trstn = add_ctl("jtag_trstn", false);
  const NetId dbg_halt = add_ctl("dbg_halt", false);
  const NetId dbg_step = add_ctl("dbg_step", false);
  const NetId dbg_resume = add_ctl("dbg_resume", false);
  Bus sel(8);
  for (int i = 0; i < 8; ++i) sel[i] = add_ctl(format("dbg_sel%d", i), false);
  ports.dbg_en = dbg_en;

  // TAP state machine: a TMS shift register with asynchronous TRSTN;
  // the TAP is "active" once four consecutive ones have been shifted in.
  RegWord tap = w.reg_declare(4, "tap_state", dbg_trstn);
  Bus tap_d(4);
  tap_d[0] = w.buf(dbg_tms, "tap_d0");
  for (int i = 1; i < 4; ++i) tap_d[i] = w.buf(tap.q[i - 1], format("tap_d%d", i));
  w.reg_connect(tap, tap_d);
  const NetId tap_active = w.reduce_and({tap.q[0], tap.q[1], tap.q[2], tap.q[3]},
                                        "tap_active");

  // Command decode: the upper select bits arm shifting (gives the spare
  // select lines real logic, as on production debug IP).
  Bus sel_hi(sel.begin() + 4, sel.end());
  const NetId shift_armed = w.eq_const(sel_hi, 0x5, "shift_armed");
  const NetId shift_en =
      w.reduce_and({dbg_shift, tap_active, shift_armed}, "shift_en");

  // 32-bit data shift register fed by TDI.
  RegWord sr = w.reg_declare(spec.width, "shift_reg");
  Bus sr_d(spec.width);
  for (int i = 0; i < spec.width; ++i) {
    const NetId next = i + 1 < spec.width ? sr.q[i + 1] : dbg_tdi;
    sr_d[i] = w.mux(shift_en, sr.q[i], next, format("sr_d_%d", i));
  }
  w.reg_connect(sr, sr_d);

  // Per-register debug-write enables.
  const std::size_t nregs = spec.writable_regs.size();
  if (nregs > 0) {
    const std::size_t sel_bits = std::max<std::size_t>(1, log2_size(nregs));
    Bus sel_lo(sel.begin(), sel.begin() + static_cast<long>(sel_bits));
    Bus onehot = w.decode(sel_lo, "wsel");
    for (std::size_t r = 0; r < nregs; ++r) {
      const NetId en = w.reduce_and({dbg_en, dbg_wen, tap_active, onehot[r]},
                                    format("wr_en_%zu", r));
      RegWord& reg = *spec.writable_regs[r];
      // Fig. 4: D = DE ? DI : FI, one mux per flop bit.
      for (std::size_t b = 0; b < reg.flops.size(); ++b) {
        const NetId fi = nl.cell(reg.flops[b]).ins[kDffD];
        const NetId di = sr.q[b % sr.q.size()];
        const NetId md = w.mux(en, fi, di, format("wmux_%zu_%zu", r, b));
        nl.rewire_input(reg.flops[b], kDffD, md);
      }
    }
  }

  // Run control: halted latch + hold mux on the PC (controlled execution:
  // "step by step, run until breakpoint" per §3.2).
  const NetId not_resume = w.not_(dbg_resume, "not_resume");
  RegWord halted = w.reg_declare(1, "halted");
  const NetId keep = w.and2(halted.q[0], not_resume, "halt_keep");
  const NetId want = w.or2(dbg_halt, keep, "halt_want");
  Bus halted_d{w.and2(dbg_en, want, "halted_d")};
  w.reg_connect(halted, halted_d);
  const NetId not_step = w.not_(dbg_step, "not_step");
  const NetId hold = w.reduce_and({halted.q[0], not_step, dbg_en}, "hold");
  if (spec.hold_reg != nullptr) {
    RegWord& reg = *spec.hold_reg;
    for (std::size_t b = 0; b < reg.flops.size(); ++b) {
      const NetId fi = nl.cell(reg.flops[b]).ins[kDffD];
      const NetId md = w.mux(hold, fi, reg.q[b], format("holdmux_%zu", b));
      nl.rewire_input(reg.flops[b], kDffD, md);
    }
  }

  // Observation buses (§3.2.2): register values muxed to dedicated ports,
  // "directly providing general and special purpose register values to be
  // only captured along debug sessions".
  const auto build_bus = [&](const std::vector<Bus>& words, std::size_t sel_base,
                             const char* name) {
    if (words.empty()) return;
    const std::size_t bits = log2_size(words.size());
    Bus obs;
    if (bits == 0) {
      obs = words[0];
    } else {
      Bus s(sel.begin() + static_cast<long>(sel_base),
            sel.begin() + static_cast<long>(sel_base + bits));
      obs = w.onehot_mux(w.decode(s, format("%s_dec", name)), words,
                         format("%s_mux", name));
    }
    for (std::size_t b = 0; b < obs.size(); ++b) {
      ports.observe_outputs.push_back(
          nl.add_output(format("%s_out%zu", name, b), obs[b]));
    }
  };
  build_bus(spec.bus_a_words, 0, "dbg_gpr");
  build_bus(spec.bus_b_words, 3, "dbg_spr");

  return ports;
}

std::vector<NetId> find_quiet_inputs(const Netlist& nl,
                                     const NetActivation& activity) {
  std::vector<NetId> out;
  for (CellId c : nl.input_cells()) {
    const NetId n = nl.cell(c).out;
    if (!NetActivation::test(activity.seen0, n) ||
        !NetActivation::test(activity.seen1, n))
      out.push_back(n);
  }
  return out;
}

MissionConfig debug_control_config(const DebugPorts& ports) {
  MissionConfig cfg;
  for (std::size_t i = 0; i < ports.control_inputs.size(); ++i)
    cfg.tie(ports.control_inputs[i], ports.control_values[i]);
  return cfg;
}

MissionConfig debug_observe_config(const DebugPorts& ports) {
  MissionConfig cfg;
  for (CellId c : ports.observe_outputs) cfg.unobserve(c);
  return cfg;
}

}  // namespace olfui
