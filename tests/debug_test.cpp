#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "debug/debug.hpp"
#include "fault/fault_list.hpp"
#include "fault/universe.hpp"
#include "fsim/fsim.hpp"
#include "netlist/wordops.hpp"
#include "sim/packed.hpp"
#include "sta/sta.hpp"

namespace olfui {
namespace {

/// A toy "core": two architected registers with simple next-state logic.
struct Core {
  Netlist nl{"t"};
  NetId rstn, in0;
  RegWord ra, rb, pc;

  Core() {
    WordOps w(nl, "core");
    rstn = nl.add_input("rstn");
    in0 = nl.add_input("in0");
    ra = w.reg_declare(8, "ra");
    rb = w.reg_declare(8, "rb");
    pc = w.reg_declare(8, "pc");
    Bus ra_d(8), rb_d(8), pc_d(8);
    for (int i = 0; i < 8; ++i) {
      ra_d[i] = w.xor2(ra.q[i], i == 0 ? in0 : rb.q[i - 1],
                       "ra_d_" + std::to_string(i));
      rb_d[i] = w.mux(in0, rb.q[i], ra.q[i], "rb_d_" + std::to_string(i));
    }
    const auto inc = w.add_word(pc.q, w.constant(1, 8), w.lit(false), "pcinc");
    pc_d = inc.sum;
    w.reg_connect(ra, ra_d);
    w.reg_connect(rb, rb_d);
    w.reg_connect(pc, pc_d);
    for (int i = 0; i < 8; ++i)
      nl.add_output("bus" + std::to_string(i), ra.q[i]);
  }

  DebugPorts attach_debug() {
    DebugSpec spec;
    spec.writable_regs = {&ra, &rb};
    spec.bus_a_words = {ra.q, rb.q};
    spec.bus_b_words = {pc.q};
    spec.hold_reg = &pc;
    spec.width = 8;
    return insert_debug(nl, spec);
  }
};

TEST(DebugInsert, SeventeenControlSignals) {
  Core core;
  const DebugPorts ports = core.attach_debug();
  // The case study's count: 9 discrete controls + 8 select lines.
  EXPECT_EQ(ports.control_inputs.size(), 17u);
  EXPECT_EQ(ports.control_values.size(), 17u);
  EXPECT_TRUE(core.nl.validate().empty());
}

TEST(DebugInsert, ObservationBusesBecomeOutputs) {
  Core core;
  const std::size_t before = core.nl.output_cells().size();
  const DebugPorts ports = core.attach_debug();
  // bus_a (8 bits) + bus_b (8 bits) observation ports.
  EXPECT_EQ(ports.observe_outputs.size(), 16u);
  EXPECT_EQ(core.nl.output_cells().size(), before + 16u);
}

TEST(DebugInsert, MissionModeKeepsFunctionalBehaviour) {
  Core ref, dut;
  const DebugPorts ports = dut.attach_debug();
  PackedSim ps_ref(ref.nl), ps_dut(dut.nl);
  ps_ref.power_on();
  ps_dut.power_on();
  for (std::size_t i = 0; i < ports.control_inputs.size(); ++i)
    ps_dut.set_input_all(ports.control_inputs[i], ports.control_values[i]);
  for (int cyc = 0; cyc < 20; ++cyc) {
    for (PackedSim* s : {&ps_ref, &ps_dut}) {
      s->set_input_all(ref.rstn, true);
      s->set_input_all(ref.in0, cyc % 3 == 1);
      s->eval();
    }
    for (int i = 0; i < 8; ++i) {
      const std::string port = "bus" + std::to_string(i);
      EXPECT_EQ(lane_test(ps_ref.observed(ref.nl.find_output(port)), 0),
                lane_test(ps_dut.observed(dut.nl.find_output(port)), 0))
          << cyc << " " << port;
    }
    ps_ref.clock();
    ps_dut.clock();
  }
}

TEST(DebugInsert, DebuggerCanWriteRegisterThroughShiftChain) {
  // Drive the debug port like an external Nexus/JTAG controller: arm the
  // TAP, shift a value into the shift register, then write it into ra.
  Core core;
  const DebugPorts ports = core.attach_debug();
  const Netlist& nl = core.nl;
  PackedSim ps(nl);
  ps.power_on();
  const auto set = [&](const char* name, bool v) {
    ps.set_input_all(nl.find_input(name), v);
  };
  ps.set_input_all(core.rstn, true);
  ps.set_input_all(core.in0, false);
  for (std::size_t i = 0; i < ports.control_inputs.size(); ++i)
    ps.set_input_all(ports.control_inputs[i], false);
  set("jtag_trstn", true);
  // 4 cycles of TMS=1 arm the TAP.
  set("jtag_tms", true);
  for (int i = 0; i < 4; ++i) {
    ps.eval();
    ps.clock();
  }
  // Arm shifting: sel[4..7] = 0x5 pattern (bits 4 and 6).
  set("dbg_sel4", true);
  set("dbg_sel6", true);
  set("dbg_shift", true);
  // Shift 0xA5 into the 8-bit shift register, LSB-first via TDI (data
  // enters at the top bit and moves down one position per clock).
  for (int b = 0; b < 8; ++b) {
    set("jtag_tdi", (0xA5 >> b) & 1);
    ps.eval();
    ps.clock();
  }
  set("dbg_shift", false);
  // Write into ra (select 0) with debug enabled.
  set("dbg_en", true);
  set("dbg_wen", true);
  ps.eval();
  ps.clock();
  std::uint64_t ra_val = 0;
  for (int i = 0; i < 8; ++i)
    ra_val |= std::uint64_t{lane_test(ps.value(core.ra.q[i]), 0)} << i;
  EXPECT_EQ(ra_val, 0xA5u);
}

TEST(DebugInsert, HaltFreezesHoldRegister) {
  Core core;
  const DebugPorts ports = core.attach_debug();
  const Netlist& nl = core.nl;
  PackedSim ps(nl);
  ps.power_on();
  for (std::size_t i = 0; i < ports.control_inputs.size(); ++i)
    ps.set_input_all(ports.control_inputs[i], false);
  ps.set_input_all(core.rstn, true);
  ps.set_input_all(core.in0, false);
  const auto pc_val = [&] {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= std::uint64_t{lane_test(ps.value(core.pc.q[i]), 0)} << i;
    return v;
  };
  ps.eval();
  ps.clock();
  ps.clock();
  EXPECT_EQ(pc_val(), 2u);  // counting
  // Engage halt.
  ps.set_input_all(nl.find_input("dbg_en"), true);
  ps.set_input_all(nl.find_input("dbg_halt"), true);
  ps.eval();
  ps.clock();  // halted latch sets
  const std::uint64_t frozen = pc_val();
  ps.eval();
  ps.clock();
  ps.clock();
  EXPECT_EQ(pc_val(), frozen);  // PC held
  // Resume.
  ps.set_input_all(nl.find_input("dbg_halt"), false);
  ps.set_input_all(nl.find_input("dbg_resume"), true);
  ps.eval();
  ps.clock();  // halted latch clears
  ps.eval();
  ps.clock();
  EXPECT_GT(pc_val(), frozen);
}

/// Mission run: debug inputs tied quiet, the functional input toggling.
class MissionEnv final : public FsimEnvironment {
 public:
  MissionEnv(const Core& core, const DebugPorts& ports)
      : core_(core), ports_(ports) {}
  void reset(PackedSim& sim) override { drive(sim, 0); }
  bool step(PackedSim& sim, int cycle) override {
    drive(sim, cycle);
    return true;
  }

 private:
  void drive(PackedSim& sim, int cycle) const {
    sim.set_input_all(core_.rstn, true);
    sim.set_input_all(core_.in0, cycle % 2 == 0);
    for (std::size_t i = 0; i < ports_.control_inputs.size(); ++i)
      sim.set_input_all(ports_.control_inputs[i], ports_.control_values[i]);
  }

  const Core& core_;
  const DebugPorts& ports_;
};

TEST(DebugAnalysis, QuietInputScreeningFindsDebugPorts) {
  Core core;
  const DebugPorts ports = core.attach_debug();
  const FaultUniverse u(core.nl);
  SequentialFaultSimulator fsim(core.nl, u);
  MissionEnv env(core, ports);
  const ReferenceTrace trace = fsim.record_reference_trace(env, 16);
  ASSERT_EQ(trace.cycles, 16);
  const auto quiet = find_quiet_inputs(core.nl, trace.activation());
  // Every debug control input is quiet; the toggling functional input isn't.
  for (NetId n : ports.control_inputs)
    EXPECT_TRUE(std::find(quiet.begin(), quiet.end(), n) != quiet.end());
  EXPECT_TRUE(std::find(quiet.begin(), quiet.end(), core.in0) == quiet.end());
}

TEST(DebugAnalysis, MissionBatchesStartFromTheFrameZeroSettle) {
  // MissionEnv's reset drives the inputs without settling, so the first
  // settle after power-on is cycle 0's: the trace's power-on plane is frame
  // 0, and every batch starts from it without a full sweep. Its verdicts
  // are the full-sweep oracle's, which ignores the plane, for every fault.
  Core core;
  const DebugPorts ports = core.attach_debug();
  const FaultUniverse u(core.nl);
  SequentialFaultSimulator fsim(core.nl, u), oracle(core.nl, u);
  oracle.sim().set_eval_mode(PackedEvalMode::kFullSweep);
  MissionEnv env(core, ports);
  const ReferenceTrace trace = fsim.record_reference_trace(env, 16);
  ASSERT_EQ(trace.power_on.size(), trace.columns.size());
  for (NetId n = 0; n < core.nl.num_nets(); ++n)
    ASSERT_EQ(NetActivation::test(trace.power_on, n), trace.net_bit(0, n))
        << core.nl.net(n).name;

  std::vector<FaultId> all(u.size());
  for (FaultId f = 0; f < u.size(); ++f) all[f] = f;
  std::size_t detected = 0;
  fsim.sim().reset_activity();
  for (const FaultModel model :
       {FaultModel::kStuckAt, FaultModel::kTransition}) {
    for (std::size_t lo = 0; lo < all.size(); lo += kLanes - 1) {
      const std::span<const FaultId> batch = std::span(all).subspan(
          lo, std::min<std::size_t>(kLanes - 1, all.size() - lo));
      const LaneMask got = fsim.run_batch(batch, env, trace, model);
      EXPECT_EQ(got, oracle.run_batch(batch, env, trace, model))
          << to_string(model) << " batch at " << lo;
      for (std::size_t i = 0; i < batch.size(); ++i)
        detected += got.bit(static_cast<int>(i));
    }
  }
  EXPECT_GT(detected, 0u);
  EXPECT_EQ(fsim.sim().activity().full_sweeps, 0u);
  EXPECT_GT(oracle.sim().activity().full_sweeps, 0u);
}

TEST(DebugAnalysis, ControlConfigProducesUntestables) {
  Core core;
  const DebugPorts ports = core.attach_debug();
  const FaultUniverse u(core.nl);
  const StructuralAnalyzer sta(core.nl, u);
  FaultList fl(u);
  const std::size_t n = sta.classify_faults(
      sta.analyze(debug_control_config(ports)), fl, OnlineSource::kDebugControl);
  EXPECT_GT(n, 0u);
  // The TAP state machine is dead once TRSTN is grounded.
  const CellId tap0 = core.nl.find_cell("dbg/u_tap_state_q_0_reg");
  ASSERT_NE(tap0, kInvalidId);
  std::vector<FaultId> ids;
  u.faults_of_cell(tap0, ids);
  bool any = false;
  for (FaultId f : ids)
    any |= fl.untestable_kind(f) != UntestableKind::kNone;
  EXPECT_TRUE(any);
}

TEST(DebugAnalysis, ObserveConfigKillsObservationCone) {
  Core core;
  const DebugPorts ports = core.attach_debug();
  const FaultUniverse u(core.nl);
  const StructuralAnalyzer sta(core.nl, u);
  FaultList fl(u);
  MissionConfig cfg = debug_control_config(ports);
  cfg.merge(debug_observe_config(ports));
  sta.classify_faults(sta.analyze(cfg), fl, OnlineSource::kDebugObserve);
  // Every observation port pin is untestable once floating.
  for (CellId port : ports.observe_outputs) {
    std::vector<FaultId> ids;
    u.faults_of_cell(port, ids);
    for (FaultId f : ids)
      EXPECT_NE(fl.untestable_kind(f), UntestableKind::kNone)
          << u.fault_name(f);
  }
  // The architected registers stay testable through the system bus.
  std::vector<FaultId> ids;
  u.faults_of_cell(core.ra.flops[0], ids);
  bool all_untestable = true;
  for (FaultId f : ids)
    all_untestable &= fl.untestable_kind(f) != UntestableKind::kNone;
  EXPECT_FALSE(all_untestable);
}

}  // namespace
}  // namespace olfui
