#include <gtest/gtest.h>

#include "netlist/netlist.hpp"
#include "netlist/wordops.hpp"
#include "sim/logic.hpp"
#include "sim/packed.hpp"
#include "sim/sim.hpp"
#include "util/rng.hpp"

namespace olfui {
namespace {

TEST(Logic, NotTruthTable) {
  EXPECT_EQ(logic_not(Logic::V0), Logic::V1);
  EXPECT_EQ(logic_not(Logic::V1), Logic::V0);
  EXPECT_EQ(logic_not(Logic::VX), Logic::VX);
  EXPECT_EQ(logic_not(Logic::VZ), Logic::VX);
}

TEST(Logic, AndWithControllingZero) {
  EXPECT_EQ(logic_and(Logic::V0, Logic::VX), Logic::V0);
  EXPECT_EQ(logic_and(Logic::VX, Logic::V0), Logic::V0);
  EXPECT_EQ(logic_and(Logic::V1, Logic::VX), Logic::VX);
  EXPECT_EQ(logic_and(Logic::V1, Logic::V1), Logic::V1);
}

TEST(Logic, OrWithControllingOne) {
  EXPECT_EQ(logic_or(Logic::V1, Logic::VX), Logic::V1);
  EXPECT_EQ(logic_or(Logic::VX, Logic::V1), Logic::V1);
  EXPECT_EQ(logic_or(Logic::V0, Logic::VX), Logic::VX);
}

TEST(Logic, XorNeverResolvesX) {
  EXPECT_EQ(logic_xor(Logic::V1, Logic::VX), Logic::VX);
  EXPECT_EQ(logic_xor(Logic::V1, Logic::V0), Logic::V1);
  EXPECT_EQ(logic_xor(Logic::V1, Logic::V1), Logic::V0);
}

TEST(Logic, MuxResolvesWhenDataAgrees) {
  // MUX inputs {A, B, S} with unknown select but equal data.
  Logic in[3] = {Logic::V1, Logic::V1, Logic::VX};
  EXPECT_EQ(eval_ternary(CellType::kMux2, in, 3), Logic::V1);
  in[1] = Logic::V0;
  EXPECT_EQ(eval_ternary(CellType::kMux2, in, 3), Logic::VX);
  in[2] = Logic::V1;
  EXPECT_EQ(eval_ternary(CellType::kMux2, in, 3), Logic::V0);
}

TEST(Logic, FlopNextRespectsReset) {
  EXPECT_EQ(flop_next(CellType::kDff, Logic::V1, Logic::VX), Logic::V1);
  EXPECT_EQ(flop_next(CellType::kDffR, Logic::V1, Logic::V0), Logic::V0);
  EXPECT_EQ(flop_next(CellType::kDffR, Logic::V1, Logic::V1), Logic::V1);
  // Unknown reset: only a 0 data value is certain.
  EXPECT_EQ(flop_next(CellType::kDffR, Logic::V0, Logic::VX), Logic::V0);
  EXPECT_EQ(flop_next(CellType::kDffR, Logic::V1, Logic::VX), Logic::VX);
}

// Monotonicity property of eval_ternary: refining an X input never flips a
// known output (foundation of the STA constant fixpoint).
TEST(Logic, TernaryEvalIsMonotone) {
  Rng rng(3);
  const CellType types[] = {CellType::kAnd3, CellType::kOr3, CellType::kNand3,
                            CellType::kNor3, CellType::kXor2, CellType::kXnor2,
                            CellType::kMux2, CellType::kBuf, CellType::kNot};
  for (CellType t : types) {
    const int n = num_inputs(t);
    for (int trial = 0; trial < 200; ++trial) {
      Logic in[4], refined[4];
      for (int i = 0; i < n; ++i) {
        const int r = static_cast<int>(rng.next_below(3));
        in[i] = static_cast<Logic>(r);
        refined[i] = in[i] == Logic::VX
                         ? (rng.next_bool() ? Logic::V1 : Logic::V0)
                         : in[i];
      }
      const Logic before = eval_ternary(t, in, n);
      const Logic after = eval_ternary(t, refined, n);
      if (is_known(before)) {
        EXPECT_EQ(before, after) << type_name(t);
      }
    }
  }
}

TEST(Simulator, CombinationalSettling) {
  Netlist nl("t");
  WordOps w(nl, "m");
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId y = w.xor2(w.and2(a, b, "ab"), w.or2(a, b, "o"), "y");
  nl.add_output("out", y);
  Simulator sim(nl);
  for (int av = 0; av < 2; ++av) {
    for (int bv = 0; bv < 2; ++bv) {
      sim.set_input(a, av == 1);
      sim.set_input(b, bv == 1);
      sim.eval();
      EXPECT_EQ(sim.value(y) == Logic::V1, ((av & bv) ^ (av | bv)) == 1);
    }
  }
}

TEST(Simulator, UnknownInputsPropagateX) {
  Netlist nl("t");
  WordOps w(nl, "m");
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId y = w.and2(a, b, "y");
  nl.add_output("o", y);
  Simulator sim(nl);
  sim.power_on();
  sim.set_input(a, Logic::VX);
  sim.set_input(b, true);
  sim.eval();
  EXPECT_EQ(sim.value(y), Logic::VX);
  sim.set_input(b, false);  // controlling value resolves the X
  sim.eval();
  EXPECT_EQ(sim.value(y), Logic::V0);
}

TEST(Simulator, DffrResetSequence) {
  Netlist nl("t");
  WordOps w(nl, "m");
  const NetId rstn = nl.add_input("rstn");
  RegWord r = w.reg_declare(1, "ff", rstn);
  const NetId d = w.not_(r.q[0], "inv");  // toggle flop
  w.reg_connect(r, {d});
  nl.add_output("q", r.q[0]);
  Simulator sim(nl);
  sim.power_on();
  sim.set_input(rstn, false);
  sim.eval();
  EXPECT_EQ(sim.value(r.q[0]), Logic::VX);  // state unknown before the edge
  sim.clock();
  EXPECT_EQ(sim.value(r.q[0]), Logic::V0);  // reset captured
  sim.set_input(rstn, true);
  sim.eval();
  sim.clock();
  EXPECT_EQ(sim.value(r.q[0]), Logic::V1);  // toggling
  sim.clock();
  EXPECT_EQ(sim.value(r.q[0]), Logic::V0);
}

TEST(Simulator, ReadWordReportsX) {
  Netlist nl("t");
  Bus in(2);
  in[0] = nl.add_input("a0");
  in[1] = nl.add_input("a1");
  nl.add_output("o0", in[0]);
  Simulator sim(nl);
  sim.set_input(in[0], true);
  sim.set_input(in[1], Logic::VX);
  sim.eval();
  bool any_x = false;
  EXPECT_EQ(sim.read_word(in, &any_x), 1u);
  EXPECT_TRUE(any_x);
}

TEST(PackedSim, MatchesScalarSimulatorOnRandomLogic) {
  // Random combinational netlist, compare packed lanes against the
  // 4-valued simulator with known inputs.
  Rng rng(11);
  Netlist nl("t");
  WordOps w(nl, "m");
  std::vector<NetId> pool;
  Bus inputs(8);
  for (int i = 0; i < 8; ++i) {
    inputs[i] = nl.add_input("i" + std::to_string(i));
    pool.push_back(inputs[i]);
  }
  for (int g = 0; g < 60; ++g) {
    const CellType types[] = {CellType::kAnd2, CellType::kOr2, CellType::kXor2,
                              CellType::kNand2, CellType::kNor2, CellType::kXnor2,
                              CellType::kMux2, CellType::kNot};
    const CellType t = types[rng.next_below(8)];
    std::vector<NetId> ins;
    for (int k = 0; k < num_inputs(t); ++k)
      ins.push_back(pool[rng.next_below(pool.size())]);
    pool.push_back(w.gate(t, "g" + std::to_string(g), ins));
  }
  nl.add_output("o", pool.back());

  PackedSim ps(nl);
  Simulator ss(nl);
  for (int trial = 0; trial < 8; ++trial) {
    const std::uint64_t v = rng.next_u64() & 0xFF;
    ps.set_input_word(inputs, v);
    ss.set_input_word(inputs, v);
    ps.eval();
    ss.eval();
    for (NetId n : pool) {
      const Logic sv = ss.value(n);
      ASSERT_TRUE(is_known(sv));
      EXPECT_EQ(lane_test(ps.value(n), 0), sv == Logic::V1) << nl.net(n).name;
    }
  }
}

TEST(PackedSim, LanesAreIndependent) {
  Netlist nl("t");
  WordOps w(nl, "m");
  const NetId a = nl.add_input("a");
  const NetId y = w.not_(a, "y");
  nl.add_output("o", y);
  PackedSim ps(nl);
  LaneWord in{};
  for (int k = 0; k < kLaneWords; ++k) in[k] = 0xF0F0F0F0F0F0F0F0ULL >> k;
  ps.set_input_lanes(a, in);
  ps.eval();
  EXPECT_FALSE(lane_neq(ps.value(y), ~in));
}

TEST(PackedSim, OutputPinInjectionVisibleOnlyViaObserved) {
  Netlist nl("t");
  const NetId a = nl.add_input("a");
  const CellId port = nl.add_output("o", a);
  PackedSim ps(nl);
  ps.add_injection({port, 1, /*sa1=*/true, /*lanes=*/lane_bit(1)});
  ps.set_input_all(a, false);
  ps.eval();
  EXPECT_FALSE(lane_any(ps.value(a)));                   // net unaffected
  EXPECT_FALSE(lane_neq(ps.observed(port), lane_bit(1)));  // PO fault
}

TEST(PackedSim, GateInputInjectionAffectsSingleBranch) {
  Netlist nl("t");
  WordOps w(nl, "m");
  const NetId a = nl.add_input("a");
  const NetId y1 = w.buf(a, "y1");
  const NetId y2 = w.buf(a, "y2");
  nl.add_output("o1", y1);
  nl.add_output("o2", y2);
  PackedSim ps(nl);
  const CellId b1 = nl.net(y1).driver;
  ps.add_injection({b1, 1, true, ~LaneWord{}});  // s-a-1 on one input
  ps.set_input_all(a, false);
  ps.eval();
  EXPECT_FALSE(lane_neq(ps.value(y1), ~LaneWord{}));  // faulty branch
  EXPECT_FALSE(lane_any(ps.value(y2)));               // sibling clean
}

TEST(PackedSim, FlopOutputInjectionForcesQNet) {
  Netlist nl("t");
  WordOps w(nl, "m");
  RegWord r = w.reg_declare(1, "ff");
  w.reg_connect(r, {w.lit(false)});
  nl.add_output("q", r.q[0]);
  PackedSim ps(nl);
  ps.add_injection({r.flops[0], 0, true, lane_bit(2)});
  ps.power_on();
  ps.eval();
  EXPECT_FALSE(lane_neq(ps.value(r.q[0]), lane_bit(2)));
  ps.clock();
  // still forced after the edge
  EXPECT_FALSE(lane_neq(ps.value(r.q[0]), lane_bit(2)));
}

TEST(PackedSim, DffrPackedResetSemantics) {
  Netlist nl("t");
  WordOps w(nl, "m");
  const NetId rstn = nl.add_input("rstn");
  RegWord r = w.reg_declare(1, "ff", rstn);
  w.reg_connect(r, {w.lit(true)});
  nl.add_output("q", r.q[0]);
  PackedSim ps(nl);
  ps.power_on();
  ps.set_input_all(rstn, false);
  ps.eval();
  ps.clock();
  EXPECT_FALSE(lane_any(ps.value(r.q[0])));  // held in reset
  ps.set_input_all(rstn, true);
  ps.eval();
  ps.clock();
  // captures D=1 on all lanes
  EXPECT_FALSE(lane_neq(ps.value(r.q[0]), ~LaneWord{}));
}

}  // namespace
}  // namespace olfui
