// Random sequential netlists and a scripted stimulus environment, shared
// by the kernel and fault-simulator suites.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fsim/fsim.hpp"
#include "netlist/netlist.hpp"
#include "sim/packed.hpp"
#include "util/rng.hpp"

namespace olfui {

// Random netlist generation: inputs and declared flops first (so feedback
// paths exist), then a DAG of random gates over any existing net, then
// outputs and the flop D connections.

struct RandomDesign {
  Netlist nl{"rand"};
  std::vector<NetId> input_nets;
  std::vector<CellId> output_cells;
};

inline RandomDesign random_design(Rng& rng, int n_inputs, int n_flops,
                                  int n_gates) {
  RandomDesign d;
  std::vector<NetId> nets;
  for (int i = 0; i < n_inputs; ++i) {
    const NetId n = d.nl.add_input("in" + std::to_string(i));
    d.input_nets.push_back(n);
    nets.push_back(n);
  }
  nets.push_back(d.nl.add_cell(CellType::kTie0, "u_t0", d.nl.add_net("t0"), {}));
  nets.push_back(d.nl.add_cell(CellType::kTie1, "u_t1", d.nl.add_net("t1"), {}));
  // rstn for DFFR flops is always the first input.
  const NetId rstn = d.input_nets[0];

  std::vector<CellId> flops;
  for (int f = 0; f < n_flops; ++f) {
    const NetId q = d.nl.add_net("q" + std::to_string(f));
    const bool with_reset = rng.next_bool();
    const CellId cell =
        with_reset
            ? d.nl.add_cell(CellType::kDffR, "u_ff" + std::to_string(f), q,
                            {kInvalidId, rstn})
            : d.nl.add_cell(CellType::kDff, "u_ff" + std::to_string(f), q,
                            {kInvalidId});
    flops.push_back(cell);
    nets.push_back(q);
  }

  const CellType kGateTypes[] = {
      CellType::kBuf,   CellType::kNot,   CellType::kAnd2,  CellType::kAnd3,
      CellType::kAnd4,  CellType::kOr2,   CellType::kOr3,   CellType::kOr4,
      CellType::kNand2, CellType::kNand3, CellType::kNand4, CellType::kNor2,
      CellType::kNor3,  CellType::kNor4,  CellType::kXor2,  CellType::kXnor2,
      CellType::kMux2};
  for (int g = 0; g < n_gates; ++g) {
    const CellType t =
        kGateTypes[rng.next_below(sizeof kGateTypes / sizeof kGateTypes[0])];
    std::vector<NetId> ins(static_cast<std::size_t>(num_inputs(t)));
    for (NetId& in : ins) in = nets[rng.next_below(nets.size())];
    const NetId out = d.nl.add_net("g" + std::to_string(g));
    d.nl.add_cell(t, "u_g" + std::to_string(g), out, std::move(ins));
    nets.push_back(out);
  }

  // Feedback: every flop D comes from anywhere in the design.
  for (CellId f : flops)
    d.nl.connect_input(f, 0, nets[rng.next_below(nets.size())]);

  for (int o = 0; o < 8; ++o)
    d.output_cells.push_back(d.nl.add_output(
        "out" + std::to_string(o), nets[rng.next_below(nets.size())]));

  EXPECT_TRUE(d.nl.validate().empty());
  return d;
}

/// Replays a fixed per-cycle stimulus (identical on all lanes), so every
/// pass of every engine sees the same test "program".
class ScriptedEnv : public FsimEnvironment {
 public:
  ScriptedEnv(const std::vector<NetId>& inputs,
              const std::vector<std::vector<bool>>& words)
      : inputs_(&inputs), words_(&words) {}
  void reset(PackedSim& sim) override {
    for (NetId in : *inputs_) sim.set_input_all(in, false);
    sim.eval();
  }
  bool step(PackedSim& sim, int cycle) override {
    if (cycle >= static_cast<int>(words_->size())) return false;
    const std::vector<bool>& w = (*words_)[static_cast<std::size_t>(cycle)];
    for (std::size_t i = 0; i < inputs_->size(); ++i)
      sim.set_input_all((*inputs_)[i], w[i]);
    sim.eval();
    return true;
  }

 private:
  const std::vector<NetId>* inputs_;
  const std::vector<std::vector<bool>>* words_;
};

/// Holds every input low across two clock edges (resetting the kDffR
/// flops), then drives a fixed per-cycle stimulus on all lanes.
class ResetThenScriptEnv final : public FsimEnvironment {
 public:
  ResetThenScriptEnv(const std::vector<NetId>& inputs,
                     const std::vector<std::vector<bool>>& stim)
      : inputs_(&inputs), stim_(&stim) {}
  void reset(PackedSim& sim) override {
    for (const NetId in : *inputs_) sim.set_input_all(in, false);
    sim.eval();
    sim.clock();
    sim.clock();
  }
  bool step(PackedSim& sim, int cycle) override {
    if (cycle >= static_cast<int>(stim_->size())) return false;
    const std::vector<bool>& bits = (*stim_)[static_cast<std::size_t>(cycle)];
    for (std::size_t i = 0; i < inputs_->size(); ++i)
      sim.set_input_all((*inputs_)[i], bits[i]);
    return true;
  }

 private:
  const std::vector<NetId>* inputs_;
  const std::vector<std::vector<bool>>* stim_;
};

}  // namespace olfui
