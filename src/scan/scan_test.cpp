#include "scan/scan_test.hpp"

#include <stdexcept>
#include <string>

namespace olfui {

ScanPattern scan_pattern_from_atpg(const Netlist& nl, const ScanChains& chains,
                                   const AtpgPattern& atpg) {
  ScanPattern out;
  // Map flop output nets to (chain, position).
  std::unordered_map<NetId, std::pair<std::size_t, std::size_t>> flop_pos;
  for (std::size_t c = 0; c < chains.chains.size(); ++c) {
    const ScanChain& chain = chains.chains[c];
    out.chain_state.emplace_back(chain.elements.size(), false);
    for (std::size_t k = 0; k < chain.elements.size(); ++k)
      flop_pos[nl.cell(chain.elements[k].flop).out] = {c, k};
  }
  for (const auto& [net, value] : atpg.assignment) {
    const auto it = flop_pos.find(net);
    if (it != flop_pos.end()) {
      out.chain_state[it->second.first][it->second.second] = value;
    } else {
      out.pi[net] = value;
    }
  }
  return out;
}

ScanTestRunner::ScanTestRunner(const Netlist& nl, const ScanChains& chains)
    : nl_(&nl), chains_(&chains), topo_(PackedTopology::build(nl)) {}

LaneWord ScanTestRunner::inject(PackedSim& sim,
                                std::span<const FaultId> faults,
                                const FaultUniverse& universe) const {
  // Lane 0 is the good machine, so one more fault would shift past the
  // lane word.
  if (faults.size() >= static_cast<std::size_t>(kLanes))
    throw std::invalid_argument(
        "scan test: " + std::to_string(faults.size()) + " faults exceed the " +
        std::to_string(kLanes - 1) + " faulty lanes of one pass");
  sim.clear_injections();
  LaneWord fault_lanes{};
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const Fault& f = universe.fault(faults[i]);
    const LaneWord lane = lane_bit(static_cast<int>(i) + 1);
    fault_lanes |= lane;
    sim.add_injection({f.pin.cell, f.pin.pin, f.sa1, lane});
  }
  return fault_lanes;
}

void ScanTestRunner::set_pin_constraint(NetId net, bool value) {
  constraints_.emplace_back(net, value);
}

void ScanTestRunner::drive_quiet_inputs(PackedSim& sim) const {
  for (CellId c : nl_->input_cells()) sim.set_input_all(nl_->cell(c).out, false);
  for (auto [net, value] : constraints_) sim.set_input_all(net, value);
}

std::size_t ScanTestRunner::max_chain_length() const {
  std::size_t n = 0;
  for (const ScanChain& c : chains_->chains) n = std::max(n, c.elements.size());
  return n;
}

LaneMask ScanTestRunner::run_pattern(std::span<const FaultId> faults,
                                     const FaultUniverse& universe,
                                     const ScanPattern& pattern) const {
  PackedSim sim(topo_);
  const LaneWord fault_lanes = inject(sim, faults, universe);
  sim.power_on();
  drive_quiet_inputs(sim);
  LaneWord diverged{};

  // Shift-in: SE active, serial data such that after max_len cycles each
  // element k of chain c holds chain_state[c][k] (element n-1 loads first).
  const bool scan_value = !chains_->se_functional_value;
  sim.set_input_all(chains_->se_net, scan_value);
  const std::size_t len = max_chain_length();
  for (std::size_t t = 0; t < len; ++t) {
    for (std::size_t c = 0; c < chains_->chains.size(); ++c) {
      const ScanChain& chain = chains_->chains[c];
      const std::size_t n = chain.elements.size();
      bool bit = false;
      // After (len - t - 1) more shifts the value fed now sits at element
      // len - 1 - t ... clamp for shorter chains.
      if (t >= len - n) {
        const std::size_t pos = n - 1 - (t - (len - n));
        bit = pattern.chain_state[c][pos];
      }
      sim.set_input_all(chain.scan_in_net, bit);
    }
    sim.eval();
    sim.clock();
  }

  // Functional capture: SE inactive, apply the pattern's primary inputs,
  // observe every primary output (tester visibility).
  sim.set_input_all(chains_->se_net, chains_->se_functional_value);
  drive_quiet_inputs(sim);
  sim.set_input_all(chains_->se_net, chains_->se_functional_value);
  for (const auto& [net, value] : pattern.pi) sim.set_input_all(net, value);
  sim.eval();
  for (CellId oc : nl_->output_cells()) {
    const LaneWord w = sim.observed(oc);
    diverged |= w ^ lane_broadcast(lane_test(w, 0));
  }
  sim.clock();  // capture

  // Shift-out: compare the unloaded state stream on every scan-out port.
  sim.set_input_all(chains_->se_net, scan_value);
  for (std::size_t t = 0; t < len; ++t) {
    sim.eval();
    for (const ScanChain& chain : chains_->chains) {
      const LaneWord w = sim.observed(chain.scan_out_port);
      diverged |= w ^ lane_broadcast(lane_test(w, 0));
    }
    sim.clock();
  }
  return lanes_to_faults(diverged & fault_lanes);
}

LaneMask ScanTestRunner::run_chain_test(std::span<const FaultId> faults,
                                        const FaultUniverse& universe) const {
  PackedSim sim(topo_);
  const LaneWord fault_lanes = inject(sim, faults, universe);
  sim.power_on();
  drive_quiet_inputs(sim);
  LaneWord diverged{};

  const bool scan_value = !chains_->se_functional_value;
  sim.set_input_all(chains_->se_net, scan_value);
  const std::size_t len = max_chain_length();
  // Flush a 0-0-1-1 sequence through: exposes stuck serial links both ways
  // and slow/incomplete chains. Observe continuously.
  for (std::size_t t = 0; t < len + 2 * len; ++t) {
    const bool bit = (t / 2) % 2 == 1;
    for (const ScanChain& chain : chains_->chains)
      sim.set_input_all(chain.scan_in_net, bit);
    sim.eval();
    for (const ScanChain& chain : chains_->chains) {
      const LaneWord w = sim.observed(chain.scan_out_port);
      diverged |= w ^ lane_broadcast(lane_test(w, 0));
    }
    sim.clock();
  }
  return lanes_to_faults(diverged & fault_lanes);
}

CampaignTest make_chain_test_campaign(const ScanTestRunner& runner,
                                      const FaultUniverse& universe) {
  return make_function_test(
      "chain_test", [&runner, &universe](std::span<const FaultId> faults) {
        return runner.run_chain_test(faults, universe);
      });
}

CampaignTest make_pattern_campaign(const ScanTestRunner& runner,
                                   const FaultUniverse& universe,
                                   const ScanPattern& pattern,
                                   std::string name) {
  return make_function_test(
      std::move(name),
      [&runner, &universe, &pattern](std::span<const FaultId> faults) {
        return runner.run_pattern(faults, universe, pattern);
      });
}

}  // namespace olfui
