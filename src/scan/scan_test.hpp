// olfui/scan: manufacturing-mode scan test application.
//
// The paper's premise is that scan/debug faults are *testable until the
// structures they belong to are used, but not in the final environment*.
// This module provides the manufacturing side of that statement so it can
// be demonstrated, not just asserted:
//
//  * chain (flush) tests — shift a 0011-style pattern through every chain
//    and compare what comes out; this catches the serial-path faults
//    (SI/SE/buffer/scan-out) that the on-line flow prunes;
//  * full-scan pattern application — load a PODEM-generated full-scan
//    pattern through the chains, apply primary inputs, evaluate, observe
//    the primary outputs, capture, and shift the captured state out.
//
// Together with the mission-mode fault simulator this closes the loop:
// a fault the flow prunes is detected here (tester access) and never
// detected there (mission access).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "atpg/podem.hpp"
#include "campaign/campaign.hpp"
#include "fault/universe.hpp"
#include "scan/scan.hpp"
#include "sim/packed.hpp"

namespace olfui {

/// One full-scan test: primary-input values plus the state to load into
/// every chain (chain_state[c][k] is the value for chain c's k-th element,
/// counted from scan-in).
struct ScanPattern {
  std::unordered_map<NetId, bool> pi;
  std::vector<std::vector<bool>> chain_state;
};

/// Converts a PODEM full-scan pattern (values on PI nets and flop Q nets)
/// into shift data for the given chains. Unassigned bits default to 0.
ScanPattern scan_pattern_from_atpg(const Netlist& nl, const ScanChains& chains,
                                   const AtpgPattern& atpg);

class ScanTestRunner {
 public:
  ScanTestRunner(const Netlist& nl, const ScanChains& chains);

  /// Holds a primary input at a fixed value during testing (e.g. rstn = 1
  /// so chain flops with asynchronous reset can hold shifted data). A
  /// pattern's own PI assignment overrides the constraint during capture.
  void set_pin_constraint(NetId net, bool value);

  /// Applies one full-scan pattern to up to kLanes - 1 faults (lane 0 is
  /// the good machine): shift-in, functional capture with PO observation,
  /// shift-out with scan-out observation. Returns the per-fault detection
  /// mask. Throws std::invalid_argument for more faults.
  /// Builds its own PackedSim per call (over the runner's shared
  /// topology), so concurrent calls are safe — which is what lets the
  /// campaign orchestrator fan batches out.
  LaneMask run_pattern(std::span<const FaultId> faults,
                       const FaultUniverse& universe,
                       const ScanPattern& pattern) const;

  /// Chain integrity (flush) test: shifts a 00110011... sequence through
  /// all chains with SE held active and compares scan-out streams against
  /// the good machine. Detects serial-path faults without any ATPG.
  /// Thread-safe like run_pattern.
  LaneMask run_chain_test(std::span<const FaultId> faults,
                          const FaultUniverse& universe) const;

 private:
  /// Injects faults[i] on lane i + 1; returns those lanes.
  LaneWord inject(PackedSim& sim, std::span<const FaultId> faults,
                  const FaultUniverse& universe) const;
  void drive_quiet_inputs(PackedSim& sim) const;
  std::size_t max_chain_length() const;

  const Netlist* nl_;
  const ScanChains* chains_;
  /// Levelized order + fanout CSR, built once and shared by the per-call
  /// simulators instead of being rebuilt for every pattern x batch.
  std::shared_ptr<const PackedTopology> topo_;
  std::vector<std::pair<NetId, bool>> constraints_;
};

/// Campaign adapters: the manufacturing-test kernels as orchestrator
/// tests, graded in spans of kLanes - 1 faults. `runner`, `universe`, and
/// (for patterns) `pattern` must outlive the campaign that grades the
/// test.
CampaignTest make_chain_test_campaign(const ScanTestRunner& runner,
                                      const FaultUniverse& universe);
CampaignTest make_pattern_campaign(const ScanTestRunner& runner,
                                   const FaultUniverse& universe,
                                   const ScanPattern& pattern,
                                   std::string name);

}  // namespace olfui
