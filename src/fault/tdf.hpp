// olfui/fault: the transition-delay (TDF) view of the fault universe.
//
// The paper's §5 extension ("extend the proposed technique to other fault
// models") reuses the stuck-at site enumeration: every pin carries two
// transition faults on the same dense ids as its stuck-at pair — the
// s-a-0 slot (even id within the pin) is read as slow-to-rise, the s-a-1
// slot as slow-to-fall. Sharing ids means FaultList bookkeeping, BitVec
// exchanges and the campaign orchestrator's sharding all work for either
// model; only injection semantics, report labels and class collapsing
// change, and sta.hpp's classify_transition_faults prunes the sites that
// cannot launch (a mission constant of either polarity kills both
// transition faults of its pin).
//
// Collapsing (FaultUniverse::tdf_collapse_map) keeps only the stuck-at
// rules that carry transitions: a BUF's input and output launch on the
// same cycles and hold the same capture value, a NOT's do with the
// polarity (slow-to-rise <-> slow-to-fall) swapped, and a fanout-free
// stem and its sole branch watch the same net. An AND/OR-type input
// forms no class with the output: the output also makes transitions
// through the other inputs, so the two launch on different cycles.
//
// Simulation semantics (the launch/capture pair that
// SequentialFaultSimulator::run_batch grades under kTransition, in the same
// batch loop as stuck-at): a slow-to-rise fault misses the capture clock
// edge after the good machine launches a 0->1 at the site, so during that
// capture cycle the site still carries the pre-transition value 0 — which
// is exactly the stuck value of the fault's shared stuck-at slot, so the
// batch injects that stuck-at record on the capture cycle only. The
// launches come from the recorded good machine (the reference trace's
// frame of each cycle). Slow-to-fall is the 1->0 dual.
#pragma once

#include <string>
#include <string_view>

#include "fault/universe.hpp"

namespace olfui {

/// True if `f`'s shared slot reads as slow-to-rise under kTransition
/// (the s-a-0 slot: the capture cycle holds the site at 0).
inline bool tdf_slow_to_rise(const Fault& f) { return !f.sa1; }

/// The stuck value forced at the site during a capture cycle: the
/// pre-transition value, which coincides with the shared stuck-at slot's
/// polarity (slow-to-rise holds 0, slow-to-fall holds 1).
inline bool tdf_capture_value(const Fault& f) { return f.sa1; }

/// Report label of a transition class: "str" / "stf" (the TDF analogue of
/// the campaign's "sa0" / "sa1" polarity classes).
std::string_view tdf_class_name(const Fault& f);

/// "u_alu/u_sum_3/A slow-to-rise" style name for reports — the transition
/// reading of FaultUniverse::fault_name.
std::string tdf_fault_name(const FaultUniverse& universe, FaultId id);

/// Net whose good-machine value is watched for the launch transition: the
/// output net for stem (pin 0) faults, the driving net for branch faults.
NetId tdf_site_net(const Netlist& nl, const Fault& f);

}  // namespace olfui
