// olfui/sbst: the software-based self-test suite.
//
// The paper's case study measures coverage of "a software-based self-test
// library with high fault coverage capabilities" whose results are
// observed on the system bus. This module provides the equivalent for
// MiniRISC32: a suite of self-test programs (ALU arithmetic/logic,
// shifter, register-file march, branch/BTB exercisers, load/store walks),
// a functional runner that measures each program's cycle count, and the
// fault-simulation campaign that grades the suite against the stuck-at
// universe. The campaign takes its cycle counts from the packed
// good-machine pass that records each test's checkpoint, not from the
// functional runner; that checkpoint's activation() is also the §4
// input-activity screen (find_quiet_inputs). The same pass yields each
// test's screen: the faults the run never activates, plus those the
// paper's structural proof (sta.hpp), run under the nets the program
// holds at one value, shows can never reach the system bus.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "cpu/isa.hpp"
#include "cpu/soc.hpp"
#include "fault/fault_list.hpp"
#include "fsim/fsim.hpp"
#include "sim/logic.hpp"

namespace olfui {

struct SbstProgram {
  std::string name;
  Program program;
};

/// Builds the full suite, each program based at the SoC reset vector.
std::vector<SbstProgram> build_sbst_suite(const SocConfig& cfg);

/// The cycle cap of one program's good-machine run, shared by
/// run_suite_functional's default and the campaign-test builders so the
/// two paths cannot drift: a campaign test's good_cycles is the program's
/// HALT cycle, or this cap if it has not halted by then — exactly what
/// SocSimulator::run(kSbstFunctionalCycleCap) returns. The campaign's
/// tracer records at most kSbstFunctionalCycleCap + 1 cycles: the cap's
/// cycles plus the one that shows whether the program halted at the cap.
inline constexpr int kSbstFunctionalCycleCap = 5000;

/// Functionally runs every program (good machine), returning per-program
/// cycle counts.
std::vector<int> run_suite_functional(
    const Soc& soc, std::vector<SbstProgram>& suite,
    int max_cycles_per_program = kSbstFunctionalCycleCap);

/// The result of run_sbst_campaign: per-test rows are campaign.tests, the
/// suite's total is campaign.total_new_detections.
struct SbstCampaignResult {
  /// Full orchestrator result: per-class coverage, runtime stats, JSON-able.
  CampaignResult campaign;
};

/// The activation half of an SBST test's screen: the faults whose faulty
/// machine provably equals the good machine for the whole run. A
/// stuck-at-v fault acts only while its site holds !v — at any settle,
/// reset phase included. A transition batch arms a fault only on the
/// capture cycle after its site makes the fault's transition, so a site
/// that never does leaves the fault unarmed throughout.
BitVec inert_faults(const FaultUniverse& universe, const NetActivation& act,
                    FaultModel fault_model);

/// The fault-free constants of one run over `nets` nets: V0 or V1 for
/// every net the run held at one value (exactly one of act.seen0 /
/// act.seen1), VX elsewhere.
std::vector<Logic> trace_constants(const NetActivation& act,
                                   std::size_t nets);

/// The observability half: the faults on every pin whose effect provably
/// reaches none of the `observed` output cells while every net keeps its
/// trace_constants value. It is StructuralAnalyzer's sound proof, one
/// ObservabilityProver over analyze_values, with the constants taken
/// from the trace alone. Both
/// models read the same set: a stuck-at fault, and a transition fault on
/// whichever cycles it is armed, makes only its own pin differ. Sound for
/// a run whose environment reads no other port of a faulty lane.
BitVec unobservable_faults(const FaultUniverse& universe,
                           const NetActivation& act,
                           std::span<const CellId> observed);

/// One program's campaign test plus the recorded good-machine checkpoint
/// and its activation (exposed so callers can inspect what the test
/// grades against and what its screen reads).
struct SbstCampaignTest {
  CampaignTest test;
  std::shared_ptr<const ReferenceTrace> trace;
  /// The run's NetActivation, reset settles included: the input of both
  /// halves of test.screen.
  std::shared_ptr<const NetActivation> activation;
};

/// Builds one program's campaign test from one packed good-machine pass
/// (the lane-0 tracer, budget kSbstFunctionalCycleCap + 1). That pass
/// records the reference trace, whose length bounds every batch, and
/// yields the cycle count (test.good_cycles) and the activation the
/// deferred test.screen reads:
/// inert_faults under `fault_model` plus unobservable_faults at the
/// system-bus ports, evaluated only when a campaign run misses the cache
/// (a "screen" span names both counts). The grading kernel is wrapped in
/// per-worker runners with the event-driven kernel and incremental
/// clocking. The runners grade every kLanes - 1 fault span against the
/// recorded trace, under `fault_model`: kTransition reads the same fault
/// ids as launch/capture transition faults (fault/tdf.hpp). The returned
/// test carries its identity spec
/// ({"workload":"sbst","program":NAME,"state_fp":HEX},
/// state_fp being the trace fingerprint) for the result cache. `topo`
/// must be a PackedTopology over soc.netlist (shared across the suite's
/// tests and workers). `soc` and `universe` are captured by reference and
/// must outlive every campaign run over the returned test.
SbstCampaignTest build_sbst_campaign_test(
    const Soc& soc, SbstProgram& program, const FaultUniverse& universe,
    std::shared_ptr<const PackedTopology> topo,
    FaultModel fault_model = FaultModel::kStuckAt);

/// Converts the suite into orchestrator tests, one build_sbst_campaign_test
/// per program over one shared PackedTopology, under
/// engine.options().fault_model. The programs are built concurrently on
/// the engine's worker pool (CampaignEngine::parallel_for); the tests come
/// back in suite order and are identical for any thread count.
std::vector<CampaignTest> build_sbst_campaign_tests(
    const Soc& soc, std::vector<SbstProgram>& suite,
    const FaultUniverse& universe, const CampaignEngine& engine);

/// Fault-simulates the suite with system-bus observability through the
/// campaign orchestrator, updating `fl` (already-detected and untestable
/// faults are skipped — fault dropping). `opts` controls threading,
/// slicing, caching and the fault model (opts.fault_model ==
/// kTransition grades the suite for TDF coverage; pair it with
/// classify_transition_faults-based pruning in `fl` for the pruned
/// figures). One engine builds the tests and grades them, on one pool.
SbstCampaignResult run_sbst_campaign(
    const Soc& soc, std::vector<SbstProgram>& suite, FaultList& fl,
    std::function<void(const std::string&, std::size_t, std::size_t)> progress = {},
    const CampaignOptions& opts = {});

}  // namespace olfui
