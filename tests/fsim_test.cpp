#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "cpu/soc.hpp"
#include "fault/fault_list.hpp"
#include "fault/tdf.hpp"
#include "fault/universe.hpp"
#include "fsim/fsim.hpp"
#include "netlist/wordops.hpp"
#include "random_design.hpp"
#include "sbst/sbst.hpp"
#include "serial_oracle.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace olfui {
namespace {

/// Environment driving a 2-bit counter circuit with an enable input; the
/// counter value is the observed "bus".
class CounterEnv : public FsimEnvironment {
 public:
  explicit CounterEnv(NetId en) : en_(en) {}
  void reset(PackedSim& sim) override {
    sim.set_input_all(en_, false);
    sim.eval();
  }
  bool step(PackedSim& sim, int) override {
    sim.set_input_all(en_, true);
    sim.eval();
    return true;
  }

 protected:
  NetId en_;
};

struct CounterRig {
  Netlist nl{"t"};
  NetId en;
  RegWord cnt;
  std::vector<CellId> outputs;

  CounterRig() {
    WordOps w(nl, "m");
    en = nl.add_input("en");
    cnt = w.reg_declare(4, "cnt");
    const auto inc = w.add_word(cnt.q, w.constant(1, 4), w.lit(false), "inc");
    const Bus d = w.mux_word(en, cnt.q, inc.sum, "d");
    w.reg_connect(cnt, d);
    for (int i = 0; i < 4; ++i)
      outputs.push_back(nl.add_output("o" + std::to_string(i), cnt.q[i]));
  }
};

TEST(SeqFsim, DetectsStuckCounterBit) {
  CounterRig rig;
  const FaultUniverse u(rig.nl);
  SequentialFaultSimulator fsim(rig.nl, u);
  fsim.set_observed(rig.outputs);
  CounterEnv env(rig.en);
  const ReferenceTrace trace = fsim.record_reference_trace(env, 20);
  // s-a-0 on counter bit 1 output: wrong count value after a few cycles.
  const FaultId f = u.id_of({rig.cnt.flops[1], 0}, false);
  const LaneMask det = fsim.run_batch(std::span(&f, 1), env, trace);
  EXPECT_EQ(det, 1u);
}

TEST(SeqFsim, MissesFaultWhenOutputsNotObserved) {
  CounterRig rig;
  const FaultUniverse u(rig.nl);
  SequentialFaultSimulator fsim(rig.nl, u);
  fsim.set_observed({rig.outputs[0]});  // only bit 0 visible
  CounterEnv env(rig.en);
  const ReferenceTrace trace = fsim.record_reference_trace(env, 20);
  // A stuck bit-3 never shows on bit 0 within 20 cycles... bit3 influences
  // nothing else in this circuit, so it must go undetected.
  const FaultId f = u.id_of({rig.cnt.flops[3], 0}, false);
  const LaneMask det = fsim.run_batch(std::span(&f, 1), env, trace);
  EXPECT_EQ(det, 0u);
}

TEST(SeqFsim, BatchesAreIndependent) {
  CounterRig rig;
  const FaultUniverse u(rig.nl);
  SequentialFaultSimulator fsim(rig.nl, u);
  fsim.set_observed(rig.outputs);
  CounterEnv env(rig.en);
  const ReferenceTrace trace = fsim.record_reference_trace(env, 20);
  // Fill a batch with all flop output faults; every stuck counter bit is
  // detectable when the full count is observed.
  std::vector<FaultId> faults;
  for (int b = 0; b < 4; ++b) {
    faults.push_back(u.id_of({rig.cnt.flops[b], 0}, false));
    faults.push_back(u.id_of({rig.cnt.flops[b], 0}, true));
  }
  const LaneMask det = fsim.run_batch(faults, env, trace);
  EXPECT_EQ(det, (1ULL << faults.size()) - 1);
}

TEST(SeqFsim, EnvironmentEndsRunEarly) {
  CounterRig rig;
  const FaultUniverse u(rig.nl);

  class OneCycleEnv : public CounterEnv {
   public:
    using CounterEnv::CounterEnv;
    bool step(PackedSim& sim, int cycle) {
      if (cycle >= 1) return false;
      return CounterEnv::step(sim, cycle);
    }
  };
  SequentialFaultSimulator fsim(rig.nl, u);
  fsim.set_observed(rig.outputs);
  CounterEnv full(rig.en);
  const ReferenceTrace trace = fsim.record_reference_trace(full, 50);
  OneCycleEnv env(rig.en);
  // A fault needing two increments to show (bit 1 stuck at 0) escapes a
  // one-cycle run, though the trace runs on for 50 cycles.
  const FaultId f = u.id_of({rig.cnt.flops[1], 0}, false);
  EXPECT_EQ(fsim.run_batch(std::span(&f, 1), env, trace), 0u);
  EXPECT_EQ(fsim.run_batch(std::span(&f, 1), full, trace), 1u);
}

TEST(SeqFsim, ResetDriveContradictingThePowerOnPlaneThrows) {
  // A batch starts from the power-on plane its trace recorded, and checks
  // every primary input against it: an environment whose reset drives
  // another value than the recording one is caught at that first settle,
  // before cycle 0, and named; the simulator then grades a matching
  // environment as before.
  CounterRig rig;
  const FaultUniverse u(rig.nl);
  SequentialFaultSimulator fsim(rig.nl, u);
  fsim.set_observed(rig.outputs);
  CounterEnv env(rig.en);
  const ReferenceTrace trace = fsim.record_reference_trace(env, 20);
  ASSERT_EQ(trace.power_on.size(), trace.columns.size());
  EXPECT_FALSE(NetActivation::test(trace.power_on, rig.en));

  class EnabledResetEnv : public CounterEnv {
   public:
    using CounterEnv::CounterEnv;
    void reset(PackedSim& sim) override {
      sim.set_input_all(en_, true);
      sim.eval();
    }
  };
  EnabledResetEnv enabled(rig.en);
  const FaultId f = u.id_of({rig.cnt.flops[1], 0}, false);
  try {
    fsim.run_batch(std::span(&f, 1), enabled, trace);
    FAIL() << "a reset drive the power-on plane contradicts was accepted";
  } catch (const std::logic_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("net en "), std::string::npos) << msg;
    EXPECT_NE(msg.find("before cycle 0"), std::string::npos) << msg;
  }
  EXPECT_EQ(fsim.run_batch(std::span(&f, 1), env, trace), 1u);

  // A plane of the wrong size is refused before any settle.
  ReferenceTrace wide = trace;
  wide.power_on.push_back(0);
  EXPECT_THROW(fsim.run_batch(std::span(&f, 1), env, wide),
               std::invalid_argument);
}

TEST(SeqFsim, TransitionArmsOnlyOnTheCycleAfterItsLaunch) {
  // y = a & b, observed. `a` rises into cycle 1 and then holds, and `b`
  // sits in another trace column, so a's column changes on cycle 1 only.
  // a's slow-to-rise fault holds a at 0 on its capture cycle alone: with
  // b = 0 there, y is 0 either way, and from cycle 2 on (b = 1) the fault
  // is no longer armed, so it goes undetected. With b = 1 on cycle 1 it is
  // detected. A frame stream that kept a's changed bit past cycle 1 would
  // re-arm the fault and detect it in the first program too.
  Netlist nl("t");
  WordOps w(nl, "m");
  const NetId a = nl.add_input("a");
  const NetId zero = w.lit(false);
  for (int i = 0; i < 64; ++i) w.buf(zero, "pad" + std::to_string(i));
  const NetId b = nl.add_input("b");
  ASSERT_NE(a / 64, b / 64);
  const NetId y = w.and2(a, b, "y");
  const std::vector<CellId> observed{nl.add_output("o", y)};
  const FaultUniverse u(nl);
  const FaultId a_str = u.id_of({nl.net(a).driver, 0}, false);
  ASSERT_TRUE(tdf_slow_to_rise(u.fault(a_str)));
  const std::vector<NetId> inputs{a, b};
  const struct {
    bool b_at_launch;
    bool detected;
  } rows[] = {{false, false}, {true, true}};
  for (const auto& row : rows) {
    const std::vector<std::vector<bool>> words = {
        {false, false}, {true, row.b_at_launch}, {true, true}, {true, true}};
    ScriptedEnv env(inputs, words);
    SequentialFaultSimulator fsim(nl, u);
    fsim.set_observed(observed);
    const ReferenceTrace trace = fsim.record_reference_trace(env, 4);
    // Column 0 moves on cycle 1; column 1 (b, y) on cycle 1 or 2.
    EXPECT_EQ(trace.change_begin,
              (std::vector<std::uint32_t>{0, 0, row.b_at_launch ? 2u : 1u,
                                          2, 2}));
    EXPECT_EQ(fsim.run_batch(std::span(&a_str, 1), env, trace,
                             FaultModel::kTransition)
                  .bit(0),
              row.detected)
        << "b at launch " << row.b_at_launch;
  }
}

TEST(CombDetect, MatchesTruthTableForAndGate) {
  Netlist nl("t");
  WordOps w(nl, "m");
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId y = w.and2(a, b, "y");
  std::vector<CellId> observed{nl.add_output("o", y)};
  const FaultUniverse u(nl);
  const CellId g = nl.net(y).driver;

  std::vector<std::vector<std::pair<NetId, bool>>> pat11{{{a, true}, {b, true}}};
  std::vector<std::vector<std::pair<NetId, bool>>> pat01{{{a, false}, {b, true}}};
  // Output s-a-0 detected by (1,1) only.
  EXPECT_TRUE(comb_detects(nl, u, u.id_of({g, 0}, false), pat11, observed));
  EXPECT_FALSE(comb_detects(nl, u, u.id_of({g, 0}, false), pat01, observed));
  // A-branch s-a-1 detected by (0,1).
  EXPECT_TRUE(comb_detects(nl, u, u.id_of({g, 1}, true), pat01, observed));
  EXPECT_FALSE(comb_detects(nl, u, u.id_of({g, 1}, true), pat11, observed));
}

TEST(CombDetect, MoreThan256PatternsThrow) {
  // One pattern per lane: a 257th has no lane in the word.
  Netlist nl("t");
  WordOps w(nl, "m");
  const NetId a = nl.add_input("a");
  const NetId y = w.buf(a, "y");
  std::vector<CellId> observed{nl.add_output("o", y)};
  const FaultUniverse u(nl);
  std::vector<std::vector<std::pair<NetId, bool>>> patterns(kLanes + 1,
                                                            {{a, true}});
  EXPECT_THROW(comb_detects(nl, u, 0, patterns, observed),
               std::invalid_argument);
  patterns.pop_back();
  EXPECT_NO_THROW(comb_detects(nl, u, 0, patterns, observed));
}

// ---------------------------------------------------------------------------
// ReferenceTrace::fingerprint — the trace component of the grade-result
// cache key (campaign/cache.hpp). It must move on ANY single-bit
// divergence of the recorded good machine, and must NOT move with how the
// trace was recorded (event-driven or full-sweep kernel): that is
// payload-neutral.

ReferenceTrace record_counter_trace(const CounterRig& rig,
                                    const FaultUniverse& u,
                                    bool event_driven) {
  SequentialFaultSimulator fsim(rig.nl, u);
  if (!event_driven) fsim.sim().set_eval_mode(PackedEvalMode::kFullSweep);
  fsim.set_observed(rig.outputs);
  CounterEnv env(rig.en);
  return fsim.record_reference_trace(env, 20);
}

TEST(ReferenceTraceFingerprint, AnySingleBitPerturbationChangesIt) {
  CounterRig rig;
  const FaultUniverse u(rig.nl);
  const ReferenceTrace trace = record_counter_trace(rig, u, true);
  const std::uint64_t fp = trace.fingerprint();
  ASSERT_NE(fp, 0u);
  EXPECT_EQ(trace.fingerprint(), fp);  // pure function of the contents

  // Flip every bit of every run value, one at a time: each divergent
  // good-machine state must produce a distinct checkpoint identity.
  for (std::size_t c = 0; c < trace.columns.size(); ++c) {
    for (std::size_t r = 0; r < trace.columns[c].value.size(); ++r) {
      for (int bit = 0; bit < 64; ++bit) {
        ReferenceTrace poked = trace;
        poked.columns[c].value[r] ^= 1ULL << bit;
        EXPECT_NE(poked.fingerprint(), fp)
            << "column " << c << " run " << r << " bit " << bit;
      }
    }
  }

  // Shape and run-boundary perturbations count as divergence too: the
  // same values starting one cycle later are a different good machine.
  ReferenceTrace poked = trace;
  poked.cycles += 1;
  EXPECT_NE(poked.fingerprint(), fp);
  poked = trace;
  poked.num_nets += 1;
  EXPECT_NE(poked.fingerprint(), fp);
  poked = trace;
  for (auto& col : poked.columns) {
    for (std::uint32_t& start : col.cycle) {
      if (start == 0) continue;
      start += 1;
      EXPECT_NE(poked.fingerprint(), fp);
      start -= 1;
    }
  }
}

TEST(ReferenceTraceFingerprint, StableAcrossKernels) {
  CounterRig rig;
  const FaultUniverse u(rig.nl);
  // The kernel is a speed knob, not a semantic one: the event-driven and
  // full-sweep kernels must record bit-identical good machines.
  EXPECT_EQ(record_counter_trace(rig, u, false).fingerprint(),
            record_counter_trace(rig, u, true).fingerprint());
}

/// Fault i rides lane i + 1, so kLanes faults would need a lane the word
/// does not have: both batch models refuse them, naming the size and width.
TEST(SeqFsim, OversizedBatchThrows) {
  CounterRig rig;
  const FaultUniverse u(rig.nl);
  SequentialFaultSimulator fsim(rig.nl, u);
  fsim.set_observed(rig.outputs);
  CounterEnv env(rig.en);
  const ReferenceTrace trace = fsim.record_reference_trace(env, 20);
  std::vector<FaultId> faults(kLanes, u.id_of({rig.cnt.flops[1], 0}, false));
  const std::string size = std::to_string(kLanes) + " faults";
  const std::string width = std::to_string(kLanes) + "-lane";
  for (const FaultModel model :
       {FaultModel::kStuckAt, FaultModel::kTransition}) {
    try {
      fsim.run_batch(faults, env, trace, model);
      ADD_FAILURE() << "" << to_string(model) << ": no throw";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(size), std::string::npos) << what;
      EXPECT_NE(what.find(width), std::string::npos) << what;
    }
  }
  // kLanes - 1 faults fill the pass exactly; the last lane grades like the
  // first.
  faults.pop_back();
  const LaneMask det = fsim.run_batch(faults, env, trace);
  EXPECT_TRUE(det.bit(0));
  EXPECT_TRUE(det.bit(kLanes - 2));
  EXPECT_NO_THROW(fsim.run_batch(faults, env, trace, FaultModel::kTransition));
}

/// observed() and the frame's good bit read a port cell's input net, so
/// only kOutput cells of the netlist may be observed.
TEST(SeqFsim, SetObservedRejectsNonOutputCells) {
  CounterRig rig;
  const FaultUniverse u(rig.nl);
  SequentialFaultSimulator fsim(rig.nl, u);
  const auto rejects = [&](CellId cell, const std::string& name) {
    try {
      fsim.set_observed({rig.outputs[0], cell});
      ADD_FAILURE() << "observed " << name;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
          << e.what();
    }
  };
  rejects(rig.cnt.flops[1], rig.nl.cell(rig.cnt.flops[1]).name);
  rejects(rig.nl.net(rig.en).driver, "en");  // the input port's cell
  const auto cells = static_cast<CellId>(rig.nl.num_cells());
  rejects(cells, std::to_string(cells));
  rejects(kInvalidId, std::to_string(kInvalidId));

  // A rejected set leaves the previous one in place.
  fsim.set_observed(rig.outputs);
  rejects(rig.cnt.flops[0], rig.nl.cell(rig.cnt.flops[0]).name);
  CounterEnv env(rig.en);
  const ReferenceTrace trace = fsim.record_reference_trace(env, 20);
  const FaultId f = u.id_of({rig.cnt.flops[3], 0}, false);
  EXPECT_EQ(fsim.run_batch(std::span(&f, 1), env, trace), 1u);
}

// ---------------------------------------------------------------------------
// Lane retirement cannot move a verdict. The batch loop hands every lane
// back to the good machine right after the cycle it is detected in
// (PackedSim::retire_lanes), so a full kLanes-1 batch must grade each fault
// exactly as a batch of that fault alone does. A lone fault's batch exits
// early on its detection cycle, before any lane retires. Checked under
// both fault models. A full batch that leaves some fault undetected never
// exits early, so it retires every lane it detects.

std::size_t lane_mask_count(const LaneMask& m) {
  std::size_t n = 0;
  for (int k = 0; k < LaneMask::kWords; ++k)
    n += static_cast<std::size_t>(__builtin_popcountll(m.word(k)));
  return n;
}

/// What the full batches of expect_batch_matches_lone_faults saw, summed
/// over both models.
struct LoneFaultTally {
  std::size_t detected = 0;
  /// Full batches that left some fault undetected, so the retired-lane
  /// count was checked against the detections.
  std::size_t partial_batches = 0;
  LoneFaultTally& operator+=(const LoneFaultTally& o) {
    detected += o.detected;
    partial_batches += o.partial_batches;
    return *this;
  }
};

LoneFaultTally expect_batch_matches_lone_faults(
    const Netlist& nl, const FaultUniverse& u,
    const std::vector<CellId>& observed, FsimEnvironment& env,
    std::span<const FaultId> faults, int max_cycles,
    const std::shared_ptr<const PackedTopology>& topo,
    const std::string& label) {
  SequentialFaultSimulator fsim(nl, u, topo);
  fsim.set_observed(observed);
  const ReferenceTrace trace = fsim.record_reference_trace(env, max_cycles);
  LoneFaultTally tally;
  for (const FaultModel model :
       {FaultModel::kStuckAt, FaultModel::kTransition}) {
    const std::string what =
        label + " " + std::string(to_string(model));
    const auto grade = [&](std::span<const FaultId> batch) {
      return fsim.run_batch(batch, env, trace, model);
    };
    const std::uint64_t retired = fsim.sim().activity().lanes_retired;
    const LaneMask batch = grade(faults);
    const std::size_t n = lane_mask_count(batch);
    if (n < faults.size()) {
      EXPECT_EQ(fsim.sim().activity().lanes_retired - retired, n) << what;
      ++tally.partial_batches;
    }
    tally.detected += n;
    for (std::size_t i = 0; i < faults.size(); ++i) {
      const std::uint64_t before = fsim.sim().activity().lanes_retired;
      const LaneMask one = grade(faults.subspan(i, 1));
      EXPECT_EQ(fsim.sim().activity().lanes_retired, before) << what;
      EXPECT_EQ(one.bit(0), batch.bit(static_cast<int>(i)))
          << what << ": " << u.fault_name(faults[i]);
      if (::testing::Test::HasFailure()) return tally;
    }
  }
  return tally;
}

LoneFaultTally random_batches_match_lone_faults(std::uint64_t seed) {
  Rng rng(seed);
  RandomDesign d = random_design(rng, 6, 10, 70);
  const FaultUniverse u(d.nl);
  constexpr int kCycles = 24;
  std::vector<std::vector<bool>> words(kCycles);
  for (auto& w : words)
    for (std::size_t i = 0; i < d.input_nets.size(); ++i)
      w.push_back(rng.next_bool());
  ScriptedEnv env(d.input_nets, words);
  // kLanes - 1 distinct faults spread over the universe.
  std::vector<FaultId> ids(u.size());
  std::iota(ids.begin(), ids.end(), FaultId{0});
  for (std::size_t i = ids.size() - 1; i > 0; --i)
    std::swap(ids[i], ids[rng.next_below(i + 1)]);
  EXPECT_GE(ids.size(), static_cast<std::size_t>(kLanes - 1));
  ids.resize(std::min(ids.size(), static_cast<std::size_t>(kLanes - 1)));
  return expect_batch_matches_lone_faults(
      d.nl, u, d.output_cells, env, ids, kCycles,
      PackedTopology::build(d.nl), "seed " + std::to_string(seed));
}

TEST(SeqFsim, FullBatchMatchesLoneFaultsOnRandomNetlists) {
  LoneFaultTally tally;
  for (std::uint64_t seed = 31; seed <= 33; ++seed) {
    tally += random_batches_match_lone_faults(seed);
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(tally.detected, 0u) << "no lane was detected, so none retired";
  EXPECT_GT(tally.partial_batches, 0u) << "no retired-lane count was checked";
}

TEST(SeqFsim, FullBatchMatchesLoneFaultsOnSocSlice) {
  SocConfig cfg;
  cfg.cpu.btb_entries = 2;
  cfg.cpu.with_multiplier = false;
  cfg.scan.num_chains = 2;
  auto soc = build_soc(cfg);
  const Netlist& nl = soc->netlist;
  const FaultUniverse u(nl);
  const auto topo = PackedTopology::build(nl);
  std::vector<SbstProgram> suite = build_sbst_suite(cfg);
  ASSERT_GE(suite.size(), 2u);
  SbstProgram& prog = suite[1];
  FlashImage flash(cfg.flash_base, cfg.flash_size);
  flash.load(prog.program.base(), prog.program.words());
  const int cycles = kSbstFunctionalCycleCap + 1;
  SocFsimEnvironment env(*soc, flash);

  // Bus ports and PC bits (detected early, so their lanes retire while
  // the batch runs on), topped up with a random sample of the universe.
  std::vector<FaultId> faults;
  const auto add = [&](FaultId f) {
    if (std::find(faults.begin(), faults.end(), f) == faults.end())
      faults.push_back(f);
  };
  for (const int b : {0, 2, 3, 5, 8, 16, 31}) {
    for (const bool sa1 : {false, true}) {
      add(u.id_of({nl.find_output(format("baddr_o%d", b)), 1}, sa1));
      add(u.id_of({nl.find_output(format("bwdata_o%d", b)), 1}, sa1));
    }
  }
  for (const int b : {2, 3, 4, 5, 6, 7}) {
    add(u.id_of({soc->cpu.pc.flops[b], 0}, false));
    add(u.id_of({soc->cpu.pc.flops[b], 0}, true));
  }
  Rng rng(7);
  while (faults.size() < static_cast<std::size_t>(kLanes - 1))
    add(static_cast<FaultId>(rng.next_below(u.size())));
  const LoneFaultTally tally = expect_batch_matches_lone_faults(
      nl, u, soc->cpu.bus_output_cells, env, faults, cycles, topo,
      prog.name);
  EXPECT_GT(tally.detected, 0u) << "no lane was detected, so none retired";
  EXPECT_GT(tally.partial_batches, 0u) << "no retired-lane count was checked";
}

// ---------------------------------------------------------------------------
// The packed batch against the serial oracle (serial_oracle.hpp), which
// grades one fault at a time as a netlist edit on the 4-valued Simulator
// and shares no code with the packed kernel. Every fault of random designs
// is graded in batches of 200-255 faults, so every lane word carries
// faults, under both models; each verdict the oracle decides must be the
// batch's. The designs are the first three whose reset and stimulus
// resolve every observed port on every cycle: where the good machine shows
// an X, the oracle cannot decide a fault the batch leaves undetected.

TEST(SerialOracle, BatchesMatchSerialGradingOnRandomDesigns) {
  struct Tally {
    std::size_t faults = 0, decided = 0, detected = 0, stems = 0,
                branches = 0;
  };
  Tally tally[2];
  int designs = 0;
  for (std::uint64_t seed = 161; designs < 3 && seed < 200; ++seed) {
    Rng rng(seed);
    RandomDesign d = random_design(rng, 8, 16, 150);
    constexpr int kCycles = 40;
    std::vector<std::vector<bool>> stim(kCycles);
    for (auto& bits : stim)
      for (std::size_t i = 0; i < d.input_nets.size(); ++i)
        bits.push_back(rng.next_bool());
    const FaultUniverse u(d.nl);
    const SerialOracle oracle(d.nl, d.input_nets, d.output_cells, stim);
    if (!oracle.resolved()) continue;
    ++designs;
    ResetThenScriptEnv env(d.input_nets, stim);
    SequentialFaultSimulator fsim(d.nl, u);
    fsim.set_observed(d.output_cells);
    const ReferenceTrace trace = fsim.record_reference_trace(env, kCycles);

    const std::size_t batches = (u.size() + kLanes - 2) / (kLanes - 1);
    const std::size_t span = (u.size() + batches - 1) / batches;
    for (const FaultModel model :
         {FaultModel::kStuckAt, FaultModel::kTransition}) {
      Tally& t = tally[model == FaultModel::kTransition];
      for (FaultId base = 0; base < u.size(); base += span) {
        const std::size_t n = std::min<std::size_t>(span, u.size() - base);
        ASSERT_GE(n, 200u) << "seed " << seed;
        std::vector<FaultId> batch(n);
        std::iota(batch.begin(), batch.end(), base);
        const LaneMask det = fsim.run_batch(batch, env, trace, model);
        for (std::size_t i = 0; i < n; ++i) {
          const Fault& f = u.fault(batch[i]);
          ++t.faults;
          const SerialVerdict v = oracle.grade(f, model);
          if (v == SerialVerdict::kUnknown) continue;
          ++t.decided;
          const bool detected = v == SerialVerdict::kDetected;
          t.detected += detected;
          ++(f.pin.pin == 0 ? t.stems : t.branches);
          ASSERT_EQ(det.bit(static_cast<int>(i)), detected)
              << "seed " << seed << " " << to_string(model) << " lane "
              << i + 1 << ": "
              << (model == FaultModel::kTransition
                      ? tdf_fault_name(u, batch[i])
                      : u.fault_name(batch[i]));
        }
      }
    }
  }
  ASSERT_EQ(designs, 3);
  for (const Tally& t : tally) {
    EXPECT_GE(t.decided * 10, t.faults * 9) << t.decided << "/" << t.faults;
    EXPECT_GT(t.detected, 0u);
    EXPECT_LT(t.detected, t.decided);
    EXPECT_GT(t.stems, 0u);
    EXPECT_GT(t.branches, 0u);
  }
}

}  // namespace
}  // namespace olfui
