// Event-driven kernel equivalence suite.
//
// The event-driven eval() and incremental (dirty-D) clock() are pure
// work-skipping optimisations: for any netlist, stimulus, and injection
// set they must produce exactly the words the levelized full sweep, which
// latches every flop, produces on every net. These tests drive randomized
// netlists and stimuli through an event-mode simulator and a
// forced-full-sweep oracle in lockstep and compare net-for-net, check the
// reference tracer's lane 0 against the 4-valued Simulator, which shares
// no code with the packed kernel, then check campaign determinism across
// worker-pool sizes with the kernel switched either way.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/lanes.hpp"

#include "campaign/campaign.hpp"
#include "fault/fault_list.hpp"
#include "fault/tdf.hpp"
#include "fault/universe.hpp"
#include "fsim/fsim.hpp"
#include "netlist/wordops.hpp"
#include "random_design.hpp"
#include "sim/packed.hpp"
#include "sim/sim.hpp"
#include "util/rng.hpp"

namespace olfui {
namespace {

LaneWord random_lanes(Rng& rng) {
  LaneWord w{};
  for (int k = 0; k < kLaneWords; ++k) w[k] = rng.next_u64();
  return w;
}

/// Drives identical random stimuli through both simulators and asserts
/// every net carries the identical word after every operation. With
/// `power_on` false the run continues from the current state (exercising
/// mid-run invalidation paths).
void run_lockstep(RandomDesign& d, PackedSim& evt, PackedSim& oracle, Rng& rng,
                  int steps, bool power_on = true) {
  const auto compare_all = [&](int step) {
    for (NetId n = 0; n < d.nl.num_nets(); ++n)
      ASSERT_FALSE(lane_neq(evt.value(n), oracle.value(n)))
          << "net " << d.nl.net(n).name << " diverged at step " << step;
    for (CellId oc : d.output_cells)
      ASSERT_FALSE(lane_neq(evt.observed(oc), oracle.observed(oc)))
          << "output " << d.nl.cell(oc).name << " diverged at step " << step;
  };

  if (power_on) {
    evt.power_on();
    oracle.power_on();
  }
  for (int step = 0; step < steps; ++step) {
    for (NetId in : d.input_nets) {
      if (rng.next_below(3) == 0) continue;  // leave some inputs unchanged
      const LaneWord w = random_lanes(rng);
      evt.set_input_lanes(in, w);
      oracle.set_input_lanes(in, w);
    }
    // A bare latch leaves the comb nets stale in both sims alike, and the
    // next clock() latches again before any settle.
    if (const std::uint64_t op = rng.next_below(8); op < 2) {
      evt.clock();
      oracle.clock();
    } else if (op == 2) {
      evt.latch();
      oracle.latch();
    } else {
      evt.eval();
      oracle.eval();
    }
    compare_all(step);
    if (::testing::Test::HasFailure()) return;
  }
  // The settled event state must be a fixed point of the full sweep.
  evt.eval();
  oracle.eval();
  compare_all(steps);
  evt.set_eval_mode(PackedEvalMode::kFullSweep);
  evt.eval();
  compare_all(steps + 1);
  evt.set_eval_mode(PackedEvalMode::kEventDriven);
}

TEST(EventSim, RandomNetlistsMatchFullSweepOracle) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    RandomDesign d = random_design(rng, 10, 24, 220);
    PackedSim evt(d.nl);
    PackedSim oracle(d.nl);
    oracle.set_eval_mode(PackedEvalMode::kFullSweep);
    ASSERT_EQ(evt.eval_mode(), PackedEvalMode::kEventDriven);
    run_lockstep(d, evt, oracle, rng, 60);
    // The point of the kernel: strictly less work than sweeping.
    EXPECT_LT(evt.activity().cells_evaluated, oracle.activity().cells_evaluated)
        << "seed " << seed;
  }
}

TEST(EventSim, InjectionsMatchFullSweepOracle) {
  for (std::uint64_t seed = 11; seed <= 14; ++seed) {
    Rng rng(seed);
    RandomDesign d = random_design(rng, 8, 16, 160);
    auto topo = PackedTopology::build(d.nl);
    PackedSim evt(topo);
    PackedSim oracle(topo);
    oracle.set_eval_mode(PackedEvalMode::kFullSweep);

    const auto random_injection = [&] {
      const CellId cell = static_cast<CellId>(rng.next_below(d.nl.num_cells()));
      const CellType t = d.nl.cell(cell).type;
      int pin = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(num_inputs(t)) + 1));
      if (t == CellType::kOutput) pin = 1;  // kOutput has no output pin
      return PackedInjection{cell, static_cast<std::uint8_t>(pin),
                             rng.next_bool(), random_lanes(rng)};
    };

    for (int i = 0; i < 12; ++i) {
      const PackedInjection inj = random_injection();
      evt.add_injection(inj);
      oracle.add_injection(inj);
    }
    run_lockstep(d, evt, oracle, rng, 40);

    // Changing injections mid-run (no power-on) must invalidate event
    // state (the needs-full path) and still match the oracle.
    const PackedInjection late = random_injection();
    evt.add_injection(late);
    oracle.add_injection(late);
    run_lockstep(d, evt, oracle, rng, 20, /*power_on=*/false);

    evt.clear_injections();
    oracle.clear_injections();
    run_lockstep(d, evt, oracle, rng, 20, /*power_on=*/false);
  }
}

// ---------------------------------------------------------------------------
// Incremental (dirty-D) clocking vs the full-sweep oracle, which latches
// every flop after its sweep. Both simulators run the same stimulus in
// lockstep, with injections added and cleared mid-run (the invalidation
// paths must re-arm the dirty tracking without a power-on). Faults diverge
// per lane through random injection masks, so the dirty-D bookkeeping runs
// over diverged words.

/// Returns the incremental sim's flops_skipped count (0 on failure), so
/// the caller can assert the optimisation actually skipped work
/// somewhere across the seed sweep without betting on any single seed.
std::uint64_t clocking_lockstep(std::uint64_t seed) {
  Rng rng(seed);
  RandomDesign d = random_design(rng, 8, 18, 150);
  const auto topo = PackedTopology::build(d.nl);
  PackedSim incr(topo);
  PackedSim sweep(topo);
  sweep.set_eval_mode(PackedEvalMode::kFullSweep);
  PackedSim* const sims[] = {&incr, &sweep};

  const auto compare_all = [&](int step) {
    for (NetId n = 0; n < d.nl.num_nets(); ++n)
      ASSERT_FALSE(lane_neq(incr.value(n), sweep.value(n)))
          << "seed " << seed << ": net " << d.nl.net(n).name
          << " diverged from the sweep oracle at step " << step;
    for (CellId oc : d.output_cells)
      ASSERT_FALSE(lane_neq(incr.observed(oc), sweep.observed(oc)))
          << "seed " << seed << ": output " << d.nl.cell(oc).name
          << " diverged at step " << step;
  };

  const auto random_injection = [&] {
    const CellId cell = static_cast<CellId>(rng.next_below(d.nl.num_cells()));
    const CellType t = d.nl.cell(cell).type;
    int pin = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(num_inputs(t)) + 1));
    if (t == CellType::kOutput) pin = 1;  // kOutput has no output pin
    return PackedInjection{cell, static_cast<std::uint8_t>(pin),
                           rng.next_bool(), random_lanes(rng)};
  };

  std::uint64_t edges = 0;
  for (auto* s : sims) s->power_on();
  for (int step = 0; step < 70; ++step) {
    // Injection churn without power-on: add at 20/21, clear at 45 — the
    // invalidation paths must fall back to a full latch and re-arm.
    if (step == 20 || step == 21) {
      const PackedInjection inj = random_injection();
      for (auto* s : sims) s->add_injection(inj);
    }
    if (step == 45)
      for (auto* s : sims) s->clear_injections();
    if (step == 55)  // mid-run power-on resets the tracked state everywhere
      for (auto* s : sims) s->power_on();
    for (NetId in : d.input_nets) {
      if (rng.next_below(3) == 0) continue;  // leave some inputs unchanged
      const bool bit = rng.next_bool();
      for (auto* s : sims) s->set_input_all(in, bit);
    }
    // A bare latch leaves the next edge to latch before any settle, so
    // the flops reading a Q it flipped must be marked by the edge itself.
    if (const std::uint64_t op = rng.next_below(6); op < 2) {
      for (auto* s : sims) s->clock();
      ++edges;
    } else if (op == 2) {
      for (auto* s : sims) s->latch();
      ++edges;
    } else {
      for (auto* s : sims) s->eval();
    }
    compare_all(step);
    if (::testing::Test::HasFailure()) return 0;
  }

  // Edge accounting: each edge latches or skips every flop exactly once.
  const PackedActivity& ai = incr.activity();
  EXPECT_EQ(ai.flops_latched + ai.flops_skipped,
            edges * topo->flop_cells.size())
      << "seed " << seed;
  return ai.flops_skipped;
}

TEST(EventSim, IncrementalClockingMatchesSweepOracle) {
  std::uint64_t skipped = 0;
  for (std::uint64_t seed = 51; seed <= 56; ++seed)
    skipped += clocking_lockstep(seed);
  EXPECT_GT(skipped, 0u) << "incremental clocking never skipped a latch";
}

// ---------------------------------------------------------------------------
// Helpers of the frame-replay, retirement and read suites below.

/// A random cell of `d` whose type `accept` takes.
template <class Accept>
CellId pick_cell(Rng& rng, const RandomDesign& d, Accept&& accept) {
  std::vector<CellId> cells;
  for (CellId c = 0; c < d.nl.num_cells(); ++c)
    if (accept(d.nl.cell(c).type)) cells.push_back(c);
  return cells[rng.next_below(cells.size())];
}

bool is_comb_gate(CellType t) {
  return t != CellType::kInput && t != CellType::kOutput && !is_tie(t) &&
         !is_sequential(t);
}

// ---------------------------------------------------------------------------
// Frame replay. A frame settle reads every net no faulty lane diverges
// from out of the good machine's recorded values and evaluates only the
// divergence frontier. Frames are recorded from an uninjected run; an
// injected event sim then settles once per cycle with them, and after
// every settle and every latch it must match a full-sweep oracle on every
// net and observed output.
// Faulty lanes see their own input words, injections are re-armed per
// cycle on a comb, flop-Q, PI and PO site, and some cycles settle plainly
// between the latch and the frame settle.

/// Per-cycle lane-0 frames: the value and changed-bit words of NetFrame.
struct Frames {
  std::vector<std::vector<std::uint64_t>> value, changed;
  NetFrame at(int cycle) const {
    const auto c = static_cast<std::size_t>(cycle);
    return {cycle, value[c].data(), changed[c].data()};
  }
};

/// Random per-cycle stimulus, one bit per primary input.
std::vector<std::vector<bool>> random_stimulus(Rng& rng, const RandomDesign& d,
                                               int cycles) {
  std::vector<std::vector<bool>> stim(static_cast<std::size_t>(cycles));
  for (auto& bits : stim)
    for (std::size_t i = 0; i < d.input_nets.size(); ++i)
      bits.push_back(rng.next_bool());
  return stim;
}

/// Power-on and a settle with every input low: the shared reset.
void reset_sim(const RandomDesign& d, PackedSim& sim) {
  sim.power_on();
  for (const NetId in : d.input_nets) sim.set_input_all(in, false);
  sim.eval();
}

/// The good machine's frames under `stim`, one settle per cycle.
Frames record_frames(const RandomDesign& d,
                     std::shared_ptr<const PackedTopology> topo,
                     const std::vector<std::vector<bool>>& stim) {
  const std::size_t words = (d.nl.num_nets() + 63) / 64;
  Frames frames;
  PackedSim good(std::move(topo));
  reset_sim(d, good);
  std::vector<std::uint64_t> prev(words, 0);
  for (std::size_t c = 0; c < stim.size(); ++c) {
    for (std::size_t i = 0; i < d.input_nets.size(); ++i)
      good.set_input_all(d.input_nets[i], stim[c][i]);
    good.eval();
    std::vector<std::uint64_t> v(words, 0);
    for (NetId n = 0; n < d.nl.num_nets(); ++n)
      v[n / 64] |= static_cast<std::uint64_t>(lane_test(good.value(n), 0))
                   << (n % 64);
    std::vector<std::uint64_t> changed(words, 0);
    for (std::size_t o = 0; c > 0 && o < words; ++o)
      changed[o] = v[o] ^ prev[o];
    prev = v;
    frames.value.push_back(std::move(v));
    frames.changed.push_back(std::move(changed));
    good.latch();
  }
  return frames;
}

void frame_replay_lockstep(std::uint64_t seed, std::uint64_t& replays) {
  Rng rng(seed);
  RandomDesign d = random_design(rng, 8, 16, 150);
  const auto topo = PackedTopology::build(d.nl);
  constexpr int kCycles = 40;
  const LaneWord lane0 = lane_bit(0);

  // The good machine's stimulus, then its frames.
  const std::vector<std::vector<bool>> stim = random_stimulus(rng, d, kCycles);
  const auto reset = [&](PackedSim& sim) { reset_sim(d, sim); };
  const Frames frames = record_frames(d, topo, stim);

  PackedSim evt(topo);
  PackedSim oracle(topo);
  oracle.set_eval_mode(PackedEvalMode::kFullSweep);
  PackedSim* const sims[] = {&evt, &oracle};
  const auto faulty_lanes = [&] { return random_lanes(rng) & ~lane0; };
  const auto pick = [&](auto&& accept) { return pick_cell(rng, d, accept); };
  // Injections 0-3 are re-armed every cycle; the rest stay as added.
  const CellId sites[] = {
      pick(is_comb_gate), pick([](CellType t) { return is_sequential(t); }),
      pick([](CellType t) { return t == CellType::kInput; }),
      pick([](CellType t) { return t == CellType::kOutput; })};
  for (const CellId c : sites) {
    const std::uint8_t pin = d.nl.cell(c).type == CellType::kOutput ? 1 : 0;
    const PackedInjection inj{c, pin, rng.next_bool(), faulty_lanes()};
    for (auto* s : sims) s->add_injection(inj);
  }
  for (int i = 0; i < 10; ++i) {
    const CellId cell = static_cast<CellId>(rng.next_below(d.nl.num_cells()));
    const CellType t = d.nl.cell(cell).type;
    int pin = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(num_inputs(t)) + 1));
    if (t == CellType::kOutput) pin = 1;  // kOutput has no output pin
    const PackedInjection inj{cell, static_cast<std::uint8_t>(pin),
                              rng.next_bool(), faulty_lanes()};
    for (auto* s : sims) s->add_injection(inj);
  }

  const auto compare_all = [&](int cycle, const char* when) {
    for (NetId n = 0; n < d.nl.num_nets(); ++n)
      ASSERT_FALSE(lane_neq(evt.value(n), oracle.value(n)))
          << "seed " << seed << ": net " << d.nl.net(n).name << " diverged "
          << when << " of cycle " << cycle;
    for (CellId oc : d.output_cells)
      ASSERT_FALSE(lane_neq(evt.observed(oc), oracle.observed(oc)))
          << "seed " << seed << ": output " << d.nl.cell(oc).name
          << " diverged " << when << " of cycle " << cycle;
  };
  // Flop Qs only: latch() leaves them current, the comb nets stay stale.
  const auto compare_flops = [&](int cycle) {
    for (const CellId f : topo->flop_cells) {
      const NetId q = d.nl.cell(f).out;
      ASSERT_FALSE(lane_neq(evt.value(q), oracle.value(q)))
          << "seed " << seed << ": flop " << d.nl.net(q).name
          << " diverged after the latch of cycle " << cycle;
    }
  };

  for (auto* s : sims) reset(*s);
  const std::uint64_t replays_before = evt.activity().frame_replays;
  for (int c = 0; c < kCycles; ++c) {
    for (std::size_t i = 0; i < std::size(sites); ++i) {
      if (rng.next_below(2) == 0) continue;
      const LaneWord lanes = faulty_lanes();
      for (auto* s : sims) s->set_injection_lanes(i, lanes);
    }
    for (std::size_t i = 0; i < d.input_nets.size(); ++i) {
      // Lane 0 sees the good stimulus; faulty lanes sometimes their own.
      LaneWord w = lane_broadcast(stim[static_cast<std::size_t>(c)][i]);
      if (rng.next_below(4) == 0) w ^= faulty_lanes();
      for (auto* s : sims) s->set_input_lanes(d.input_nets[i], w);
    }
    if (c % 7 == 3) {
      // A plain settle on a sim holding frontier-only schedules.
      for (auto* s : sims) s->eval();
      compare_all(c, "after a plain settle");
    }
    const NetFrame frame = frames.at(c);
    for (auto* s : sims) s->eval(&frame);
    compare_all(c, "after the frame settle");
    for (auto* s : sims) s->latch();
    compare_flops(c);
    if (::testing::Test::HasFatalFailure()) return;
  }
  replays += evt.activity().frame_replays - replays_before;

  // A frame that disagrees with the sim's good machine throws, naming the
  // net and the cycle: on a primary input, and on an evaluated cell (the
  // injected comb site, re-armed before the corrupted settle so that the
  // replay evaluates it).
  const auto corrupted_settle_throws = [&](NetId net) {
    PackedSim sim(topo);
    reset(sim);
    Frames bad = frames;
    bad.value[2][net / 64] ^= 1ULL << (net % 64);
    const PackedInjection inj{sites[0], 0, false, faulty_lanes()};
    const LaneWord rearmed = ~inj.lanes & ~lane0;
    sim.add_injection(inj);
    for (int c = 0; c < 3; ++c) {
      for (std::size_t i = 0; i < d.input_nets.size(); ++i)
        sim.set_input_all(d.input_nets[i],
                          stim[static_cast<std::size_t>(c)][i]);
      const NetFrame frame = bad.at(c);
      if (c < 2) {
        sim.eval(&frame);
        sim.latch();
        continue;
      }
      sim.set_injection_lanes(0, rearmed);
      try {
        sim.eval(&frame);
        ADD_FAILURE() << "seed " << seed
                      << ": corrupted frame bit of net " << d.nl.net(net).name
                      << " accepted";
      } catch (const std::logic_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(d.nl.net(net).name), std::string::npos) << what;
        EXPECT_NE(what.find("cycle 2"), std::string::npos) << what;
      }
    }
    // The throw left the drain half done; the next settle starts over.
    PackedSim sweep(topo);
    sweep.set_eval_mode(PackedEvalMode::kFullSweep);
    reset(sweep);
    for (int c = 0; c < 3; ++c) {
      for (std::size_t i = 0; i < d.input_nets.size(); ++i)
        sweep.set_input_all(d.input_nets[i],
                            stim[static_cast<std::size_t>(c)][i]);
      if (c == 0) sweep.add_injection(inj);
      if (c == 2) sweep.set_injection_lanes(0, rearmed);
      sweep.eval();
      if (c < 2) sweep.latch();
    }
    sim.eval();
    for (NetId n = 0; n < d.nl.num_nets(); ++n)
      ASSERT_FALSE(lane_neq(sim.value(n), sweep.value(n)))
          << "seed " << seed << ": net " << d.nl.net(n).name
          << " stale after a frame mismatch";
  };
  corrupted_settle_throws(d.input_nets[1]);
  corrupted_settle_throws(d.nl.cell(sites[0]).out);

  // A frame settle that cannot replay (the first) settles plainly and
  // compares the whole plane with the frame: a corrupted bit on any net
  // throws, naming the net and the cycle.
  for (int k = 0; k < 4; ++k) {
    const auto net = static_cast<NetId>(rng.next_below(d.nl.num_nets()));
    PackedSim sim(topo);
    reset(sim);
    Frames bad = frames;
    bad.value[0][net / 64] ^= 1ULL << (net % 64);
    for (std::size_t i = 0; i < d.input_nets.size(); ++i)
      sim.set_input_all(d.input_nets[i], stim[0][i]);
    const NetFrame frame = bad.at(0);
    try {
      sim.eval(&frame);
      ADD_FAILURE() << "seed " << seed
                    << ": corrupted first-frame bit of net "
                    << d.nl.net(net).name << " accepted";
    } catch (const std::logic_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(d.nl.net(net).name), std::string::npos) << what;
      EXPECT_NE(what.find("cycle 0"), std::string::npos) << what;
    }
  }
}

TEST(EventSim, FrameReplayMatchesFullSweep) {
  std::uint64_t replays = 0;
  for (std::uint64_t seed = 81; seed <= 86; ++seed) {
    frame_replay_lockstep(seed, replays);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(replays, 0u) << "no frame settle replayed";
}

// A replay evaluates an injected comb cell only when its lanes or inputs
// changed: on a design whose inputs hold still, the replays after the
// fault effect settles evaluate nothing at all, and re-arming the
// injection's lanes while synced evaluates the cell again and lands on the
// full sweep's words.
void quiet_replay_lockstep() {
  // a, b -> AND -> BUF -> flop -> OR(q, a) -> o; b stays 1 and a 0.
  RandomDesign d;
  WordOps w(d.nl, "m");
  const NetId a = d.nl.add_input("a");
  const NetId b = d.nl.add_input("b");
  d.input_nets = {a, b};
  const NetId g = w.and2(a, b, "g");
  const NetId y = w.buf(g, "y");
  const NetId q = w.reg_word({y}, "q").q[0];
  const NetId z = w.or2(q, a, "z");
  d.output_cells.push_back(d.nl.add_output("o", z));
  const auto topo = PackedTopology::build(d.nl);
  constexpr int kCycles = 8;
  const std::vector<std::vector<bool>> stim(kCycles, {false, true});
  const Frames frames = record_frames(d, topo, stim);

  PackedSim evt(topo), oracle(topo);
  oracle.set_eval_mode(PackedEvalMode::kFullSweep);
  // s-a-1 on the AND's output, on lanes 1..3, later on lanes 2..5.
  const LaneWord first = lane_bit(1) | lane_bit(2) | lane_bit(3);
  const LaneWord second = lane_bit(2) | lane_bit(3) |
                      lane_bit(4) | lane_bit(5);
  for (auto* s : {&evt, &oracle}) {
    s->add_injection({d.nl.net(g).driver, 0, true, first});
    reset_sim(d, *s);
  }
  constexpr int kRearm = 5;
  for (int c = 0; c < kCycles; ++c) {
    if (c == kRearm)
      for (auto* s : {&evt, &oracle}) s->set_injection_lanes(0, second);
    for (auto* s : {&evt, &oracle})
      for (const NetId in : d.input_nets)
        s->set_input_all(in, stim[static_cast<std::size_t>(c)][in == b]);
    const NetFrame frame = frames.at(c);
    const PackedActivity before = evt.activity();
    evt.eval(&frame);
    oracle.eval(&frame);
    const std::uint64_t evaluated =
        evt.activity().cells_evaluated - before.cells_evaluated;
    // Cycle 0 settles plainly and checks the plane, the latch of cycle 0
    // diverges q, and cycle 1's replay evaluates its reader; from then on
    // nothing moves until the re-arm, which reaches the AND, the BUF and,
    // a cycle later, the OR.
    if (c >= 1) {
      EXPECT_EQ(evt.activity().frame_replays - before.frame_replays, 1u)
          << "cycle " << c;
    }
    if (c == 2 || c == 3 || c == 4 || c == kRearm + 2) {
      EXPECT_EQ(evaluated, 0u) << "cycle " << c;
    }
    if (c == kRearm) EXPECT_GE(evaluated, 2u);
    for (NetId n = 0; n < d.nl.num_nets(); ++n)
      ASSERT_FALSE(lane_neq(evt.value(n), oracle.value(n)))
          << ": net " << d.nl.net(n).name
          << " diverged at cycle " << c;
    for (const CellId oc : d.output_cells)
      ASSERT_FALSE(lane_neq(evt.observed(oc), oracle.observed(oc)))
          << ": output diverged at cycle " << c;
    evt.latch();
    oracle.latch();
  }
  // The re-armed lanes reached the flop and the output.
  EXPECT_FALSE(lane_neq(evt.value(q), second));
}

TEST(EventSim, QuietReplayEvaluatesNoInjectedCell) {
  quiet_replay_lockstep();
}

// ---------------------------------------------------------------------------
// Lane retirement. retire_lanes() hands faulty lanes back to the good
// machine right after a latch: their injections are disarmed and their
// flops take lane 0's state. Random lane sets retire on random cycles of
// an injected run (comb, flop-Q, flop-D, PI, PO and tie sites). An event
// sim, settling with frames or plainly, must match a full-sweep sim given
// the same calls on every net after every settle and on every flop Q after
// every latch and retirement, and every lane outside the retired set must
// match a sim that never retired. On `converge` runs nothing re-arms or
// re-drives a retired lane, so from the next settle on each retired lane
// equals lane 0 on every net and observed output. Otherwise re-arms reach
// retired lanes too, and every input holds a fixed per-lane difference
// (like a lane's forked RAM), so a retired flop can latch a D word that
// did not change.

void retired_lanes_lockstep(std::uint64_t seed, bool replay, bool converge,
                            std::uint64_t& retired_total) {
    Rng rng(seed);
  RandomDesign d = random_design(rng, 8, 16, 150);
  const auto topo = PackedTopology::build(d.nl);
  constexpr int kCycles = 40;
  const LaneWord lane0 = lane_bit(0);
  const std::vector<std::vector<bool>> stim = random_stimulus(rng, d, kCycles);
  const Frames frames = record_frames(d, topo, stim);

  PackedSim evt(topo), oracle(topo), kept(topo);
  oracle.set_eval_mode(PackedEvalMode::kFullSweep);
  PackedSim* const sims[] = {&evt, &oracle, &kept};
  PackedSim* const retiring[] = {&evt, &oracle};
  LaneWord retired{};
  const auto faulty_lanes = [&] {
    return random_lanes(rng) & ~lane0 & (converge ? ~retired : ~LaneWord{});
  };
  const auto pick = [&](auto&& accept) { return pick_cell(rng, d, accept); };
  const auto flop = [](CellType t) { return is_sequential(t); };
  // Injections 0-3 are re-armed on random cycles; 4 (flop D) and 5 (tie)
  // change only when their lanes retire.
  const std::pair<CellId, std::uint8_t> sites[] = {
      {pick(is_comb_gate), 0},
      {pick(flop), 0},
      {pick([](CellType t) { return t == CellType::kInput; }), 0},
      {pick([](CellType t) { return t == CellType::kOutput; }), 1},
      {pick(flop), 1},
      {pick([](CellType t) { return is_tie(t); }), 0}};
  for (const auto& [cell, pin] : sites) {
    const PackedInjection inj{cell, pin, rng.next_bool(), faulty_lanes()};
    for (auto* s : sims) s->add_injection(inj);
  }
  for (int i = 0; i < 8; ++i) {
    const CellId cell = static_cast<CellId>(rng.next_below(d.nl.num_cells()));
    const CellType t = d.nl.cell(cell).type;
    int pin = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(num_inputs(t)) + 1));
    if (t == CellType::kOutput) pin = 1;  // kOutput has no output pin
    const PackedInjection inj{cell, static_cast<std::uint8_t>(pin),
                              rng.next_bool(), faulty_lanes()};
    for (auto* s : sims) s->add_injection(inj);
  }

  const auto where = [&](int cycle, const char* when) {
    return "seed " + std::to_string(seed) + (replay ? " replay" : " plain") +
           (converge ? " converge" : "") + ": " + when + " of cycle " +
           std::to_string(cycle);
  };
  // Lanes outside the retired set are the never-retired sim's.
  const auto kept_equal = [&](const LaneWord& a, const LaneWord& b) {
    return !lane_any((a ^ b) & ~retired);
  };
  const auto good_equal = [&](const LaneWord& v) {
    return !converge ||
           !lane_any((v ^ lane_broadcast(lane_test(v, 0))) & retired);
  };
  const auto compare_nets = [&](int cycle, const char* when) {
    for (NetId n = 0; n < d.nl.num_nets(); ++n) {
      ASSERT_FALSE(lane_neq(evt.value(n), oracle.value(n)))
          << where(cycle, when) << ": net " << d.nl.net(n).name;
      ASSERT_TRUE(kept_equal(evt.value(n), kept.value(n)))
          << where(cycle, when) << ": net " << d.nl.net(n).name
          << " moved outside the retired lanes";
      ASSERT_TRUE(good_equal(evt.value(n)))
          << where(cycle, when) << ": net " << d.nl.net(n).name
          << " left the good machine on a retired lane";
    }
    for (CellId oc : d.output_cells) {
      ASSERT_FALSE(lane_neq(evt.observed(oc), oracle.observed(oc)))
          << where(cycle, when) << ": output " << d.nl.cell(oc).name;
      ASSERT_TRUE(kept_equal(evt.observed(oc), kept.observed(oc)))
          << where(cycle, when) << ": output " << d.nl.cell(oc).name;
      ASSERT_TRUE(good_equal(evt.observed(oc)))
          << where(cycle, when) << ": output " << d.nl.cell(oc).name;
    }
  };
  const auto compare_flops = [&](int cycle, const char* when) {
    for (const CellId f : topo->flop_cells) {
      const NetId q = d.nl.cell(f).out;
      ASSERT_FALSE(lane_neq(evt.value(q), oracle.value(q)))
          << where(cycle, when) << ": flop " << d.nl.net(q).name;
      ASSERT_TRUE(kept_equal(evt.value(q), kept.value(q)))
          << where(cycle, when) << ": flop " << d.nl.net(q).name;
    }
  };

  std::vector<LaneWord> held(d.input_nets.size());
  for (LaneWord& w : held)
    if (!converge && rng.next_bool()) w = faulty_lanes();
  for (auto* s : sims) reset_sim(d, *s);
  std::uint64_t retired_here = 0;
  for (int c = 0; c < kCycles; ++c) {
    for (std::size_t i = 0; i < 4; ++i) {
      if (rng.next_below(3) != 0) continue;
      const LaneWord lanes = faulty_lanes();
      for (auto* s : sims) s->set_injection_lanes(i, lanes);
    }
    for (std::size_t i = 0; i < d.input_nets.size(); ++i) {
      // Lane 0 sees the good stimulus; faulty lanes sometimes their own.
      LaneWord w =
          lane_broadcast(stim[static_cast<std::size_t>(c)][i]) ^ held[i];
      if (rng.next_below(4) == 0) w ^= faulty_lanes();
      for (auto* s : sims) s->set_input_lanes(d.input_nets[i], w);
    }
    const NetFrame frame = frames.at(c);
    for (auto* s : sims) {
      if (replay)
        ASSERT_NO_THROW(s->eval(&frame)) << where(c, "frame settle");
      else
        s->eval();
    }
    compare_nets(c, "after the settle");
    for (auto* s : sims) s->latch();
    compare_flops(c, "after the latch");
    if (rng.next_below(3) == 0) {
      const LaneWord lanes = faulty_lanes() & random_lanes(rng);
      for (auto* s : retiring) s->retire_lanes(lanes);
      retired |= lanes;
      retired_here += static_cast<std::uint64_t>(lane_count(lanes));
      compare_flops(c, "after the retirement");
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_EQ(evt.activity().lanes_retired, retired_here) << where(kCycles, "end");
  EXPECT_EQ(kept.activity().lanes_retired, 0u);
  // Retiring a lane rewrites a tie's word in place: the power-on settle
  // stays the only full sweep.
  EXPECT_EQ(evt.activity().full_sweeps, 1u) << where(kCycles, "end");
  if (replay) {
    EXPECT_GT(evt.activity().frame_replays, 0u) << where(kCycles, "end");
  }
  retired_total += retired_here;
  EXPECT_THROW(evt.retire_lanes(lane0), std::invalid_argument);
  EXPECT_THROW(evt.retire_lanes(~LaneWord{}), std::invalid_argument);
}

TEST(EventSim, RetiredLanesMatchFullSweep) {
  std::uint64_t retired = 0;
  for (std::uint64_t seed = 101; seed <= 106; ++seed) {
    for (const bool replay : {true, false}) {
      const bool converge = seed % 2 == 0;
      retired_lanes_lockstep(seed, replay, converge, retired);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  EXPECT_GT(retired, 0u) << "no lane retired";
}

// ---------------------------------------------------------------------------
// Power-on from a recorded plane. power_on(plane) skips the first settle's
// full sweep: the sim loads the good machine's first settle and evaluates
// only the divergence frontier of the injections (comb, flop-Q, flop-D,
// PI, PO and tie sites, every lane but lane 0). It follows a batch of other
// injections on the same sim, run in either mode, so nothing of that batch
// may leak. After the start and after every later settle and latch it must
// match a full-sweep sim given the same calls on every net and observed
// output, with no full sweep of its own; a full-sweep sim given the plane
// ignores it.

void power_on_start_lockstep(std::uint64_t seed) {
  Rng rng(seed);
  RandomDesign d = random_design(rng, 8, 16, 150);
  const auto topo = PackedTopology::build(d.nl);
  constexpr int kCycles = 12;
  const LaneWord lane0 = lane_bit(0);
  const std::vector<std::vector<bool>> stim = random_stimulus(rng, d, kCycles);
  PackedSim good(topo), evt(topo), oracle(topo);
  oracle.set_eval_mode(PackedEvalMode::kFullSweep);
  reset_sim(d, good);
  const std::vector<std::uint64_t> plane = good.lane0_plane();

  const auto where = [&](int cycle, const char* when) {
    return "seed " + std::to_string(seed) + ": " + when + " of cycle " +
           std::to_string(cycle);
  };
  const auto compare = [&](int cycle, const char* when) {
    for (NetId n = 0; n < d.nl.num_nets(); ++n)
      ASSERT_FALSE(lane_neq(evt.value(n), oracle.value(n)))
          << where(cycle, when) << ": net " << d.nl.net(n).name;
    for (CellId oc : d.output_cells)
      ASSERT_FALSE(lane_neq(evt.observed(oc), oracle.observed(oc)))
          << where(cycle, when) << ": output " << d.nl.cell(oc).name;
  };
  const auto inject = [&](int count) {
    const auto flop = [](CellType t) { return is_sequential(t); };
    const auto input = [](CellType t) { return t == CellType::kInput; };
    const auto output = [](CellType t) { return t == CellType::kOutput; };
    const std::pair<CellId, std::uint8_t> sites[] = {
        {pick_cell(rng, d, is_comb_gate), 0},
        {pick_cell(rng, d, flop), 0},
        {pick_cell(rng, d, flop), 1},
        {pick_cell(rng, d, input), 0},
        {pick_cell(rng, d, output), 1},
        {pick_cell(rng, d, [](CellType t) { return is_tie(t); }), 0}};
    for (auto* s : {&evt, &oracle}) s->clear_injections();
    for (int i = 0; i < count; ++i)
      for (const auto& [cell, pin] : sites) {
        const PackedInjection inj{cell, pin, rng.next_bool(),
                                  random_lanes(rng) & ~lane0};
        for (auto* s : {&evt, &oracle}) s->add_injection(inj);
      }
  };
  // A first batch leaves a frontier and pending events behind; on odd
  // seeds the event sim runs it as a full-sweep sim, which keeps none.
  inject(2);
  if (seed % 2 == 1) evt.set_eval_mode(PackedEvalMode::kFullSweep);
  for (auto* s : {&evt, &oracle}) reset_sim(d, *s);
  for (int c = 0; c < kCycles / 2; ++c) {
    for (auto* s : {&evt, &oracle}) {
      s->latch();
      for (std::size_t i = 0; i < d.input_nets.size(); ++i)
        s->set_input_all(d.input_nets[i], stim[static_cast<std::size_t>(c)][i]);
      s->eval();
    }
  }
  // A re-armed comb injection leaves its cell pending in the arena.
  const LaneWord rearmed = random_lanes(rng) & ~lane0;
  for (auto* s : {&evt, &oracle}) s->set_injection_lanes(0, rearmed);

  evt.set_eval_mode(PackedEvalMode::kEventDriven);
  inject(3);
  evt.reset_activity();
  for (auto* s : {&evt, &oracle}) {
    s->power_on(plane.data());
    for (const NetId in : d.input_nets) s->set_input_all(in, false);
    s->eval();
  }
  compare(-1, "after the start");
  for (int c = 0; c < kCycles; ++c) {
    for (auto* s : {&evt, &oracle}) s->latch();
    compare(c, "after the latch");
    for (auto* s : {&evt, &oracle}) {
      for (std::size_t i = 0; i < d.input_nets.size(); ++i)
        s->set_input_all(d.input_nets[i], stim[static_cast<std::size_t>(c)][i]);
      s->eval();
    }
    compare(c, "after the settle");
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_EQ(evt.activity().full_sweeps, 0u) << where(kCycles, "end");
  EXPECT_GT(evt.activity().cells_evaluated, 0u) << where(kCycles, "end");
}

TEST(EventSim, PowerOnPlaneStartMatchesFullSweep) {
  for (std::uint64_t seed = 301; seed <= 306; ++seed) {
    power_on_start_lockstep(seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// ---------------------------------------------------------------------------
// Reads of a replaying sim. A net that no faulty lane diverges from lies
// only in the sim's lane-0 plane, which a replay copies from the frame, so
// every read goes through it: value(), observed() and the settle log; a
// port the sim calls lane-uniform (port_uniform) must read lane 0's value
// on every lane of the oracle's observed(). An injected event sim replays
// frames whose storage is overwritten and freed right after each settle; a
// full-sweep sim gets the same calls. Their reads must agree after every
// settle, after every latch followed by a re-arm of a flop-Q injection,
// after every retirement and after an injection added mid-run, and a
// settle log attached across replayed settles must record the same
// values. A frame whose flop Q disagrees with the latch throws.

void replay_reads_lockstep(std::uint64_t seed, std::uint64_t& replays) {
  Rng rng(seed);
  RandomDesign d = random_design(rng, 8, 16, 150);
  const auto topo = PackedTopology::build(d.nl);
  constexpr int kCycles = 40;
  const LaneWord lane0 = lane_bit(0);
  const std::vector<std::vector<bool>> stim = random_stimulus(rng, d, kCycles);
  const Frames frames = record_frames(d, topo, stim);

  PackedSim evt(topo), oracle(topo);
  oracle.set_eval_mode(PackedEvalMode::kFullSweep);
  PackedSim* const sims[] = {&evt, &oracle};
  LaneWord retired{};
  const auto faulty_lanes = [&] {
    return random_lanes(rng) & ~lane0 & ~retired;
  };
  const auto pick = [&](auto&& accept) { return pick_cell(rng, d, accept); };
  // Injection 0 sits on a flop Q and is re-armed after every latch.
  const std::pair<CellId, std::uint8_t> sites[] = {
      {pick([](CellType t) { return is_sequential(t); }), 0},
      {pick(is_comb_gate), 0},
      {pick([](CellType t) { return t == CellType::kOutput; }), 1}};
  for (const auto& [cell, pin] : sites) {
    const PackedInjection inj{cell, pin, rng.next_bool(), faulty_lanes()};
    for (auto* s : sims) s->add_injection(inj);
  }

  std::size_t uniform_reads = 0, other_reads = 0;
  const auto compare = [&](int cycle, const char* when) {
    for (NetId n = 0; n < d.nl.num_nets(); ++n)
      ASSERT_FALSE(lane_neq(evt.value(n), oracle.value(n)))
          << "seed " << seed << ": net " << d.nl.net(n).name
          << " diverged " << when << " of cycle " << cycle;
    for (CellId oc : d.output_cells) {
      const LaneWord want = oracle.observed(oc);
      ASSERT_FALSE(lane_neq(evt.observed(oc), want))
          << "seed " << seed << ": output " << d.nl.cell(oc).name
          << " diverged " << when << " of cycle " << cycle;
      if (!evt.port_uniform(oc, d.nl.cell(oc).ins[0])) {
        ++other_reads;
        continue;
      }
      ++uniform_reads;
      ASSERT_FALSE(lane_neq(want, lane_broadcast(lane_test(want, 0))))
          << "seed " << seed << ": output " << d.nl.cell(oc).name
          << " called lane-uniform " << when << " of cycle " << cycle;
    }
  };

  for (auto* s : sims) reset_sim(d, *s);
  SettleLog evt_log, oracle_log;
  const std::uint64_t replays_before = evt.activity().frame_replays;
  for (int c = 0; c < kCycles; ++c) {
    if (c == 5) {
      evt.set_settle_log(&evt_log);
      oracle.set_settle_log(&oracle_log);
    }
    for (std::size_t i = 0; i < d.input_nets.size(); ++i) {
      // Lane 0 sees the good stimulus; faulty lanes sometimes their own.
      LaneWord w = lane_broadcast(stim[static_cast<std::size_t>(c)][i]);
      if (rng.next_below(4) == 0) w ^= faulty_lanes();
      for (auto* s : sims) s->set_input_lanes(d.input_nets[i], w);
    }
    {
      // The frame's storage lives only through the settle.
      const auto cc = static_cast<std::size_t>(c);
      auto value = std::make_unique<std::vector<std::uint64_t>>(frames.value[cc]);
      auto changed =
          std::make_unique<std::vector<std::uint64_t>>(frames.changed[cc]);
      const NetFrame frame{c, value->data(), changed->data()};
      for (auto* s : sims) s->eval(&frame);
      for (std::uint64_t& w : *value) w = ~w;
      for (std::uint64_t& w : *changed) w = ~w;
      value.reset();
      changed.reset();
    }
    compare(c, "after the settle");
    // A full-sweep sim re-applies a re-armed injection only when it
    // settles or latches, so it takes the re-arm just before its latch; a
    // Q-pin fault does not change what any flop latches.
    const LaneWord lanes = faulty_lanes();
    oracle.set_injection_lanes(0, lanes);
    for (auto* s : sims) s->latch();
    evt.set_injection_lanes(0, lanes);
    compare(c, "after the latch and the flop-Q re-arm");
    if (rng.next_below(3) == 0) {
      const LaneWord gone = faulty_lanes() & random_lanes(rng);
      for (auto* s : sims) s->retire_lanes(gone);
      retired |= gone;
      compare(c, "after the retirement");
    }
    if (c == 30) {
      evt.set_settle_log(nullptr);
      oracle.set_settle_log(nullptr);
      EXPECT_EQ(evt_log.seen0, oracle_log.seen0) << "seed " << seed;
      EXPECT_EQ(evt_log.seen1, oracle_log.seen1) << "seed " << seed;
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
  replays += evt.activity().frame_replays - replays_before;
  EXPECT_GT(uniform_reads, 0u) << "seed " << seed;
  EXPECT_GT(other_reads, 0u) << "seed " << seed;

  // An injection added mid-run: reads before the next settle, a latch
  // without one, and that settle (a full sweep) stay exact.
  const PackedInjection late{pick(is_comb_gate), 0, true, faulty_lanes()};
  for (auto* s : sims) s->add_injection(late);
  for (NetId n = 0; n < d.nl.num_nets(); ++n)
    ASSERT_FALSE(lane_neq(evt.value(n), oracle.value(n)))
        << "seed " << seed << ": net " << d.nl.net(n).name
        << " diverged on an injection add";
  for (auto* s : sims) s->latch();
  compare(kCycles, "after a latch before the sweep");
  for (auto* s : sims) s->eval();
  compare(kCycles, "after the sweep");

  // A flop's latched Q must agree with the next frame: a corrupted Q bit
  // throws, naming the net and the cycle.
  PackedSim sim(topo);
  reset_sim(d, sim);
  const NetId q = d.nl.cell(sites[0].first).out;
  Frames bad = frames;
  bad.value[2][q / 64] ^= 1ULL << (q % 64);
  for (int c = 0; c < 3; ++c) {
    for (std::size_t i = 0; i < d.input_nets.size(); ++i)
      sim.set_input_all(d.input_nets[i], stim[static_cast<std::size_t>(c)][i]);
    const NetFrame frame = bad.at(c);
    if (c < 2) {
      sim.eval(&frame);
      sim.latch();
      continue;
    }
    try {
      sim.eval(&frame);
      ADD_FAILURE() << "seed " << seed
                    << ": corrupted frame bit of flop " << d.nl.net(q).name
                    << " accepted";
    } catch (const std::logic_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(d.nl.net(q).name), std::string::npos) << what;
      EXPECT_NE(what.find("cycle 2"), std::string::npos) << what;
    }
  }
}

TEST(EventSim, ReplayKeepsEveryReadExact) {
  std::uint64_t replays = 0;
  for (std::uint64_t seed = 121; seed <= 126; ++seed) {
    replay_reads_lockstep(seed, replays);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(replays, 0u) << "no frame settle replayed";
}

// ---------------------------------------------------------------------------
// The reference tracer against a simulator that shares no code with the
// packed kernel. record_reference_trace must agree
// net for net and cycle by cycle with the 4-valued Simulator given the
// same reset and stimulus, wherever the Simulator's value is known: the
// packed kernel powers on to 0, one resolution of the Simulator's X, and a
// known 4-valued value holds under every resolution. The sweep oracle
// shares the lane-0 plane with the event kernel; this check does not.

/// Checks one design; returns the share of net-cycles the Simulator knew
/// (0 on failure).
double trace_matches_four_valued(std::uint64_t seed) {
  Rng rng(seed);
  RandomDesign d = random_design(rng, 8, 16, 150);
  constexpr int kCycles = 40;
  const std::vector<std::vector<bool>> stim = random_stimulus(rng, d, kCycles);
  ResetThenScriptEnv env(d.input_nets, stim);
  const FaultUniverse u(d.nl);
  SequentialFaultSimulator tracer(d.nl, u);
  const ReferenceTrace trace = tracer.record_reference_trace(env, kCycles);
  EXPECT_EQ(trace.cycles, kCycles) << "seed " << seed;

  Simulator ref(d.nl);
  ref.power_on();
  for (const NetId in : d.input_nets) ref.set_input(in, false);
  ref.eval();
  ref.clock();
  ref.clock();
  std::size_t known = 0;
  for (int c = 0; c < kCycles; ++c) {
    for (std::size_t i = 0; i < d.input_nets.size(); ++i)
      ref.set_input(d.input_nets[i], stim[static_cast<std::size_t>(c)][i]);
    ref.eval();
    for (NetId n = 0; n < d.nl.num_nets(); ++n) {
      const Logic v = ref.value(n);
      if (!is_known(v)) continue;
      ++known;
      if (trace.net_bit(c, n) != (v == Logic::V1)) {
        ADD_FAILURE() << "seed " << seed << ": net "
                      << d.nl.net(n).name << " traced "
                      << trace.net_bit(c, n) << " on cycle " << c
                      << ", the 4-valued simulator holds " << logic_char(v);
        return 0;
      }
    }
    ref.clock();
  }
  return static_cast<double>(known) /
         static_cast<double>(d.nl.num_nets() * kCycles);
}

TEST(ReferenceTrace, LaneZeroMatchesTheFourValuedSimulator) {
  for (std::uint64_t seed = 141; seed <= 146; ++seed) {
    // The reset and the stimulus resolve almost every net, so the check
    // is far from vacuous.
    EXPECT_GT(trace_matches_four_valued(seed), 0.9) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Release-safe argument checks: the input setters accept only nets a
// primary input drives, set_injection_lanes only existing handles, and
// observed() only output port cells and an applied injection set.

void expect_setters_reject_bad_arguments() {
  Rng rng(91);
  RandomDesign d = random_design(rng, 4, 4, 30);
  const NetId floating = d.nl.add_net("floating");
  PackedSim sim(d.nl);
  const auto rejects = [&](NetId net, const std::string& name) {
    for (const bool lanes : {false, true}) {
      try {
        if (lanes)
          sim.set_input_lanes(net, LaneWord{});
        else
          sim.set_input_all(net, true);
        ADD_FAILURE() << ": drove " << name;
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
            << e.what();
      }
    }
  };
  rejects(floating, "floating");
  rejects(d.nl.find_net("g0"), "g0");  // gate-driven
  rejects(d.nl.find_net("q0"), "q0");  // flop-driven
  rejects(static_cast<NetId>(d.nl.num_nets()), std::to_string(d.nl.num_nets()));
  EXPECT_NO_THROW(sim.set_input_all(d.input_nets[0], true));

  EXPECT_THROW(sim.set_injection_lanes(0, LaneWord{}), std::out_of_range);
  sim.add_injection({d.nl.net(d.nl.find_net("g0")).driver, 0, true,
                     lane_bit(1)});
  EXPECT_NO_THROW(sim.set_injection_lanes(0, lane_bit(2)));
  EXPECT_THROW(sim.set_injection_lanes(1, LaneWord{}), std::out_of_range);

  // observed() reads a port cell's input net: an id past the cells, or a
  // cell with no input such as an input port, is refused by name.
  const auto rejects_observed = [&](CellId cell, const std::string& name) {
    try {
      sim.observed(cell);
      ADD_FAILURE() << ": observed " << name;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
          << e.what();
    }
  };
  const auto cells = static_cast<CellId>(d.nl.num_cells());
  rejects_observed(cells, std::to_string(cells));
  const CellId input_port = d.nl.net(d.input_nets[0]).driver;
  rejects_observed(input_port, d.nl.cell(input_port).name);

  // observed() before a changed injection set is applied would miss a port
  // fault, in every build.
  const CellId port = d.output_cells[0];
  EXPECT_THROW(sim.observed(port), std::logic_error);
  sim.eval();
  EXPECT_NO_THROW(sim.observed(port));
  sim.add_injection({port, 1, true, lane_bit(1)});
  try {
    sim.observed(port);
    ADD_FAILURE() << ": observed() missed a pending port fault";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find(d.nl.cell(port).name),
              std::string::npos)
        << e.what();
  }
  sim.latch();
  EXPECT_TRUE(lane_test(sim.observed(port), 1));
}

TEST(EventSim, SettersRejectBadArguments) {
  expect_setters_reject_bad_arguments();
}

// ---------------------------------------------------------------------------
// Batches vs a naive single-fault oracle, under both fault models. The
// oracle runs one fault at a time through two plain simulators: a good
// run recording the site's value and every observed output per cycle,
// then a faulty run that re-injects the full stuck record from scratch
// (clear + add, the always-full-sweep path) on every cycle it is armed:
// every cycle for stuck-at, and for a transition fault exactly the
// capture cycles the good run launched. The traced run_batch must
// reproduce its verdict fault-for-fault with either kernel, each grading
// against a trace recorded on itself.

/// Single-fault oracle over the scripted stimulus; returns detected.
bool naive_detects(const RandomDesign& d, const FaultUniverse& u, FaultId id,
                   const std::vector<std::vector<bool>>& words,
                   FaultModel model) {
  const Fault& f = u.fault(id);
  const NetId site = tdf_site_net(d.nl, f);
  const bool rise = tdf_slow_to_rise(f);

  const auto drive = [&](PackedSim& sim, const std::vector<bool>& w) {
    for (std::size_t i = 0; i < d.input_nets.size(); ++i)
      sim.set_input_all(d.input_nets[i], w[i]);
  };

  // Good run: per-cycle site value and observed outputs.
  PackedSim good(d.nl);
  good.power_on();
  for (NetId in : d.input_nets) good.set_input_all(in, false);
  good.eval();
  std::vector<bool> site_good;
  std::vector<std::vector<bool>> out_good;
  for (const std::vector<bool>& w : words) {
    drive(good, w);
    good.eval();
    site_good.push_back(lane_test(good.value(site), 0));
    std::vector<bool> outs;
    for (CellId oc : d.output_cells)
      outs.push_back(lane_test(good.observed(oc), 0));
    out_good.push_back(std::move(outs));
    good.clock();
  }

  // Faulty run: rebuild the injection set from scratch every cycle.
  PackedSim bad(d.nl);
  bad.power_on();
  for (NetId in : d.input_nets) bad.set_input_all(in, false);
  bad.eval();
  for (std::size_t c = 0; c < words.size(); ++c) {
    const bool armed =
        model == FaultModel::kStuckAt ||
        (c > 0 && (rise ? (!site_good[c - 1] && site_good[c])
                        : (site_good[c - 1] && !site_good[c])));
    bad.clear_injections();
    if (armed) bad.add_injection({f.pin.cell, f.pin.pin, f.sa1, ~LaneWord{}});
    drive(bad, words[c]);
    bad.eval();
    for (std::size_t k = 0; k < d.output_cells.size(); ++k)
      if (lane_test(bad.observed(d.output_cells[k]), 0) != out_good[c][k])
        return true;
    bad.clock();
  }
  return false;
}

TEST(SeqFsim, BatchMatchesNaiveSingleFaultOracle) {
  for (std::uint64_t seed = 21; seed <= 24; ++seed) {
    Rng rng(seed);
    RandomDesign d = random_design(rng, 6, 10, 70);
    const FaultUniverse u(d.nl);

    const int cycles = 24;
    std::vector<std::vector<bool>> words(static_cast<std::size_t>(cycles));
    for (auto& w : words) {
      w.resize(d.input_nets.size());
      for (std::size_t i = 0; i < w.size(); ++i) w[i] = rng.next_bool();
    }
    ScriptedEnv env(d.input_nets, words);

    SequentialFaultSimulator evt(d.nl, u);
    evt.set_observed(d.output_cells);
    SequentialFaultSimulator sweep(d.nl, u);
    sweep.sim().set_eval_mode(PackedEvalMode::kFullSweep);
    sweep.set_observed(d.output_cells);
    const ReferenceTrace evt_trace = evt.record_reference_trace(env, cycles);
    const ReferenceTrace sweep_trace =
        sweep.record_reference_trace(env, cycles);

    for (const FaultModel model :
         {FaultModel::kStuckAt, FaultModel::kTransition}) {
      for (FaultId base = 0; base < u.size(); base += kLanes - 1) {
        const std::size_t n =
            std::min<std::size_t>(kLanes - 1, u.size() - base);
        std::vector<FaultId> batch(n);
        std::iota(batch.begin(), batch.end(), base);
        const std::string ctx = "seed " + std::to_string(seed) + " " +
                                std::string(to_string(model));

        const LaneMask det_evt = evt.run_batch(batch, env, evt_trace, model);
        const LaneMask det_sweep =
            sweep.run_batch(batch, env, sweep_trace, model);
        ASSERT_EQ(det_evt, det_sweep) << ctx << " base " << base;

        for (std::size_t i = 0; i < n; ++i) {
          const bool oracle = naive_detects(d, u, batch[i], words, model);
          ASSERT_EQ(det_evt.bit(static_cast<int>(i)), oracle)
              << ctx << " "
              << (model == FaultModel::kTransition
                      ? tdf_fault_name(u, batch[i])
                      : u.fault_name(batch[i]));
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Campaign determinism on the persistent worker pool, kernel switched
// either way. Small counter rig (mirrors campaign_test's) graded at
// 1/2/4/8 threads.

constexpr int kBits = 10;
constexpr int kCycles = 30;

struct CounterRig {
  Netlist nl{"t"};
  NetId en;
  std::vector<CellId> outputs;

  CounterRig() {
    WordOps w(nl, "m");
    en = nl.add_input("en");
    RegWord cnt = w.reg_declare(kBits, "cnt");
    const auto inc = w.add_word(cnt.q, w.constant(1, kBits), w.lit(false), "inc");
    const Bus d = w.mux_word(en, cnt.q, inc.sum, "d");
    w.reg_connect(cnt, d);
    for (int i = 0; i < kBits; ++i)
      outputs.push_back(nl.add_output("o" + std::to_string(i), cnt.q[i]));
  }
};

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

 private:
  NetId en_;
};

class RigBatchRunner final : public FaultBatchRunner {
 public:
  RigBatchRunner(const CounterRig& rig, const FaultUniverse& u,
                 std::shared_ptr<const ReferenceTrace> trace, bool event_driven,
                 FaultModel model)
      : env_(rig.en),
        fsim_(rig.nl, u),
        trace_(std::move(trace)),
        model_(model) {
    if (!event_driven) fsim_.sim().set_eval_mode(PackedEvalMode::kFullSweep);
    fsim_.set_observed(rig.outputs);
  }
  LaneMask run_batch(std::span<const FaultId> faults) override {
    return fsim_.run_batch(faults, env_, *trace_, model_);
  }

 private:
  CounterEnv env_;
  SequentialFaultSimulator fsim_;
  std::shared_ptr<const ReferenceTrace> trace_;
  FaultModel model_;
};

CampaignTest make_rig_test(const CounterRig& rig, const FaultUniverse& u,
                           bool event_driven,
                           FaultModel model = FaultModel::kStuckAt) {
  CounterEnv trace_env(rig.en);
  SequentialFaultSimulator tracer(rig.nl, u);
  if (!event_driven) tracer.sim().set_eval_mode(PackedEvalMode::kFullSweep);
  tracer.set_observed(rig.outputs);
  auto trace = std::make_shared<const ReferenceTrace>(
      tracer.record_reference_trace(trace_env, kCycles));
  CampaignTest test;
  test.name = event_driven ? "event" : "sweep";
  test.good_cycles = kCycles;
  test.make_runner = [&rig, &u, trace = std::move(trace), event_driven,
                      model]() {
    return std::make_unique<RigBatchRunner>(rig, u, trace, event_driven,
                                            model);
  };
  return test;
}

TEST(EventSim, CampaignDeterministicAcrossPoolSizesAndKernels) {
  CounterRig rig;
  const FaultUniverse u(rig.nl);
  ASSERT_GT(u.size(), 63u * 4) << "rig too small to shard meaningfully";

  CampaignResult reference;
  for (const bool event_driven : {true, false}) {
    std::vector<CampaignTest> tests;
    tests.push_back(make_rig_test(rig, u, event_driven));
    for (const int threads : {1, 2, 4, 8}) {
      FaultList fl(u);
      const CampaignResult r =
          CampaignEngine(u, {.threads = threads}).run(fl, tests);
      if (event_driven && threads == 1) {
        reference = r;
        EXPECT_GT(r.total_new_detections, 0u);
      } else {
        // Same detection payload regardless of pool size AND kernel.
        EXPECT_EQ(r.detected, reference.detected)
            << "kernel=" << (event_driven ? "event" : "sweep")
            << " threads=" << threads;
        EXPECT_EQ(r.total_new_detections, reference.total_new_detections);
      }
      // Per-shard wall times landed for every shard of every test.
      std::size_t shards = 0;
      for (const auto& pt : r.tests) shards += pt.batches;
      EXPECT_EQ(r.stats.shard_seconds.size(), shards);
    }
  }
}

TEST(TdfSim, CampaignDeterministicAcrossPoolSizesAndKernels) {
  // The acceptance bar for the TDF runner: bit-identical campaign results
  // across 1/2/4/8 threads AND both kernels, exactly like stuck-at.
  CounterRig rig;
  const FaultUniverse u(rig.nl);

  CampaignResult reference;
  for (const bool event_driven : {true, false}) {
    std::vector<CampaignTest> tests;
    tests.push_back(
        make_rig_test(rig, u, event_driven, FaultModel::kTransition));
    for (const int threads : {1, 2, 4, 8}) {
      FaultList fl(u);
      const CampaignResult r =
          CampaignEngine(u, {.threads = threads,
                             .fault_model = FaultModel::kTransition})
              .run(fl, tests);
      EXPECT_EQ(r.fault_model, FaultModel::kTransition);
      if (event_driven && threads == 1) {
        reference = r;
        EXPECT_GT(r.total_new_detections, 0u);
      } else {
        // Same detection payload regardless of pool size AND kernel (the
        // tests differ by display name, so compare the payload fields).
        EXPECT_EQ(r.detected, reference.detected)
            << "kernel=" << (event_driven ? "event" : "sweep")
            << " threads=" << threads;
        EXPECT_EQ(r.total_new_detections, reference.total_new_detections);
        EXPECT_EQ(r.classes, reference.classes);
      }
    }
  }
  // Empirical sanity check on this fixed rig: TDF detects no more than
  // stuck-at. NOT a theorem — an always-armed stuck fault corrupts state
  // from cycle 0 and can be sequentially masked where the single-capture
  // TDF effect is not — but on this deterministic rig the counts hold,
  // and a TDF runner suddenly out-detecting stuck-at here would almost
  // certainly be an arming bug.
  std::vector<CampaignTest> sa_tests;
  sa_tests.push_back(make_rig_test(rig, u, true));
  FaultList sa_fl(u);
  const CampaignResult sa =
      CampaignEngine(u, {.threads = 2}).run(sa_fl, sa_tests);
  EXPECT_LE(reference.total_new_detections, sa.total_new_detections);
}

/// The same engine (and therefore the same parked pool) must survive many
/// grade() calls — the scan-ATPG usage pattern that motivated the pool.
TEST(EventSim, PersistentPoolSurvivesRepeatedGrades) {
  CounterRig rig;
  const FaultUniverse u(rig.nl);
  const CampaignTest test = make_rig_test(rig, u, true);
  const CampaignEngine engine(u, {.threads = 4});

  std::vector<FaultId> targets;
  for (FaultId f = 0; f < u.size(); ++f) targets.push_back(f);
  const BitVec first = engine.grade(targets, test);
  EXPECT_GT(first.count(), 0u);
  for (int i = 0; i < 10; ++i)
    ASSERT_EQ(engine.grade(targets, test), first) << "grade call " << i;
}

}  // namespace
}  // namespace olfui
