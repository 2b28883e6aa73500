// Manufacturing-mode scan testing — the other half of the paper's claim:
// faults that are on-line functionally untestable ARE testable while the
// scan/debug structures are still accessible.
#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "atpg/podem.hpp"
#include "core/analyzer.hpp"
#include "netlist/wordops.hpp"
#include "scan/pattern_io.hpp"
#include "scan/scan_atpg.hpp"
#include "scan/scan_test.hpp"
#include "util/rng.hpp"

namespace olfui {
namespace {

struct Rig {
  std::unique_ptr<Soc> soc;
  std::unique_ptr<FaultUniverse> universe;
  ScanChains chains;

  Rig() {
    SocConfig cfg;
    cfg.cpu.with_multiplier = false;
    cfg.cpu.btb_entries = 1;
    cfg.scan.num_chains = 2;
    cfg.with_debug = false;
    soc = build_soc(cfg);
    universe = std::make_unique<FaultUniverse>(soc->netlist);
    chains = trace_scan(soc->netlist);
  }

  ScanTestRunner make_runner() const {
    ScanTestRunner runner(soc->netlist, chains);
    // Release reset during test so DFFR chain positions can hold data.
    runner.set_pin_constraint(soc->cpu.rstn, true);
    return runner;
  }
};

TEST(ScanPatternFromAtpg, SplitsPiAndChainState) {
  Rig rig;
  AtpgPattern atpg;
  // One PI and one flop assignment.
  const NetId pi = rig.soc->netlist.find_input("rstn");
  const CellId flop = rig.chains.chains[0].elements[3].flop;
  atpg.assignment[pi] = true;
  atpg.assignment[rig.soc->netlist.cell(flop).out] = true;
  const ScanPattern pat =
      scan_pattern_from_atpg(rig.soc->netlist, rig.chains, atpg);
  EXPECT_EQ(pat.pi.at(pi), true);
  EXPECT_TRUE(pat.chain_state[0][3]);
  EXPECT_FALSE(pat.chain_state[0][2]);
}

TEST(ScanTest, ChainTestDetectsSerialPathFaults) {
  Rig rig;
  ScanTestRunner runner = rig.make_runner();
  // Every SI-branch fault of the first chain must fail the flush test.
  std::vector<FaultId> faults;
  for (const ScanElement& e : rig.chains.chains[0].elements) {
    faults.push_back(rig.universe->id_of({e.mux, kMuxB + 1}, false));
    faults.push_back(rig.universe->id_of({e.mux, kMuxB + 1}, true));
    if (faults.size() >= 60) break;
  }
  const LaneMask det = runner.run_chain_test(faults, *rig.universe);
  for (std::size_t i = 0; i < faults.size(); ++i)
    EXPECT_TRUE(det.bit(static_cast<int>(i)))
        << rig.universe->fault_name(faults[i]);
}

TEST(ScanTest, SpanWiderThan255FaultsThrows) {
  // Lane 0 is the good machine: a 256th fault has no lane, so both kernels
  // refuse the span (naming its size) instead of shifting past the word.
  Rig rig;
  ScanTestRunner runner = rig.make_runner();
  std::vector<FaultId> faults(kLanes);
  std::iota(faults.begin(), faults.end(), 0u);
  const ScanPattern pattern =
      scan_pattern_from_atpg(rig.soc->netlist, rig.chains, AtpgPattern{});
  for (const bool chain : {true, false}) {
    try {
      if (chain)
        runner.run_chain_test(faults, *rig.universe);
      else
        runner.run_pattern(faults, *rig.universe, pattern);
      ADD_FAILURE() << "256-fault span accepted (chain=" << chain << ")";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("256 faults"), std::string::npos)
          << e.what();
    }
  }
  // 255 faults still fit one pass.
  faults.pop_back();
  EXPECT_NO_THROW(runner.run_chain_test(faults, *rig.universe));
}

TEST(ScanTest, ChainTestDetectsBufferAndScanOutFaults) {
  Rig rig;
  ScanTestRunner runner = rig.make_runner();
  std::vector<FaultId> faults;
  for (const ScanChain& chain : rig.chains.chains) {
    for (const ScanElement& e : chain.elements)
      for (CellId buf : e.link_buffers) {
        faults.push_back(rig.universe->id_of({buf, 0}, false));
        faults.push_back(rig.universe->id_of({buf, 0}, true));
      }
    for (CellId buf : chain.tail_buffers) {
      faults.push_back(rig.universe->id_of({buf, 1}, false));
      faults.push_back(rig.universe->id_of({buf, 1}, true));
    }
    faults.push_back(rig.universe->id_of({chain.scan_out_port, 1}, false));
    faults.push_back(rig.universe->id_of({chain.scan_out_port, 1}, true));
  }
  std::size_t missed = 0;
  for (std::size_t i = 0; i < faults.size(); i += kLanes - 1) {
    const std::size_t n = std::min<std::size_t>(kLanes - 1, faults.size() - i);
    const LaneMask det =
        runner.run_chain_test(std::span(faults).subspan(i, n), *rig.universe);
    for (std::size_t j = 0; j < n; ++j)
      if (!det.bit(static_cast<int>(j))) ++missed;
  }
  EXPECT_EQ(missed, 0u);
}

TEST(ScanTest, ChainTestDetectsScanEnableStuckFunctional) {
  // SE stuck at the functional value stops the chain from shifting at that
  // flop: the flush pattern never reaches scan-out intact.
  Rig rig;
  ScanTestRunner runner = rig.make_runner();
  std::vector<FaultId> faults;
  for (const ScanElement& e : rig.chains.chains[0].elements) {
    faults.push_back(rig.universe->id_of(
        {e.mux, kMuxS + 1}, rig.chains.se_functional_value));
    if (faults.size() >= 50) break;
  }
  const LaneMask det = runner.run_chain_test(faults, *rig.universe);
  for (std::size_t i = 0; i < faults.size(); ++i)
    EXPECT_TRUE(det.bit(static_cast<int>(i)))
        << rig.universe->fault_name(faults[i]);
}

TEST(ScanTest, FullScanPatternDetectsFunctionalLogicFault) {
  // PODEM test for an ALU-cone fault, applied through the chains.
  Rig rig;
  Podem podem(rig.soc->netlist, *rig.universe, {.backtrack_limit = 50000});
  // Pick the first adder cell of the ALU.
  CellId target = kInvalidId;
  for (CellId c = 0; c < rig.soc->netlist.num_cells(); ++c) {
    if (rig.soc->netlist.cell(c).name.find("alu/adder_sum") != std::string::npos) {
      target = c;
      break;
    }
  }
  ASSERT_NE(target, kInvalidId);
  std::size_t applied = 0, detected = 0;
  std::vector<FaultId> ids;
  rig.universe->faults_of_cell(target, ids);
  ScanTestRunner runner = rig.make_runner();
  for (FaultId f : ids) {
    const AtpgResult r = podem.run(f);
    if (r.outcome != AtpgOutcome::kTestFound) continue;
    ++applied;
    const ScanPattern pat =
        scan_pattern_from_atpg(rig.soc->netlist, rig.chains, *r.pattern);
    detected += runner.run_pattern(std::span(&f, 1), *rig.universe, pat).bit(0);
  }
  ASSERT_GT(applied, 0u);
  EXPECT_EQ(detected, applied);
}

TEST(ScanTest, OnlineUntestableScanFaultsAreManufacturingTestable) {
  // The paper's central statement, demonstrated end to end: sample faults
  // the on-line flow prunes as scan-class and show the manufacturing
  // chain test catches them.
  Rig rig;
  FaultList fl(*rig.universe);
  prune_scan_faults(rig.chains, *rig.universe, fl);
  Rng rng(99);
  std::vector<FaultId> pruned;
  for (FaultId f = 0; f < fl.size(); ++f)
    if (fl.online_source(f) == OnlineSource::kScan) pruned.push_back(f);
  ASSERT_FALSE(pruned.empty());

  // SE-branch ties are untestable-by-definition even for the tester (the
  // fault value equals the tied value only in mission mode; during scan
  // test SE toggles, so they are detectable). Chain-test a random sample.
  ScanTestRunner runner = rig.make_runner();
  std::vector<FaultId> sample;
  for (int i = 0; i < 50; ++i)
    sample.push_back(pruned[rng.next_below(pruned.size())]);
  const LaneMask det = runner.run_chain_test(sample, *rig.universe);
  std::size_t hits = 0;
  for (std::size_t i = 0; i < sample.size(); ++i)
    if (det.bit(static_cast<int>(i))) ++hits;
  // The flush test alone catches the overwhelming majority; SE stem-style
  // faults may need capture patterns, so allow a small remainder.
  EXPECT_GT(hits, sample.size() * 8 / 10)
      << "only " << hits << "/" << sample.size()
      << " pruned scan faults caught by the chain test";
}

TEST(ScanAtpg, FlowReachesHighCoverageOnSmallCore) {
  // Full manufacturing flow on a lean netlist: chain test + random +
  // deterministic phases must together cover most of the universe. The
  // counts are pinned as one data row: the span width the flow grades at
  // must move none of them.
  struct Row {
    std::size_t chain, random, deterministic, proven_untestable, aborted,
        patterns;
  };
  const Row want = {6404, 10133, 190, 99, 0, 110};
  SocConfig cfg;
  cfg.cpu.with_multiplier = false;
  cfg.cpu.btb_entries = 1;
  cfg.scan.num_chains = 8;
  cfg.with_debug = false;
  auto soc = build_soc(cfg);
  const FaultUniverse u(soc->netlist);
  FaultList fl(u);
  const ScanChains chains = trace_scan(soc->netlist);
  ScanAtpgOptions opts;
  opts.random_patterns = 24;
  opts.max_deterministic_targets = 200;
  opts.pin_constraints = {{soc->cpu.rstn, true}};
  const ScanAtpgResult r = generate_scan_tests(soc->netlist, chains, u, fl, opts);
  EXPECT_EQ(r.detected_by_chain_test, want.chain);
  EXPECT_EQ(r.detected_by_random, want.random);
  EXPECT_EQ(r.detected_by_deterministic, want.deterministic);
  EXPECT_EQ(r.proven_untestable, want.proven_untestable);
  EXPECT_EQ(r.aborted, want.aborted);
  EXPECT_EQ(r.patterns.size(), want.patterns);
  EXPECT_GT(fl.raw_coverage(), 0.5);
  EXPECT_EQ(r.total_detected(), fl.count_detected());
}

TEST(ScanAtpg, ComposesWithPriorDetections) {
  SocConfig cfg;
  cfg.cpu.with_multiplier = false;
  cfg.cpu.btb_entries = 1;
  cfg.scan.num_chains = 8;
  cfg.with_debug = false;
  auto soc = build_soc(cfg);
  const FaultUniverse u(soc->netlist);
  FaultList fl(u);
  // Pre-mark a slab of faults detected: the flow must not count them again.
  for (FaultId f = 0; f < 500; ++f) fl.set_detected(f);
  ScanAtpgOptions opts;
  opts.random_patterns = 4;
  opts.max_deterministic_targets = 0;
  opts.pin_constraints = {{soc->cpu.rstn, true}};
  const ScanChains chains = trace_scan(soc->netlist);
  const ScanAtpgResult r = generate_scan_tests(soc->netlist, chains, u, fl, opts);
  EXPECT_EQ(fl.count_detected(), 500u + r.total_detected());
}

TEST(ScanAtpg, RedundancyProofsLandInFaultList) {
  // A netlist with a known redundant cone: y = a | (a & b).
  Netlist nl("t");
  WordOps w(nl, "m");
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId ab = w.and2(a, b, "ab");
  const NetId y = w.or2(a, ab, "y");
  RegWord r0 = w.reg_word({y}, "r0");
  nl.add_output("o", r0.q[0]);
  const ScanChains chains = insert_scan(nl, {.num_chains = 1});
  const FaultUniverse u(nl);
  FaultList fl(u);
  const ScanAtpgResult r = generate_scan_tests(nl, chains, u, fl,
                                               ScanAtpgOptions{.random_patterns = 8, .seed = 1, .max_deterministic_targets = 4000, .backtrack_limit = 2000, .pin_constraints = {}});
  EXPECT_GE(r.proven_untestable, 1u);
  const CellId g = nl.net(ab).driver;
  // The redundant s-a-0 is either detected-never nor testable: it must be
  // marked redundant (or remain open if collapsing chose a sibling rep).
  bool redundant_found = false;
  for (FaultId f = 0; f < u.size(); ++f)
    redundant_found |= fl.untestable_kind(f) == UntestableKind::kRedundant;
  EXPECT_TRUE(redundant_found);
  (void)g;
}

TEST(PatternIo, RoundTripPreservesPatterns) {
  Rig rig;
  Rng rng(4);
  std::vector<ScanPattern> pats;
  for (int p = 0; p < 3; ++p) {
    ScanPattern pat;
    pat.pi[rig.soc->netlist.find_input("rstn")] = rng.next_bool();
    pat.pi[rig.soc->netlist.find_input("instr_i3")] = rng.next_bool();
    for (const ScanChain& chain : rig.chains.chains) {
      std::vector<bool> bits(chain.elements.size());
      for (std::size_t k = 0; k < bits.size(); ++k) bits[k] = rng.next_bool();
      pat.chain_state.push_back(std::move(bits));
    }
    pats.push_back(std::move(pat));
  }
  const std::string text = write_patterns(rig.soc->netlist, pats);
  const auto back = read_patterns(rig.soc->netlist, text);
  ASSERT_EQ(back.size(), pats.size());
  for (std::size_t p = 0; p < pats.size(); ++p) {
    EXPECT_EQ(back[p].pi, pats[p].pi) << p;
    EXPECT_EQ(back[p].chain_state, pats[p].chain_state) << p;
  }
}

TEST(PatternIo, ReplayedPatternDetectsSameFault) {
  Rig rig;
  Podem podem(rig.soc->netlist, *rig.universe, {.backtrack_limit = 20000});
  // Find a testable fault and its pattern.
  FaultId target = 0;
  ScanPattern pat;
  bool found = false;
  for (FaultId f = 100; f < rig.universe->size() && !found; f += 17) {
    const AtpgResult r = podem.run(f);
    if (r.outcome == AtpgOutcome::kTestFound) {
      target = f;
      pat = scan_pattern_from_atpg(rig.soc->netlist, rig.chains, *r.pattern);
      found = true;
    }
  }
  ASSERT_TRUE(found);
  const std::string text = write_patterns(rig.soc->netlist, {pat});
  const auto back = read_patterns(rig.soc->netlist, text);
  ScanTestRunner runner = rig.make_runner();
  const LaneMask d1 =
      runner.run_pattern(std::span(&target, 1), *rig.universe, pat);
  const LaneMask d2 =
      runner.run_pattern(std::span(&target, 1), *rig.universe, back[0]);
  EXPECT_EQ(d1.bit(0), d2.bit(0));
}

TEST(PatternIo, ErrorsCarryLineNumbers) {
  Rig rig;
  try {
    read_patterns(rig.soc->netlist, "pattern 0\n  pi nonexistent 1\nend\n");
    FAIL() << "expected PatternIoError";
  } catch (const PatternIoError& e) {
    EXPECT_EQ(e.line(), 2);
  }
  EXPECT_THROW(read_patterns(rig.soc->netlist, "end\n"), PatternIoError);
  EXPECT_THROW(read_patterns(rig.soc->netlist, "pattern 0\n"), PatternIoError);
  EXPECT_THROW(read_patterns(rig.soc->netlist, "pattern 0\n  chain 0 012\nend\n"),
               PatternIoError);
}

}  // namespace
}  // namespace olfui
