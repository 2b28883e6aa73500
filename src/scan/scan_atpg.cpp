#include "scan/scan_atpg.hpp"

#include <unordered_map>

#include "atpg/podem.hpp"
#include "util/rng.hpp"

namespace olfui {
namespace {

/// Equivalence-class helper: grading runs on class representatives only
/// and detection is propagated to every member (equivalent faults are
/// detected by exactly the same tests).
class ClassMap {
 public:
  ClassMap(const FaultUniverse& universe)
      : map_(universe.collapse_map()) {
    for (FaultId f = 0; f < map_.size(); ++f) members_[map_[f]].push_back(f);
  }

  FaultId rep(FaultId f) const { return map_[f]; }

  void mark_class_detected(FaultList& fl, FaultId rep_id,
                           std::size_t& counter) const {
    for (FaultId m : members_.at(rep_id)) {
      if (fl.detect_state(m) == DetectState::kUndetected &&
          fl.untestable_kind(m) == UntestableKind::kNone) {
        fl.set_detected(m);
        ++counter;
      }
    }
  }

 private:
  std::vector<FaultId> map_;
  std::unordered_map<FaultId, std::vector<FaultId>> members_;
};

/// Open (undetected, not untestable) class representatives.
std::vector<FaultId> open_reps(const FaultList& fl, const ClassMap& classes) {
  std::vector<FaultId> out;
  for (FaultId f = 0; f < fl.size(); ++f) {
    if (classes.rep(f) != f) continue;
    if (fl.detect_state(f) == DetectState::kUndetected &&
        fl.untestable_kind(f) == UntestableKind::kNone)
      out.push_back(f);
  }
  return out;
}

ScanPattern random_pattern(const Netlist& nl, const ScanChains& chains,
                           Rng& rng,
                           const std::vector<std::pair<NetId, bool>>& pins) {
  ScanPattern p;
  for (CellId ic : nl.input_cells()) {
    const NetId n = nl.cell(ic).out;
    if (n == chains.se_net) continue;
    p.pi[n] = rng.next_bool();
  }
  for (auto [net, value] : pins) p.pi[net] = value;
  for (const ScanChain& chain : chains.chains) {
    std::vector<bool> state(chain.elements.size());
    for (std::size_t k = 0; k < state.size(); ++k) state[k] = rng.next_bool();
    p.chain_state.push_back(std::move(state));
  }
  return p;
}

}  // namespace

ScanAtpgResult generate_scan_tests(const Netlist& nl, const ScanChains& chains,
                                   const FaultUniverse& universe, FaultList& fl,
                                   const ScanAtpgOptions& opts) {
  ScanAtpgResult result;
  ScanTestRunner runner(nl, chains);
  for (auto [net, value] : opts.pin_constraints)
    runner.set_pin_constraint(net, value);
  Rng rng(opts.seed);
  const ClassMap classes(universe);
  const CampaignEngine engine(universe, opts.campaign);

  // All batch grading goes through the orchestrator; equivalence-class
  // propagation stays here, applied over the deterministic per-target
  // detection flags it returns.
  const auto propagate = [&](std::span<const FaultId> targets,
                             const BitVec& det, std::size_t& counter) {
    for (std::size_t i = det.find_first(); i < det.size();
         i = det.find_next(i + 1))
      classes.mark_class_detected(fl, targets[i], counter);
  };

  const auto grade = [&](const ScanPattern& pattern, std::size_t& counter) {
    std::size_t before = counter;
    const std::vector<FaultId> targets = open_reps(fl, classes);
    const CampaignTest test =
        make_pattern_campaign(runner, universe, pattern, "pattern");
    propagate(targets, engine.grade(targets, test), counter);
    return counter - before;
  };

  // Phase 1: chain integrity test.
  {
    const std::vector<FaultId> targets = open_reps(fl, classes);
    const CampaignTest test = make_chain_test_campaign(runner, universe);
    propagate(targets, engine.grade(targets, test),
              result.detected_by_chain_test);
  }

  // Phase 2: random patterns with fault dropping.
  for (int p = 0; p < opts.random_patterns; ++p) {
    ScanPattern pat = random_pattern(nl, chains, rng, opts.pin_constraints);
    if (grade(pat, result.detected_by_random) > 0)
      result.patterns.push_back(std::move(pat));
  }

  // Phase 3: deterministic PODEM on surviving representatives. Each
  // generated pattern is applied through the chains and graded against
  // its own target class; a full cross-grade is done for every 32nd kept
  // pattern to keep fault dropping effective without quadratic cost.
  Podem podem(nl, universe, {.backtrack_limit = opts.backtrack_limit});
  std::vector<FaultId> targets = open_reps(fl, classes);
  if (targets.size() > opts.max_deterministic_targets)
    targets.resize(opts.max_deterministic_targets);
  std::size_t kept = 0;
  for (FaultId f : targets) {
    if (fl.detect_state(f) == DetectState::kDetected) continue;  // dropped
    const AtpgResult r = podem.run(f);
    if (r.outcome == AtpgOutcome::kUntestable) {
      fl.mark_untestable(f, UntestableKind::kRedundant,
                         OnlineSource::kStructural);
      ++result.proven_untestable;
      continue;
    }
    if (r.outcome == AtpgOutcome::kAborted) {
      ++result.aborted;
      continue;
    }
    ScanPattern pat = scan_pattern_from_atpg(nl, chains, *r.pattern);
    for (auto [net, value] : opts.pin_constraints)
      pat.pi.try_emplace(net, value);
    std::size_t got = 0;
    if (++kept % 32 == 0) {
      got = grade(pat, result.detected_by_deterministic);
    } else {
      const bool det =
          runner.run_pattern(std::span(&f, 1), universe, pat).bit(0);
      if (det)
        classes.mark_class_detected(fl, f, result.detected_by_deterministic);
      got = det;
    }
    if (got > 0) result.patterns.push_back(std::move(pat));
  }
  return result;
}

}  // namespace olfui
