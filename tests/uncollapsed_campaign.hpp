// The campaign loop without equivalence-class collapsing, as a test-side
// oracle for CampaignEngine::run: every target is graded in a lane of its
// own through the uncollapsed CampaignEngine::grade() primitive, with the
// engine's target slice, the tests' screens and fault dropping.
#pragma once

#include <span>
#include <vector>

#include "campaign/campaign.hpp"
#include "fault/fault_list.hpp"
#include "util/bitvec.hpp"

namespace olfui {

struct UncollapsedCampaign {
  BitVec detected;                          ///< over the universe, at the end
  std::vector<std::size_t> new_detections;  ///< per test, in test order
};

/// Grades `tests` in order on `fl`: the first target_limit undetected,
/// testable faults in id order, minus the test's screened ones, each graded
/// as its own target; every detection is marked before the next test.
inline UncollapsedCampaign run_uncollapsed(
    const CampaignEngine& engine, FaultList& fl,
    std::span<const CampaignTest> tests) {
  const std::size_t limit = engine.options().target_limit;
  UncollapsedCampaign out;
  for (const CampaignTest& test : tests) {
    const BitVec screen = test.screen ? test.screen() : BitVec();
    std::vector<FaultId> graded;
    std::size_t targeted = 0;
    for (FaultId f = 0; f < fl.size(); ++f) {
      if (limit && targeted == limit) break;
      if (fl.untestable_kind(f) != UntestableKind::kNone ||
          fl.detect_state(f) == DetectState::kDetected)
        continue;
      ++targeted;
      if (screen.empty() || !screen.get(f)) graded.push_back(f);
    }
    const BitVec det = engine.grade(graded, test);
    for (std::size_t i = det.find_first(); i < det.size();
         i = det.find_next(i + 1))
      fl.set_detected(graded[i]);
    out.new_detections.push_back(det.count());
  }
  out.detected = BitVec(fl.size());
  for (FaultId f = 0; f < fl.size(); ++f)
    if (fl.detect_state(f) == DetectState::kDetected)
      out.detected.set(f, true);
  return out;
}

}  // namespace olfui
