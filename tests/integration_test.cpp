// End-to-end soundness of the identification flow, validated against
// ground truth: a fault the analyzer prunes as on-line functionally
// untestable must NEVER be detected by mission-mode fault simulation of
// the SBST suite (system-bus observability), and tied-class faults must be
// ATPG-untestable under the mission configuration.
#include <gtest/gtest.h>

#include "atpg/podem.hpp"
#include "core/analyzer.hpp"
#include "sbst/sbst.hpp"
#include "util/rng.hpp"

namespace olfui {
namespace {

class IntegrationFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SocConfig cfg;
    cfg.cpu.btb_entries = 2;
    cfg.cpu.with_multiplier = false;  // keep fault-sim time test-friendly
    cfg.scan.num_chains = 2;
    soc_ = build_soc(cfg).release();
    universe_ = new FaultUniverse(soc_->netlist);
    fl_ = new FaultList(*universe_);
    analyzer_ = new OnlineUntestabilityAnalyzer(*soc_, *universe_);
    report_ = analyzer_->run(*fl_);
    suite_ = build_sbst_suite(cfg);
  }
  static void TearDownTestSuite() {
    delete analyzer_;
    delete fl_;
    delete universe_;
    delete soc_;
  }

  /// Fault-simulates `faults` against the whole SBST suite, grading each
  /// program's campaign test through the engine; returns the set of
  /// batch-local indices that some program detected.
  static std::vector<bool> simulate(const std::vector<FaultId>& faults) {
    std::vector<bool> detected(faults.size(), false);
    const CampaignEngine engine(*universe_);
    const auto topo = PackedTopology::build(soc_->netlist);
    for (SbstProgram& sp : suite_) {
      const BitVec det = engine.grade(
          faults, build_sbst_campaign_test(*soc_, sp, *universe_, topo).test);
      for (std::size_t i = 0; i < faults.size(); ++i)
        if (det.get(i)) detected[i] = true;
    }
    return detected;
  }

  static std::vector<FaultId> sample_pruned(OnlineSource s, std::size_t n) {
    Rng rng(0xC0FFEE ^ static_cast<std::uint64_t>(s));
    std::vector<FaultId> pool;
    for (FaultId f = 0; f < fl_->size(); ++f)
      if (fl_->online_source(f) == s) pool.push_back(f);
    std::vector<FaultId> out;
    for (std::size_t i = 0; i < n && !pool.empty(); ++i)
      out.push_back(pool[rng.next_below(pool.size())]);
    return out;
  }

  static Soc* soc_;
  static FaultUniverse* universe_;
  static FaultList* fl_;
  static OnlineUntestabilityAnalyzer* analyzer_;
  static AnalysisReport report_;
  static std::vector<SbstProgram> suite_;
};

Soc* IntegrationFixture::soc_ = nullptr;
FaultUniverse* IntegrationFixture::universe_ = nullptr;
FaultList* IntegrationFixture::fl_ = nullptr;
OnlineUntestabilityAnalyzer* IntegrationFixture::analyzer_ = nullptr;
AnalysisReport IntegrationFixture::report_;
std::vector<SbstProgram> IntegrationFixture::suite_;

TEST_F(IntegrationFixture, AnalyzerFoundEverySourceOnLeanSoc) {
  EXPECT_GT(report_.scan, 0u);
  EXPECT_GT(report_.debug_control, 0u);
  EXPECT_GT(report_.debug_observe, 0u);
  EXPECT_GT(report_.memmap, 0u);
}

TEST_F(IntegrationFixture, PrunedScanFaultsAreNeverDetected) {
  const auto faults = sample_pruned(OnlineSource::kScan, 60);
  ASSERT_FALSE(faults.empty());
  const auto det = simulate(faults);
  for (std::size_t i = 0; i < faults.size(); ++i)
    EXPECT_FALSE(det[i]) << universe_->fault_name(faults[i]);
}

TEST_F(IntegrationFixture, PrunedDebugControlFaultsAreNeverDetected) {
  const auto faults = sample_pruned(OnlineSource::kDebugControl, 60);
  ASSERT_FALSE(faults.empty());
  const auto det = simulate(faults);
  for (std::size_t i = 0; i < faults.size(); ++i)
    EXPECT_FALSE(det[i]) << universe_->fault_name(faults[i]);
}

TEST_F(IntegrationFixture, PrunedDebugObserveFaultsAreNeverDetected) {
  const auto faults = sample_pruned(OnlineSource::kDebugObserve, 60);
  ASSERT_FALSE(faults.empty());
  const auto det = simulate(faults);
  for (std::size_t i = 0; i < faults.size(); ++i)
    EXPECT_FALSE(det[i]) << universe_->fault_name(faults[i]);
}

TEST_F(IntegrationFixture, PrunedMemoryMapFaultsAreNeverDetected) {
  const auto faults = sample_pruned(OnlineSource::kMemoryMap, 60);
  ASSERT_FALSE(faults.empty());
  const auto det = simulate(faults);
  for (std::size_t i = 0; i < faults.size(); ++i)
    EXPECT_FALSE(det[i]) << universe_->fault_name(faults[i]);
}

TEST_F(IntegrationFixture, ManyKeptFaultsAreDetected) {
  // Sanity against over-pruning trivially: the suite must detect a healthy
  // fraction of the faults the analyzer kept.
  Rng rng(42);
  std::vector<FaultId> kept;
  for (FaultId f = 0; f < fl_->size() && kept.size() < 120; ++f) {
    if (fl_->untestable_kind(f) == UntestableKind::kNone &&
        rng.next_below(50) == 0)
      kept.push_back(f);
  }
  const auto det = simulate(kept);
  std::size_t hits = 0;
  for (bool b : det) hits += b ? 1 : 0;
  EXPECT_GT(hits, kept.size() / 4) << "suite detected only " << hits << "/"
                                   << kept.size();
}

TEST_F(IntegrationFixture, TiedFaultsAreAtpgUntestableUnderMission) {
  // Every tied-class fault must be unexcitable for PODEM too, given the
  // accumulated mission constants.
  Rng rng(7);
  std::vector<FaultId> tied;
  for (FaultId f = 0; f < fl_->size(); ++f)
    if (fl_->untestable_kind(f) == UntestableKind::kTied) tied.push_back(f);
  ASSERT_FALSE(tied.empty());
  Podem podem(soc_->netlist, *universe_,
              {.backtrack_limit = 5000, .mission = &analyzer_->mission_config()});
  for (int i = 0; i < 40; ++i) {
    const FaultId f = tied[rng.next_below(tied.size())];
    const AtpgResult r = podem.run(f);
    EXPECT_NE(r.outcome, AtpgOutcome::kTestFound) << universe_->fault_name(f);
  }
}

TEST_F(IntegrationFixture, CoverageGainMatchesPaperDirection) {
  // Simulate a light slice of the universe to estimate coverage before and
  // after pruning; pruning must raise coverage (the paper's ~13% effect).
  Rng rng(3);
  std::vector<FaultId> sampled;
  for (FaultId f = 0; f < universe_->size(); ++f)
    if (rng.next_below(40) == 0) sampled.push_back(f);
  const auto det = simulate(sampled);
  std::size_t detected = 0, testable = 0, detected_testable = 0;
  for (std::size_t i = 0; i < sampled.size(); ++i) {
    detected += det[i] ? 1 : 0;
    if (fl_->untestable_kind(sampled[i]) == UntestableKind::kNone) {
      ++testable;
      detected_testable += det[i] ? 1 : 0;
    }
  }
  const double raw = static_cast<double>(detected) / sampled.size();
  const double pruned = static_cast<double>(detected_testable) / testable;
  EXPECT_GT(pruned, raw);
}

}  // namespace
}  // namespace olfui
