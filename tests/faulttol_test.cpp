// Fault-tolerance suite for the supervised subprocess fleet: every
// recovery path — crash, stall, truncated reply, fleet collapse — must
// complete the campaign with a detection payload and deterministic JSON
// byte-identical to an undisturbed in-process run, while the recovery
// odometer (ExecutorHealth / RuntimeStats) records what happened. Chaos
// is injected deterministically through the worker's --chaos flag (see
// ChaosSpec in executor.hpp), so each scenario is a reproducible unit
// test, not a flake lottery.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/executor.hpp"
#include "campaign/json.hpp"
#include "campaign/report.hpp"
#include "cpu/soc.hpp"
#include "fault/fault_list.hpp"
#include "fault/universe.hpp"
#include "sbst/sbst.hpp"

namespace olfui {
namespace {

// ---------------------------------------------------------------------------
// Chaos spec grammar.

TEST(ChaosSpec, ParsesEveryShape) {
  const ChaosSpec none = chaos_spec_from_string("");
  EXPECT_EQ(none.mode, ChaosSpec::Mode::kNone);

  const ChaosSpec crash = chaos_spec_from_string("7:crash@3");
  EXPECT_EQ(crash.mode, ChaosSpec::Mode::kCrash);
  EXPECT_EQ(crash.seed, 7u);
  EXPECT_EQ(crash.shard, 3);
  EXPECT_FALSE(crash.all_incarnations);

  const ChaosSpec all = chaos_spec_from_string("5:stall@2:all");
  EXPECT_EQ(all.mode, ChaosSpec::Mode::kStall);
  EXPECT_EQ(all.shard, 2);
  EXPECT_TRUE(all.all_incarnations);

  EXPECT_EQ(chaos_spec_from_string("1:trunc").mode, ChaosSpec::Mode::kTrunc);

  // No explicit index: one is drawn from the seeded RNG — reproducible
  // (same seed, same shard) and within the documented [1, 4] window.
  const ChaosSpec a = chaos_spec_from_string("42:crash");
  const ChaosSpec b = chaos_spec_from_string("42:crash");
  EXPECT_EQ(a.shard, b.shard);
  EXPECT_GE(a.shard, 1);
  EXPECT_LE(a.shard, 4);
  EXPECT_NE(chaos_spec_from_string("42:crash").shard, 0);
}

TEST(ChaosSpec, RejectsMalformedSpecs) {
  for (const char* bad : {"crash", ":crash", "7", "7:", "x:crash",
                          "7:bogus", "7:crash@", "7:crash@0", "7:crash@x",
                          "7:crash:some"}) {
    EXPECT_THROW(chaos_spec_from_string(bad), std::invalid_argument) << bad;
  }
}

// ---------------------------------------------------------------------------
// Wire-format errors carry real byte offsets.

TEST(ShardRequestParsing, MalformedFieldErrorsPointIntoTheLine) {
  // Render a well-formed grade request, corrupt one deep field, and check
  // the JsonError names an offset inside the line — a coordinator log
  // quoting "at offset N" must point at the offending bytes, not 0.
  const std::vector<FaultId> targets{10, 11, 12, 13};
  CampaignTest test;
  test.name = "t";
  test.spec = Json::object();
  const ShardWork work{targets, 2, {}, test, FaultModel::kStuckAt, 100, {}};
  const std::string line = shard_request_to_json(work).dump(0);

  // The pristine line round-trips.
  const ShardRequest req = shard_request_from_json(Json::parse(line));
  EXPECT_EQ(req.test, "t");
  EXPECT_EQ(req.targets, targets);

  const auto corrupt = [&](const std::string& from, const std::string& to) {
    std::string s = line;
    const auto pos = s.find(from);
    ASSERT_NE(pos, std::string::npos) << from;
    s.replace(pos, from.size(), to);
    try {
      shard_request_from_json(Json::parse(s));
      FAIL() << "corruption " << from << " -> " << to << " was accepted";
    } catch (const JsonError& e) {
      EXPECT_GT(e.offset(), 0u) << e.what();
    }
  };
  corrupt("\"stuck_at\"", "\"bogus_model\"");  // unknown enum value
  corrupt("\"test\":\"t\"", "\"test\":42");    // type mismatch
  corrupt("\"batch_size\":2", "\"batch_size\":0");  // empty spans
}

// ---------------------------------------------------------------------------
// Recovery scenarios on the real SBST workload, driven through
// olfui_cli --worker with deterministic chaos. Each compares against an
// undisturbed in-process run of the identical campaign.

struct SbstRig {
  std::unique_ptr<Soc> soc = build_soc({});
  std::vector<SbstProgram> suite;
  std::unique_ptr<FaultUniverse> u;
  std::vector<CampaignTest> tests;

  explicit SbstRig(std::size_t keep_tests) {
    suite = build_sbst_suite(soc->config);
    if (suite.size() > keep_tests)
      suite.erase(suite.begin() + static_cast<std::ptrdiff_t>(keep_tests),
                  suite.end());
    u = std::make_unique<FaultUniverse>(soc->netlist);
    tests = build_sbst_campaign_tests(*soc, suite, *u);
  }
};

CampaignResult run_campaign(const FaultUniverse& u,
                            std::span<const CampaignTest> tests,
                            const CampaignOptions& opts) {
  FaultList fl(u);
  return CampaignEngine(u, opts).run(fl, tests);
}

std::vector<std::string> chaos_worker(const std::string& spec) {
  return {"./olfui_cli", "--worker", "--chaos", spec};
}

#define SKIP_WITHOUT_CLI()                                      \
  do {                                                          \
    if (::access("./olfui_cli", X_OK) != 0)                     \
      GTEST_SKIP() << "./olfui_cli not in the working directory"; \
  } while (0)

TEST(FaultTolerance, KilledWorkerShardsAreReissuedBitIdentically) {
  SKIP_WITHOUT_CLI();
  const SbstRig rig(2);
  const CampaignOptions base{.threads = 2, .target_limit = 200};
  const CampaignResult clean = run_campaign(*rig.u, rig.tests, base);
  const std::string clean_json =
      campaign_result_to_json_string(clean, 2, false);

  // Both workers SIGKILL themselves on the second shard they start (chaos
  // arms only in incarnation 0, so respawns recover); their in-flight
  // shards must be re-queued and the campaign must not notice.
  FleetOptions fleet;
  fleet.workers = 2;
  fleet.backoff_base = 0.01;  // keep the unit test snappy
  const auto exec = std::make_shared<SubprocessExecutor>(
      chaos_worker("7:crash@2"), fleet);
  CampaignOptions sub = base;
  sub.executor = exec;
  const CampaignResult r = run_campaign(*rig.u, rig.tests, sub);

  EXPECT_GT(clean.total_new_detections, 0u);
  EXPECT_EQ(r, clean);
  EXPECT_EQ(r.detected, clean.detected);
  EXPECT_EQ(campaign_result_to_json_string(r, 2, false), clean_json);

  const ExecutorHealth h = exec->health();
  EXPECT_GT(h.respawns, 0u);
  EXPECT_GT(h.shard_reissues, 0u);
  EXPECT_EQ(h.degraded_shards, 0u);
  // The run's RuntimeStats carry the same odometer delta.
  EXPECT_EQ(r.stats.respawns, h.respawns);
  EXPECT_EQ(r.stats.shard_reissues, h.shard_reissues);
  EXPECT_EQ(r.stats.executor, "subprocess");
}

TEST(FaultTolerance, StalledWorkerTripsTheDeadlineAndIsReplaced) {
  SKIP_WITHOUT_CLI();
  const SbstRig rig(1);
  // An explicit (short) per-shard deadline: the stalled worker heartbeats
  // its first shard, then wedges; only the progress rule can catch it.
  const CampaignOptions base{
      .threads = 2, .target_limit = 130, .shard_timeout = 1.5};
  const CampaignResult clean = run_campaign(*rig.u, rig.tests, base);

  FleetOptions fleet;
  fleet.workers = 2;
  fleet.backoff_base = 0.01;
  const auto exec = std::make_shared<SubprocessExecutor>(
      chaos_worker("5:stall@1"), fleet);
  CampaignOptions sub = base;
  sub.executor = exec;
  const CampaignResult r = run_campaign(*rig.u, rig.tests, sub);

  EXPECT_EQ(r, clean);
  EXPECT_EQ(campaign_result_to_json_string(r, 2, false),
            campaign_result_to_json_string(clean, 2, false));

  const ExecutorHealth h = exec->health();
  EXPECT_GT(h.timeouts, 0u);
  EXPECT_GT(h.shard_reissues, 0u);
  EXPECT_GT(h.respawns, 0u);
  EXPECT_GT(r.stats.timeouts, 0u);
}

TEST(FaultTolerance, TruncatedReplyLineIsDetectedAndReissued) {
  SKIP_WITHOUT_CLI();
  const SbstRig rig(2);
  const CampaignOptions base{.threads = 2, .target_limit = 200};
  const CampaignResult clean = run_campaign(*rig.u, rig.tests, base);

  // Workers emit half a shard reply and exit 0: EOF with a nonempty line
  // buffer. The partial line must be discarded — never parsed — and the
  // announced shard regraded elsewhere.
  FleetOptions fleet;
  fleet.workers = 2;
  fleet.backoff_base = 0.01;
  const auto exec = std::make_shared<SubprocessExecutor>(
      chaos_worker("3:trunc@1"), fleet);
  CampaignOptions sub = base;
  sub.executor = exec;
  const CampaignResult r = run_campaign(*rig.u, rig.tests, sub);

  EXPECT_EQ(r, clean);
  EXPECT_EQ(campaign_result_to_json_string(r, 2, false),
            campaign_result_to_json_string(clean, 2, false));

  const ExecutorHealth h = exec->health();
  EXPECT_GT(h.respawns, 0u);
  EXPECT_GT(h.shard_reissues, 0u);
  EXPECT_EQ(h.degraded_shards, 0u);
}

TEST(FaultTolerance, FleetCollapseDegradesToInProcessGrading) {
  SKIP_WITHOUT_CLI();
  const SbstRig rig(1);
  const CampaignOptions base{.threads = 2, .target_limit = 130};
  const CampaignResult clean = run_campaign(*rig.u, rig.tests, base);

  // ":all" keeps chaos armed across respawns: the lone worker crashes on
  // its first shard in every incarnation, the respawn budget burns down,
  // and the fleet collapses below min_workers. The campaign must degrade
  // to in-process grading — loudly, but without throwing and without
  // changing a single detection bit.
  FleetOptions fleet;
  fleet.workers = 1;
  fleet.max_respawns = 1;
  fleet.min_workers = 1;
  fleet.backoff_base = 0.01;
  const auto exec = std::make_shared<SubprocessExecutor>(
      chaos_worker("9:crash@1:all"), fleet);
  CampaignOptions sub = base;
  sub.executor = exec;
  const CampaignResult r = run_campaign(*rig.u, rig.tests, sub);

  EXPECT_EQ(r, clean);
  EXPECT_EQ(r.detected, clean.detected);
  EXPECT_EQ(campaign_result_to_json_string(r, 2, false),
            campaign_result_to_json_string(clean, 2, false));

  const ExecutorHealth h = exec->health();
  EXPECT_GT(h.degraded_shards, 0u);
  EXPECT_GT(h.shard_reissues, 0u);
  EXPECT_EQ(h.respawns, 1u);  // the whole budget, spent
  EXPECT_GT(r.stats.degraded_shards, 0u);
}

}  // namespace
}  // namespace olfui
