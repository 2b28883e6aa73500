#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "campaign/report.hpp"
#include "core/analyzer.hpp"
#include "fault/report.hpp"
#include "netlist/wordops.hpp"

namespace olfui {
namespace {

struct SmallRig {
  Netlist nl{"t"};
  std::unique_ptr<FaultUniverse> universe;
  std::unique_ptr<FaultList> fl;

  SmallRig() {
    WordOps w(nl, "alu");
    const NetId a = nl.add_input("a");
    const NetId en = nl.add_input("en");
    const NetId y = w.and2(a, en, "y");
    nl.add_output("o", y);
    universe = std::make_unique<FaultUniverse>(nl);
    fl = std::make_unique<FaultList>(*universe);
    fl->set_detected(0);
    fl->mark_untestable(3, UntestableKind::kTied, OnlineSource::kScan);
  }
};

TEST(CampaignStatsJson, PairCountsRoundTrip) {
  CampaignResult r;
  r.universe = 8;
  r.detected = BitVec(8);
  r.stats.faults_simulated = 5;
  r.stats.faults_screened = 3;
  r.stats.faults_collapsed = 2;
  r.stats.batches = 1;
  const Json doc = campaign_result_to_json(r);
  EXPECT_EQ(doc.at("stats").at("faults_screened").as_size(), 3u);
  EXPECT_EQ(doc.at("stats").at("faults_collapsed").as_size(), 2u);
  const CampaignResult back =
      campaign_result_from_json_string(doc.dump(2));
  EXPECT_EQ(back.stats.faults_simulated, 5u);
  EXPECT_EQ(back.stats.faults_screened, 3u);
  EXPECT_EQ(back.stats.faults_collapsed, 2u);
  // Dumps from before activation screening and class collapsing carry
  // neither count.
  Json old = doc;
  const Json& stats = doc.at("stats");
  Json pruned = Json::object();
  for (std::size_t i = 0; i < stats.size(); ++i)
    if (stats.key(i) != "faults_screened" &&
        stats.key(i) != "faults_collapsed")
      pruned.set(stats.key(i), stats.value(i));
  old.set("stats", std::move(pruned));
  EXPECT_EQ(campaign_result_from_json(old).stats.faults_screened, 0u);
  EXPECT_EQ(campaign_result_from_json(old).stats.faults_collapsed, 0u);
  // Deterministic dumps carry no stats at all.
  EXPECT_FALSE(campaign_result_to_json(r, false).contains("stats"));
}

TEST(CsvExport, HasHeaderAndOneRowPerFault) {
  SmallRig rig;
  const std::string csv = to_csv(*rig.fl);
  std::size_t lines = 0;
  for (char c : csv) lines += c == '\n';
  EXPECT_EQ(lines, rig.universe->size() + 1);
  EXPECT_EQ(csv.substr(0, 8), "fault_id");
  EXPECT_NE(csv.find(",tied,scan"), std::string::npos);
}

TEST(CsvExport, UntestableOnlyFiltersRows) {
  SmallRig rig;
  const std::string csv = to_csv(*rig.fl, /*untestable_only=*/true);
  std::size_t lines = 0;
  for (char c : csv) lines += c == '\n';
  EXPECT_EQ(lines, 2u);  // header + the single untestable fault
}

TEST(JsonSummary, ContainsCountsAndCoverage) {
  SmallRig rig;
  const std::string json = to_json_summary(*rig.fl);
  EXPECT_NE(json.find("\"universe\": 12"), std::string::npos);
  EXPECT_NE(json.find("\"detected\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"untestable\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"scan\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"tied\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"raw_coverage\""), std::string::npos);
}

TEST(ModuleBreakdown, GroupsByHierarchyPrefix) {
  SmallRig rig;
  const auto rows = module_breakdown(*rig.fl);
  ASSERT_FALSE(rows.empty());
  bool found_alu = false;
  std::size_t total = 0;
  for (const auto& row : rows) {
    total += row.faults;
    if (row.module.rfind("alu", 0) == 0) found_alu = true;
  }
  EXPECT_TRUE(found_alu);
  EXPECT_EQ(total, rig.universe->size());
}

TEST(ModuleBreakdown, SortedByUntestableDescending) {
  auto soc = build_soc({});
  const FaultUniverse u(soc->netlist);
  FaultList fl(u);
  OnlineUntestabilityAnalyzer az(*soc, u);
  az.run(fl);
  const auto rows = module_breakdown(fl);
  for (std::size_t i = 1; i < rows.size(); ++i)
    EXPECT_GE(rows[i - 1].untestable, rows[i].untestable);
  // The scan wrapper and debug unit must rank near the top.
  ASSERT_GE(rows.size(), 3u);
  bool dft_on_top = false;
  for (std::size_t i = 0; i < 3; ++i)
    if (rows[i].module.rfind("scan", 0) == 0 || rows[i].module.rfind("dbg", 0) == 0)
      dft_on_top = true;
  EXPECT_TRUE(dft_on_top);
}

TEST(ModuleBreakdown, TableIsAligned) {
  SmallRig rig;
  const std::string table = module_breakdown_table(*rig.fl);
  EXPECT_NE(table.find("module"), std::string::npos);
  EXPECT_NE(table.find("untestable"), std::string::npos);
}

TEST(UntrustedDecoders, SemanticErrorsPointAtTheOffendingNode) {
  // Each row is a malformed document and the text its error offset must
  // point at: a decoder that rejects a value it parsed fine reports where
  // that value sits, not offset 0.
  struct Row {
    const char* what;
    std::string text;
    std::function<void(const Json&)> decode;
    std::string points_at;
  };
  const auto campaign = [](const Json& d) { campaign_result_from_json(d); };
  const std::vector<Row> rows = {
      {"campaign fault_model", R"({"universe":4,"fault_model":"bogus"})",
       campaign, R"("bogus")"},
  };
  for (const Row& row : rows) {
    try {
      row.decode(Json::parse(row.text));
      ADD_FAILURE() << row.what << ": accepted";
    } catch (const JsonError& e) {
      EXPECT_EQ(row.text.compare(e.offset(), row.points_at.size(),
                                 row.points_at),
                0)
          << row.what << ": offset " << e.offset() << " in " << row.text;
    }
  }
}

TEST(TransitionModel, StrictlyMorePruningThanStuckAt) {
  // The extension result: everything stuck-at-untestable stays untestable
  // for transitions, and constant-value sites add their second polarity.
  auto soc = build_soc({});
  const FaultUniverse u(soc->netlist);
  OnlineUntestabilityAnalyzer az(*soc, u);
  FaultList sa(u), tdf(u);
  const AnalysisReport sa_rep = az.run(sa);
  const AnalysisReport tdf_rep = az.run(tdf, FaultModel::kTransition);
  EXPECT_GT(tdf_rep.total_online() + tdf_rep.structural_baseline,
            sa_rep.total_online() + sa_rep.structural_baseline);
  for (FaultId f = 0; f < u.size(); ++f) {
    if (sa.untestable_kind(f) == UntestableKind::kTied) {
      EXPECT_NE(tdf.untestable_kind(f), UntestableKind::kNone)
          << u.fault_name(f);
    }
  }
}

TEST(TransitionModel, ConstantSiteLosesBothTransitions) {
  Netlist nl("t");
  WordOps w(nl, "m");
  const NetId a = nl.add_input("a");
  const NetId en = nl.add_input("en");
  const NetId y = w.and2(a, en, "y");
  nl.add_output("o", y);
  const FaultUniverse u(nl);
  const StructuralAnalyzer sta(nl, u);
  MissionConfig cfg;
  cfg.tie(en, true);  // en constant 1: non-controlling, y follows a
  FaultList fl(u);
  sta.classify_transition_faults(sta.analyze(cfg), fl, OnlineSource::kScan);
  const CellId g = nl.net(y).driver;
  // Both transition faults on the tied side input die; the data side keeps
  // both (it can rise and fall, and propagates).
  EXPECT_NE(fl.untestable_kind(u.id_of({g, 2}, false)), UntestableKind::kNone);
  EXPECT_NE(fl.untestable_kind(u.id_of({g, 2}, true)), UntestableKind::kNone);
  EXPECT_EQ(fl.untestable_kind(u.id_of({g, 1}, false)), UntestableKind::kNone);
  EXPECT_EQ(fl.untestable_kind(u.id_of({g, 1}, true)), UntestableKind::kNone);
}

}  // namespace
}  // namespace olfui
