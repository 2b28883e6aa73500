#include <gtest/gtest.h>

#include "cpu/soc.hpp"
#include "fault/fault_list.hpp"
#include "fault/universe.hpp"
#include "netlist/wordops.hpp"

namespace olfui {
namespace {

Netlist tiny() {
  Netlist nl("t");
  WordOps w(nl, "m");
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId y = w.and2(a, b, "y");
  nl.add_output("o", y);
  return nl;
}

TEST(FaultUniverse, TwoFaultsPerPin) {
  const Netlist nl = tiny();
  const FaultUniverse u(nl);
  // Pins: 2 input-cell outputs + AND(Y,A,B) + output-port input = 6 pins.
  EXPECT_EQ(u.size(), 12u);
  EXPECT_EQ(u.size(), nl.stats().pins * 2);
}

TEST(FaultUniverse, IdOfInvertsFaultLookup) {
  const Netlist nl = tiny();
  const FaultUniverse u(nl);
  for (FaultId f = 0; f < u.size(); ++f) {
    const Fault& fault = u.fault(f);
    EXPECT_EQ(u.id_of(fault.pin, fault.sa1), f);
  }
}

TEST(FaultUniverse, IdsAtReturnsAdjacentPair) {
  const Netlist nl = tiny();
  const FaultUniverse u(nl);
  const CellId g = nl.find_cell("m/u_y");
  const auto [f0, f1] = u.ids_at({g, 1});
  EXPECT_EQ(f1, f0 + 1);
  EXPECT_FALSE(u.fault(f0).sa1);
  EXPECT_TRUE(u.fault(f1).sa1);
}

TEST(FaultUniverse, FaultNameIsReadable) {
  const Netlist nl = tiny();
  const FaultUniverse u(nl);
  const CellId g = nl.find_cell("m/u_y");
  EXPECT_EQ(u.fault_name(u.id_of({g, 0}, true)), "m/u_y/Y s-a-1");
  EXPECT_EQ(u.fault_name(u.id_of({g, 2}, false)), "m/u_y/B s-a-0");
}

TEST(FaultUniverse, FaultsOfCellCoversAllPins) {
  const Netlist nl = tiny();
  const FaultUniverse u(nl);
  std::vector<FaultId> ids;
  u.faults_of_cell(nl.find_cell("m/u_y"), ids);
  EXPECT_EQ(ids.size(), 6u);  // Y, A, B x 2 polarities
}

TEST(FaultCollapse, AndGateEquivalences) {
  const Netlist nl = tiny();
  const FaultUniverse u(nl);
  const CellId g = nl.find_cell("m/u_y");
  const auto map = u.collapse_map();
  // AND: input s-a-0 == output s-a-0.
  EXPECT_EQ(map[u.id_of({g, 1}, false)], map[u.id_of({g, 0}, false)]);
  EXPECT_EQ(map[u.id_of({g, 2}, false)], map[u.id_of({g, 0}, false)]);
  // but s-a-1 on inputs are distinct.
  EXPECT_NE(map[u.id_of({g, 1}, true)], map[u.id_of({g, 2}, true)]);
  EXPECT_LT(u.collapsed_count(), u.size());
}

TEST(FaultCollapse, InverterChainCollapsesToOneClassPerPolarity) {
  Netlist nl("t");
  WordOps w(nl, "m");
  const NetId a = nl.add_input("a");
  const NetId n1 = w.not_(a, "n1");
  const NetId n2 = w.not_(n1, "n2");
  nl.add_output("o", n2);
  const FaultUniverse u(nl);
  const auto map = u.collapse_map();
  const CellId c1 = nl.net(n1).driver, c2 = nl.net(n2).driver;
  // NOT: in s-a-0 == out s-a-1; chain + single-fanout wire equivalence
  // collapses a->n1->n2 into two classes overall.
  EXPECT_EQ(map[u.id_of({c1, 1}, false)], map[u.id_of({c1, 0}, true)]);
  EXPECT_EQ(map[u.id_of({c1, 0}, true)], map[u.id_of({c2, 1}, true)]);
  EXPECT_EQ(map[u.id_of({c2, 1}, true)], map[u.id_of({c2, 0}, false)]);
}

TEST(FaultCollapse, FanoutStemsStayDistinct) {
  Netlist nl("t");
  WordOps w(nl, "m");
  const NetId a = nl.add_input("a");
  const NetId y1 = w.buf(a, "y1");
  const NetId y2 = w.buf(a, "y2");
  nl.add_output("o1", y1);
  nl.add_output("o2", y2);
  const FaultUniverse u(nl);
  const auto map = u.collapse_map();
  const CellId b1 = nl.net(y1).driver, b2 = nl.net(y2).driver;
  const CellId src = nl.net(a).driver;
  // Multi-fanout stem: branch faults do NOT merge with the stem.
  EXPECT_NE(map[u.id_of({b1, 1}, false)], map[u.id_of({src, 0}, false)]);
  EXPECT_NE(map[u.id_of({b1, 1}, false)], map[u.id_of({b2, 1}, false)]);
}

TEST(FaultCollapse, TransitionMapKeepsOnlyBufNotAndWireClasses) {
  // a -> NOT -> AND(n, b) -> BUF -> o: the NOT and the BUF pass every
  // transition (the NOT swapping slow-to-rise with slow-to-fall) and the
  // wires are fanout-free, but the AND's output also rises through b.
  Netlist nl("t");
  WordOps w(nl, "m");
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId n = w.not_(a, "n");
  const NetId y = w.and2(n, b, "y");
  const NetId z = w.buf(y, "z");
  nl.add_output("o", z);
  const FaultUniverse u(nl);
  const auto map = u.tdf_collapse_map();
  const CellId inv = nl.net(n).driver, g = nl.net(y).driver,
               buf = nl.net(z).driver;
  // Slot s-a-0 reads slow-to-rise, s-a-1 slow-to-fall.
  EXPECT_EQ(map[u.id_of({inv, 1}, false)], map[u.id_of({inv, 0}, true)]);
  EXPECT_EQ(map[u.id_of({inv, 0}, true)], map[u.id_of({g, 1}, true)]);
  EXPECT_EQ(map[u.id_of({g, 0}, false)], map[u.id_of({buf, 1}, false)]);
  EXPECT_EQ(map[u.id_of({buf, 1}, false)], map[u.id_of({buf, 0}, false)]);
  // No controlling-input class, unlike the stuck-at map.
  EXPECT_NE(map[u.id_of({g, 1}, false)], map[u.id_of({g, 0}, false)]);
  EXPECT_NE(map[u.id_of({g, 2}, false)], map[u.id_of({g, 0}, false)]);
  const auto sa = u.collapse_map();
  EXPECT_EQ(sa[u.id_of({g, 1}, false)], sa[u.id_of({g, 0}, false)]);
  // Every transition class lies inside one stuck-at class.
  for (FaultId f = 0; f < u.size(); ++f)
    EXPECT_EQ(sa[map[f]], sa[f]) << u.fault_name(f);
}

TEST(FaultCollapse, SocClassCountsArePinned) {
  // The full SoC's 60,520 faults: the stuck-at map's 38,531 classes and
  // the transition map's 46,908 (a campaign grades one member of each).
  const auto soc = build_soc({});
  const FaultUniverse u(soc->netlist);
  ASSERT_EQ(u.size(), 60520u);
  EXPECT_EQ(u.collapsed_count(), 38531u);
  const auto map = u.tdf_collapse_map();
  std::size_t classes = 0;
  for (FaultId f = 0; f < map.size(); ++f) classes += map[f] == f;
  EXPECT_EQ(classes, 46908u);
}

TEST(FaultList, StatusLifecycle) {
  const Netlist nl = tiny();
  const FaultUniverse u(nl);
  FaultList fl(u);
  EXPECT_EQ(fl.count_detected(), 0u);
  EXPECT_EQ(fl.count_untestable(), 0u);
  fl.set_detected(0);
  fl.mark_untestable(1, UntestableKind::kTied, OnlineSource::kScan);
  EXPECT_EQ(fl.count_detected(), 1u);
  EXPECT_EQ(fl.count_untestable(), 1u);
  EXPECT_EQ(fl.untestable_kind(1), UntestableKind::kTied);
  EXPECT_EQ(fl.online_source(1), OnlineSource::kScan);
}

TEST(FaultList, FirstSourceWins) {
  const Netlist nl = tiny();
  const FaultUniverse u(nl);
  FaultList fl(u);
  fl.mark_untestable(2, UntestableKind::kTied, OnlineSource::kScan);
  fl.mark_untestable(2, UntestableKind::kUnobservable, OnlineSource::kMemoryMap);
  EXPECT_EQ(fl.untestable_kind(2), UntestableKind::kTied);
  EXPECT_EQ(fl.online_source(2), OnlineSource::kScan);
  EXPECT_EQ(fl.count_source(OnlineSource::kScan), 1u);
  EXPECT_EQ(fl.count_source(OnlineSource::kMemoryMap), 0u);
}

TEST(FaultList, MasksAndCounts) {
  const Netlist nl = tiny();
  const FaultUniverse u(nl);
  FaultList fl(u);
  fl.mark_untestable(0, UntestableKind::kTied, OnlineSource::kScan);
  fl.mark_untestable(5, UntestableKind::kUnobservable, OnlineSource::kDebugObserve);
  const BitVec m = fl.untestable_mask();
  EXPECT_TRUE(m.get(0));
  EXPECT_TRUE(m.get(5));
  EXPECT_EQ(m.count(), 2u);
  EXPECT_EQ(fl.source_mask(OnlineSource::kScan).count(), 1u);
}

TEST(FaultList, CoverageRisesWhenPruning) {
  // The paper's headline effect: detected/total < detected/(total-untestable).
  const Netlist nl = tiny();
  const FaultUniverse u(nl);
  FaultList fl(u);
  for (FaultId f = 0; f < 6; ++f) fl.set_detected(f);
  for (FaultId f = 8; f < 12; ++f)
    fl.mark_untestable(f, UntestableKind::kTied, OnlineSource::kScan);
  EXPECT_DOUBLE_EQ(fl.raw_coverage(), 6.0 / 12.0);
  EXPECT_DOUBLE_EQ(fl.pruned_coverage(), 6.0 / 8.0);
  EXPECT_GT(fl.pruned_coverage(), fl.raw_coverage());
}

TEST(FaultList, SummaryMentionsEverySource) {
  const Netlist nl = tiny();
  const FaultUniverse u(nl);
  FaultList fl(u);
  const std::string s = fl.summary();
  for (const char* key : {"scan", "debug-control", "debug-observe",
                          "memory-map", "structural", "TOTAL"})
    EXPECT_NE(s.find(key), std::string::npos) << key;
}

}  // namespace
}  // namespace olfui
