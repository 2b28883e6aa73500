// custom_netlist — applying the flow to a third-party gate-level netlist.
//
// The identification technique is not CPU-specific: anything with tied
// mission inputs and unread outputs benefits. This example parses a small
// structural-Verilog netlist (a peripheral with a debug tap), declares its
// mission configuration by hand, and classifies every fault.
//
//   $ ./custom_netlist
#include <cstdio>

#include "fault/fault_list.hpp"
#include "fault/universe.hpp"
#include "sta/sta.hpp"
#include "verilog/verilog.hpp"

namespace {

// A tiny peripheral: an enable-gated event counter with a debug tap that
// mission firmware never reads, and a test input tied low on the board.
constexpr const char* kNetlist = R"(
module event_counter (
  input clk_en,
  input event_in,
  input test_mode,
  input rstn,
  output event_seen,
  output dbg_tap
);
  wire armed;
  wire ev;
  wire sample_d;
  wire q;
  wire tapbuf;
  AND2 u_arm (.Y(armed), .A(clk_en), .B(rstn));
  MUX2 u_src (.Y(ev), .A(event_in), .B(armed), .S(test_mode));
  OR2  u_hold (.Y(sample_d), .A(ev), .B(q));
  DFFR u_ff (.Q(q), .D(sample_d), .RSTN(rstn));
  BUF  u_tap (.Y(tapbuf), .A(q));
  assign event_seen = q;
  assign dbg_tap = tapbuf;
endmodule
)";

}  // namespace

int main() {
  using namespace olfui;

  const Netlist nl = parse_verilog(kNetlist);
  std::printf("parsed '%s': %zu cells, %zu nets\n", nl.name().c_str(),
              nl.stats().cells, nl.stats().nets);

  const FaultUniverse universe(nl);
  const StructuralAnalyzer sta(nl, universe);
  std::printf("fault universe: %zu stuck-at faults\n\n", universe.size());

  // Mission configuration: the board ties test_mode to ground and nothing
  // reads the debug tap in the field.
  MissionConfig mission;
  mission.tie(nl.find_input("test_mode"), false);
  mission.unobserve(nl.find_output("dbg_tap"));

  // Faults untestable even with full access come first: they are not
  // on-line faults. Then the board's restrictions, labelled "mission"
  // (they are none of the paper's CPU sources).
  FaultList faults(universe);
  const std::size_t structural = sta.classify_faults(
      sta.analyze(MissionConfig{}), faults, OnlineSource::kStructural);
  const std::size_t pruned = sta.classify_faults(
      sta.analyze(mission), faults, OnlineSource::kMission);

  std::printf("pre-existing structural: %zu\n", structural);
  std::printf("on-line functionally untestable: %zu / %zu\n\n", pruned,
              universe.size());
  std::printf("%-34s %-11s %-14s %s\n", "fault", "source", "class", "why");
  for (FaultId f = 0; f < universe.size(); ++f) {
    const UntestableKind k = faults.untestable_kind(f);
    if (k == UntestableKind::kNone) continue;
    std::printf("%-34s %-11s %-14s %s\n", universe.fault_name(f).c_str(),
                std::string(to_string(faults.online_source(f))).c_str(),
                std::string(to_string(k)).c_str(),
                k == UntestableKind::kTied
                    ? "site constant in mission mode"
                    : "no sensitizable path to a read output");
  }
  std::printf("\neverything else remains in the self-test target list.\n");
  return 0;
}
