// sbst_flow — developing and grading a software-based self-test suite.
//
// Shows the SBST side of the toolkit: assemble test programs with the
// Program builder, execute them on the gate-level SoC, inspect signatures
// and net activity, find which input ports the suite never exercises
// (the paper's §4 screening step), and grade part of the suite against
// the stuck-at universe through the parallel campaign orchestrator,
// exporting the result as JSON.
//
//   $ ./sbst_flow
#include <cstdio>

#include "campaign/report.hpp"
#include "debug/debug.hpp"
#include "sbst/sbst.hpp"

int main() {
  using namespace olfui;

  SocConfig cfg;
  cfg.cpu.with_multiplier = false;  // keep the demo snappy
  auto soc = build_soc(cfg);

  // --- a hand-written self-test program ---------------------------------
  Program checksum(cfg.cpu.reset_vector);
  const std::uint32_t ram = static_cast<std::uint32_t>(cfg.ram_base);
  checksum.li(0, 0);
  checksum.li(7, ram);
  checksum.li(1, 0x1234'5678);  // seed
  checksum.li(2, 16);           // rounds
  checksum.li(3, 0);            // checksum
  checksum.label("round");
  checksum.add(3, 3, 1);
  checksum.xor_(1, 1, 3);
  checksum.sll(4, 1, 2);  // shift by loop counter (bits 4..0)
  checksum.or_(3, 3, 4);
  checksum.addi(2, 2, -1);
  checksum.bne(2, 0, "round");
  checksum.sw(3, 7, 0);
  checksum.halt();

  SocSimulator sim(*soc);
  sim.load_program(checksum);
  const int cycles = sim.run(2000);
  std::printf("hand-written checksum program: %d cycles, halted=%d\n", cycles,
              sim.halted());
  std::printf("  signature @RAM[0] = 0x%08x\n\n", sim.ram_word(ram));

  // --- the shipped suite -------------------------------------------------
  // Each program's good machine is recorded once, as a campaign records
  // it; the trace yields both its cycle count and its net activity.
  auto suite = build_sbst_suite(cfg);
  const FaultUniverse universe(soc->netlist);
  const auto topo = PackedTopology::build(soc->netlist);
  NetActivation activity;
  std::printf("%-12s %8s\n", "program", "cycles");
  for (SbstProgram& sp : suite) {
    const SbstCampaignTest t =
        build_sbst_campaign_test(*soc, sp, universe, topo);
    std::printf("%-12s %8d\n", sp.name.c_str(), t.test.good_cycles);
    activity |= t.trace->activation();
  }

  // --- activity screening --------------------------------------------------
  const auto quiet = find_quiet_inputs(soc->netlist, activity);
  std::printf("\ninput ports never exercised by the suite (%zu):\n", quiet.size());
  for (NetId n : quiet)
    std::printf("  %s\n", soc->netlist.net(n).name.c_str());
  std::printf("\nthese are the candidates the DATE'13 flow ties off before the\n"
              "structural untestability analysis.\n");

  // --- fault-simulation campaign through the orchestrator -----------------
  // Two programs keep the demo snappy; the full-suite equivalent is
  // `olfui_cli --sbst` (timed by benchmark/) / bench_coverage_gain.
  auto graded = suite;
  graded.erase(graded.begin() + 2, graded.end());
  FaultList fl(universe);
  std::printf("\ngrading %zu programs against %zu faults "
              "(system-bus observability)...\n",
              graded.size(), universe.size());
  const SbstCampaignResult campaign = run_sbst_campaign(*soc, graded, fl);
  for (const CampaignResult::PerTest& t : campaign.campaign.tests)
    std::printf("  %-12s %6d cycles %8zu new detections\n", t.name.c_str(),
                t.good_cycles, t.new_detections);
  const auto& stats = campaign.campaign.stats;
  std::printf("campaign: %d threads, %zu batches, %.1f s, %.0f faults/sec\n",
              stats.threads, stats.batches, stats.wall_seconds,
              stats.faults_per_second);
  std::printf("coverage: %.2f%% raw\n", 100.0 * campaign.campaign.raw_coverage);

  const std::string json = campaign_result_to_json_string(campaign.campaign);
  std::printf("\ncampaign result as JSON (%zu bytes), first lines:\n",
              json.size());
  for (std::size_t pos = 0, line = 0; line < 8 && pos < json.size(); ++line) {
    const auto nl_pos = json.find('\n', pos);
    const std::size_t len =
        (nl_pos == std::string::npos ? json.size() : nl_pos) - pos;
    std::printf("  %.*s\n", static_cast<int>(len), json.c_str() + pos);
    if (nl_pos == std::string::npos) break;
    pos = nl_pos + 1;
  }
  return 0;
}
