// olfui_cli — command-line front end for third-party netlists and for the
// built-in SBST campaign.
//
//   olfui_cli --sbst [options]
//     Grades the built-in MiniRISC32 SBST suite against the stuck-at (or
//     TDF) universe through the campaign orchestrator's in-process worker
//     pool:
//       --programs N         grade only the first N suite programs
//                            (N >= 1; 0 is a usage error)
//       --limit N            grade only the first N eligible faults per
//                            test (the CI smoke slice; 0 = all)
//       --threads N          worker threads (0 = all cores; at most
//                            INT_MAX)
//       --model sa|tdf       fault model (default sa)
//       --cache-dir DIR      persistent grade-result cache (campaign/
//                            cache.hpp): a repeat run with identical
//                            netlist, traces, and options decodes the
//                            stored deterministic payload and executes
//                            ZERO shards; any input change misses and
//                            re-grades. One JSON file per entry under
//                            DIR (created with its parents), written
//                            atomically; a corrupt file is detected and
//                            re-graded around. Prints a "cache: ..."
//                            summary line
//       --json FILE          full CampaignResult (runtime stats included)
//       --json-no-stats FILE deterministic payload only — byte-identical
//                            across thread counts, the file the CI smokes
//                            compare
//       --trace FILE         Chrome/Perfetto trace_event JSON of the whole
//                            campaign: test building, trace recording,
//                            plan/execute/merge, and one span per shard on
//                            the tid lane of the participant that graded
//                            it (side-band: the grading payload is
//                            byte-identical with or without it)
//       --metrics FILE       deterministic-ordered counters/histograms
//                            JSON (obs/metrics.hpp catalogue)
//       --progress           stderr heartbeat per shard batch: shards
//                            done/estimated, faults graded, faults/s, ETA
//
//   olfui_cli <netlist.v> [options]
//     Classifies in stages, each fault labelled (CSV online_source) by the
//     first stage that proves it untestable: "structural" for faults
//     untestable even with full access (printed apart: they are not
//     on-line faults), "mission" for the --tie/--unobserve restrictions,
//     "memory-map" for --memmap on top of them.
//     --tie NET=0|1        mission-constant net (repeatable)
//     --unobserve PORT     output port unread in mission mode (repeatable)
//     --memmap BASE:SIZE   mapped address range, SIZE > 0 (repeatable;
//                          enables the §3.3 pass over
//                          "addr:<class>:<bit>"-tagged flops)
//     --model sa|tdf       fault model (default sa)
//     --csv FILE           write the untestable-fault dossier as CSV
//     --json FILE          write the summary as JSON
//     --sweep              run the constant-sweep cleanup first
//     --campaign           grade a manufacturing scan-test campaign (chain
//                          test + random + PODEM patterns) through the
//                          parallel campaign orchestrator; needs scan
//                          chains ("scan_en"/"scan_in*"/"scan_out*" ports)
//     --threads N          orchestrator worker threads (0 = all cores; at
//                          most INT_MAX)
//     --trace FILE         campaign span trace (see --sbst above)
//     --metrics FILE       campaign metrics export (see --sbst above)
//
// An output FILE that cannot be written (open, write or close fails) is
// reported as "error: cannot write 'FILE'" with exit status 1.
//
// Example:
//   olfui_cli periph.v --tie test_mode=0 --unobserve dbg_tap --csv out.csv
//   olfui_cli core_scan.v --campaign --threads 8 --json coverage.json
//   olfui_cli --sbst --programs 2 --limit 320 --cache-dir cache/sbst
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/cache.hpp"
#include "campaign/json.hpp"
#include "campaign/report.hpp"
#include "fault/report.hpp"
#include "memmap/memmap.hpp"
#include "netlist/sweep.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sbst/sbst.hpp"
#include "scan/scan_atpg.hpp"
#include "sta/sta.hpp"
#include "util/strings.hpp"
#include "verilog/verilog.hpp"

namespace {

using namespace olfui;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <netlist.v> [--tie NET=0|1] [--unobserve PORT] "
               "[--memmap BASE:SIZE] [--model sa|tdf] [--csv FILE] "
               "[--json FILE] [--sweep] [--campaign] [--threads N] "
               "[--trace FILE] [--metrics FILE]\n"
               "       %s --sbst [--programs N] [--limit N] [--threads N] "
               "[--model sa|tdf] [--cache-dir DIR] "
               "[--json FILE] [--json-no-stats FILE] [--trace FILE] "
               "[--metrics FILE] [--progress]\n",
               argv0, argv0);
  std::exit(2);
}

/// The --threads value: 0 = all cores. A count no int can hold is a
/// usage error, never a silent wrap-around to some other count.
int parse_threads(const std::string& text, const char* argv0) {
  const auto n = parse_uint(text);
  if (!n || *n > static_cast<std::uint64_t>(std::numeric_limits<int>::max()))
    usage(argv0);
  return static_cast<int>(*n);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot read '%s'\n", path.c_str());
    std::exit(1);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Writes `content` to `path`, or exits 1 if the open, the write or the
/// close fails: an output flag never reports a file it did not write.
void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  out << content;
  out.close();
  if (!out) {
    std::fprintf(stderr, "error: cannot write '%s'\n", path.c_str());
    std::exit(1);
  }
  std::printf("wrote %s (%zu bytes)\n", path.c_str(), content.size());
}

// ---------------------------------------------------------------------------
// Observability surface shared by the campaign-running modes.

/// Enables the process-wide tracer/metrics before a campaign runs (both
/// are strictly side-band — the grading payload is byte-identical either
/// way, asserted in tests and CI).
void enable_observability(const std::string& trace_path,
                          const std::string& metrics_path) {
  if (!trace_path.empty()) obs::tracer().set_enabled(true);
  if (!metrics_path.empty()) obs::metrics().set_enabled(true);
}

void write_observability(const std::string& trace_path,
                         const std::string& metrics_path) {
  if (!trace_path.empty())
    write_file(trace_path, obs::tracer().to_json().dump() + "\n");
  if (!metrics_path.empty())
    write_file(metrics_path, obs::metrics().to_json().dump(2) + "\n");
}

/// Builds the opt-in stderr heartbeat: one throttled line per completed
/// shard batch with shards done / a (kLanes - 1)-per-shard estimate of
/// the total, faults graded, rate, and ETA. Progress callbacks arrive
/// serialized (the engine holds a mutex), so the state needs no further
/// locking.
CampaignProgress make_progress_heartbeat() {
  struct Heartbeat {
    std::string test;
    std::chrono::steady_clock::time_point t0, last;
    std::size_t shards = 0;
  };
  constexpr std::size_t batch = kLanes - 1;
  auto hb = std::make_shared<Heartbeat>();
  return [hb](const std::string& test, std::size_t graded,
              std::size_t targeted) {
    const auto now = std::chrono::steady_clock::now();
    if (test != hb->test) {
      hb->test = test;
      hb->t0 = now;
      hb->last = {};
      hb->shards = 0;
    }
    ++hb->shards;
    // Throttle to ~2 lines/s but always print a test's final shard.
    if (graded < targeted &&
        now - hb->last < std::chrono::milliseconds(500))
      return;
    hb->last = now;
    const double elapsed = std::chrono::duration<double>(now - hb->t0).count();
    const double rate =
        elapsed > 0 ? static_cast<double>(graded) / elapsed : 0.0;
    const double eta =
        rate > 0 ? static_cast<double>(targeted - graded) / rate : 0.0;
    const std::size_t est_shards = (targeted + batch - 1) / batch;
    std::fprintf(stderr,
                 "[progress] %s: shard %zu/~%zu, %zu/%zu faults, "
                 "%.0f faults/s, eta %.1fs\n",
                 test.c_str(), hb->shards, est_shards, graded, targeted, rate,
                 eta);
  };
}

// ---------------------------------------------------------------------------
// --sbst: the campaign over the built-in SBST workload.

int run_sbst_mode(int argc, char** argv) {
  std::size_t programs = 0, limit = 0;
  int threads = 0;
  bool transition = false, progress = false;
  std::string json_path, json_no_stats_path, cache_dir;
  std::string trace_path, metrics_path;

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    const auto next_uint = [&]() -> std::size_t {
      const auto n = parse_uint(next());
      if (!n) usage(argv[0]);
      return static_cast<std::size_t>(*n);
    };
    if (arg == "--programs") {
      // Unset (0) grades the whole suite; an explicit 0 would too, so it
      // is refused rather than silently widened.
      programs = next_uint();
      if (programs == 0) usage(argv[0]);
    } else if (arg == "--limit") {
      limit = next_uint();
    } else if (arg == "--threads") {
      threads = parse_threads(next(), argv[0]);
    } else if (arg == "--model") {
      const std::string model = next();
      if (model != "sa" && model != "tdf") usage(argv[0]);
      transition = model == "tdf";
    } else if (arg == "--cache-dir") {
      cache_dir = next();
    } else if (arg == "--json") {
      json_path = next();
    } else if (arg == "--json-no-stats") {
      json_no_stats_path = next();
    } else if (arg == "--trace") {
      trace_path = next();
    } else if (arg == "--metrics") {
      metrics_path = next();
    } else if (arg == "--progress") {
      progress = true;
    } else {
      usage(argv[0]);
    }
  }
  enable_observability(trace_path, metrics_path);

  auto soc = build_soc({});
  auto suite = build_sbst_suite(soc->config);
  if (programs && programs < suite.size())
    suite.erase(suite.begin() + static_cast<std::ptrdiff_t>(programs),
                suite.end());
  const FaultUniverse universe(soc->netlist);
  FaultList fl(universe);

  CampaignOptions opts;
  opts.threads = threads;
  opts.fault_model =
      transition ? FaultModel::kTransition : FaultModel::kStuckAt;
  opts.target_limit = limit;
  if (!cache_dir.empty()) {
    try {
      opts.cache = std::make_shared<ResultCache>(64, cache_dir);
    } catch (const std::runtime_error& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }

  std::printf("sbst campaign: %zu programs, %zu faults%s, model %s,\n"
              "  %d lanes\n",
              suite.size(), universe.size(), limit ? " (sliced)" : "",
              transition ? "tdf" : "sa", kLanes);

  const CampaignProgress heartbeat =
      progress ? make_progress_heartbeat() : CampaignProgress{};
  const SbstCampaignResult result =
      run_sbst_campaign(*soc, suite, fl, heartbeat, opts);
  for (const CampaignResult::PerTest& t : result.campaign.tests)
    std::printf("  %-12s %6d cycles %8zu new detections\n", t.name.c_str(),
                t.good_cycles, t.new_detections);
  const auto& stats = result.campaign.stats;
  std::printf("campaign: %zu new detections, %zu fault-test pairs graded, "
              "%zu screened (never activated or unobservable), "
              "%zu collapsed (equivalent), "
              "%zu batches, %.2f s, %.0f faults/sec\n",
              result.campaign.total_new_detections, stats.faults_simulated,
              stats.faults_screened, stats.faults_collapsed, stats.batches,
              stats.wall_seconds, stats.faults_per_second);
  if (opts.cache) {
    const ResultCacheStats cs = opts.cache->stats();
    std::printf("cache: %s (hits %zu, misses %zu, stores %zu)\n",
                stats.cache.c_str(), cs.hits, cs.misses, cs.stores);
  }

  if (!json_path.empty())
    write_file(json_path,
               campaign_result_to_json_string(result.campaign) + "\n");
  if (!json_no_stats_path.empty())
    write_file(json_no_stats_path,
               campaign_result_to_json_string(result.campaign, 2,
                                              /*include_stats=*/false) +
                   "\n");
  write_observability(trace_path, metrics_path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage(argv[0]);
  if (std::strcmp(argv[1], "--sbst") == 0) return run_sbst_mode(argc, argv);
  if (argv[1][0] == '-') usage(argv[0]);  // an unknown mode, not a netlist
  std::string input = argv[1];
  std::vector<std::pair<std::string, bool>> ties;
  std::vector<std::string> unobserved;
  MemoryMap map;
  bool use_memmap = false, sweep = false, transition = false, campaign = false;
  int threads = 0;
  std::string csv_path, json_path;
  std::string trace_path, metrics_path;

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--tie") {
      const std::string spec = next();
      const auto eq = spec.find('=');
      if (eq == std::string::npos) usage(argv[0]);
      const std::string value = spec.substr(eq + 1);
      if (value != "0" && value != "1") usage(argv[0]);
      ties.emplace_back(spec.substr(0, eq), value == "1");
    } else if (arg == "--unobserve") {
      unobserved.push_back(next());
    } else if (arg == "--memmap") {
      const std::string spec = next();
      const auto colon = spec.find(':');
      const auto base = parse_uint(spec.substr(0, colon));
      const auto size = parse_uint(spec.substr(colon + 1));
      // MemoryMap skips an empty range, which would leave every address
      // bit tied to 0; a range past 2^64 has no end address.
      if (colon == std::string::npos || !base || !size || *size == 0 ||
          *base + *size < *base)
        usage(argv[0]);
      map.add_range("range" + std::to_string(map.ranges().size()), *base, *size);
      use_memmap = true;
    } else if (arg == "--model") {
      const std::string model = next();
      if (model != "sa" && model != "tdf") usage(argv[0]);
      transition = model == "tdf";
    } else if (arg == "--csv") {
      csv_path = next();
    } else if (arg == "--json") {
      json_path = next();
    } else if (arg == "--sweep") {
      sweep = true;
    } else if (arg == "--campaign") {
      campaign = true;
    } else if (arg == "--threads") {
      threads = parse_threads(next(), argv[0]);
    } else if (arg == "--trace") {
      trace_path = next();
    } else if (arg == "--metrics") {
      metrics_path = next();
    } else {
      usage(argv[0]);
    }
  }
  enable_observability(trace_path, metrics_path);

  Netlist nl = [&] {
    try {
      return parse_verilog(read_file(input));
    } catch (const VerilogError& e) {
      std::fprintf(stderr, "%s: %s\n", input.c_str(), e.what());
      std::exit(1);
    }
  }();
  if (sweep) {
    SweepStats st;
    nl = constant_sweep(nl, &st);
    std::printf("sweep: %zu -> %zu cells\n", st.cells_in, st.cells_out);
  }
  std::printf("%s: %zu cells, %zu nets, %zu flops\n", nl.name().c_str(),
              nl.stats().cells, nl.stats().nets, nl.stats().flops);

  MissionConfig mission;
  for (const auto& [name, value] : ties) {
    const NetId n = nl.find_net(name);
    if (n == kInvalidId) {
      std::fprintf(stderr, "error: no net '%s'\n", name.c_str());
      return 1;
    }
    mission.tie(n, value);
  }
  for (const std::string& name : unobserved) {
    const CellId c = nl.find_output(name);
    if (c == kInvalidId) {
      std::fprintf(stderr, "error: no output port '%s'\n", name.c_str());
      return 1;
    }
    mission.unobserve(c);
  }

  const FaultUniverse universe(nl);
  const StructuralAnalyzer sta(nl, universe);
  FaultList faults(universe);
  const auto classify = [&](const MissionConfig& cfg, OnlineSource s) {
    const StaResult r = sta.analyze(cfg);
    return transition ? sta.classify_transition_faults(r, faults, s)
                      : sta.classify_faults(r, faults, s);
  };
  // Staged like OnlineUntestabilityAnalyzer::run, each fault keeping the
  // first stage that proves it: the faults untestable even with full
  // access are not on-line faults; then the --tie/--unobserve
  // restrictions; then the memory map on top of them.
  const std::size_t structural =
      classify(MissionConfig{}, OnlineSource::kStructural);
  const std::size_t by_mission = classify(mission, OnlineSource::kMission);
  std::size_t by_memmap = 0;
  if (use_memmap) {
    mission.merge(memmap_config(nl, map, 32));
    by_memmap = classify(mission, OnlineSource::kMemoryMap);
  }
  const std::size_t pruned = by_mission + by_memmap;

  const auto pct = [&](std::size_t n) {
    return universe.size() ? 100.0 * static_cast<double>(n) /
                                 static_cast<double>(universe.size())
                           : 0.0;
  };
  std::printf("fault model: %s\n", transition ? "transition-delay" : "stuck-at");
  std::printf("pre-existing structural (untestable with full access): %zu "
              "(%.1f%%)\n",
              structural, pct(structural));
  std::printf("on-line functionally untestable: %zu / %zu (%.1f%%)\n", pruned,
              universe.size(), pct(pruned));
  std::printf("  mission (--tie/--unobserve): %zu\n", by_mission);
  if (use_memmap) std::printf("  memory-map (--memmap):       %zu\n", by_memmap);
  std::printf("\n%s", module_breakdown_table(faults).c_str());

  Json manuf_json;  // filled by --campaign, merged into --json output
  if (campaign) {
    if (transition) {
      std::fprintf(stderr,
                   "error: --campaign applies stuck-at scan patterns; it "
                   "cannot grade the transition-delay model (--model tdf)\n");
      return 1;
    }
    ScanChains chains;
    try {
      chains = trace_scan(nl);
    } catch (const std::exception& e) {
      std::fprintf(stderr,
                   "error: --campaign needs traceable scan chains: %s\n",
                   e.what());
      return 1;
    }
    ScanAtpgOptions atpg_opts;
    atpg_opts.campaign.threads = threads;
    // Mission-constant nets keep their values during test application.
    for (const auto& [name, value] : ties)
      atpg_opts.pin_constraints.emplace_back(nl.find_net(name), value);
    const int resolved =
        CampaignEngine(universe, atpg_opts.campaign).resolved_threads();
    std::printf("\nmanufacturing campaign: %zu chains, %zu scan flops, "
                "%d threads\n",
                chains.chains.size(), chains.num_flops(), resolved);
    // Manufacturing runs with full tester access: grade a fresh fault
    // list so the mission-mode untestability marks above don't shrink
    // the target queue (they are exactly the faults whose scan coverage
    // the gap argument needs).
    FaultList manuf(universe);
    const ScanAtpgResult atpg =
        generate_scan_tests(nl, chains, universe, manuf, atpg_opts);
    std::printf("  chain test:    %zu detected\n", atpg.detected_by_chain_test);
    std::printf("  random:        %zu detected (%zu kept patterns)\n",
                atpg.detected_by_random, atpg.patterns.size());
    std::printf("  deterministic: %zu detected, %zu proven redundant, "
                "%zu aborted\n",
                atpg.detected_by_deterministic, atpg.proven_untestable,
                atpg.aborted);
    std::printf("  manufacturing coverage:  %6.2f%%\n",
                100.0 * manuf.raw_coverage());
    // The paper's gap: faults the tester detects but the mission-mode
    // analysis above proved on-line untestable.
    std::size_t gap = 0;
    for (FaultId f = 0; f < universe.size(); ++f)
      if (manuf.detect_state(f) == DetectState::kDetected &&
          faults.untestable_kind(f) != UntestableKind::kNone &&
          faults.online_source(f) != OnlineSource::kStructural)
        ++gap;
    std::printf("  detected on the tester but on-line untestable: %zu "
                "(%.2f%% of the universe)\n",
                gap, 100.0 * static_cast<double>(gap) /
                         static_cast<double>(universe.size()));

    manuf_json = Json::object();
    manuf_json.set("threads", resolved);
    manuf_json.set("detected_by_chain_test", atpg.detected_by_chain_test);
    manuf_json.set("detected_by_random", atpg.detected_by_random);
    manuf_json.set("detected_by_deterministic",
                   atpg.detected_by_deterministic);
    manuf_json.set("proven_untestable", atpg.proven_untestable);
    manuf_json.set("aborted", atpg.aborted);
    manuf_json.set("kept_patterns", atpg.patterns.size());
    manuf_json.set("coverage", manuf.raw_coverage());
    manuf_json.set("detected_but_online_untestable", gap);
  }

  write_observability(trace_path, metrics_path);
  if (!csv_path.empty()) write_file(csv_path, to_csv(faults, true));
  if (!json_path.empty()) {
    std::string summary = to_json_summary(faults);
    if (manuf_json.is_object()) {
      Json doc = Json::parse(summary);
      doc.set("manufacturing_campaign", std::move(manuf_json));
      summary = doc.dump(2);
    }
    write_file(json_path, summary);
  }
  return 0;
}
