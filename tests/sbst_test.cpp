#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "divergence_oracle.hpp"
#include "sbst/sbst.hpp"
#include "sta/sta.hpp"
#include "util/strings.hpp"

namespace olfui {
namespace {

SocConfig lean_config() {
  SocConfig cfg;
  cfg.cpu.btb_entries = 2;
  cfg.cpu.with_multiplier = false;
  cfg.scan.num_chains = 2;
  return cfg;
}

TEST(SbstSuite, EveryProgramHaltsOnTheFullSoc) {
  // The full case-study configuration (multiplier included) and the lean
  // one. A campaign test takes its cycle count from the packed pass that
  // records its checkpoint; it must equal the functional runner's.
  for (const SocConfig& cfg : {SocConfig{}, lean_config()}) {
    auto soc = build_soc(cfg);
    auto suite = build_sbst_suite(cfg);
    ASSERT_GE(suite.size(), cfg.cpu.with_multiplier ? 8u : 7u);
    const FaultUniverse u(soc->netlist);
    const auto topo = PackedTopology::build(soc->netlist);
    for (SbstProgram& sp : suite) {
      SocSimulator sim(*soc);
      sim.load_program(sp.program);
      const int cycles = sim.run(kSbstFunctionalCycleCap);
      EXPECT_TRUE(sim.halted()) << sp.name;
      EXPECT_GT(cycles, 5) << sp.name;
      EXPECT_LT(cycles, kSbstFunctionalCycleCap) << sp.name;

      const SbstCampaignTest built = build_sbst_campaign_test(*soc, sp, u, topo);
      EXPECT_EQ(built.test.good_cycles, cycles) << sp.name;
      // The trace ends on the cycle after HALT shows; it bounds every batch.
      EXPECT_EQ(built.trace->cycles, cycles + 1) << sp.name;
    }
  }
}

TEST(SbstSuite, ProgramThatNeverHaltsCountsTheCycleCap) {
  const SocConfig cfg = lean_config();
  auto soc = build_soc(cfg);
  std::vector<SbstProgram> suite{{"spin", Program(cfg.cpu.reset_vector)}};
  suite[0].program.label("spin");
  suite[0].program.beq(0, 0, "spin");
  const FaultUniverse u(soc->netlist);
  const auto topo = PackedTopology::build(soc->netlist);
  const SbstCampaignTest built =
      build_sbst_campaign_test(*soc, suite[0], u, topo);
  EXPECT_EQ(built.test.good_cycles, kSbstFunctionalCycleCap);
  EXPECT_EQ(built.trace->cycles, kSbstFunctionalCycleCap + 1);
}

TEST(SbstSuite, MulProgramOnlyWithMultiplier) {
  SocConfig with = {};
  SocConfig without = lean_config();
  const auto names = [](const std::vector<SbstProgram>& s) {
    std::vector<std::string> n;
    for (const auto& p : s) n.push_back(p.name);
    return n;
  };
  const auto w = names(build_sbst_suite(with));
  const auto wo = names(build_sbst_suite(without));
  EXPECT_NE(std::find(w.begin(), w.end(), "mul"), w.end());
  EXPECT_EQ(std::find(wo.begin(), wo.end(), "mul"), wo.end());
}

TEST(SbstSuite, AluArithSignaturesMatchReference) {
  SocConfig cfg = lean_config();
  auto soc = build_soc(cfg);
  auto suite = build_sbst_suite(cfg);
  SocSimulator sim(*soc);
  sim.load_program(suite[0].program);  // alu_arith
  sim.run(3000);
  ASSERT_TRUE(sim.halted());
  const std::uint64_t ram = cfg.ram_base;
  EXPECT_EQ(sim.ram_word(ram + 0), 0xAAAA5555u + 0xFFu);
  EXPECT_EQ(sim.ram_word(ram + 4), 0xAAAA5555u - 0xFFu);
  EXPECT_EQ(sim.ram_word(ram + 8), 0xFFFFFFFEu);  // -1 + -1
  EXPECT_EQ(sim.ram_word(ram + 12), 0xFFu - 0xAAAA5555u);
  EXPECT_EQ(sim.ram_word(ram + 16), 1u);  // 0xFF < 0xAAAA5555
  EXPECT_EQ(sim.ram_word(ram + 20), 0u);
  EXPECT_EQ(sim.ram_word(ram + 24), 0u);  // equal operands
  EXPECT_EQ(sim.ram_word(ram + 28), 0xFFFFFFFFu);  // sum of walking ones
  EXPECT_EQ(sim.ram_word(ram + 32), 0x55555555u + 0x33333333u);
}

TEST(SbstSuite, ShiftSignatures) {
  SocConfig cfg = lean_config();
  auto soc = build_soc(cfg);
  auto suite = build_sbst_suite(cfg);
  SocSimulator sim(*soc);
  sim.load_program(suite[2].program);  // shift
  sim.run(3000);
  ASSERT_TRUE(sim.halted());
  const std::uint64_t base = cfg.ram_base + 0x200;
  const std::uint32_t v = 0x80000003u;
  for (int n = 0; n < 32; ++n) {
    const std::uint32_t expect = (v << n) ^ (v >> n);
    EXPECT_EQ(sim.ram_word(base + 4u * static_cast<std::uint32_t>(n)), expect)
        << "amount " << n;
  }
}

TEST(SbstSuite, MulSignatures) {
  SocConfig cfg;  // multiplier on
  auto soc = build_soc(cfg);
  auto suite = build_sbst_suite(cfg);
  std::size_t mul_idx = 0;
  for (std::size_t i = 0; i < suite.size(); ++i)
    if (suite[i].name == "mul") mul_idx = i;
  SocSimulator sim(*soc);
  sim.load_program(suite[mul_idx].program);
  sim.run(5000);
  ASSERT_TRUE(sim.halted());
  const std::uint64_t base = cfg.ram_base + 0x700;
  EXPECT_EQ(sim.ram_word(base + 0), 15u);
  EXPECT_EQ(sim.ram_word(base + 4), 1u);  // (-1)^2 mod 2^32
  EXPECT_EQ(sim.ram_word(base + 8), 0x0001'0001u * 0xFFFFu);
  std::uint32_t acc = 0;
  for (int b = 0; b < 32; ++b)
    acc += static_cast<std::uint32_t>((1ULL << b) * (1ULL << b));
  EXPECT_EQ(sim.ram_word(base + 12), acc);
  EXPECT_EQ(sim.ram_word(base + 16), 0xAAAAAAAAu * 0x55555555u);
  EXPECT_EQ(sim.ram_word(base + 20), 0x55555555u * 0x55555555u);
}

TEST(SbstSuite, LoadStoreWalksTheRamRange) {
  SocConfig cfg = lean_config();
  auto soc = build_soc(cfg);
  auto suite = build_sbst_suite(cfg);
  std::size_t ls_idx = 0;
  for (std::size_t i = 0; i < suite.size(); ++i)
    if (suite[i].name == "loadstore") ls_idx = i;
  SocSimulator sim(*soc);
  sim.load_program(suite[ls_idx].program);
  sim.run(4000);
  ASSERT_TRUE(sim.halted());
  // The walk stored at every power-of-two offset inside RAM.
  std::uint32_t data = 0xDEADBEEFu;
  std::uint64_t sum = 0;
  for (std::uint64_t off = 4; off < cfg.ram_size; off *= 2) {
    // Offsets 8 and 64 are overwritten by the program's later stores
    // (flash read-back and offset-form addressing checks).
    if (off != 8 && off != 64) {
      EXPECT_EQ(sim.ram_word(cfg.ram_base + off), data) << off;
    }
    sum += data;
    data += static_cast<std::uint32_t>(off);
  }
  EXPECT_EQ(sim.ram_word(cfg.ram_base),
            static_cast<std::uint32_t>(sum));
  // Flash read-back stored the program's first word.
  EXPECT_EQ(sim.ram_word(cfg.ram_base + 8), suite[ls_idx].program.words()[0]);
}

TEST(SbstSuite, FunctionalRunnerReportsCycles) {
  SocConfig cfg = lean_config();
  auto soc = build_soc(cfg);
  auto suite = build_sbst_suite(cfg);
  const auto cycles = run_suite_functional(*soc, suite, 5000);
  ASSERT_EQ(cycles.size(), suite.size());
  for (std::size_t i = 0; i < cycles.size(); ++i)
    EXPECT_GT(cycles[i], 5) << suite[i].name;
}

TEST(SbstSuite, QuietInputsOfTheFullSocArePinned) {
  // §4: "any signal still showing no activity was identified as suspect.
  // The result has been the selection of 17 signals, related to the debug
  // functionalities." The screen reads the suite's recorded traces: the
  // input ports that held one value over every traced cycle, in port
  // order. They are the whole debug access port, the idle scan pins, the
  // reset held high after reset, and four bus input bits the suite never
  // moves.
  auto soc = build_soc({});
  auto suite = build_sbst_suite(soc->config);
  const FaultUniverse u(soc->netlist);
  const auto topo = PackedTopology::build(soc->netlist);
  NetActivation activity;
  int traced_cycles = 0;
  for (SbstProgram& sp : suite) {
    const SbstCampaignTest built = build_sbst_campaign_test(*soc, sp, u, topo);
    traced_cycles += built.trace->cycles;
    activity |= built.trace->activation();
  }
  EXPECT_EQ(traced_cycles, 931);
  EXPECT_EQ(soc->netlist.input_cells().size(), 87u);

  std::vector<std::string> want = {"rstn", "instr_i16", "instr_i17",
                                   "rdata_i22", "rdata_i24"};
  ASSERT_EQ(soc->debug.control_inputs.size(), 17u);
  for (NetId n : soc->debug.control_inputs)
    want.push_back(soc->netlist.net(n).name);
  for (const char* pin :
       {"scan_en", "scan_in0", "scan_in1", "scan_in2", "scan_in3"})
    want.push_back(pin);
  std::vector<std::string> got;
  for (NetId n : find_quiet_inputs(soc->netlist, activity))
    got.push_back(soc->netlist.net(n).name);
  EXPECT_EQ(got, want);
}

TEST(SbstSuite, ReferenceTracesArePinned) {
  // Each program's recorded good machine, pinned as data. The result
  // cache key hashes these fingerprints, so a kernel change that moved one
  // net on one cycle would silently turn every stored result into a miss;
  // here it fails by program name.
  struct Row {
    const char* name;
    int cycles;                 ///< ReferenceTrace::cycles
    std::uint64_t fingerprint;  ///< ReferenceTrace::fingerprint()
  };
  const Row rows[] = {
      {"alu_arith", 135, 0x859d4f8149f75a41ULL},
      {"alu_logic", 32, 0x282d8a529e288b27ULL},
      {"shift", 237, 0x5ffee77a114aed79ULL},
      {"regfile", 44, 0x4f19f52cfee5d587ULL},
      {"branch_btb", 89, 0x54c7a9a34c4bb8c0ULL},
      {"loadstore", 195, 0xdb823a2a64e04645ULL},
      {"mul", 164, 0x4636702f12ddd3a2ULL},
      {"decode", 35, 0xceebc2b6dbe7e039ULL},
  };
  auto soc = build_soc({});
  auto suite = build_sbst_suite(soc->config);
  ASSERT_EQ(suite.size(), std::size(rows));
  const FaultUniverse u(soc->netlist);
  const auto topo = PackedTopology::build(soc->netlist);
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const Row& row = rows[i];
    EXPECT_EQ(suite[i].name, row.name);
    const SbstCampaignTest built =
        build_sbst_campaign_test(*soc, suite[i], u, topo);
    EXPECT_EQ(built.trace->cycles, row.cycles) << row.name;
    EXPECT_EQ(built.trace->fingerprint(), row.fingerprint)
        << row.name << ": 0x" << std::hex << built.trace->fingerprint();
  }
}

// ---------------------------------------------------------------------------
// The sweep oracle on the SoC. Production SBST tests grade on the event
// kernel with incremental clocking. An oracle test grades the same program
// on a test-local full-sweep kernel, so the reference mode never becomes
// a library option. It records its own reference trace and activation
// screen on that kernel too, so a fault in the production kernel's
// recording cannot reach both legs of a comparison.

class OracleRunner final : public FaultBatchRunner {
 public:
  OracleRunner(const Soc& soc, const FaultUniverse& u,
               std::shared_ptr<const FlashImage> flash,
               std::shared_ptr<const ReferenceTrace> trace, FaultModel model)
      : flash_(std::move(flash)),
        trace_(std::move(trace)),
        env_(soc, *flash_),
        fsim_(soc.netlist, u),
        model_(model) {
    fsim_.sim().set_eval_mode(PackedEvalMode::kFullSweep);
    fsim_.set_observed(soc.cpu.bus_output_cells);
  }
  LaneMask run_batch(std::span<const FaultId> faults) override {
    return fsim_.run_batch(faults, env_, *trace_, model_);
  }

 private:
  std::shared_ptr<const FlashImage> flash_;
  std::shared_ptr<const ReferenceTrace> trace_;
  SocFsimEnvironment env_;
  SequentialFaultSimulator fsim_;
  FaultModel model_;
};

/// The good-machine pass of build_sbst_campaign_test, run on the sweep
/// kernel: same budget, same environment.
ReferenceTrace record_oracle_trace(const Soc& soc, const FaultUniverse& u,
                                   const FlashImage& flash,
                                   NetActivation& activation) {
  SocFsimEnvironment env(soc, flash);
  SequentialFaultSimulator tracer(soc.netlist, u);
  tracer.sim().set_eval_mode(PackedEvalMode::kFullSweep);
  tracer.set_observed(soc.cpu.bus_output_cells);
  return tracer.record_reference_trace(env, kSbstFunctionalCycleCap + 1,
                                       &activation);
}

/// The activation screen, restated from its definition: a stuck-at-v
/// fault is inert if its site never held !v, a transition fault if its
/// site never made the fault's transition.
BitVec oracle_inert(const FaultUniverse& u, const NetActivation& act,
                    FaultModel model) {
  BitVec inert(u.size());
  for (FaultId f = 0; f < u.size(); ++f) {
    const Fault& fault = u.fault(f);
    const std::vector<std::uint64_t>& acting =
        model == FaultModel::kTransition ? (fault.sa1 ? act.fell : act.rose)
                                         : (fault.sa1 ? act.seen0 : act.seen1);
    if (!NetActivation::test(acting, u.netlist().pin_net(fault.pin)))
      inert.set(f, true);
  }
  return inert;
}

/// `built` (the production test for `program`) with its trace and runners
/// replaced by ones recorded and graded on the sweep kernel, and its screen by
/// the activation screen restated over the oracle's own activation. The
/// recorded trace and that screen must equal the production test's trace
/// and activation half.
CampaignTest oracle_test(const Soc& soc, const FaultUniverse& u,
                         SbstProgram& program,
                         const SbstCampaignTest& built, FaultModel model) {
  auto flash = std::make_shared<FlashImage>(soc.config.flash_base,
                                            soc.config.flash_size);
  flash->load(program.program.base(), program.program.words());
  NetActivation activation;
  auto trace = std::make_shared<const ReferenceTrace>(
      record_oracle_trace(soc, u, *flash, activation));
  CampaignTest test = built.test;
  const BitVec inert = oracle_inert(u, activation, model);
  test.screen = [inert] { return inert; };
  EXPECT_EQ(trace->fingerprint(), built.trace->fingerprint()) << program.name;
  EXPECT_EQ(inert, inert_faults(u, *built.activation, model)) << program.name;
  test.make_runner = [&soc, &u, flash = std::move(flash),
                      trace = std::move(trace), model] {
    return std::make_unique<OracleRunner>(soc, u, flash, trace, model);
  };
  return test;
}

TEST(SbstScreen, ProverMatchesTheSweepOracleUnderTraceConstants) {
  // One program's trace constants on the lean SoC, observed at the bus:
  // one memoized prover walks every pin in id order, and its verdict
  // equals the screen's unobservable half on every pin and the sweep
  // oracle's on every pin the backward filter leaves to the proof and on
  // every 8th pin the filter passes (it passes only pins the proof passes
  // too). Both verdicts occur, and the memo answers most proofs.
  auto soc = build_soc(lean_config());
  auto suite = build_sbst_suite(soc->config);
  const FaultUniverse u(soc->netlist);
  const Netlist& nl = soc->netlist;
  const auto it = std::find_if(suite.begin(), suite.end(),
                               [](const SbstProgram& p) {
                                 return p.name == "alu_logic";
                               });
  ASSERT_NE(it, suite.end());
  const SbstCampaignTest built =
      build_sbst_campaign_test(*soc, *it, u, PackedTopology::build(nl));
  const NetActivation& act = *built.activation;
  const StructuralAnalyzer sta(nl, u);
  const StaResult r = sta.analyze_values(
      trace_constants(act, nl.num_nets()), soc->cpu.bus_output_cells);
  const SweepObservabilityOracle oracle(nl);
  ObservabilityProver prover(sta, r);
  const BitVec unobservable =
      unobservable_faults(u, act, soc->cpu.bus_output_cells);
  std::size_t left_to_proof = 0, observable = 0, compared = 0, disagree = 0;
  for (FaultId f = 0; f < u.size(); f += 2) {
    const Pin pin = u.fault(f).pin;
    const bool proved = prover.possibly_observable(pin);
    ASSERT_EQ(unobservable.get(f), !proved) << u.fault_name(f);
    observable += proved;
    left_to_proof += !r.pin_observable[f / 2];
    if (r.pin_observable[f / 2] && f % 16 != 0) continue;
    ++compared;
    disagree += proved != oracle.possibly_observable(r, pin);
  }
  EXPECT_EQ(disagree, 0u);
  EXPECT_GT(compared, left_to_proof);
  EXPECT_GT(observable, 0u);
  EXPECT_GT(unobservable.count(), u.size() / 3);
  EXPECT_LT(prover.proofs(), left_to_proof / 4);
}

TEST(SbstCampaign, DetectsASubstantialFractionAndDropsFaults) {
  // Lean SoC + two programs keeps this in unit-test time while still
  // exercising the whole campaign machinery.
  SocConfig cfg = lean_config();
  cfg.scan.num_chains = 1;
  auto soc = build_soc(cfg);
  auto suite = build_sbst_suite(cfg);
  suite.erase(suite.begin() + 2, suite.end());  // alu_arith + alu_logic
  const FaultUniverse u(soc->netlist);
  FaultList fl(u);
  const CampaignResult result = run_sbst_campaign(*soc, suite, fl).campaign;
  ASSERT_EQ(result.tests.size(), 2u);
  EXPECT_EQ(result.total_new_detections, fl.count_detected());
  EXPECT_GT(fl.raw_coverage(), 0.15);
  // Fault dropping: the second program targets fewer faults, so its new
  // detections are fewer than the first's.
  EXPECT_GT(result.tests[0].new_detections, result.tests[1].new_detections);
}

TEST(SbstCampaign, TransitionModelGradesThroughTheOrchestrator) {
  // The §5 extension end-to-end: the same suite, graded for TDF coverage
  // through the same engine. One short program on the lean SoC keeps the
  // TDF batches in unit-test time.
  SocConfig cfg = lean_config();
  cfg.scan.num_chains = 1;
  auto soc = build_soc(cfg);
  auto suite = build_sbst_suite(cfg);
  suite.erase(suite.begin() + 1, suite.end());  // alu_arith only
  const FaultUniverse u(soc->netlist);

  CampaignOptions opts;
  opts.fault_model = FaultModel::kTransition;
  opts.threads = 1;
  FaultList fl1(u);
  const auto r1 = run_sbst_campaign(*soc, suite, fl1, {}, opts);
  EXPECT_EQ(r1.campaign.fault_model, FaultModel::kTransition);
  EXPECT_GT(r1.campaign.total_new_detections, 0u);
  EXPECT_EQ(r1.campaign.total_new_detections, fl1.count_detected());

  // Thread count never shows through the deterministic payload.
  opts.threads = 4;
  FaultList fl4(u);
  const auto r4 = run_sbst_campaign(*soc, suite, fl4, {}, opts);
  EXPECT_EQ(r4.campaign, r1.campaign);
  EXPECT_EQ(r4.campaign.detected, r1.campaign.detected);

  // Both kernels through the engine: the full-sweep oracle, over a trace
  // and activation screen it records itself, grades the identical TDF
  // payload (run_sbst_campaign itself always uses the event kernel, so
  // the sweep runs in a test-local oracle test). The oracle test has no
  // observability half, so the production screen drops nothing the
  // oracle detects.
  const SbstCampaignTest built =
      build_sbst_campaign_test(*soc, suite[0], u,
                               PackedTopology::build(soc->netlist),
                               FaultModel::kTransition);
  const std::vector<CampaignTest> sweep_tests = {
      oracle_test(*soc, u, suite[0], built, FaultModel::kTransition)};
  FaultList fls(u);
  const CampaignResult rs =
      CampaignEngine(u, {.threads = 2, .fault_model = FaultModel::kTransition})
          .run(fls, sweep_tests);
  EXPECT_EQ(rs.detected, r1.campaign.detected);
  EXPECT_EQ(rs.total_new_detections, r1.campaign.total_new_detections);

  // Empirical for this fixed program (not a theorem — sequential masking
  // of the always-armed stuck fault could break it in general): TDF
  // coverage stays at or below stuck-at coverage.
  FaultList sa(u);
  const auto rsa = run_sbst_campaign(*soc, suite, sa, {});
  EXPECT_EQ(rsa.campaign.fault_model, FaultModel::kStuckAt);
  EXPECT_LE(r1.campaign.total_new_detections,
            rsa.campaign.total_new_detections);
}

TEST(SbstCampaign, SweepOracleReproducesProductionDetections) {
  // The oracle records the program's trace and activation screen on the
  // full-sweep kernel, which must equal the production test's, and grades
  // a fixed fault slice over them; its per-target flags must equal the
  // production test's, graded through the engine, bit for bit. The
  // serial oracle (serial_oracle.hpp) checks the same batches with no
  // packed code at all, on random designs.
  const SocConfig cfg = lean_config();
  auto soc = build_soc(cfg);
  auto suite = build_sbst_suite(cfg);
  const FaultUniverse u(soc->netlist);
  const auto topo = PackedTopology::build(soc->netlist);
  constexpr FaultId kStride = 37;  // 1,023 of the lean SoC's 37,834 faults
  std::vector<FaultId> targets;
  for (FaultId f = 0; f < u.size(); f += kStride) targets.push_back(f);
  ASSERT_GT(targets.size(), 1000u);

  for (const FaultModel model :
       {FaultModel::kStuckAt, FaultModel::kTransition}) {
    const CampaignEngine engine(u, {.threads = 2, .fault_model = model});
    for (const std::string name : {"alu_arith", "branch_btb"}) {
      const auto it = std::find_if(
          suite.begin(), suite.end(),
          [&](const SbstProgram& p) { return p.name == name; });
      ASSERT_NE(it, suite.end()) << name;
      SbstProgram& program = *it;
      const std::string ctx =
          std::string(to_string(model)) + " " + program.name;
      const SbstCampaignTest built =
          build_sbst_campaign_test(*soc, program, u, topo, model);
      const BitVec reference = engine.grade(targets, built.test);
      EXPECT_GT(reference.count(), 0u) << ctx;
      EXPECT_EQ(engine.grade(targets,
                             oracle_test(*soc, u, program, built, model)),
                reference)
          << ctx;
    }
  }
}

TEST(SbstCampaign, ResetDivergingFaultsMatchTheSweepOracle) {
  // A batch starts from the trace's power-on plane and runs the reset with
  // its stuck-at faults armed, so a faulty lane can leave the reset with a
  // flop state of its own. The faults below provably do, on the full-sweep
  // kernel and on the start alike; graded from the plane, their verdicts
  // under both models are the sweep oracle's, with no full sweep.
  const SocConfig cfg = lean_config();
  auto soc = build_soc(cfg);
  auto suite = build_sbst_suite(cfg);
  const Netlist& nl = soc->netlist;
  const FaultUniverse u(nl);
  const auto topo = PackedTopology::build(nl);
  FlashImage flash(cfg.flash_base, cfg.flash_size);
  flash.load(suite[0].program.base(), suite[0].program.words());
  const int cycles = kSbstFunctionalCycleCap + 1;
  SocFsimEnvironment env(*soc, flash);
  SequentialFaultSimulator fsim(nl, u, topo), oracle(nl, u, topo);
  for (auto* s : {&fsim, &oracle}) s->set_observed(soc->cpu.bus_output_cells);
  oracle.sim().set_eval_mode(PackedEvalMode::kFullSweep);
  const ReferenceTrace trace = fsim.record_reference_trace(env, cycles);

  // The lanes whose flop state differs from lane 0's after the reset.
  const auto diverged_after_reset = [&](std::span<const FaultId> faults,
                                        PackedEvalMode mode) {
    PackedSim sim(topo);
    sim.set_eval_mode(mode);
    for (std::size_t i = 0; i < faults.size(); ++i) {
      const Fault& f = u.fault(faults[i]);
      sim.add_injection({f.pin.cell, f.pin.pin, f.sa1,
                         lane_bit(static_cast<int>(i) + 1)});
    }
    sim.power_on(trace.power_on.data());
    env.reset(sim);
    LaneWord lanes{};
    for (const CellId flop : topo->flop_cells) {
      const LaneWord q = sim.value(nl.cell(flop).out);
      lanes |= q ^ lane_broadcast(lane_test(q, 0));
    }
    return lanes;
  };
  std::vector<FaultId> picked;
  constexpr FaultId kBatch = kLanes - 1;
  for (FaultId lo = 0; lo < u.size() && picked.size() < kBatch; lo += kBatch) {
    std::vector<FaultId> batch;
    for (FaultId f = lo; f < std::min<FaultId>(u.size(), lo + kBatch); ++f)
      batch.push_back(f);
    const LaneWord lanes =
        diverged_after_reset(batch, PackedEvalMode::kFullSweep);
    for (std::size_t i = 0; i < batch.size() && picked.size() < kBatch; ++i)
      if (lane_test(lanes, static_cast<int>(i) + 1)) picked.push_back(batch[i]);
  }
  ASSERT_GE(picked.size(), 100u);
  LaneWord want{};
  for (std::size_t i = 0; i < picked.size(); ++i)
    want |= lane_bit(static_cast<int>(i) + 1);
  for (const PackedEvalMode mode :
       {PackedEvalMode::kFullSweep, PackedEvalMode::kEventDriven})
    EXPECT_FALSE(lane_neq(diverged_after_reset(picked, mode), want))
        << "a picked fault left the reset on lane 0's state";

  fsim.sim().reset_activity();
  for (const FaultModel model :
       {FaultModel::kStuckAt, FaultModel::kTransition}) {
    const LaneMask got = fsim.run_batch(picked, env, trace, model);
    EXPECT_EQ(got, oracle.run_batch(picked, env, trace, model))
        << to_string(model);
    EXPECT_TRUE(got.any()) << to_string(model);
  }
  EXPECT_EQ(fsim.sim().activity().full_sweeps, 0u);
}

// ---------------------------------------------------------------------------
// SocFsimEnvironment serves each bus once for lane 0 and answers only the
// lanes whose bus differs, with RAM forked per lane on its first write
// that lane 0 does not make, and it reads the bus right after the latch,
// leaving the cycle's one settle to the caller. The reference below
// serves every lane separately and settles three times per step, reading
// each bus after a settle: each lane's fetch, write and read from its own
// RAM map, with buses moved between lane words and per-lane values by
// plain bit loops. Both must drive every net to the same word on every
// cycle.

class PerLaneSocEnv : public FsimEnvironment {
 public:
  using Values = std::array<std::uint64_t, kLanes>;

  PerLaneSocEnv(const Soc& soc, const FlashImage& flash)
      : soc_(&soc), flash_(&flash) {
    const Netlist& nl = soc.netlist;
    for (int i = 0; i < 32; ++i) {
      iaddr_.push_back(nl.find_output(format("iaddr_o%d", i)));
      baddr_.push_back(nl.find_output(format("baddr_o%d", i)));
      bwdata_.push_back(nl.find_output(format("bwdata_o%d", i)));
    }
  }

  void reset(PackedSim& sim) override {
    for (auto& r : ram_) r.clear();
    halt_seen_ = false;
    drive_mission_inputs(sim, false);
    sim.set_input_word(soc_->cpu.instr_in, 0);
    sim.set_input_word(soc_->cpu.rdata_in, 0);
    sim.eval();
    sim.clock();
    sim.clock();
  }

  bool step(PackedSim& sim, int) override {
    if (halt_seen_) return false;
    drive_mission_inputs(sim, true);
    sim.eval();
    const Values iaddr = read_lanes(sim, iaddr_);
    Values instr{};
    for (int l = 0; l < kLanes; ++l) instr[l] = flash_->read(iaddr[l]);
    drive_lanes(sim, soc_->cpu.instr_in, instr);
    sim.eval();
    const Values baddr = read_lanes(sim, baddr_);
    const Values bwdata = read_lanes(sim, bwdata_);
    const LaneWord wr = sim.observed(soc_->netlist.find_output("bwr_o"));
    const LaneWord rd = sim.observed(soc_->netlist.find_output("brd_o"));
    Values rdata{};
    for (int l = 0; l < kLanes; ++l) {
      auto& ram = ram_[static_cast<std::size_t>(l)];
      if (lane_test(wr, l) && soc_->map.contains(baddr[l]))
        ram[baddr[l] & ~3ULL] = static_cast<std::uint32_t>(bwdata[l]);
      if (lane_test(rd, l)) {
        const auto it = ram.find(baddr[l] & ~3ULL);
        rdata[l] = it != ram.end() ? it->second : flash_->read(baddr[l]);
      }
    }
    drive_lanes(sim, soc_->cpu.rdata_in, rdata);
    sim.eval();
    if (lane_test(sim.observed(soc_->netlist.find_output("halted_o")), 0))
      halt_seen_ = true;
    return true;
  }

 private:
  void drive_mission_inputs(PackedSim& sim, bool rstn) {
    sim.set_input_all(soc_->cpu.rstn, rstn);
    sim.set_input_all(soc_->scan.se_net, soc_->scan.se_functional_value);
    for (const ScanChain& c : soc_->scan.chains)
      sim.set_input_all(c.scan_in_net, false);
    for (std::size_t i = 0; i < soc_->debug.control_inputs.size(); ++i)
      sim.set_input_all(soc_->debug.control_inputs[i],
                        soc_->debug.control_values[i]);
  }
  static Values read_lanes(const PackedSim& sim,
                           const std::vector<CellId>& cells) {
    Values out{};
    for (std::size_t b = 0; b < cells.size(); ++b) {
      const LaneWord w = sim.observed(cells[b]);
      for (int l = 0; l < kLanes; ++l)
        out[l] |= static_cast<std::uint64_t>(lane_test(w, l)) << b;
    }
    return out;
  }
  static void drive_lanes(PackedSim& sim, const Bus& bus,
                          const Values& values) {
    for (std::size_t b = 0; b < bus.size(); ++b) {
      LaneWord w{};
      for (int l = 0; l < kLanes; ++l)
        if ((values[l] >> b) & 1ULL) w |= lane_bit(l);
      sim.set_input_lanes(bus[b], w);
    }
  }

  const Soc* soc_;
  const FlashImage* flash_;
  bool halt_seen_ = false;
  std::array<std::unordered_map<std::uint64_t, std::uint32_t>, kLanes> ram_;
  std::vector<CellId> iaddr_, baddr_, bwdata_;
};

TEST(SocFsim, LaneZeroServiceMatchesPerLaneReference) {
  const SocConfig cfg = lean_config();
  auto soc = build_soc(cfg);
  auto suite = build_sbst_suite(cfg);
  const FaultUniverse u(soc->netlist);
  const auto topo = PackedTopology::build(soc->netlist);
  const Netlist& nl = soc->netlist;

  // Faults that move the data bus (so lanes fork their RAM and read other
  // words), the load strobe (so lanes read when lane 0 does not) and the
  // PC (so lanes fetch other instructions), both polarities.
  std::vector<FaultId> faults;
  const auto both = [&](Pin pin) {
    faults.push_back(u.id_of(pin, false));
    faults.push_back(u.id_of(pin, true));
  };
  for (const int b : {0, 2, 3, 4, 5, 6, 8, 12, 16, 17, 30, 31}) {
    both({nl.find_output(format("baddr_o%d", b)), 1});
    both({nl.find_output(format("bwdata_o%d", b)), 1});
  }
  both({nl.find_output("bwr_o"), 1});
  both({nl.find_output("brd_o"), 1});
  for (const int b : {2, 3, 4, 5, 6, 7, 9, 15}) both({soc->cpu.pc.flops[b], 0});
  ASSERT_LT(faults.size(), static_cast<std::size_t>(kLanes));

  for (const char* name : {"loadstore", "branch_btb"}) {
    SCOPED_TRACE(name);
    SbstProgram* prog = nullptr;
    for (SbstProgram& sp : suite)
      if (sp.name == name) prog = &sp;
    ASSERT_NE(prog, nullptr);
    FlashImage flash(cfg.flash_base, cfg.flash_size);
    flash.load(prog->program.base(), prog->program.words());
    const int cycles = kSbstFunctionalCycleCap + 1;

    PerLaneSocEnv ref(*soc, flash);
    SocFsimEnvironment env(*soc, flash);
    PackedSim a(topo), b(topo);
    for (std::size_t i = 0; i < faults.size(); ++i) {
      const Fault& f = u.fault(faults[i]);
      const LaneWord lane = lane_bit(static_cast<int>(i) + 1);
      a.add_injection({f.pin.cell, f.pin.pin, f.sa1, lane});
      b.add_injection({f.pin.cell, f.pin.pin, f.sa1, lane});
    }
    const auto compare_all = [&](int cycle, const char* when) {
      for (NetId n = 0; n < nl.num_nets(); ++n)
        ASSERT_FALSE(lane_neq(a.value(n), b.value(n)))
            << "net " << nl.net(n).name << " diverged " << when
            << " of cycle " << cycle;
    };
    a.power_on();
    b.power_on();
    ref.reset(a);
    env.reset(b);
    compare_all(-1, "after reset");
    int steps = 0;
    for (int cycle = 0; cycle < cycles; ++cycle) {
      const bool more = ref.step(a, cycle);
      ASSERT_EQ(env.step(b, cycle), more) << "cycle " << cycle;
      if (!more) break;
      a.eval();
      b.eval();
      compare_all(cycle, "after the settle");
      a.latch();
      b.latch();
      compare_all(cycle, "after the latch");
      if (::testing::Test::HasFatalFailure()) return;
      ++steps;
    }
    EXPECT_LT(steps, cycles);  // the good machine halted
    EXPECT_TRUE(lane_any(env.private_lanes())) << "no lane forked its RAM";

    // Both record the same good machine, and the batch verdicts agree
    // under both fault models.
    SequentialFaultSimulator fsim(nl, u, topo);
    fsim.set_observed(soc->cpu.bus_output_cells);
    const ReferenceTrace trace = fsim.record_reference_trace(env, cycles);
    EXPECT_EQ(fsim.record_reference_trace(ref, cycles).fingerprint(),
              trace.fingerprint());
    const LaneMask sa = fsim.run_batch(faults, env, trace);
    EXPECT_TRUE(sa.any());
    EXPECT_EQ(fsim.run_batch(faults, ref, trace), sa);
    const LaneMask tdf =
        fsim.run_batch(faults, env, trace, FaultModel::kTransition);
    EXPECT_EQ(fsim.run_batch(faults, ref, trace, FaultModel::kTransition),
              tdf);
  }
}

TEST(SocFsim, RejectsCombinationalBusPort) {
  const SocConfig cfg = lean_config();
  auto soc = build_soc(cfg);
  const FlashImage flash(cfg.flash_base, cfg.flash_size);
  // The stock SoC registers every bus port.
  EXPECT_NO_THROW(SocFsimEnvironment(*soc, flash));

  // A buffer between a bus flop and its port makes the port
  // combinational: read before the settle, it would show a stale value.
  Netlist& nl = soc->netlist;
  const CellId port = nl.find_output("baddr_o3");
  const NetId buffered = nl.add_net("baddr3_buffered");
  nl.add_cell(CellType::kBuf, "u_baddr3_buf", buffered, {nl.cell(port).ins[0]});
  nl.rewire_input(port, 0, buffered);
  try {
    SocFsimEnvironment env(*soc, flash);
    FAIL() << "a combinational bus port was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("baddr_o3"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace olfui
