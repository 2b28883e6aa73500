#include "sbst/sbst.hpp"

#include <cassert>
#include <memory>
#include <utility>

#include "campaign/report.hpp"
#include "fault/tdf.hpp"
#include "obs/trace.hpp"
#include "sta/sta.hpp"

namespace olfui {

namespace {

/// ALU arithmetic: adder carry chains, subtract borrow, unsigned compare.
Program prog_alu_arith(const SocConfig& cfg) {
  Program p(cfg.cpu.reset_vector);
  const std::uint32_t ram = static_cast<std::uint32_t>(cfg.ram_base);
  p.li(0, 0);
  p.li(7, ram);
  p.li(1, 0x0000'00FF);
  p.li(2, 0xAAAA'5555);
  p.add(3, 1, 2);
  p.sw(3, 7, 0);
  p.sub(4, 2, 1);
  p.sw(4, 7, 4);
  p.li(5, 0xFFFF'FFFF);
  p.add(6, 5, 5);  // carry out of every bit
  p.sw(6, 7, 8);
  p.sub(3, 1, 2);  // negative result
  p.sw(3, 7, 12);
  p.sltu(4, 1, 2);
  p.sw(4, 7, 16);
  p.sltu(4, 2, 1);
  p.sw(4, 7, 20);
  p.sltu(4, 2, 2);  // equal operands
  p.sw(4, 7, 24);
  // Walking-one accumulation: doubles r1 until it wraps to zero.
  p.li(1, 1);
  p.li(2, 0);
  p.label("loop");
  p.add(2, 2, 1);
  p.add(1, 1, 1);
  p.bne(1, 0, "loop");
  p.sw(2, 7, 28);
  // Alternating-carry patterns.
  p.li(1, 0x5555'5555);
  p.li(2, 0x3333'3333);
  p.add(3, 1, 2);
  p.sw(3, 7, 32);
  p.addi(3, 3, -1);
  p.sw(3, 7, 36);
  p.halt();
  return p;
}

/// Bitwise unit: AND/OR/XOR plus their immediate forms.
Program prog_alu_logic(const SocConfig& cfg) {
  Program p(cfg.cpu.reset_vector);
  const std::uint32_t ram = static_cast<std::uint32_t>(cfg.ram_base) + 0x100;
  p.li(0, 0);
  p.li(7, ram);
  p.li(1, 0xFF00'FF00);
  p.li(2, 0x0F0F'0F0F);
  p.and_(3, 1, 2);
  p.sw(3, 7, 0);
  p.or_(3, 1, 2);
  p.sw(3, 7, 4);
  p.xor_(3, 1, 2);
  p.sw(3, 7, 8);
  p.li(4, 0xFFFF'FFFF);
  p.xor_(5, 1, 4);  // complement
  p.sw(5, 7, 12);
  p.and_(5, 1, 4);  // identity
  p.sw(5, 7, 16);
  p.or_(5, 2, 0);   // identity with zero
  p.sw(5, 7, 20);
  p.andi(3, 1, 0x5A5A);
  p.sw(3, 7, 24);
  p.ori(3, 2, 0x1248);
  p.sw(3, 7, 28);
  p.xori(3, 1, 0xFFFF);
  p.sw(3, 7, 32);
  p.lui(3, 0x8421);
  p.sw(3, 7, 36);
  p.halt();
  return p;
}

/// Barrel shifter: all 32 amounts in both directions.
Program prog_shift(const SocConfig& cfg) {
  Program p(cfg.cpu.reset_vector);
  const std::uint32_t ram = static_cast<std::uint32_t>(cfg.ram_base) + 0x200;
  p.li(0, 0);
  p.li(7, ram);
  p.li(1, 0x8000'0003);  // ones at both ends survive shifting
  p.li(2, 0);            // amount
  p.li(3, 32);           // bound
  p.label("sh");
  p.sll(4, 1, 2);
  p.srl(5, 1, 2);
  p.xor_(6, 4, 5);
  p.sw(6, 7, 0);
  p.addi(7, 7, 4);
  p.addi(2, 2, 1);
  p.bne(2, 3, "sh");
  p.halt();
  return p;
}

/// Register-file march: unique patterns per register, then complements;
/// every value leaves through the store port.
Program prog_regfile(const SocConfig& cfg) {
  Program p(cfg.cpu.reset_vector);
  const std::uint32_t ram = static_cast<std::uint32_t>(cfg.ram_base) + 0x400;
  p.li(7, ram);
  const std::uint32_t patterns[6] = {0x0101'0101, 0x0202'0404, 0x1010'2020,
                                     0x4040'8080, 0xFFFF'0000, 0x5A5A'A5A5};
  for (int r = 1; r <= 6; ++r) p.li(r, patterns[r - 1]);
  for (int r = 1; r <= 6; ++r) p.sw(r, 7, 4 * (r - 1));
  p.li(0, 0xFFFF'FFFF);
  for (int r = 1; r <= 6; ++r) p.xor_(r, r, 0);
  for (int r = 1; r <= 6; ++r) p.sw(r, 7, 4 * (5 + r));
  // r0 and r7 themselves: swap roles so both get a non-address pattern.
  p.li(1, static_cast<std::uint32_t>(cfg.ram_base) + 0x400 + 64);
  p.li(0, 0x1357'9BDF);
  p.sw(0, 1, 0);
  p.li(0, 0);
  p.li(7, ram);
  p.halt();
  return p;
}

/// Control flow: trains the BTB with calls/returns and loop branches,
/// includes not-taken paths and re-dispatch through JR.
Program prog_branch_btb(const SocConfig& cfg) {
  Program p(cfg.cpu.reset_vector);
  const std::uint32_t ram = static_cast<std::uint32_t>(cfg.ram_base) + 0x600;
  p.li(0, 0);
  p.li(7, ram);
  p.li(1, 8);  // outer trip count
  p.li(2, 0);  // accumulator
  p.label("outer");
  p.jal(5, "sub1");
  p.addi(2, 2, 1);
  p.addi(1, 1, -1);
  p.bne(1, 0, "outer");
  p.sw(2, 7, 0);
  // Not-taken conditional branches.
  p.beq(1, 2, "skip1");  // r1 == 0, r2 == 16 -> not taken
  p.addi(2, 2, 7);
  p.label("skip1");
  p.bne(1, 0, "skip2");  // r1 == 0 -> not taken
  p.addi(2, 2, 100);
  p.label("skip2");
  p.sw(2, 7, 4);
  // Calling the same subroutine from distinct sites makes JR return to
  // different targets (and re-trains the BTB entry for the JR).
  p.jal(5, "sub1");
  p.jal(5, "sub1");
  p.sw(2, 7, 8);
  // Backward-taken BEQ loop (BNE loops above are the taken-BNE case).
  p.li(3, 2);
  p.li(6, 0);
  p.label("bl");
  p.addi(6, 6, 1);
  p.beq(6, 3, "bldone");
  p.beq(0, 0, "bl");  // unconditional backward branch
  p.label("bldone");
  p.sw(6, 7, 12);
  p.halt();
  p.label("sub1");
  p.addi(2, 2, 1);
  p.jr(5);
  return p;
}

/// Load/store walks: address bit walking inside the RAM range, read-back
/// accumulation, and a flash (code memory) data read.
Program prog_loadstore(const SocConfig& cfg) {
  Program p(cfg.cpu.reset_vector);
  const std::uint32_t ram = static_cast<std::uint32_t>(cfg.ram_base);
  p.li(0, 0);
  p.li(7, ram);
  p.li(1, 0xDEAD'BEEF);
  p.li(4, static_cast<std::uint32_t>(cfg.ram_size));
  p.li(2, 4);
  p.label("wr");
  p.add(3, 7, 2);
  p.sw(1, 3, 0);
  p.add(1, 1, 2);  // vary the stored data with the address
  p.add(2, 2, 2);
  p.bne(2, 4, "wr");
  p.li(2, 4);
  p.li(5, 0);
  p.label("rd");
  p.add(3, 7, 2);
  p.lw(6, 3, 0);
  p.add(5, 5, 6);
  p.add(2, 2, 2);
  p.bne(2, 4, "rd");
  p.sw(5, 7, 0);
  // Offset-form addressing (positive and negative immediates).
  p.li(3, ram + 0x80);
  p.sw(5, 3, 0x40);
  p.sw(5, 3, -0x40);
  p.lw(6, 3, 0x40);
  p.sw(6, 3, 4);
  // Read a code word from flash as data.
  p.li(3, static_cast<std::uint32_t>(cfg.flash_base));
  p.lw(6, 3, 0);
  p.sw(6, 7, 8);
  p.halt();
  return p;
}

/// Multiplier: partial-product rows and carry chains of the 32x32 array.
Program prog_mul(const SocConfig& cfg) {
  Program p(cfg.cpu.reset_vector);
  const std::uint32_t ram = static_cast<std::uint32_t>(cfg.ram_base) + 0x700;
  p.li(0, 0);
  p.li(7, ram);
  p.li(1, 3);
  p.li(2, 5);
  p.mul(3, 1, 2);
  p.sw(3, 7, 0);
  p.li(1, 0xFFFF'FFFF);
  p.mul(3, 1, 1);  // (-1)^2 wraps to 1
  p.sw(3, 7, 4);
  p.li(1, 0x0001'0001);
  p.li(2, 0x0000'FFFF);
  p.mul(3, 1, 2);
  p.sw(3, 7, 8);
  // Walking-one times walking-one sweeps every partial-product row.
  p.li(1, 1);
  p.li(4, 0);
  p.label("mloop");
  p.mul(3, 1, 1);
  p.add(4, 4, 3);
  p.add(1, 1, 1);
  p.bne(1, 0, "mloop");
  p.sw(4, 7, 12);
  // Alternating patterns stress the adder rows.
  p.li(1, 0xAAAA'AAAA);
  p.li(2, 0x5555'5555);
  p.mul(3, 1, 2);
  p.sw(3, 7, 16);
  p.mul(3, 2, 2);
  p.sw(3, 7, 20);
  p.halt();
  return p;
}

/// Decode sweep: every opcode executes at least once with fresh operands.
Program prog_decode(const SocConfig& cfg) {
  Program p(cfg.cpu.reset_vector);
  const std::uint32_t ram = static_cast<std::uint32_t>(cfg.ram_base) + 0x800;
  p.li(0, 0);
  p.li(7, ram);
  p.nop();
  p.li(1, 0x0000'1234);
  p.li(2, 0x4321'0000);
  p.add(3, 1, 2);
  p.sub(3, 3, 1);
  p.and_(4, 3, 2);
  p.or_(4, 4, 1);
  p.xor_(4, 4, 3);
  p.sltu(5, 1, 2);
  p.li(6, 5);
  p.sll(5, 1, 6);
  p.srl(5, 5, 6);
  p.addi(5, 5, 0x7FF);
  p.andi(5, 5, 0x0FF0);
  p.ori(5, 5, 0x8001);
  p.xori(5, 5, 0x00FF);
  p.lui(6, 0x00C0);
  p.sw(4, 7, 0);
  p.sw(5, 7, 4);
  p.sw(6, 7, 8);
  p.lw(3, 7, 0);
  p.add(3, 3, 5);
  p.sw(3, 7, 12);
  p.jal(5, "fwd");
  p.addi(3, 3, 1);  // executed after return-to-link+? (skipped by jal)
  p.label("fwd");
  p.sw(3, 7, 16);
  p.halt();
  return p;
}

}  // namespace

std::vector<SbstProgram> build_sbst_suite(const SocConfig& cfg) {
  std::vector<SbstProgram> suite;
  suite.push_back({"alu_arith", prog_alu_arith(cfg)});
  suite.push_back({"alu_logic", prog_alu_logic(cfg)});
  suite.push_back({"shift", prog_shift(cfg)});
  suite.push_back({"regfile", prog_regfile(cfg)});
  suite.push_back({"branch_btb", prog_branch_btb(cfg)});
  suite.push_back({"loadstore", prog_loadstore(cfg)});
  if (cfg.cpu.with_multiplier) suite.push_back({"mul", prog_mul(cfg)});
  suite.push_back({"decode", prog_decode(cfg)});
  return suite;
}

std::vector<int> run_suite_functional(const Soc& soc,
                                      std::vector<SbstProgram>& suite,
                                      int max_cycles_per_program) {
  std::vector<int> cycles;
  for (SbstProgram& sp : suite) {
    SocSimulator runner(soc);
    runner.load_program(sp.program);
    cycles.push_back(runner.run(max_cycles_per_program));
  }
  return cycles;
}

namespace {

/// One worker's private kernel: a packed simulator plus a per-lane memory
/// environment, grading batches against the program's good-trace
/// checkpoint. Shared immutable state (flash image, checkpoint) rides on
/// shared_ptrs so every worker's runner references one copy.
class SbstBatchRunner final : public FaultBatchRunner {
 public:
  SbstBatchRunner(const Soc& soc, const FaultUniverse& universe,
                   std::shared_ptr<const FlashImage> flash,
                   std::shared_ptr<const ReferenceTrace> trace,
                   std::shared_ptr<const PackedTopology> topo,
                   FaultModel fault_model)
      : flash_(std::move(flash)),
        trace_(std::move(trace)),
        env_(soc, *flash_),
        fsim_(soc.netlist, universe, std::move(topo)),
        fault_model_(fault_model) {
    fsim_.set_observed(soc.cpu.bus_output_cells);
  }

  LaneMask run_batch(std::span<const FaultId> faults) override {
    return fsim_.run_batch(faults, env_, *trace_, fault_model_);
  }

 private:
  std::shared_ptr<const FlashImage> flash_;
  std::shared_ptr<const ReferenceTrace> trace_;
  SocFsimEnvironment env_;
  SequentialFaultSimulator fsim_;
  FaultModel fault_model_;
};

}  // namespace

BitVec inert_faults(const FaultUniverse& universe, const NetActivation& act,
                    FaultModel fault_model) {
  const Netlist& nl = universe.netlist();
  BitVec inert(universe.size());
  for (FaultId f = 0; f < universe.size(); ++f) {
    const Fault& fault = universe.fault(f);
    const NetId site = nl.pin_net(fault.pin);
    const std::vector<std::uint64_t>& active =
        fault_model == FaultModel::kTransition
            ? (tdf_slow_to_rise(fault) ? act.rose : act.fell)
            : (fault.sa1 ? act.seen0 : act.seen1);
    if (!NetActivation::test(active, site)) inert.set(f, true);
  }
  return inert;
}

std::vector<Logic> trace_constants(const NetActivation& act,
                                   std::size_t nets) {
  std::vector<Logic> value(nets, Logic::VX);
  for (NetId n = 0; n < nets; ++n) {
    const bool seen1 = NetActivation::test(act.seen1, n);
    if (seen1 != NetActivation::test(act.seen0, n)) value[n] = from_bool(seen1);
  }
  return value;
}

BitVec unobservable_faults(const FaultUniverse& universe,
                           const NetActivation& act,
                           std::span<const CellId> observed) {
  const Netlist& nl = universe.netlist();
  // Only the trace says which nets are constant: a ternary fixpoint would
  // call a flop's Q constant once its D is, yet Q held its power-on 0.
  const StructuralAnalyzer sta(nl, universe);
  const StaResult r =
      sta.analyze_values(trace_constants(act, nl.num_nets()), observed);
  ObservabilityProver prover(sta, r);
  // The two faults of a pin are adjacent ids, s-a-0 first.
  BitVec unobservable(universe.size());
  for (FaultId f = 0; f + 1 < universe.size(); f += 2) {
    if (prover.possibly_observable(universe.fault(f).pin)) continue;
    unobservable.set(f, true);
    unobservable.set(f + 1, true);
  }
  return unobservable;
}

// The trace is recorded here exactly once per program, and the same pass
// yields the cycle count. The environment stops one cycle after lane 0
// shows HALT, so a program halting in cycle c records c + 1 cycles, and
// the budget of kSbstFunctionalCycleCap + 1 cycles records one that has
// not halted by the cap as the cap: good_cycles is exactly what
// SocSimulator::run(kSbstFunctionalCycleCap) returns. Every batch runs
// the trace's cycles.
SbstCampaignTest build_sbst_campaign_test(
    const Soc& soc, SbstProgram& program, const FaultUniverse& universe,
    std::shared_ptr<const PackedTopology> topo, FaultModel fault_model) {
  auto flash = std::make_shared<FlashImage>(soc.config.flash_base,
                                            soc.config.flash_size);
  flash->load(program.program.base(), program.program.words());

  // Checkpoint the good machine once; every batch of every worker then
  // replays this trace as its reference (and, under the TDF model, reads
  // its launch schedules from it instead of re-running a good pass).
  SocFsimEnvironment trace_env(soc, *flash);
  SequentialFaultSimulator tracer(soc.netlist, universe, topo);
  tracer.set_observed(soc.cpu.bus_output_cells);
  // The same good run yields the activation the screen reads.
  auto trace_span = obs::tracer().span("record_trace", "campaign");
  trace_span.arg("program", Json(program.name));
  auto activation = std::make_shared<NetActivation>();
  auto trace = std::make_shared<const ReferenceTrace>(
      tracer.record_reference_trace(trace_env, kSbstFunctionalCycleCap + 1,
                                    activation.get()));
  trace_span.end();

  const int good_cycles = trace->cycles - 1;
  SbstCampaignTest out;
  out.trace = trace;
  out.activation = activation;
  out.test.name = program.name;
  out.test.good_cycles = good_cycles;
  // Deferred: a campaign that hits the result cache never needs it.
  out.test.screen = [&soc, &universe, activation, fault_model,
                     name = program.name]() {
    auto span = obs::tracer().span("screen", "campaign");
    span.arg("test", Json(name));
    BitVec screen = inert_faults(universe, *activation, fault_model);
    const std::size_t inert = screen.count();
    screen |= unobservable_faults(universe, *activation,
                                  soc.cpu.bus_output_cells);
    span.arg("inert", Json(inert));
    span.arg("unobservable", Json(screen.count() - inert));
    return screen;
  };
  Json spec = Json::object();
  spec.set("workload", "sbst");
  spec.set("program", program.name);
  spec.set("state_fp", word_to_hex(trace->fingerprint()));
  out.test.spec = std::move(spec);
  out.test.make_runner = [&soc, &universe, flash = std::move(flash), trace,
                          topo = std::move(topo), fault_model]() {
    return std::make_unique<SbstBatchRunner>(soc, universe, flash, trace,
                                             topo, fault_model);
  };
  return out;
}

std::vector<CampaignTest> build_sbst_campaign_tests(
    const Soc& soc, std::vector<SbstProgram>& suite,
    const FaultUniverse& universe, const CampaignEngine& engine) {
  auto span = obs::tracer().span("build_tests", "sbst");
  // One topology (levelized order + fanout CSR) serves every tracer and
  // every worker's simulator across the whole suite.
  const auto topo = PackedTopology::build(soc.netlist);
  std::vector<CampaignTest> tests(suite.size());
  // Each program lands in its suite slot, whichever participant builds it.
  engine.parallel_for(suite.size(), [&](std::size_t i, std::size_t) {
    tests[i] = build_sbst_campaign_test(soc, suite[i], universe, topo,
                                        engine.options().fault_model)
                   .test;
  });
  return tests;
}

SbstCampaignResult run_sbst_campaign(
    const Soc& soc, std::vector<SbstProgram>& suite, FaultList& fl,
    std::function<void(const std::string&, std::size_t, std::size_t)> progress,
    const CampaignOptions& opts) {
  const CampaignEngine engine(fl.universe(), opts);
  const std::vector<CampaignTest> tests =
      build_sbst_campaign_tests(soc, suite, fl.universe(), engine);
  return {engine.run(fl, tests, progress)};
}

}  // namespace olfui
