#include "cpu/soc.hpp"

#include <cassert>
#include <stdexcept>
#include <string>

#include "util/strings.hpp"

namespace olfui {

std::unique_ptr<Soc> build_soc(const SocConfig& cfg) {
  auto soc = std::make_unique<Soc>();
  soc->config = cfg;
  soc->cpu = generate_cpu(soc->netlist, cfg.cpu);

  if (cfg.with_debug) {
    // The Nexus-style unit exposes half the register file for write access
    // and both observation buses (GPR window + PC/IR), comparable in area
    // ratio to production debug IP on a core of this size.
    DebugSpec spec;
    for (int r = 0; r < 4; ++r)
      spec.writable_regs.push_back(&soc->cpu.gprs[static_cast<std::size_t>(r)]);
    for (int r = 0; r < 4; ++r)
      spec.bus_a_words.push_back(soc->cpu.gprs[static_cast<std::size_t>(r)].q);
    spec.bus_b_words.push_back(soc->cpu.pc.q);
    spec.bus_b_words.push_back(soc->cpu.ir.q);
    spec.hold_reg = &soc->cpu.pc;
    soc->debug = insert_debug(soc->netlist, spec);
  }
  if (cfg.with_scan) {
    soc->scan = insert_scan(soc->netlist, cfg.scan);
  }
  soc->map.add_range("flash", cfg.flash_base, cfg.flash_size);
  soc->map.add_range("ram", cfg.ram_base, cfg.ram_size);
  return soc;
}

void FlashImage::load(std::uint32_t addr, const std::vector<std::uint32_t>& words) {
  for (std::size_t i = 0; i < words.size(); ++i)
    words_[addr + 4 * i] = words[i];
}

std::uint32_t FlashImage::read(std::uint64_t addr) const {
  const auto it = words_.find(addr & ~3ULL);
  return it == words_.end() ? 0u : it->second;
}

SocSimulator::SocSimulator(const Soc& soc)
    : soc_(&soc),
      sim_(soc.netlist),
      flash_(soc.config.flash_base, soc.config.flash_size) {}

void SocSimulator::load_program(Program& p) {
  flash_.load(p.base(), p.words());
}

void SocSimulator::drive_mission_inputs(bool rstn_value) {
  sim_.set_input(soc_->cpu.rstn, rstn_value);
  if (soc_->config.with_scan) {
    sim_.set_input(soc_->scan.se_net, soc_->scan.se_functional_value);
    for (const ScanChain& c : soc_->scan.chains)
      sim_.set_input(c.scan_in_net, false);
  }
  if (soc_->config.with_debug) {
    for (std::size_t i = 0; i < soc_->debug.control_inputs.size(); ++i)
      sim_.set_input(soc_->debug.control_inputs[i],
                     soc_->debug.control_values[i]);
  }
}

int SocSimulator::run(int max_cycles) {
  sim_.power_on();
  // Reset sequence: two cycles with rstn low; data inputs quiet.
  drive_mission_inputs(false);
  sim_.set_input_word(soc_->cpu.instr_in, 0);
  sim_.set_input_word(soc_->cpu.rdata_in, 0);
  sim_.eval();
  sim_.clock();
  sim_.clock();

  int cycle = 0;
  for (; cycle < max_cycles; ++cycle) {
    drive_mission_inputs(true);
    sim_.eval();
    // Serve the instruction fetch (combinational flash read).
    const std::uint64_t iaddr = sim_.read_word(soc_->cpu.iaddr);
    sim_.set_input_word(soc_->cpu.instr_in, flash_.read(iaddr));
    sim_.eval();
    // Bus transactions (registered address/strobes, data this cycle).
    const std::uint64_t baddr = sim_.read_word(soc_->cpu.baddr);
    if (sim_.value(soc_->cpu.bwr) == Logic::V1) {
      if (soc_->map.contains(baddr))
        ram_[baddr & ~3ULL] =
            static_cast<std::uint32_t>(sim_.read_word(soc_->cpu.bwdata));
    }
    std::uint64_t rdata = 0;
    if (sim_.value(soc_->cpu.brd) == Logic::V1) {
      const auto it = ram_.find(baddr & ~3ULL);
      rdata = it != ram_.end() ? it->second : flash_.read(baddr);
    }
    sim_.set_input_word(soc_->cpu.rdata_in, rdata);
    sim_.eval();
    if (sim_.value(soc_->cpu.halted) == Logic::V1) break;
    sim_.clock();
  }
  return cycle;
}

bool SocSimulator::halted() const {
  return sim_.value(soc_->cpu.halted) == Logic::V1;
}

std::uint32_t SocSimulator::gpr(int r) const {
  return static_cast<std::uint32_t>(sim_.read_word(soc_->cpu.gprs[r].q));
}

std::uint32_t SocSimulator::pc() const {
  return static_cast<std::uint32_t>(sim_.read_word(soc_->cpu.pc.q));
}

std::uint32_t SocSimulator::ram_word(std::uint64_t addr) const {
  const auto it = ram_.find(addr & ~3ULL);
  return it == ram_.end() ? 0u : it->second;
}

template <int W>
SocFsimEnvironmentT<W>::SocFsimEnvironmentT(const Soc& soc,
                                            const FlashImage& flash,
                                            int run_cycles)
    : soc_(&soc), flash_(&flash), run_cycles_(run_cycles) {
  const Netlist& nl = soc.netlist;
  for (int i = 0; i < 32; ++i) {
    iaddr_cells_.push_back(nl.find_output(format("iaddr_o%d", i)));
    baddr_cells_.push_back(nl.find_output(format("baddr_o%d", i)));
    bwdata_cells_.push_back(nl.find_output(format("bwdata_o%d", i)));
  }
  bwr_cell_ = nl.find_output("bwr_o");
  brd_cell_ = nl.find_output("brd_o");
  halted_cell_ = nl.find_output("halted_o");
  // step() reads the bus before the cycle settles, which is exact only
  // for ports a flop drives: nothing this cycle drives can reach them.
  std::string combinational;
  const auto check = [&](CellId port) {
    const CellId drv = nl.net(nl.cell(port).ins[0]).driver;
    if (drv != kInvalidId && is_sequential(nl.cell(drv).type)) return;
    if (!combinational.empty()) combinational += ", ";
    combinational += nl.cell(port).name;
  };
  for (const auto* cells : {&iaddr_cells_, &baddr_cells_, &bwdata_cells_})
    for (const CellId port : *cells) check(port);
  for (const CellId port : {bwr_cell_, brd_cell_, halted_cell_}) check(port);
  if (!combinational.empty())
    throw std::invalid_argument(
        "SocFsimEnvironment: bus ports not driven by a flop: " + combinational);
}

template <int W>
void SocFsimEnvironmentT<W>::drive_mission_inputs(PackedSimT<W>& sim,
                                                  bool rstn_value) {
  sim.set_input_all(soc_->cpu.rstn, rstn_value);
  if (soc_->config.with_scan) {
    sim.set_input_all(soc_->scan.se_net, soc_->scan.se_functional_value);
    for (const ScanChain& c : soc_->scan.chains)
      sim.set_input_all(c.scan_in_net, false);
  }
  if (soc_->config.with_debug) {
    for (std::size_t i = 0; i < soc_->debug.control_inputs.size(); ++i)
      sim.set_input_all(soc_->debug.control_inputs[i],
                        soc_->debug.control_values[i]);
  }
}

template <int W>
std::uint64_t SocFsimEnvironmentT<W>::BusRead::value(int lane) const {
  if (!lane_test(diff, lane)) return v0;
  std::uint64_t v = 0;
  for (int b = 0; b < 32; ++b)
    v |= static_cast<std::uint64_t>(lane_test(bits[b], lane)) << b;
  return v;
}

template <int W>
typename SocFsimEnvironmentT<W>::BusRead SocFsimEnvironmentT<W>::read_bus(
    const PackedSimT<W>& sim, const std::vector<CellId>& cells) {
  assert(cells.size() == 32);
  BusRead r;
  for (int b = 0; b < 32; ++b) {
    const CellId port = cells[static_cast<std::size_t>(b)];
    if (sim.port_uniform(port)) {
      const bool bit0 =
          lane_test(sim.value(sim.netlist().cell(port).ins[0]), 0);
      r.bits[b] = lane_broadcast<Word>(bit0);
      r.v0 |= static_cast<std::uint64_t>(bit0) << b;
      continue;
    }
    const Word w = sim.observed(port);
    const bool bit0 = lane_test(w, 0);
    r.bits[b] = w;
    r.v0 |= static_cast<std::uint64_t>(bit0) << b;
    r.diff |= w ^ lane_broadcast<Word>(bit0);
  }
  return r;
}

template <int W>
void SocFsimEnvironmentT<W>::drive_bus(PackedSimT<W>& sim, const Bus& bus,
                                       std::uint64_t v0,
                                       const std::vector<Patch>& patches) {
  // Answers are 32-bit memory words, and so are both driven buses.
  assert(bus.size() == 32);
  std::array<Word, 32> bits;
  for (int b = 0; b < 32; ++b) bits[b] = lane_broadcast<Word>((v0 >> b) & 1ULL);
  for (const Patch& p : patches) {
    const Word lane = lane_bit<Word>(p.lane);
    for (std::uint64_t x = p.value ^ v0; x != 0; x &= x - 1)
      bits[static_cast<std::size_t>(__builtin_ctzll(x))] ^= lane;
  }
  for (int b = 0; b < 32; ++b)
    sim.set_input_lanes(bus[static_cast<std::size_t>(b)], bits[b]);
}

template <int W>
std::uint64_t SocFsimEnvironmentT<W>::mem_read(int lane,
                                               std::uint64_t addr) const {
  const auto& ram =
      ram_[lane_test(private_, lane) ? static_cast<std::size_t>(lane) : 0];
  const auto it = ram.find(addr & ~3ULL);
  if (it != ram.end()) return it->second;
  return flash_->read(addr);
}

template <int W>
void SocFsimEnvironmentT<W>::reset(PackedSimT<W>& sim) {
  // Private lanes' maps are stale from here on; a fork overwrites them.
  ram_[0].clear();
  private_ = Word{};
  halt_seen_ = false;
  drive_mission_inputs(sim, false);
  sim.set_input_word(soc_->cpu.instr_in, 0);
  sim.set_input_word(soc_->cpu.rdata_in, 0);
  sim.eval();
  sim.clock();
  sim.clock();
  // Released from reset, the mission inputs hold these values for the
  // whole run; step() drives only the buses.
  drive_mission_inputs(sim, true);
}

template <int W>
bool SocFsimEnvironmentT<W>::step(PackedSimT<W>& sim, int cycle) {
  if (cycle >= run_cycles_ || halt_seen_) return false;
  // Every bus port is flop-driven (checked at construction), so right
  // after the latch it already shows this cycle's value. Let the
  // comparison see the halting cycle, then stop on the next one.
  if (lane_test(sim.observed(halted_cell_), 0)) halt_seen_ = true;
  // Instruction fetch: a faulty machine that wanders to a wrong address
  // fetches whatever the flash holds there (NOP outside).
  const BusRead iaddr = read_bus(sim, iaddr_cells_);
  const std::uint64_t instr0 = flash_->read(iaddr.v0);
  patches_.clear();
  for_each_lane(iaddr.diff, [&](int l) {
    const std::uint64_t instr = flash_->read(iaddr.value(l));
    if (instr != instr0) patches_.push_back({l, instr});
  });
  drive_bus(sim, soc_->cpu.instr_in, instr0, patches_);
  // Bus transactions.
  const BusRead baddr = read_bus(sim, baddr_cells_);
  const BusRead bwdata = read_bus(sim, bwdata_cells_);
  const Word wr = sim.observed(bwr_cell_);
  const Word rd = sim.observed(brd_cell_);
  const bool wr0 = lane_test(wr, 0);
  const bool rd0 = lane_test(rd, 0);
  // A shared lane whose write differs from lane 0's forks lane 0's RAM as
  // it stands before this cycle's writes.
  const Word fork = ((wr ^ lane_broadcast<Word>(wr0)) |
                     ((baddr.diff | bwdata.diff) & wr)) &
                    ~private_;
  for_each_lane(fork, [&](int l) {
    ram_[static_cast<std::size_t>(l)] = ram_[0];
  });
  private_ |= fork;
  // Writes: private lanes to their own maps, then lane 0's (which every
  // shared lane makes too) to ram_[0]. Reads come after, so each lane
  // reads its own write of this cycle.
  const auto write = [&](int l, std::uint64_t addr, std::uint64_t data) {
    if (soc_->map.contains(addr))
      ram_[static_cast<std::size_t>(l)][addr & ~3ULL] =
          static_cast<std::uint32_t>(data);
  };
  for_each_lane(private_ & wr,
                [&](int l) { write(l, baddr.value(l), bwdata.value(l)); });
  if (wr0) write(0, baddr.v0, bwdata.v0);
  const std::uint64_t rdata0 = rd0 ? mem_read(0, baddr.v0) : 0;
  patches_.clear();
  for_each_lane(baddr.diff | (rd ^ lane_broadcast<Word>(rd0)) | private_,
                [&](int l) {
                  const std::uint64_t rdata =
                      lane_test(rd, l) ? mem_read(l, baddr.value(l)) : 0;
                  if (rdata != rdata0) patches_.push_back({l, rdata});
                });
  drive_bus(sim, soc_->cpu.rdata_in, rdata0, patches_);
  return true;
}

template class SocFsimEnvironmentT<64>;
template class SocFsimEnvironmentT<256>;

}  // namespace olfui
