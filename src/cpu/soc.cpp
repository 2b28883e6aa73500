#include "cpu/soc.hpp"

#include <algorithm>
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

SocFsimEnvironment::SocFsimEnvironment(const Soc& soc,
                                       const FlashImage& flash)
    : soc_(&soc), flash_(&flash) {
  const Netlist& nl = soc.netlist;
  const auto port = [&nl](const std::string& name) {
    const CellId cell = nl.find_output(name);
    return Port{cell, nl.cell(cell).ins[0]};
  };
  for (int i = 0; i < 32; ++i) {
    const auto b = static_cast<std::size_t>(i);
    iaddr_[b] = port(format("iaddr_o%d", i));
    baddr_[b] = port(format("baddr_o%d", i));
    bwdata_[b] = port(format("bwdata_o%d", i));
  }
  bwr_ = port("bwr_o");
  brd_ = port("brd_o");
  halted_ = port("halted_o");
  // Answers are 32-bit memory words, and so are both driven buses.
  const auto driven = [](const Bus& bus, BusDrive& drive) {
    if (bus.size() != drive.nets.size())
      throw std::invalid_argument(
          "SocFsimEnvironment: a driven bus is not 32 bits wide");
    std::copy(bus.begin(), bus.end(), drive.nets.begin());
  };
  driven(soc.cpu.instr_in, instr_);
  driven(soc.cpu.rdata_in, rdata_);
  // step() reads the bus before the cycle settles, which is exact only
  // for ports a flop drives: nothing this cycle drives can reach them.
  std::string combinational;
  const auto check = [&](const Port& p) {
    const CellId drv = nl.net(p.net).driver;
    if (drv != kInvalidId && is_sequential(nl.cell(drv).type)) return;
    if (!combinational.empty()) combinational += ", ";
    combinational += nl.cell(p.cell).name;
  };
  for (const BusPorts* ports : {&iaddr_, &baddr_, &bwdata_})
    for (const Port& p : *ports) check(p);
  for (const Port& p : {bwr_, brd_, halted_}) check(p);
  if (!combinational.empty())
    throw std::invalid_argument(
        "SocFsimEnvironment: bus ports not driven by a flop: " + combinational);
}

void SocFsimEnvironment::drive_mission_inputs(PackedSim& sim,
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

std::uint64_t SocFsimEnvironment::BusRead::value(int lane) const {
  if (!lane_test(diff, lane)) return v0;
  std::uint64_t v = v0;
  for (int i = 0; i < n; ++i)
    v ^= static_cast<std::uint64_t>(lane_test(flips[i], lane)) << bit[i];
  return v;
}

LaneWord SocFsimEnvironment::read_port(const PackedSim& sim,
                                       const Port& port) {
  if (!sim.port_uniform(port.cell, port.net)) return sim.observed(port.cell);
  const std::uint64_t* plane = sim.lane0_plane().data();
  return lane_broadcast((plane[port.net / 64] >> (port.net % 64)) & 1ULL);
}

SocFsimEnvironment::BusRead SocFsimEnvironment::read_bus(
    const PackedSim& sim, const BusPorts& ports) {
  const std::uint64_t* plane = sim.lane0_plane().data();
  BusRead r;
  for (int b = 0; b < 32; ++b) {
    const Port& p = ports[static_cast<std::size_t>(b)];
    if (sim.port_uniform(p.cell, p.net)) {
      r.v0 |= ((plane[p.net / 64] >> (p.net % 64)) & 1ULL) << b;
      continue;
    }
    const Word w = sim.observed(p.cell);
    const bool bit0 = lane_test(w, 0);
    r.v0 |= static_cast<std::uint64_t>(bit0) << b;
    const Word flips = w ^ lane_broadcast(bit0);
    if (!lane_any(flips)) continue;
    r.bit[static_cast<std::size_t>(r.n)] = static_cast<std::uint8_t>(b);
    r.flips[static_cast<std::size_t>(r.n++)] = flips;
    r.diff |= flips;
  }
  return r;
}

void SocFsimEnvironment::drive_bus(PackedSim& sim, BusDrive& bus,
                                       std::uint64_t v0,
                                       const std::vector<Patch>& patches) {
  std::uint64_t patched = 0;
  for (const Patch& p : patches) patched |= p.value ^ v0;
  // Only bits patched now or last time, or whose lane-0 value moved, can
  // differ from the words the last drive left.
  std::array<Word, 32> flips;
  for (std::uint64_t x = patched; x != 0; x &= x - 1)
    flips[static_cast<std::size_t>(__builtin_ctzll(x))] = Word{};
  for (const Patch& p : patches) {
    const Word lane = lane_bit(p.lane);
    for (std::uint64_t x = p.value ^ v0; x != 0; x &= x - 1)
      flips[static_cast<std::size_t>(__builtin_ctzll(x))] |= lane;
  }
  for (std::uint64_t x = (v0 ^ bus.v0) | patched | bus.patched; x != 0;
       x &= x - 1) {
    const auto b = static_cast<std::size_t>(__builtin_ctzll(x));
    Word w = lane_broadcast((v0 >> b) & 1ULL);
    if ((patched >> b) & 1ULL) w ^= flips[b];
    sim.set_input_lanes(bus.nets[b], w);
  }
  bus.v0 = v0;
  bus.patched = patched;
}

std::uint64_t SocFsimEnvironment::mem_read(int lane,
                                               std::uint64_t addr) const {
  const auto& ram =
      ram_[lane_test(private_, lane) ? static_cast<std::size_t>(lane) : 0];
  const auto it = ram.find(addr & ~3ULL);
  if (it != ram.end()) return it->second;
  return flash_->read(addr);
}

void SocFsimEnvironment::reset(PackedSim& sim) {
  // Private lanes' maps are stale from here on; a fork overwrites them.
  ram_[0].clear();
  private_ = Word{};
  halt_seen_ = false;
  drive_mission_inputs(sim, false);
  sim.set_input_word(soc_->cpu.instr_in, 0);
  sim.set_input_word(soc_->cpu.rdata_in, 0);
  instr_.v0 = instr_.patched = rdata_.v0 = rdata_.patched = 0;
  sim.eval();
  sim.clock();
  sim.clock();
  // Released from reset, the mission inputs hold these values for the
  // whole run; step() drives only the buses.
  drive_mission_inputs(sim, true);
}

bool SocFsimEnvironment::step(PackedSim& sim, int) {
  if (halt_seen_) return false;
  // Every bus port is flop-driven (checked at construction), so right
  // after the latch it already shows this cycle's value. Let the
  // comparison see the halting cycle, then stop on the next one.
  const std::uint64_t* plane = sim.lane0_plane().data();
  if ((plane[halted_.net / 64] >> (halted_.net % 64)) & 1ULL) halt_seen_ = true;
  // Instruction fetch: a faulty machine that wanders to a wrong address
  // fetches whatever the flash holds there (NOP outside).
  const BusRead iaddr = read_bus(sim, iaddr_);
  const std::uint64_t instr0 = flash_->read(iaddr.v0);
  patches_.clear();
  for_each_lane(iaddr.diff, [&](int l) {
    const std::uint64_t instr = flash_->read(iaddr.value(l));
    if (instr != instr0) patches_.push_back({l, instr});
  });
  drive_bus(sim, instr_, instr0, patches_);
  // Bus transactions.
  const BusRead baddr = read_bus(sim, baddr_);
  const BusRead bwdata = read_bus(sim, bwdata_);
  const Word wr = read_port(sim, bwr_);
  const Word rd = read_port(sim, brd_);
  const bool wr0 = lane_test(wr, 0);
  const bool rd0 = lane_test(rd, 0);
  // A shared lane whose write differs from lane 0's forks lane 0's RAM as
  // it stands before this cycle's writes.
  const Word fork = ((wr ^ lane_broadcast(wr0)) |
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
  for_each_lane(baddr.diff | (rd ^ lane_broadcast(rd0)) | private_,
                [&](int l) {
                  const std::uint64_t rdata =
                      lane_test(rd, l) ? mem_read(l, baddr.value(l)) : 0;
                  if (rdata != rdata0) patches_.push_back({l, rdata});
                });
  drive_bus(sim, rdata_, rdata0, patches_);
  return true;
}

}  // namespace olfui
