// olfui/cpu: the system-on-chip around the MiniRISC32 core.
//
// build_soc() reproduces the case-study configuration: the core, the
// Nexus-style debug unit (insert_debug), full scan (insert_scan, so the
// debug unit's own flops are scanned too), and the mission memory map —
// Flash at 0x0007_8000-0x0007_FFFF, RAM at 0x4000_0000-0x4001_FFFF on a
// 32-bit address bus. Memories are behavioural models (the paper's
// 214,930-fault universe is the processor core only; memory cores are
// outside it).
//
// Two execution environments drive the netlist:
//  * SocSimulator — 4-valued single-machine functional runner (program
//    bring-up, architectural tests). It does not feed fault-simulation
//    campaigns: those take each program's cycle count (and the §4 input
//    activity screen) from the packed lane-0 pass that records their
//    checkpoint;
//  * SocFsimEnvironment — the packed 256-lane environment for the fault
//    simulator.
//    Every lane's memory answers for that lane alone, so a faulty machine
//    that strays to a wrong address reads what real silicon would read.
//    Lane 0 is the good machine and most faulty lanes show its bus on
//    most cycles, so each bus is served once for lane 0 and answered
//    separately only for the lanes whose bus differs; a faulty lane's RAM
//    is lane 0's until its first write that lane 0 does not make, when it
//    forks a private copy. Every bus port is flop-driven (the constructor
//    checks), so step() reads the whole bus right after the latch and
//    drives the answers without settling: the fault simulator settles
//    each cycle exactly once, which lets it replay the good machine from
//    the reference trace.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cpu/cpu.hpp"
#include "cpu/isa.hpp"
#include "debug/debug.hpp"
#include "fsim/fsim.hpp"
#include "memmap/memmap.hpp"
#include "netlist/netlist.hpp"
#include "scan/scan.hpp"
#include "sim/sim.hpp"

namespace olfui {

struct SocConfig {
  CpuConfig cpu;
  bool with_debug = true;
  bool with_scan = true;
  ScanConfig scan{.num_chains = 4, .buffers_per_link = 1,
                  .se_functional_value = false};
  std::uint64_t flash_base = 0x0007'8000;
  std::uint64_t flash_size = 0x0'8000;   // 32 KiB code flash
  std::uint64_t ram_base = 0x4000'0000;
  std::uint64_t ram_size = 0x2'0000;     // 128 KiB SRAM
};

struct Soc {
  SocConfig config;
  Netlist netlist{"minirisc_soc"};
  CpuHandles cpu;
  DebugPorts debug;    // empty if !with_debug
  ScanChains scan;     // empty if !with_scan
  MemoryMap map;
};

std::unique_ptr<Soc> build_soc(const SocConfig& cfg = {});

/// Code image resident in the behavioural flash.
class FlashImage {
 public:
  FlashImage(std::uint64_t base, std::uint64_t size) : base_(base), size_(size) {}
  void load(std::uint32_t addr, const std::vector<std::uint32_t>& words);
  /// Word at byte address `addr`; 0 (NOP) outside the image.
  std::uint32_t read(std::uint64_t addr) const;
  std::uint64_t base() const { return base_; }

 private:
  std::uint64_t base_, size_;
  std::unordered_map<std::uint64_t, std::uint32_t> words_;
};

/// Single-machine 4-valued functional runner.
class SocSimulator {
 public:
  explicit SocSimulator(const Soc& soc);

  FlashImage& flash() { return flash_; }
  /// Assembles `p` (resolving labels) and loads it at its base address.
  void load_program(Program& p);

  /// Applies reset and runs until HALT or `max_cycles`. Returns the number
  /// of executed cycles.
  int run(int max_cycles);

  bool halted() const;
  std::uint32_t gpr(int r) const;
  std::uint32_t pc() const;
  std::uint32_t ram_word(std::uint64_t addr) const;
  const std::unordered_map<std::uint64_t, std::uint32_t>& ram() const {
    return ram_;
  }
  Simulator& sim() { return sim_; }

 private:
  void drive_mission_inputs(bool rstn_value);

  const Soc* soc_;
  Simulator sim_;
  FlashImage flash_;
  std::unordered_map<std::uint64_t, std::uint32_t> ram_;
};

/// Packed fault-simulation environment with per-lane data memory, served
/// from lane 0 (the good machine).
///
/// Each step reads every observed bus once, right after the latch, as
/// lane 0's value plus the lanes whose bus differs from it, answers lane 0
/// once, broadcasts that answer, and patches only the differing lanes
/// whose own answer differs — every lane gets exactly the words a
/// per-lane service would drive. It drives instr_in and rdata_in and
/// leaves the settle to the caller; reset() drives the mission inputs
/// once, to the values they hold for the whole run.
/// step() returns false on the cycle after lane 0 shows `halted`; it has
/// no cycle budget of its own. The tracer's budget ends a recording of a
/// program that never halts, and the recorded trace's length ends every
/// batch graded against it.
/// Every port's net is resolved once, at construction. A read takes lane 0
/// from the kernel's plane and builds lane words only for the ports that
/// are not lane-uniform; a drive writes only the bits whose word differs
/// from what the last drive since reset() left there.
/// RAM is copy-on-diverge: ram_[0] is lane 0's, and a faulty lane shares
/// it until the first cycle its write differs from lane 0's (strobe,
/// address or data), when it takes a copy of ram_[0] as it stood before
/// that cycle's writes. A shared lane's RAM therefore always equals lane
/// 0's.
class SocFsimEnvironment : public FsimEnvironment {
 public:
  using Word = LaneWord;

  /// Throws std::invalid_argument naming every bus port (iaddr, baddr,
  /// bwdata, bwr, brd, halted) whose net no flop drives: step() reads them
  /// before the cycle settles.
  SocFsimEnvironment(const Soc& soc, const FlashImage& flash);

  void reset(PackedSim& sim) override;
  bool step(PackedSim& sim, int) override;

  /// Lanes that own a private RAM copy since the last reset().
  const Word& private_lanes() const { return private_; }

 private:
  /// An observed output port and the net it reads.
  struct Port {
    CellId cell = kInvalidId;
    NetId net = kInvalidId;
  };
  using BusPorts = std::array<Port, 32>;
  /// One observed 32-bit bus: lane 0's value, the lanes whose value
  /// differs from lane 0's, and, for the `n` bits whose port is not
  /// lane-uniform, the lanes that read bit[i] inverted from lane 0.
  struct BusRead {
    std::uint64_t v0 = 0;
    Word diff{};
    int n = 0;
    std::array<std::uint8_t, 32> bit;
    std::array<Word, 32> flips;
    /// Lane `lane`'s value (a gather only for lanes in `diff`).
    std::uint64_t value(int lane) const;
  };
  /// A lane whose answer differs from lane 0's.
  struct Patch {
    int lane;
    std::uint64_t value;
  };
  /// A driven 32-bit input bus and what the last drive left on it: lane
  /// 0's value on every lane, except the bits in `patched`.
  struct BusDrive {
    std::array<NetId, 32> nets;
    std::uint64_t v0 = 0;
    std::uint64_t patched = 0;
  };

  void drive_mission_inputs(PackedSim& sim, bool rstn_value);
  /// A port's lane word: the broadcast of its plane bit when uniform.
  static Word read_port(const PackedSim& sim, const Port& port);
  static BusRead read_bus(const PackedSim& sim, const BusPorts& ports);
  /// Drives `v0` on every lane of `bus`, then each patch on its lane; only
  /// bits whose word changed since the last drive are written.
  static void drive_bus(PackedSim& sim, BusDrive& bus, std::uint64_t v0,
                        const std::vector<Patch>& patches);
  std::uint64_t mem_read(int lane, std::uint64_t addr) const;

  const Soc* soc_;
  const FlashImage* flash_;
  bool halt_seen_ = false;
  /// ram_[0] is lane 0's; ram_[l] is lane l's only while l is in private_.
  std::array<std::unordered_map<std::uint64_t, std::uint32_t>, kLanes> ram_;
  Word private_{};
  std::vector<Patch> patches_;  // reused across steps
  BusPorts iaddr_, baddr_, bwdata_;
  Port bwr_, brd_, halted_;
  BusDrive instr_, rdata_;
};

}  // namespace olfui
