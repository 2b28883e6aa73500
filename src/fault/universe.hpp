// olfui/fault: the stuck-at fault universe.
//
// Following commercial practice (and the paper's fault accounting, e.g.
// "214,930 stuck-at faults" for the e200z0-class core), the universe holds
// two faults (s-a-0 / s-a-1) on EVERY cell pin: gate output pins (stems),
// gate input pins (fanout branches), and top-level port pins via the
// kInput/kOutput pseudo-cells. Fault ids are dense and stable for a given
// netlist, so analysis passes can exchange BitVec fault sets.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "util/bitvec.hpp"

namespace olfui {

using FaultId = std::uint32_t;

struct Fault {
  Pin pin;
  bool sa1 = false;
};

class FaultUniverse {
 public:
  explicit FaultUniverse(const Netlist& nl);

  std::size_t size() const { return faults_.size(); }
  const Fault& fault(FaultId id) const { return faults_[id]; }
  /// Dense id of the stuck-at-`sa1` fault at `pin`.
  FaultId id_of(Pin pin, bool sa1) const;
  /// Both fault ids at a pin, s-a-0 first.
  std::pair<FaultId, FaultId> ids_at(Pin pin) const;

  /// "u_alu/u_sum_3/A s-a-1" style name for reports.
  std::string fault_name(FaultId id) const;

  const Netlist& netlist() const { return *nl_; }

  /// Structural equivalence collapsing (BUF/NOT transparency, AND/NAND/
  /// OR/NOR controlling-input classes, single-fanout wire equivalence).
  /// Returns for each fault the id of its class representative.
  std::vector<FaultId> collapse_map() const;
  /// The same for the transition-delay reading of the ids (fault/tdf.hpp):
  /// BUF/NOT transparency and single-fanout wire equivalence only, since a
  /// transition on one gate input need not reach the output. Its rules
  /// are a subset of collapse_map()'s, so every transition class lies
  /// inside one stuck-at class.
  std::vector<FaultId> tdf_collapse_map() const;
  /// Number of distinct representatives under collapse_map().
  std::size_t collapsed_count() const;

  /// Set of all fault ids lying on pins of `cell`.
  void faults_of_cell(CellId cell, std::vector<FaultId>& out) const;

 private:
  /// The class map both collapse_map()s share; `controlling_inputs` adds
  /// the stuck-at-only AND/NAND/OR/NOR classes.
  std::vector<FaultId> collapse(bool controlling_inputs) const;

  const Netlist* nl_;
  std::vector<Fault> faults_;
  std::vector<std::uint32_t> cell_base_;  // first fault id of each cell
};

}  // namespace olfui
