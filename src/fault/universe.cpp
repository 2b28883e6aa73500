#include "fault/universe.hpp"

#include <cassert>
#include <numeric>

#include "util/strings.hpp"

namespace olfui {

FaultUniverse::FaultUniverse(const Netlist& nl) : nl_(&nl) {
  cell_base_.resize(nl.num_cells());
  for (CellId id = 0; id < nl.num_cells(); ++id) {
    cell_base_[id] = static_cast<std::uint32_t>(faults_.size());
    const Cell& c = nl.cell(id);
    if (has_output(c.type)) {
      faults_.push_back({{id, 0}, false});
      faults_.push_back({{id, 0}, true});
    }
    for (std::size_t i = 0; i < c.ins.size(); ++i) {
      faults_.push_back({{id, static_cast<std::uint8_t>(i + 1)}, false});
      faults_.push_back({{id, static_cast<std::uint8_t>(i + 1)}, true});
    }
  }
}

FaultId FaultUniverse::id_of(Pin pin, bool sa1) const {
  const Cell& c = nl_->cell(pin.cell);
  std::uint32_t ofs = 0;
  if (pin.pin == 0) {
    assert(has_output(c.type));
  } else {
    ofs = (has_output(c.type) ? 2u : 0u) + 2u * (pin.pin - 1);
  }
  return cell_base_[pin.cell] + ofs + (sa1 ? 1u : 0u);
}

std::pair<FaultId, FaultId> FaultUniverse::ids_at(Pin pin) const {
  const FaultId f0 = id_of(pin, false);
  return {f0, f0 + 1};
}

std::string FaultUniverse::fault_name(FaultId id) const {
  const Fault& f = faults_[id];
  const Cell& c = nl_->cell(f.pin.cell);
  return format("%s/%s s-a-%d", c.name.c_str(),
                std::string(pin_name(c.type, f.pin.pin)).c_str(), f.sa1 ? 1 : 0);
}

namespace {

class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0u);
  }
  std::uint32_t find(std::uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::uint32_t a, std::uint32_t b) {
    a = find(a);
    b = find(b);
    if (a != b) parent_[std::max(a, b)] = std::min(a, b);
  }

 private:
  std::vector<std::uint32_t> parent_;
};

}  // namespace

std::vector<FaultId> FaultUniverse::collapse_map() const {
  return collapse(true);
}

std::vector<FaultId> FaultUniverse::tdf_collapse_map() const {
  return collapse(false);
}

std::vector<FaultId> FaultUniverse::collapse(bool controlling_inputs) const {
  UnionFind uf(faults_.size());
  const Netlist& nl = *nl_;
  for (CellId id = 0; id < nl.num_cells(); ++id) {
    const Cell& c = nl.cell(id);
    // Gate-local input/output equivalences. A BUF or NOT passes every
    // value and every transition through (a NOT swaps the polarity, which
    // swaps s-a-0 with s-a-1 and slow-to-rise with slow-to-fall); the
    // controlling-input classes hold for stuck-at only.
    if (!controlling_inputs && c.type != CellType::kBuf &&
        c.type != CellType::kNot)
      continue;
    for (std::size_t i = 0; i < c.ins.size(); ++i) {
      const Pin in_pin{id, static_cast<std::uint8_t>(i + 1)};
      switch (c.type) {
        case CellType::kBuf:
          uf.unite(id_of(in_pin, false), id_of({id, 0}, false));
          uf.unite(id_of(in_pin, true), id_of({id, 0}, true));
          break;
        case CellType::kNot:
          uf.unite(id_of(in_pin, false), id_of({id, 0}, true));
          uf.unite(id_of(in_pin, true), id_of({id, 0}, false));
          break;
        case CellType::kAnd2:
        case CellType::kAnd3:
        case CellType::kAnd4:
          uf.unite(id_of(in_pin, false), id_of({id, 0}, false));
          break;
        case CellType::kNand2:
        case CellType::kNand3:
        case CellType::kNand4:
          uf.unite(id_of(in_pin, false), id_of({id, 0}, true));
          break;
        case CellType::kOr2:
        case CellType::kOr3:
        case CellType::kOr4:
          uf.unite(id_of(in_pin, true), id_of({id, 0}, true));
          break;
        case CellType::kNor2:
        case CellType::kNor3:
        case CellType::kNor4:
          uf.unite(id_of(in_pin, true), id_of({id, 0}, false));
          break;
        default:
          break;  // XOR/XNOR/MUX/flops: no structural equivalence
      }
    }
  }
  // Single-fanout wire equivalence: stem fault == sole branch fault (both
  // watch the same net, so they launch on the same cycles too).
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    const Net& net = nl.net(n);
    if (net.driver == kInvalidId || net.fanout.size() != 1) continue;
    if (!has_output(nl.cell(net.driver).type)) continue;
    const Pin stem{net.driver, 0};
    const Pin branch = net.fanout[0];
    uf.unite(id_of(stem, false), id_of(branch, false));
    uf.unite(id_of(stem, true), id_of(branch, true));
  }
  std::vector<FaultId> map(faults_.size());
  for (FaultId f = 0; f < faults_.size(); ++f) map[f] = uf.find(f);
  return map;
}

std::size_t FaultUniverse::collapsed_count() const {
  const auto map = collapse_map();
  std::size_t n = 0;
  for (FaultId f = 0; f < map.size(); ++f)
    if (map[f] == f) ++n;
  return n;
}

void FaultUniverse::faults_of_cell(CellId cell, std::vector<FaultId>& out) const {
  const Cell& c = nl_->cell(cell);
  const std::uint32_t base = cell_base_[cell];
  const std::uint32_t count =
      2u * ((has_output(c.type) ? 1u : 0u) + static_cast<std::uint32_t>(c.ins.size()));
  for (std::uint32_t i = 0; i < count; ++i) out.push_back(base + i);
}

}  // namespace olfui
