// olfui/netlist: the gate-level cell library.
//
// The library is the minimal industrial-style set needed by the DATE'13
// flow: combinational gates, 2:1 muxes (used both functionally and as the
// scan / debug muxes of the paper's Figs. 2 and 4), tie cells (the paper's
// "connect to ground or Vdd" manipulation), D flip-flops with and without
// an active-low reset (Fig. 5), and pseudo-cells for top-level ports.
#pragma once

#include <cassert>
#include <cstdint>
#include <string_view>

namespace olfui {

enum class CellType : std::uint8_t {
  // Pseudo-cells representing top-level ports. kInput drives a net and has
  // no inputs; kOutput consumes a net and drives nothing.
  kInput,
  kOutput,
  // Constant drivers ("tied'0 / tied'1" in the paper).
  kTie0,
  kTie1,
  // Combinational gates.
  kBuf,
  kNot,
  kAnd2,
  kAnd3,
  kAnd4,
  kOr2,
  kOr3,
  kOr4,
  kNand2,
  kNand3,
  kNand4,
  kNor2,
  kNor3,
  kNor4,
  kXor2,
  kXnor2,
  // 2:1 multiplexer: out = S ? B : A. Input order {A, B, S}.
  kMux2,
  // Positive-edge D flip-flop. Input order {D}.
  kDff,
  // Positive-edge D flip-flop with active-low reset to 0. Input order
  // {D, RSTN} — the structure of the paper's Fig. 5.
  kDffR,
};

/// Number of distinct cell types (for table sizing).
inline constexpr int kNumCellTypes = static_cast<int>(CellType::kDffR) + 1;

/// Number of input pins of a cell of this type.
int num_inputs(CellType t);

/// True for kDff / kDffR: cells that cut combinational levelization.
bool is_sequential(CellType t);

/// True for kInput / kOutput pseudo-cells.
bool is_port(CellType t);

/// True for kTie0 / kTie1.
bool is_tie(CellType t);

/// True if the cell drives a net (everything except kOutput).
bool has_output(CellType t);

/// Human/Verilog name of the cell type ("AND2", "DFFR", ...).
std::string_view type_name(CellType t);

/// Inverse of type_name(); returns false if the name is unknown.
bool type_from_name(std::string_view name, CellType& out);

/// Name of pin `pin` (0 = output, 1.. = inputs) of a cell of type `t`,
/// e.g. MUX2 pins are "Y", "A", "B", "S"; DFFR pins are "Q", "D", "RSTN".
std::string_view pin_name(CellType t, int pin);

/// MUX2 input pin indices (within the `ins` array, i.e. 0-based data order).
inline constexpr int kMuxA = 0;
inline constexpr int kMuxB = 1;
inline constexpr int kMuxS = 2;
/// DFF/DFFR input pin indices.
inline constexpr int kDffD = 0;
inline constexpr int kDffRstn = 1;

/// Two-valued evaluation of a combinational cell given packed input words.
/// `Word` is the 256-lane word (util/lanes.hpp) or a std::uint64_t (the
/// kernel's lane-0 evaluation off the divergence frontier). Pure bitwise
/// logic, so one definition serves both.
/// Not valid for sequential/port cells.
template <class Word>
Word eval_packed(CellType t, const Word* in, int n) {
  switch (t) {
    case CellType::kTie0:
      return Word{};
    case CellType::kTie1:
      return ~Word{};
    case CellType::kBuf:
      return in[0];
    case CellType::kNot:
      return ~in[0];
    case CellType::kAnd2:
    case CellType::kAnd3:
    case CellType::kAnd4: {
      Word v = in[0];
      for (int i = 1; i < n; ++i) v &= in[i];
      return v;
    }
    case CellType::kOr2:
    case CellType::kOr3:
    case CellType::kOr4: {
      Word v = in[0];
      for (int i = 1; i < n; ++i) v |= in[i];
      return v;
    }
    case CellType::kNand2:
    case CellType::kNand3:
    case CellType::kNand4: {
      Word v = in[0];
      for (int i = 1; i < n; ++i) v &= in[i];
      return ~v;
    }
    case CellType::kNor2:
    case CellType::kNor3:
    case CellType::kNor4: {
      Word v = in[0];
      for (int i = 1; i < n; ++i) v |= in[i];
      return ~v;
    }
    case CellType::kXor2:
      return in[0] ^ in[1];
    case CellType::kXnor2:
      return ~(in[0] ^ in[1]);
    case CellType::kMux2:
      return (in[kMuxS] & in[kMuxB]) | (~in[kMuxS] & in[kMuxA]);
    default:
      assert(false && "eval_packed called on non-combinational cell");
      return Word{};
  }
}

}  // namespace olfui
