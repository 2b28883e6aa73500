// olfui/verilog: structural Verilog subset writer and parser.
//
// The supported subset is exactly what gate-level netlists from synthesis
// look like after mapping to the olfui cell library:
//
//   module <name> ( <ports> );
//     input  a; output y; wire n1;
//     AND2 u1 (.Y(n1), .A(a), .B(n2));
//     DFFR r0 (.Q(q), .D(d), .RSTN(rstn));
//     assign y = n1;        // output port connections
//   endmodule
//
// Hierarchical instance names ("core/alu/u_sum_3") are emitted as Verilog
// escaped identifiers (\core/alu/u_sum_3 ). Round-tripping a netlist
// through write_verilog/parse_verilog preserves structure, names and tags
// are preserved where representable (tags travel in a trailing
// "// tag: ..." comment).
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>

#include "netlist/netlist.hpp"

namespace olfui {

std::string write_verilog(const Netlist& nl);

/// A parse failure located at the token where parsing stopped: its line
/// and its byte offset into the text (the text's size at end of input).
class VerilogError : public std::runtime_error {
 public:
  VerilogError(const std::string& msg, int line, std::size_t offset)
      : std::runtime_error("verilog:" + std::to_string(line) + ": " + msg +
                           " at offset " + std::to_string(offset)),
        line_(line),
        offset_(offset) {}
  int line() const { return line_; }
  std::size_t offset() const { return offset_; }

 private:
  int line_;
  std::size_t offset_;
};

/// Parses the subset; throws VerilogError on malformed input.
Netlist parse_verilog(const std::string& text);

}  // namespace olfui
