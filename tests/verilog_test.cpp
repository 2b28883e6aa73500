#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "cpu/soc.hpp"
#include "netlist/wordops.hpp"
#include "sim/packed.hpp"
#include "util/rng.hpp"
#include "verilog/verilog.hpp"

namespace olfui {
namespace {

Netlist small_design() {
  Netlist nl("demo");
  WordOps w(nl, "m");
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId rstn = nl.add_input("rstn");
  const NetId x = w.and2(a, b, "x");
  const NetId y = w.mux(a, x, w.lit(true), "y");
  RegWord r = w.reg_word({y}, "r", rstn);
  w.tag_reg(r, "addr:data");
  nl.add_output("q", r.q[0]);
  nl.add_output("comb", x);
  return nl;
}

TEST(VerilogWriter, EmitsModuleSkeleton) {
  const std::string text = write_verilog(small_design());
  EXPECT_NE(text.find("module demo"), std::string::npos);
  EXPECT_NE(text.find("endmodule"), std::string::npos);
  EXPECT_NE(text.find("input a"), std::string::npos);
  EXPECT_NE(text.find("output q"), std::string::npos);
  EXPECT_NE(text.find("AND2"), std::string::npos);
  EXPECT_NE(text.find("DFFR"), std::string::npos);
  EXPECT_NE(text.find("TIE1"), std::string::npos);
  // Hierarchical names use escaped identifiers.
  EXPECT_NE(text.find("\\m/u_x "), std::string::npos);
  // Tags ride in comments.
  EXPECT_NE(text.find("// tag: addr:data:0"), std::string::npos);
}

TEST(VerilogRoundTrip, PreservesStructureAndTags) {
  const Netlist orig = small_design();
  const Netlist back = parse_verilog(write_verilog(orig));
  EXPECT_TRUE(back.validate().empty());
  const auto s1 = orig.stats();
  const auto s2 = back.stats();
  EXPECT_EQ(s1.cells, s2.cells);
  EXPECT_EQ(s1.nets, s2.nets);
  EXPECT_EQ(s1.inputs, s2.inputs);
  EXPECT_EQ(s1.outputs, s2.outputs);
  EXPECT_EQ(s1.flops, s2.flops);
  EXPECT_EQ(s1.pins, s2.pins);
  const CellId ff = back.find_cell("m/u_r_q_0_reg");
  ASSERT_NE(ff, kInvalidId);
  EXPECT_EQ(back.cell(ff).tag, "addr:data:0");
}

TEST(VerilogRoundTrip, SimulationEquivalent) {
  const Netlist orig = small_design();
  const Netlist back = parse_verilog(write_verilog(orig));
  PackedSim p1(orig), p2(back);
  Rng rng(5);
  const NetId a1 = orig.find_input("a"), b1 = orig.find_input("b"),
              r1 = orig.find_input("rstn");
  const NetId a2 = back.find_input("a"), b2 = back.find_input("b"),
              r2 = back.find_input("rstn");
  for (int cyc = 0; cyc < 20; ++cyc) {
    const bool av = rng.next_bool(), bv = rng.next_bool(), rv = cyc > 1;
    p1.set_input_all(a1, av);
    p1.set_input_all(b1, bv);
    p1.set_input_all(r1, rv);
    p2.set_input_all(a2, av);
    p2.set_input_all(b2, bv);
    p2.set_input_all(r2, rv);
    p1.eval();
    p2.eval();
    for (const char* port : {"q", "comb"}) {
      EXPECT_EQ(lane_test(p1.observed(orig.find_output(port)), 0),
                lane_test(p2.observed(back.find_output(port)), 0))
          << port << " cycle " << cyc;
    }
    p1.clock();
    p2.clock();
  }
}

TEST(VerilogRoundTrip, FullSocNetlist) {
  // The whole case-study SoC survives a write/parse cycle bit-for-bit in
  // structure. This exercises every cell type the generator emits.
  SocConfig cfg;
  cfg.cpu.btb_entries = 2;
  auto soc = build_soc(cfg);
  const std::string text = write_verilog(soc->netlist);
  const Netlist back = parse_verilog(text);
  EXPECT_TRUE(back.validate().empty());
  const auto s1 = soc->netlist.stats();
  const auto s2 = back.stats();
  EXPECT_EQ(s1.cells, s2.cells);
  EXPECT_EQ(s1.pins, s2.pins);
  EXPECT_EQ(s1.flops, s2.flops);
  // Address tags survive for the memory-map pass.
  EXPECT_FALSE(find_address_registers(back).empty());
}

TEST(VerilogParser, AcceptsBodyDeclarationStyle) {
  const char* text = R"(
module t ();
  input a;
  input b;
  output y;
  wire n1;
  AND2 g1 (.Y(n1), .A(a), .B(b));
  assign y = n1;
endmodule
)";
  const Netlist nl = parse_verilog(text);
  EXPECT_EQ(nl.stats().inputs, 2u);
  EXPECT_EQ(nl.stats().outputs, 1u);
  EXPECT_EQ(nl.stats().gates, 1u);
}

TEST(VerilogParser, ErrorsCarryLineNumbers) {
  const char* text = R"(
module t (input a, output y);
  wire n1;
  FROB g1 (.Y(n1), .A(a));
  assign y = n1;
endmodule
)";
  try {
    parse_verilog(text);
    FAIL() << "expected VerilogError";
  } catch (const VerilogError& e) {
    EXPECT_EQ(e.line(), 4);
    // Parsing stops at the instance name after the unknown type.
    EXPECT_EQ(e.offset(), std::string_view(text).find("g1"));
    EXPECT_NE(std::string(e.what()).find("unknown cell type"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find(
                  " at offset " + std::to_string(e.offset())),
              std::string::npos);
  }
}

TEST(VerilogParser, RejectsUndeclaredNet) {
  const char* text = R"(
module t (input a, output y);
  BUF g1 (.Y(mystery), .A(a));
  assign y = mystery;
endmodule
)";
  EXPECT_THROW(parse_verilog(text), VerilogError);
}

TEST(VerilogParser, RejectsMissingOutputAssign) {
  const char* text = R"(
module t (input a, output y);
  wire n1;
  BUF g1 (.Y(n1), .A(a));
endmodule
)";
  EXPECT_THROW(parse_verilog(text), VerilogError);
}

TEST(VerilogParser, RejectsDoubleDriver) {
  const char* text = R"(
module t (input a, output y);
  wire n1;
  BUF g1 (.Y(n1), .A(a));
  BUF g2 (.Y(n1), .A(a));
  assign y = n1;
endmodule
)";
  EXPECT_THROW(parse_verilog(text), VerilogError);
}

TEST(VerilogParser, RejectsUnconnectedPin) {
  const char* text = R"(
module t (input a, output y);
  wire n1;
  AND2 g1 (.Y(n1), .A(a));
  assign y = n1;
endmodule
)";
  EXPECT_THROW(parse_verilog(text), VerilogError);
}

TEST(VerilogParser, EscapedIdentifiersRoundTrip) {
  const char* text =
      "module t (input \\a/b , output \\y[0] );\n"
      "  wire \\n.1 ;\n"
      "  NOT \\u/inv (.Y(\\n.1 ), .A(\\a/b ));\n"
      "  assign \\y[0] = \\n.1 ;\n"
      "endmodule\n";
  const Netlist nl = parse_verilog(text);
  EXPECT_NE(nl.find_input("a/b"), kInvalidId);
  EXPECT_NE(nl.find_cell("u/inv"), kInvalidId);
  // And writing it back keeps the escapes parseable.
  const Netlist again = parse_verilog(write_verilog(nl));
  EXPECT_EQ(again.stats().cells, nl.stats().cells);
}

TEST(VerilogParser, TieCellsAndAllGateArities) {
  const char* text = R"(
module t (input a, input b, input c, input d, output y);
  wire t0; wire t1; wire n1; wire n2; wire n3; wire n4; wire n5;
  TIE0 u_t0 (.Y(t0));
  TIE1 u_t1 (.Y(t1));
  AND4 g1 (.Y(n1), .A(a), .B(b), .C(c), .D(d));
  NOR3 g2 (.Y(n2), .A(n1), .B(t0), .C(t1));
  XNOR2 g3 (.Y(n3), .A(n2), .B(a));
  NAND4 g4 (.Y(n4), .A(n3), .B(b), .C(c), .D(d));
  OR3 g5 (.Y(n5), .A(n4), .B(n3), .C(t0));
  assign y = n5;
endmodule
)";
  const Netlist nl = parse_verilog(text);
  EXPECT_EQ(nl.stats().gates, 5u);
  EXPECT_EQ(nl.stats().ties, 2u);
  EXPECT_TRUE(nl.validate().empty());
}

TEST(VerilogParser, PositionIndependentPinOrder) {
  // Named connections may appear in any order.
  const char* text = R"(
module t (input a, input b, input s, output y);
  wire n1;
  MUX2 g1 (.S(s), .B(b), .Y(n1), .A(a));
  assign y = n1;
endmodule
)";
  const Netlist nl = parse_verilog(text);
  const CellId g = nl.find_cell("g1");
  ASSERT_NE(g, kInvalidId);
  EXPECT_EQ(nl.cell(g).ins[kMuxA], nl.find_input("a"));
  EXPECT_EQ(nl.cell(g).ins[kMuxB], nl.find_input("b"));
  EXPECT_EQ(nl.cell(g).ins[kMuxS], nl.find_input("s"));
}

TEST(VerilogParser, RejectsBadPinName) {
  const char* text = R"(
module t (input a, output y);
  wire n1;
  BUF g1 (.Q(n1), .A(a));
  assign y = n1;
endmodule
)";
  EXPECT_THROW(parse_verilog(text), VerilogError);
}

}  // namespace
}  // namespace olfui
