#include <cctype>
#include <optional>
#include <unordered_map>
#include <vector>

#include "util/strings.hpp"
#include "verilog/verilog.hpp"

namespace olfui {
namespace {

struct Token {
  enum Kind { kIdent, kPunct, kTag, kEnd } kind = kEnd;
  std::string text;
  char punct = 0;
  int line = 1;
  std::size_t offset = 0;  ///< byte offset of the token's first character
};

class Lexer {
 public:
  explicit Lexer(const std::string& text) : text_(text) { advance(); }

  const Token& peek() const { return tok_; }
  Token take() {
    Token t = tok_;
    advance();
    return t;
  }

 private:
  void advance() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
      } else if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '/' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '/') {
        // Comment: "// tag: X" is significant, everything else is skipped.
        std::size_t eol = text_.find('\n', pos_);
        if (eol == std::string::npos) eol = text_.size();
        std::string_view body =
            trim(std::string_view(text_).substr(pos_ + 2, eol - pos_ - 2));
        if (starts_with(body, "tag: ")) {
          tok_ = {Token::kTag, std::string(body.substr(5)), 0, line_, pos_};
          pos_ = eol;
          return;
        }
        pos_ = eol;
      } else {
        break;
      }
    }
    if (pos_ >= text_.size()) {
      tok_ = {Token::kEnd, "", 0, line_, pos_};
      return;
    }
    const char c = text_[pos_];
    if (c == '\\') {
      // Escaped identifier: up to the next whitespace.
      std::size_t end = pos_ + 1;
      while (end < text_.size() &&
             !std::isspace(static_cast<unsigned char>(text_[end])))
        ++end;
      tok_ = {Token::kIdent, text_.substr(pos_ + 1, end - pos_ - 1), 0, line_,
              pos_};
      pos_ = end;
      return;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t end = pos_;
      while (end < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[end])) ||
              text_[end] == '_' || text_[end] == '$'))
        ++end;
      tok_ = {Token::kIdent, text_.substr(pos_, end - pos_), 0, line_, pos_};
      pos_ = end;
      return;
    }
    tok_ = {Token::kPunct, std::string(1, c), c, line_, pos_};
    ++pos_;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int line_ = 1;
  Token tok_;
};

class Parser {
 public:
  explicit Parser(const std::string& text) : lex_(text) {}

  Netlist parse() {
    expect_ident("module");
    Netlist nl(take_ident("module name"));
    expect_punct('(');
    if (!at_punct(')')) {
      parse_port_decl(nl);
      while (at_punct(',')) {
        lex_.take();
        parse_port_decl(nl);
      }
    }
    expect_punct(')');
    expect_punct(';');

    while (!at_ident("endmodule")) {
      const Token t = lex_.take();
      if (t.kind != Token::kIdent) fail("expected declaration or instance");
      if (t.text == "input") {
        declare_input(nl, take_ident("port name"));
        expect_punct(';');
      } else if (t.text == "output") {
        declare_output(take_ident("port name"));
        expect_punct(';');
      } else if (t.text == "wire") {
        declare_wire(nl, take_ident("wire name"));
        expect_punct(';');
      } else if (t.text == "assign") {
        const std::string lhs = take_ident("assign target");
        expect_punct('=');
        const std::string rhs = take_ident("assign source");
        expect_punct(';');
        assigns_.emplace_back(lhs, rhs);
      } else {
        parse_instance(nl, t.text);
      }
    }
    lex_.take();  // endmodule

    // Connect output ports via their assigns.
    for (const std::string& name : output_order_) {
      const auto it = assign_map().find(name);
      if (it == assign_map().end())
        fail("output '" + name + "' has no assign");
      nl.add_output(name, net_of(it->second));
    }
    const auto problems = nl.validate();
    if (!problems.empty()) fail("invalid netlist: " + problems.front());
    return nl;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    throw VerilogError(msg, lex_.peek().line, lex_.peek().offset);
  }
  bool at_punct(char c) const {
    return lex_.peek().kind == Token::kPunct && lex_.peek().punct == c;
  }
  bool at_ident(const std::string& s) const {
    return lex_.peek().kind == Token::kIdent && lex_.peek().text == s;
  }
  void expect_punct(char c) {
    if (!at_punct(c)) fail(std::string("expected '") + c + "'");
    lex_.take();
  }
  void expect_ident(const std::string& s) {
    if (!at_ident(s)) fail("expected '" + s + "'");
    lex_.take();
  }
  std::string take_ident(const std::string& what) {
    if (lex_.peek().kind != Token::kIdent) fail("expected " + what);
    return lex_.take().text;
  }

  void parse_port_decl(Netlist& nl) {
    const std::string dir = take_ident("port direction");
    const std::string name = take_ident("port name");
    if (dir == "input")
      declare_input(nl, name);
    else if (dir == "output")
      declare_output(name);
    else
      fail("bad port direction '" + dir + "'");
  }

  void declare_input(Netlist& nl, const std::string& name) {
    if (nets_.contains(name)) fail("duplicate net '" + name + "'");
    nets_[name] = nl.add_input(name);
  }
  void declare_output(const std::string& name) { output_order_.push_back(name); }
  void declare_wire(Netlist& nl, const std::string& name) {
    if (nets_.contains(name)) fail("duplicate net '" + name + "'");
    nets_[name] = nl.add_net(name);
  }
  NetId net_of(const std::string& name) {
    const auto it = nets_.find(name);
    if (it == nets_.end()) fail("undeclared net '" + name + "'");
    return it->second;
  }

  void parse_instance(Netlist& nl, const std::string& type_name_str) {
    CellType type;
    if (!type_from_name(type_name_str, type) || is_port(type))
      fail("unknown cell type '" + type_name_str + "'");
    const std::string inst = take_ident("instance name");
    expect_punct('(');
    NetId out = kInvalidId;
    std::vector<NetId> ins(static_cast<std::size_t>(num_inputs(type)), kInvalidId);
    bool first = true;
    while (!at_punct(')')) {
      if (!first) expect_punct(',');
      first = false;
      expect_punct('.');
      const std::string pin = take_ident("pin name");
      expect_punct('(');
      const NetId net = net_of(take_ident("net name"));
      expect_punct(')');
      bool found = false;
      for (int p = 0; p <= num_inputs(type); ++p) {
        if (p == 0 && !has_output(type)) continue;
        if (pin_name(type, p) == pin) {
          if (p == 0)
            out = net;
          else
            ins[static_cast<std::size_t>(p - 1)] = net;
          found = true;
          break;
        }
      }
      if (!found) fail("cell " + type_name_str + " has no pin '" + pin + "'");
    }
    expect_punct(')');
    expect_punct(';');
    if (has_output(type) && out == kInvalidId)
      fail("instance '" + inst + "' missing output pin");
    for (NetId n : ins)
      if (n == kInvalidId) fail("instance '" + inst + "' has unconnected input");
    if (out != kInvalidId && nl.net(out).driver != kInvalidId)
      fail("instance '" + inst + "' drives net '" + nl.net(out).name +
           "', which already has a driver");
    const CellId cell = nl.add_cell(type, inst, out, std::move(ins));
    if (lex_.peek().kind == Token::kTag) nl.set_tag(cell, lex_.take().text);
  }

  const std::unordered_map<std::string, std::string>& assign_map() {
    if (assign_map_.empty() && !assigns_.empty())
      for (const auto& [lhs, rhs] : assigns_) assign_map_[lhs] = rhs;
    return assign_map_;
  }

  Lexer lex_;
  std::unordered_map<std::string, NetId> nets_;
  std::vector<std::string> output_order_;
  std::vector<std::pair<std::string, std::string>> assigns_;
  std::unordered_map<std::string, std::string> assign_map_;
};

}  // namespace

Netlist parse_verilog(const std::string& text) { return Parser(text).parse(); }

}  // namespace olfui
