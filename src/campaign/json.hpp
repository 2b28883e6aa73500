// olfui/campaign: minimal JSON document model.
//
// Campaign results travel as JSON (CI trend tracking, dashboards, diffing
// two campaign runs), so the subsystem needs both directions: a writer for
// export and a parser for round-tripping results back in. This is a small
// recursive value type, not a general-purpose library: numbers are doubles
// (campaign counts fit exactly up to 2^53), object keys keep insertion
// order so dumps are deterministic, and parse errors throw JsonError with
// a byte offset.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace olfui {

class JsonError : public std::runtime_error {
 public:
  JsonError(const std::string& what, std::size_t offset)
      : std::runtime_error(what + " at offset " + std::to_string(offset)),
        offset_(offset) {}
  std::size_t offset() const { return offset_; }

 private:
  std::size_t offset_;
};

class Json {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() : kind_(Kind::kNull) {}
  Json(bool v) : kind_(Kind::kBool), bool_(v) {}
  Json(double v) : kind_(Kind::kNumber), num_(v) {}
  Json(int v) : Json(static_cast<double>(v)) {}
  Json(std::size_t v) : Json(static_cast<double>(v)) {}
  Json(const char* v) : kind_(Kind::kString), str_(v) {}
  Json(std::string v) : kind_(Kind::kString), str_(std::move(v)) {}

  static Json array() { Json j; j.kind_ = Kind::kArray; return j; }
  static Json object() { Json j; j.kind_ = Kind::kObject; return j; }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }

  bool as_bool() const { require(Kind::kBool); return bool_; }
  double as_number() const { require(Kind::kNumber); return num_; }
  /// Non-negative integer (≤ 2^53, the exact-double range); throws
  /// JsonError otherwise — casting an unchecked double would be UB.
  std::size_t as_size() const;
  /// Integer within int's range; throws JsonError otherwise.
  int as_int() const;
  const std::string& as_string() const { require(Kind::kString); return str_; }

  /// Array element count or object member count.
  std::size_t size() const;

  /// Array access (throws on kind/range mismatch).
  const Json& at(std::size_t i) const;
  /// Object access (throws if the key is absent).
  const Json& at(std::string_view key) const;
  bool contains(std::string_view key) const;
  /// Object member key by insertion index (throws on kind/range mismatch).
  const std::string& key(std::size_t i) const;
  /// Object member value by insertion index (throws on kind/range mismatch).
  const Json& value(std::size_t i) const;

  /// Appends to an array (value must already be an array).
  void push_back(Json v);
  /// Sets an object member, keeping first-insertion key order.
  void set(std::string key, Json v);

  /// Serializes; indent > 0 pretty-prints with that many spaces per level.
  std::string dump(int indent = 0) const;

  /// Parses a complete document (trailing garbage is an error).
  static Json parse(std::string_view text);

  /// Byte offset of this value in the document it was parsed from (0 for
  /// programmatically built values). Semantic errors raised through
  /// at()/as_*() carry it, so a decoder rejecting one field of a long
  /// document points at the offending bytes, not offset 0.
  std::size_t source_offset() const { return src_offset_; }

 private:
  friend class JsonParser;

  void require(Kind k) const;
  void dump_to(std::string& out, int indent, int depth) const;

  Kind kind_;
  std::size_t src_offset_ = 0;
  bool bool_ = false;
  double num_ = 0;
  std::string str_;
  std::vector<Json> arr_;
  std::vector<std::pair<std::string, Json>> obj_;
};

}  // namespace olfui
