#include "util/strings.hpp"

#include <cstdarg>
#include <cstdio>
#include <cctype>

namespace olfui {

std::vector<std::string_view> split(std::string_view s, std::string_view seps) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || seps.find(s[i]) != std::string_view::npos) {
      if (i > start) out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string_view trim(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::optional<std::uint64_t> parse_uint(std::string_view s) {
  s = trim(s);
  if (s.empty()) return std::nullopt;
  int base = 10;
  if (starts_with(s, "0x") || starts_with(s, "0X")) {
    base = 16;
    s.remove_prefix(2);
    if (s.empty()) return std::nullopt;
  }
  std::uint64_t v = 0;
  for (char c : s) {
    if (c == '_') continue;  // allow 0x0007_8000 style literals from configs
    int digit;
    if (c >= '0' && c <= '9')
      digit = c - '0';
    else if (base == 16 && c >= 'a' && c <= 'f')
      digit = c - 'a' + 10;
    else if (base == 16 && c >= 'A' && c <= 'F')
      digit = c - 'A' + 10;
    else
      return std::nullopt;
    // A value past 2^64 - 1 is an error, not a silent wrap.
    if (__builtin_mul_overflow(v, static_cast<std::uint64_t>(base), &v) ||
        __builtin_add_overflow(v, static_cast<std::uint64_t>(digit), &v))
      return std::nullopt;
  }
  return v;
}

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out(n > 0 ? static_cast<std::size_t>(n) : 0, '\0');
  if (n > 0) std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  va_end(args);
  return out;
}

std::string with_commas(std::uint64_t v) {
  std::string digits = std::to_string(v);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  const std::size_t first = digits.size() % 3 == 0 ? 3 : digits.size() % 3;
  for (std::size_t i = 0; i < digits.size(); ++i) {
    if (i != 0 && (i + 3 - first) % 3 == 0) out.push_back(',');
    out.push_back(digits[i]);
  }
  return out;
}

}  // namespace olfui
