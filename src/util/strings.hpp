// olfui/util: small string helpers shared by the parser and report writers.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace olfui {

/// Splits on any character in `seps`, dropping empty pieces.
std::vector<std::string_view> split(std::string_view s, std::string_view seps);

/// Removes leading/trailing ASCII whitespace.
std::string_view trim(std::string_view s);

bool starts_with(std::string_view s, std::string_view prefix);

/// Parses a decimal or 0x-prefixed hexadecimal unsigned integer; nullopt
/// for a malformed literal or one past 2^64 - 1.
std::optional<std::uint64_t> parse_uint(std::string_view s);

/// printf-style formatting into std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// "12,345" style thousands grouping for report tables.
std::string with_commas(std::uint64_t v);

}  // namespace olfui
