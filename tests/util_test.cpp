#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "util/bitvec.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace olfui {
namespace {

TEST(BitVec, StartsCleared) {
  BitVec v(130);
  EXPECT_EQ(v.size(), 130u);
  EXPECT_EQ(v.count(), 0u);
  EXPECT_TRUE(v.none());
  EXPECT_EQ(v.find_first(), 130u);
}

TEST(BitVec, SetGetAcrossWordBoundaries) {
  BitVec v(200);
  for (std::size_t i : {0u, 63u, 64u, 127u, 128u, 199u}) {
    v.set(i, true);
    EXPECT_TRUE(v.get(i)) << i;
  }
  EXPECT_EQ(v.count(), 6u);
  v.set(64, false);
  EXPECT_FALSE(v.get(64));
  EXPECT_EQ(v.count(), 5u);
}

TEST(BitVec, FindNextSkipsAndFinds) {
  BitVec v(300);
  v.set(5, true);
  v.set(100, true);
  v.set(299, true);
  EXPECT_EQ(v.find_first(), 5u);
  EXPECT_EQ(v.find_next(6), 100u);
  EXPECT_EQ(v.find_next(101), 299u);
  EXPECT_EQ(v.find_next(300), 300u);
}

TEST(BitVec, SetAllRespectsTailMasking) {
  BitVec v(70);
  v.set_all(true);
  EXPECT_EQ(v.count(), 70u);
  v.flip();
  EXPECT_EQ(v.count(), 0u);
}

TEST(BitVec, BooleanAlgebra) {
  BitVec a(100), b(100);
  a.set(1, true);
  a.set(50, true);
  b.set(50, true);
  b.set(99, true);
  BitVec o = a;
  o |= b;
  EXPECT_EQ(o.count(), 3u);
  BitVec n = a;
  n &= b;
  EXPECT_EQ(n.count(), 1u);
  EXPECT_TRUE(n.get(50));
  BitVec x = a;
  x ^= b;
  EXPECT_EQ(x.count(), 2u);
  BitVec s = a;
  s.subtract(b);
  EXPECT_TRUE(s.get(1));
  EXPECT_FALSE(s.get(50));
}

TEST(BitVec, CountMatchesNaive) {
  Rng rng(7);
  BitVec v(517);
  std::size_t expect = 0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    const bool bit = rng.next_bool();
    v.set(i, bit);
    expect += bit ? 1 : 0;
  }
  EXPECT_EQ(v.count(), expect);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  EXPECT_NE(a.next_u64(), c.next_u64());
}

TEST(Rng, NextBelowInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(17), 17u);
}

TEST(Rng, RoughlyUniform) {
  Rng rng(2);
  int buckets[8] = {};
  for (int i = 0; i < 8000; ++i) ++buckets[rng.next_below(8)];
  for (int b = 0; b < 8; ++b) EXPECT_GT(buckets[b], 700) << b;
}

TEST(Strings, SplitDropsEmptyPieces) {
  const auto parts = split("a,,b c", ", ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x y\t\n"), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, ParseUintDecimalAndHex) {
  EXPECT_EQ(parse_uint("1234"), 1234u);
  EXPECT_EQ(parse_uint("0x1F"), 0x1Fu);
  EXPECT_EQ(parse_uint("0x0007_8000"), 0x78000u);
  EXPECT_FALSE(parse_uint("").has_value());
  EXPECT_FALSE(parse_uint("12z").has_value());
  EXPECT_FALSE(parse_uint("0x").has_value());
}

TEST(Strings, ParseUintRejectsValuesPast64Bits) {
  struct Row {
    const char* text;
    std::optional<std::uint64_t> value;
  };
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  const Row rows[] = {
      {"18446744073709551615", kMax},            // 2^64 - 1
      {"0xFFFFFFFFFFFFFFFF", kMax},              // 2^64 - 1
      {"0xffff_ffff_ffff_ffff", kMax},           // 2^64 - 1, separated
      {"18446744073709551616", std::nullopt},    // 2^64
      {"18446744073709551617", std::nullopt},    // 2^64 + 1
      {"0x10000000000000000", std::nullopt},     // 2^64
      {"0x1_0000_0000_0000_0001", std::nullopt}, // 2^64 + 1
      {"99999999999999999999", std::nullopt},
  };
  for (const Row& row : rows)
    EXPECT_EQ(parse_uint(row.text), row.value) << row.text;
}

TEST(Strings, Format) {
  EXPECT_EQ(format("%d-%s", 5, "x"), "5-x");
  EXPECT_EQ(format("%04x", 0xAB), "00ab");
}

TEST(Strings, WithCommas) {
  EXPECT_EQ(with_commas(0), "0");
  EXPECT_EQ(with_commas(999), "999");
  EXPECT_EQ(with_commas(1000), "1,000");
  EXPECT_EQ(with_commas(214930), "214,930");
  EXPECT_EQ(with_commas(1234567890), "1,234,567,890");
}

}  // namespace
}  // namespace olfui
