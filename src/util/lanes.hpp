// olfui/util: packed lane words.
//
// Parallel-pattern fault grading packs one good machine (lane 0) plus
// kLanes - 1 faulty machines into every net value. The word is a GCC/Clang
// vector of four 64-bit words, 256 lanes.
#pragma once

#include <cstdint>
#include <cstdio>
#include <ostream>

#if !defined(__GNUC__) && !defined(__clang__)
#error "olfui needs GCC/Clang vector extensions for its 256-lane kernel"
#endif

namespace olfui {

/// Lanes per packed word: the good machine plus kLanes - 1 faulty ones.
inline constexpr int kLanes = 256;

/// The packed word: kLanes / 64 64-bit words. Bitwise &,|,^,~ and
/// subscripting work; scalar comparison and scalar initialization do NOT
/// — use the lane_* helpers below.
typedef std::uint64_t LaneWord __attribute__((vector_size(kLanes / 8)));
inline constexpr int kLaneWords = kLanes / 64;

inline bool lane_any(const LaneWord& v) {
  std::uint64_t acc = 0;
  for (int k = 0; k < kLaneWords; ++k) acc |= v[k];
  return acc != 0;
}

/// a != b in any lane. Vector != yields a vector, so every scalar
/// comparison in the kernels routes through this instead.
inline bool lane_neq(const LaneWord& a, const LaneWord& b) {
  return lane_any(a ^ b);
}

/// All lanes set / all lanes clear from one bit (vector words cannot be
/// initialized from a scalar).
inline LaneWord lane_broadcast(bool bit) {
  return bit ? ~LaneWord{} : LaneWord{};
}

/// Every lane holds the same bit (all clear or all set).
inline bool lane_uniform(const LaneWord& v) {
  const std::uint64_t w0 = v[0];
  std::uint64_t acc = w0 + 1 <= 1 ? 0 : 1;
  for (int k = 1; k < kLaneWords; ++k) acc |= v[k] ^ w0;
  return acc == 0;
}

/// A word with only `lane` set.
inline LaneWord lane_bit(int lane) {
  LaneWord w{};
  w[lane / 64] = 1ULL << (lane % 64);
  return w;
}

/// Bit `lane` of a packed word.
inline bool lane_test(const LaneWord& v, int lane) {
  return (v[lane / 64] >> (lane % 64)) & 1ULL;
}

/// Number of set lanes.
inline int lane_count(const LaneWord& v) {
  int n = 0;
  for (int k = 0; k < kLaneWords; ++k) n += __builtin_popcountll(v[k]);
  return n;
}

/// Calls f(lane) for every set lane of `mask`, in ascending order.
template <class F>
inline void for_each_lane(const LaneWord& mask, F&& f) {
  for (int k = 0; k < kLaneWords; ++k)
    for (std::uint64_t w = mask[k]; w != 0; w &= w - 1)
      f(k * 64 + __builtin_ctzll(w));
}

/// Per-batch detection mask: bit i set = fault i of the batch detected, so
/// it holds the kLanes - 1 faults of one pass. The uint64 constructor is
/// deliberately one-way: a literal like 0 widens into a mask, but a mask
/// never narrows back implicitly.
class LaneMask {
 public:
  static constexpr int kWords = kLaneWords;

  constexpr LaneMask() = default;
  constexpr LaneMask(std::uint64_t low) : words_{low, 0, 0, 0} {}

  constexpr bool bit(int i) const { return (words_[i / 64] >> (i % 64)) & 1ULL; }
  constexpr void set_bit(int i) { words_[i / 64] |= 1ULL << (i % 64); }
  constexpr std::uint64_t word(int k) const { return words_[k]; }
  constexpr void set_word(int k, std::uint64_t v) { words_[k] = v; }

  constexpr bool any() const {
    return (words_[0] | words_[1] | words_[2] | words_[3]) != 0;
  }
  constexpr bool none() const { return !any(); }
  constexpr explicit operator bool() const { return any(); }

  constexpr bool operator==(const LaneMask&) const = default;

  friend constexpr LaneMask operator&(const LaneMask& a, const LaneMask& b) {
    LaneMask r;
    for (int k = 0; k < kWords; ++k) r.words_[k] = a.words_[k] & b.words_[k];
    return r;
  }
  friend constexpr LaneMask operator|(const LaneMask& a, const LaneMask& b) {
    LaneMask r;
    for (int k = 0; k < kWords; ++k) r.words_[k] = a.words_[k] | b.words_[k];
    return r;
  }
  friend constexpr LaneMask operator^(const LaneMask& a, const LaneMask& b) {
    LaneMask r;
    for (int k = 0; k < kWords; ++k) r.words_[k] = a.words_[k] ^ b.words_[k];
    return r;
  }
  friend constexpr LaneMask operator~(const LaneMask& a) {
    LaneMask r;
    for (int k = 0; k < kWords; ++k) r.words_[k] = ~a.words_[k];
    return r;
  }
  LaneMask& operator&=(const LaneMask& o) { return *this = *this & o; }
  LaneMask& operator|=(const LaneMask& o) { return *this = *this | o; }
  LaneMask& operator^=(const LaneMask& o) { return *this = *this ^ o; }

  friend std::ostream& operator<<(std::ostream& os, const LaneMask& m) {
    os << "LaneMask{";
    for (int k = kWords - 1; k >= 0; --k) {
      char buf[17];
      std::snprintf(buf, sizeof buf, "%016llx",
                    static_cast<unsigned long long>(m.words_[k]));
      os << buf << (k ? "'" : "");
    }
    return os << "}";
  }

 private:
  std::uint64_t words_[kWords] = {0, 0, 0, 0};
};

/// The faults whose lanes are set in `lanes`: fault i rides lane i + 1, so
/// bit i of the mask is lane i + 1 and lane 0 drops out.
inline LaneMask lanes_to_faults(const LaneWord& lanes) {
  LaneMask m;
  for (int k = 0; k < kLaneWords; ++k)
    m.set_word(k, (lanes[k] >> 1) |
                      (k + 1 < kLaneWords ? lanes[k + 1] << 63 : 0));
  return m;
}

}  // namespace olfui
