// olfui/util: width-parametric packed lane words.
//
// Parallel-pattern fault grading packs one good machine (lane 0) plus
// W-1 faulty machines into every net value. Two widths exist: the scalar
// uint64_t word at W=64 (scan runners, the lane-0 reference tracer, the
// equivalence baseline) and a GCC/Clang vector of four words at W=256
// (SBST grading).
#pragma once

#include <cstdint>
#include <cstdio>
#include <ostream>

#if !defined(__GNUC__) && !defined(__clang__)
#error "olfui needs GCC/Clang vector extensions for its 256-lane kernel"
#endif

namespace olfui {

template <int W>
struct LaneWordTraits;

template <>
struct LaneWordTraits<64> {
  using Word = std::uint64_t;
  static constexpr int kWords = 1;
};

template <>
struct LaneWordTraits<256> {
  typedef std::uint64_t Word __attribute__((vector_size(32)));
  static constexpr int kWords = 4;
};

/// The packed word at width W: uint64_t at 64, a vector of W/64 such
/// words above. Bitwise &,|,^,~ and subscripting work on both; scalar
/// comparison and scalar initialization do NOT work on the vector types
/// — use the lane_* helpers below.
template <int W>
using LaneWord = typename LaneWordTraits<W>::Word;

// --- uniform helpers over scalar and vector words --------------------------
// The non-template uint64 overloads win overload resolution at W=64, so
// the scalar kernel compiles to exactly the pre-refactor code.

inline constexpr std::uint64_t word_of(std::uint64_t v, int) { return v; }
inline constexpr void set_word_of(std::uint64_t& v, int, std::uint64_t x) {
  v = x;
}
inline constexpr bool lane_any(std::uint64_t v) { return v != 0; }

template <class Word>
inline std::uint64_t word_of(const Word& v, int k) {
  return v[k];
}

template <class Word>
inline void set_word_of(Word& v, int k, std::uint64_t x) {
  v[k] = x;
}

template <class Word>
inline bool lane_any(const Word& v) {
  std::uint64_t acc = 0;
  for (int k = 0; k < static_cast<int>(sizeof(Word) / 8); ++k) acc |= v[k];
  return acc != 0;
}

/// a != b in any lane. Vector != yields a vector, so every scalar
/// comparison in the kernels routes through this instead.
template <class Word>
inline bool lane_neq(const Word& a, const Word& b) {
  return lane_any(a ^ b);
}

/// All lanes set / all lanes clear from one bit (vector words cannot be
/// initialized from a scalar).
template <class Word>
inline Word lane_broadcast(bool bit) {
  return bit ? ~Word{} : Word{};
}

/// Every lane holds the same bit (all clear or all set).
inline constexpr bool lane_uniform(std::uint64_t v) { return v + 1 <= 1; }

template <class Word>
inline bool lane_uniform(const Word& v) {
  const std::uint64_t w0 = v[0];
  std::uint64_t acc = w0 + 1 <= 1 ? 0 : 1;
  for (int k = 1; k < static_cast<int>(sizeof(Word) / 8); ++k)
    acc |= v[k] ^ w0;
  return acc == 0;
}

/// A word with only `lane` set.
template <class Word>
inline Word lane_bit(int lane) {
  Word w{};
  set_word_of(w, lane / 64, 1ULL << (lane % 64));
  return w;
}

/// Bit `lane` of a packed word.
template <class Word>
inline bool lane_test(const Word& v, int lane) {
  return (word_of(v, lane / 64) >> (lane % 64)) & 1ULL;
}

/// Number of set lanes.
template <class Word>
inline int lane_count(const Word& v) {
  int n = 0;
  for (int k = 0; k < static_cast<int>(sizeof(Word) / 8); ++k)
    n += __builtin_popcountll(word_of(v, k));
  return n;
}

/// Calls f(lane) for every set lane of `mask`, in ascending order.
template <class Word, class F>
inline void for_each_lane(const Word& mask, F&& f) {
  for (int k = 0; k < static_cast<int>(sizeof(Word) / 8); ++k)
    for (std::uint64_t w = word_of(mask, k); w != 0; w &= w - 1)
      f(k * 64 + __builtin_ctzll(w));
}

/// Per-batch detection mask: bit i set = fault i of the batch detected.
/// Storage is fixed at the widest kernel's size (4 x 64 bits, enough for
/// a 256-lane batch's 255 faults) no matter the runner's width, so the
/// campaign merge and report code stay width-agnostic.
/// The uint64 constructor is deliberately one-way: legacy 63-lane
/// kernels (and literals like 0) widen into a mask, but a mask never
/// narrows back implicitly.
class LaneMask {
 public:
  static constexpr int kWords = 4;

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

}  // namespace olfui
