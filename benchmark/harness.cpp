#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/rng.hpp"

namespace olfui::bench {

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

std::size_t nearest_rank(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[nearest_rank(v.size(), p) - 1];
}

std::optional<Tail> tail_percentile(std::vector<double> v,
                                    std::size_t min_beyond) {
  std::sort(v.begin(), v.end());
  std::optional<Tail> best;
  for (double p : {50.0, 75.0, 90.0, 95.0, 99.0, 99.9}) {
    if (v.empty()) break;
    const std::size_t rank = nearest_rank(v.size(), p);
    const std::size_t beyond = v.size() - rank;
    if (beyond < min_beyond) break;
    best = Tail{p, v[rank - 1], beyond};
  }
  return best;
}

void assign_parents(std::vector<Span>& spans, std::int64_t main_tid) {
  // Outer spans first: by lane, start, then longest, so a parent always
  // precedes its children and a stack of open intervals finds them.
  std::vector<int> order(spans.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const Span& x = spans[static_cast<std::size_t>(a)];
    const Span& y = spans[static_cast<std::size_t>(b)];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.ts_us != y.ts_us) return x.ts_us < y.ts_us;
    if (x.dur_us != y.dur_us) return x.dur_us > y.dur_us;
    return a < b;
  });
  const auto contains = [&](int outer, int inner) {
    const Span& o = spans[static_cast<std::size_t>(outer)];
    const Span& i = spans[static_cast<std::size_t>(inner)];
    return o.ts_us <= i.ts_us && i.end_us() <= o.end_us();
  };
  std::vector<int> stack;
  std::int64_t lane = 0;
  for (int idx : order) {
    Span& s = spans[static_cast<std::size_t>(idx)];
    if (stack.empty() || s.tid != lane) {
      stack.clear();
      lane = s.tid;
    }
    while (!stack.empty() && !contains(stack.back(), idx)) stack.pop_back();
    s.parent = stack.empty() ? -1 : stack.back();
    stack.push_back(idx);
  }
  // Worker-lane roots hang under the innermost main-lane span around them.
  // A same-named main-lane span is a peer (the main thread grading its own
  // shard while the workers grade theirs), never a parent.
  for (std::size_t i = 0; i < spans.size(); ++i) {
    Span& s = spans[i];
    if (s.parent != -1 || s.tid == main_tid) continue;
    std::int64_t best_dur = -1;
    for (std::size_t j = 0; j < spans.size(); ++j) {
      const Span& o = spans[j];
      if (o.tid != main_tid || o.name == s.name ||
          !contains(static_cast<int>(j), static_cast<int>(i)))
        continue;
      if (best_dur < 0 || o.dur_us < best_dur) {
        best_dur = o.dur_us;
        s.parent = static_cast<int>(j);
      }
    }
  }
}

std::int64_t self_time_us(
    std::int64_t ts, std::int64_t dur,
    std::vector<std::pair<std::int64_t, std::int64_t>> children) {
  const std::int64_t end = ts + dur;
  for (auto& [b, e] : children) {
    b = std::clamp(b, ts, end);
    e = std::clamp(e, ts, end);
  }
  std::sort(children.begin(), children.end());
  std::int64_t covered = 0, reach = ts;
  for (const auto& [b, e] : children) {
    const std::int64_t from = std::max(b, reach);
    if (e > from) {
      covered += e - from;
      reach = e;
    }
  }
  return dur - covered;
}

std::vector<std::int64_t> self_times_us(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0 && spans[static_cast<std::size_t>(s.parent)].tid == s.tid)
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.ts_us, s.end_us());
  std::vector<std::int64_t> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    out[i] = self_time_us(spans[i].ts_us, spans[i].dur_us, std::move(kids[i]));
  return out;
}

SocConfig soc_config_for_seed(std::uint64_t seed) {
  SocConfig cfg;
  if (seed == 1) return cfg;
  // Flash bases are aligned to the 32 KiB flash; all lie below 1 MiB and
  // all RAM bases at or above 256 MiB, so the two ranges never overlap.
  static constexpr std::uint64_t kFlashBases[] = {
      0x0000'8000, 0x0001'8000, 0x0003'8000, 0x0007'8000, 0x000F'8000};
  static constexpr std::uint64_t kRamBases[] = {
      0x1000'0000, 0x2000'0000, 0x4000'0000,
      0x5000'0000, 0x6000'0000, 0x8000'0000};
  Rng rng(seed);
  cfg.flash_base = kFlashBases[rng.next_below(std::size(kFlashBases))];
  cfg.cpu.reset_vector = static_cast<std::uint32_t>(cfg.flash_base);
  cfg.ram_base = kRamBases[rng.next_below(std::size(kRamBases))];
  return cfg;
}

std::uint64_t fnv1a_ids(const BitVec& bits) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = bits.find_first(); i < bits.size();
       i = bits.find_next(i + 1)) {
    const auto id = static_cast<std::uint32_t>(i);
    for (int b = 0; b < 4; ++b) {
      h ^= (id >> (8 * b)) & 0xFFu;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

}  // namespace olfui::bench
