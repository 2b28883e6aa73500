// olfui benchmark harness: the pure pieces of the benchmark program —
// order statistics, span parenting and self time, the seed -> SoC mapping
// and the detection-set hash. Kept apart from olfui_bench.cpp so that
// selftest.cpp can check them without running a campaign.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cpu/soc.hpp"
#include "util/bitvec.hpp"

namespace olfui::bench {

// ---------------------------------------------------------------------------
// Order statistics.

/// Median (mean of the two middle values for an even count); 0 when empty.
double median(std::vector<double> v);

/// Nearest-rank percentile, p in (0, 100]; 0 when empty.
double percentile(std::vector<double> v, double p);

/// A tail percentile together with how many samples lie beyond it.
struct Tail {
  double percentile = 0;
  double value = 0;
  std::size_t beyond = 0;
};

/// The highest percentile of the ladder 50, 75, 90, 95, 99, 99.9 whose
/// nearest rank leaves at least `min_beyond` samples after it; nullopt when
/// even the median leaves fewer (fewer than 2 * min_beyond samples). The
/// percentile chosen depends on the sample count alone, never on the values.
std::optional<Tail> tail_percentile(std::vector<double> v,
                                    std::size_t min_beyond = 10);

// ---------------------------------------------------------------------------
// Spans.

/// One timed interval on one thread lane (microseconds on the tracer's
/// clock). `parent` indexes the same vector; -1 for a root.
struct Span {
  std::string name;
  std::int64_t ts_us = 0;
  std::int64_t dur_us = 0;
  std::int64_t tid = 0;
  int parent = -1;

  std::int64_t end_us() const { return ts_us + dur_us; }
};

/// Parents every span by time containment: the innermost span on the same
/// lane whose interval holds it, else (for worker lanes) the innermost
/// span on `main_tid` of another name whose interval holds it, else none.
/// A span that only partly overlaps another is its sibling, not its child.
void assign_parents(std::vector<Span>& spans, std::int64_t main_tid);

/// Duration of [ts, ts + dur) not covered by any of `children` (each a
/// [begin, end) pair); children may nest, overlap each other or stick out
/// of the parent.
std::int64_t self_time_us(
    std::int64_t ts, std::int64_t dur,
    std::vector<std::pair<std::int64_t, std::int64_t>> children);

/// Self time of every span (after assign_parents): its duration minus the
/// part its children on the same lane cover. Children on other lanes ran
/// in parallel and are not subtracted.
std::vector<std::int64_t> self_times_us(const std::vector<Span>& spans);

// ---------------------------------------------------------------------------
// Workload inputs.

/// The SoC a seed selects. Seed 1 is the stock SocConfig{}; every other
/// seed places the flash (and with it the reset vector) and the RAM at
/// other bases. The netlist size and the programs' cycle counts do not
/// depend on the map, so every seed does the same amount of simulation;
/// what moves is which address bits are constant in mission mode (§3.3),
/// and with it the analyzer's memory-map count and the detection set.
SocConfig soc_config_for_seed(std::uint64_t seed);

/// FNV-1a over the ids of the set bits (each id as 4 little-endian bytes).
std::uint64_t fnv1a_ids(const BitVec& bits);

}  // namespace olfui::bench
