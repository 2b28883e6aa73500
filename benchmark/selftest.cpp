// Self-test of the benchmark harness: order statistics, self time, span
// parenting and the seed -> SoC mapping. Exits nonzero on the first
// failed check.
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "harness.hpp"

using namespace olfui;
using namespace olfui::bench;

namespace {

int g_failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void test_median_and_tail() {
  CHECK(median({}) == 0);
  CHECK(median({3, 1, 2}) == 2);
  CHECK(median({4, 1, 3, 2}) == 2.5);
  CHECK(percentile(one_to(100), 99) == 99);
  CHECK(percentile(one_to(100), 50) == 50);
  CHECK(percentile(one_to(5), 100) == 5);

  // 19 samples: even the median has only 9 beyond it.
  CHECK(!tail_percentile(one_to(19)).has_value());
  // 20 samples: p50 = 10 has exactly 10 beyond; p75 = 15 has 5.
  auto t = tail_percentile(one_to(20));
  CHECK(t && t->percentile == 50 && t->value == 10 && t->beyond == 10);
  // 40 samples: p75 = 30 has 10 beyond, p90 = 36 only 4.
  t = tail_percentile(one_to(40));
  CHECK(t && t->percentile == 75 && t->value == 30 && t->beyond == 10);
  // 1000 samples: p99 = 990 has 10 beyond, p99.9 only 1.
  t = tail_percentile(one_to(1000));
  CHECK(t && t->percentile == 99 && t->value == 990);
  // The choice depends on the count alone: 40 equal samples still give
  // p75, and 41 samples (rank 31) still leave 10 beyond it.
  t = tail_percentile(std::vector<double>(40, 1.0));
  CHECK(t && t->percentile == 75 && t->value == 1 && t->beyond == 10);
  t = tail_percentile(one_to(41));
  CHECK(t && t->percentile == 75 && t->value == 31 && t->beyond == 10);
}

void test_self_time() {
  CHECK(self_time_us(0, 100, {}) == 100);
  // Disjoint children.
  CHECK(self_time_us(0, 100, {{10, 20}, {30, 50}}) == 70);
  // A grandchild nested inside a child is not subtracted twice.
  CHECK(self_time_us(0, 100, {{10, 60}, {20, 30}}) == 50);
  // Overlapping children (parallel lanes) count their union once.
  CHECK(self_time_us(0, 100, {{10, 40}, {30, 70}}) == 40);
  // Children sticking out of the parent are clipped to it.
  CHECK(self_time_us(100, 100, {{50, 120}, {190, 260}}) == 70);
  // Fully covered.
  CHECK(self_time_us(0, 100, {{0, 100}, {20, 30}}) == 0);
}

Span span(std::string name, std::int64_t ts, std::int64_t dur,
          std::int64_t tid = 0) {
  Span s;
  s.name = std::move(name);
  s.ts_us = ts;
  s.dur_us = dur;
  s.tid = tid;
  return s;
}

void test_parenting() {
  std::vector<Span> spans = {
      span("plan", 10, 10),       // 0
      span("op", 0, 100),         // 1
      span("execute", 20, 60),    // 2
      span("shard", 25, 20),      // 3: main-lane shard
      span("shard", 22, 50, 1),   // 4: worker lane, inside execute
      span("merge", 80, 10),      // 5
      span("late", 95, 20),       // 6: overlaps op's end, so not its child
      span("shard", 30, 10, 2),   // 7: worker lane
      span("inner", 32, 5, 2),    // 8: nested on the worker lane
      span("stray", 200, 5, 3),   // 9: worker lane, no main span around
  };
  assign_parents(spans, 0);
  CHECK(spans[1].parent == -1);
  CHECK(spans[0].parent == 1);
  CHECK(spans[2].parent == 1);
  CHECK(spans[3].parent == 2);
  CHECK(spans[4].parent == 2);  // innermost main-lane span holding it
  CHECK(spans[5].parent == 1);
  CHECK(spans[6].parent == -1);
  CHECK(spans[7].parent == 2);  // the main-lane shard around it is a peer
  CHECK(spans[8].parent == 7);  // same lane wins over the main lane
  CHECK(spans[9].parent == -1);

  const std::vector<std::int64_t> self = self_times_us(spans);
  CHECK(self[1] == 100 - 10 - 60 - 10);  // op: plan, execute, merge
  CHECK(self[2] == 60 - 20);             // execute: only its main-lane shard
  CHECK(self[7] == 10 - 5);
  CHECK(self[6] == 20);
}

void test_seed_mapping() {
  const SocConfig stock;
  const SocConfig one = soc_config_for_seed(1);
  CHECK(one.flash_base == stock.flash_base && one.ram_base == stock.ram_base &&
        one.cpu.reset_vector == stock.cpu.reset_vector);
  std::set<std::tuple<std::uint64_t, std::uint64_t>> seen;
  for (std::uint64_t seed = 2; seed < 200; ++seed) {
    const SocConfig a = soc_config_for_seed(seed);
    const SocConfig b = soc_config_for_seed(seed);
    CHECK(a.flash_base == b.flash_base && a.ram_base == b.ram_base);
    CHECK(a.cpu.reset_vector == a.flash_base);
    CHECK(a.flash_base % a.flash_size == 0);
    CHECK(a.flash_base + a.flash_size <= a.ram_base);
    // Only the memory map moves: the netlist options stay stock.
    CHECK(a.cpu.btb_entries == stock.cpu.btb_entries);
    CHECK(a.scan.buffers_per_link == stock.scan.buffers_per_link);
    seen.emplace(a.flash_base, a.ram_base);
  }
  CHECK(seen.size() == 30);  // every flash x RAM placement is reachable
}

void test_hash() {
  BitVec none(64);
  BitVec some(64);
  some.set(3, true);
  some.set(40, true);
  BitVec other(64);
  other.set(40, true);
  other.set(3, true);
  CHECK(fnv1a_ids(none) == 0xcbf29ce484222325ULL);
  CHECK(fnv1a_ids(some) == fnv1a_ids(other));
  other.set(41, true);
  CHECK(fnv1a_ids(some) != fnv1a_ids(other));
}

}  // namespace

int main() {
  test_median_and_tail();
  test_self_time();
  test_parenting();
  test_seed_mapping();
  test_hash();
  if (g_failures) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("bench_selftest: all checks passed\n");
  return 0;
}
