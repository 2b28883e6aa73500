#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "campaign/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace olfui::obs {
namespace {

// ---------------------------------------------------------------------------
// Tracer
//
// These tests use standalone Tracer/MetricsRegistry instances, not the
// process-wide singletons, so they cannot pollute (or be polluted by) the
// campaign tests that exercise the global instrumentation path.

TEST(Tracer, DisabledTracerRecordsNothing) {
  Tracer t;
  ASSERT_FALSE(t.enabled());
  {
    Tracer::Span s = t.span("work", "test");
    s.arg("k", Json(1));
  }
  t.complete("manual", "test", 0);
  EXPECT_EQ(t.event_count(), 0u);
  const Json doc = t.to_json();
  ASSERT_TRUE(doc.contains("traceEvents"));
  EXPECT_EQ(doc.at("traceEvents").size(), 0u);
}

TEST(Tracer, SpansBecomeWellFormedCompleteEvents) {
  Tracer t;
  t.set_enabled(true);
  {
    Tracer::Span s = t.span("outer", "test");
    s.arg("shard", Json(std::size_t{7}));
    Tracer::Span inner = t.span("inner", "test");
    inner.end();
    inner.end();  // idempotent
  }
  ASSERT_EQ(t.event_count(), 2u);

  const Json doc = t.to_json();
  const Json& events = doc.at("traceEvents");
  ASSERT_EQ(events.size(), 2u);
  // Spans close inner-first; every X event carries the full field set.
  EXPECT_EQ(events.at(0).at("name").as_string(), "inner");
  EXPECT_EQ(events.at(1).at("name").as_string(), "outer");
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Json& e = events.at(i);
    EXPECT_EQ(e.at("ph").as_string(), "X") << i;
    EXPECT_EQ(e.at("cat").as_string(), "test") << i;
    EXPECT_GE(e.at("ts").as_number(), 0.0) << i;
    EXPECT_GE(e.at("dur").as_number(), 0.0) << i;
    // Every event carries the exporting process's id.
    EXPECT_EQ(e.at("pid").as_int(), ::getpid()) << i;
    EXPECT_TRUE(e.contains("tid")) << i;
  }
  // The outer span's arg survives as an args member.
  EXPECT_EQ(events.at(1).at("args").at("shard").as_size(), 7u);
  // Spans nest on the timeline: inner starts at or after outer.
  EXPECT_GE(events.at(0).at("ts").as_number(), events.at(1).at("ts").as_number());
}

TEST(Tracer, ThreadsGetStableDistinctLanes) {
  Tracer t;
  t.set_enabled(true);
  constexpr int kThreads = 4;
  constexpr int kSpans = 8;
  std::vector<std::thread> pool;
  for (int i = 0; i < kThreads; ++i)
    pool.emplace_back([&t] {
      for (int s = 0; s < kSpans; ++s) t.span("tick", "test");
    });
  for (auto& th : pool) th.join();
  ASSERT_EQ(t.event_count(), std::size_t{kThreads} * kSpans);

  // Each thread's events share one lane, and lanes don't collide: the
  // per-(tid) event counts must come out exactly kSpans each.
  std::map<std::int64_t, int> per_lane;
  const Json events = t.to_json().at("traceEvents");
  for (std::size_t i = 0; i < events.size(); ++i)
    ++per_lane[static_cast<std::int64_t>(events.at(i).at("tid").as_number())];
  ASSERT_EQ(per_lane.size(), std::size_t{kThreads});
  for (const auto& [lane, n] : per_lane) EXPECT_EQ(n, kSpans) << lane;
}

TEST(Tracer, DrainMovesEventsOut) {
  Tracer t;
  t.set_enabled(true);
  t.span("a", "test");
  const std::vector<TraceEvent> drained = t.drain();
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0].name, "a");
  EXPECT_EQ(t.event_count(), 0u);
  EXPECT_EQ(t.to_json().at("traceEvents").size(), 0u);
}

// ---------------------------------------------------------------------------
// MetricsRegistry

TEST(Metrics, ConcurrentUpdatesLoseNothing) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kAdds = 20000;
  std::vector<std::thread> pool;
  for (int i = 0; i < kThreads; ++i)
    pool.emplace_back([&reg, i] {
      // Half the threads cache the reference (the hot-loop idiom), half
      // re-look it up each time (the casual idiom): totals must be exact
      // either way.
      if (i % 2 == 0) {
        Counter& c = reg.counter("test.hits");
        Histogram& h = reg.histogram("test.lat", {1.0, 10.0});
        for (std::uint64_t n = 0; n < kAdds; ++n) {
          c.add();
          h.observe(static_cast<double>(n % 20));
        }
      } else {
        for (std::uint64_t n = 0; n < kAdds; ++n) {
          reg.counter("test.hits").add();
          reg.histogram("test.lat", {1.0, 10.0}).observe(
              static_cast<double>(n % 20));
        }
      }
    });
  for (auto& th : pool) th.join();

  EXPECT_EQ(reg.counter("test.hits").value(), kThreads * kAdds);
  Histogram& h = reg.histogram("test.lat", {1.0, 10.0});
  EXPECT_EQ(h.count(), kThreads * kAdds);
  // Per thread, n%20 sums to 190 per 20 observations.
  EXPECT_DOUBLE_EQ(h.sum(), kThreads * (kAdds / 20.0) * 190.0);
  // n%20 in [0,1] -> bucket 0 (2 of 20), (1,10] -> bucket 1 (9 of 20),
  // rest overflow.
  EXPECT_EQ(h.bucket_count(0), kThreads * kAdds * 2 / 20);
  EXPECT_EQ(h.bucket_count(1), kThreads * kAdds * 9 / 20);
  EXPECT_EQ(h.bucket_count(2), kThreads * kAdds * 9 / 20);
}

TEST(Metrics, ExportIsSortedAndDeterministic) {
  MetricsRegistry reg;
  // Register deliberately out of name order.
  reg.counter("z.last").add(3);
  reg.counter("a.first").add(1);
  reg.histogram("h.lat", {1.0}).observe(0.5);

  const Json doc = reg.to_json();
  const Json& counters = doc.at("counters");
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters.key(0), "a.first");
  EXPECT_EQ(counters.key(1), "z.last");
  EXPECT_EQ(counters.value(1).as_size(), 3u);
  const Json& h = doc.at("histograms").at("h.lat");
  EXPECT_EQ(h.at("count").as_size(), 1u);
  EXPECT_EQ(h.at("buckets").at(0).as_size(), 1u);
  EXPECT_EQ(h.at("buckets").at(1).as_size(), 0u);
  // Same registrations, same values -> byte-identical documents.
  EXPECT_EQ(reg.to_json().dump(2), doc.dump(2));
}

TEST(Metrics, ResetValuesKeepsRegistrationsValid) {
  MetricsRegistry reg;
  Counter& c = reg.counter("test.n");
  c.add(9);
  Histogram& h = reg.histogram("test.h", {1.0});
  h.observe(0.5);
  reg.reset_values();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.bucket_count(0), 0u);
  // The instruments survive: the cached references keep working.
  c.add(1);
  EXPECT_EQ(reg.counter("test.n").value(), 1u);
}

}  // namespace
}  // namespace olfui::obs
