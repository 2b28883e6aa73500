// olfui/obs: process-wide metrics registry — counters and fixed-bucket
// histograms with deterministic-ordered JSON export.
//
// Like the tracer (obs/trace.hpp) the registry is a singleton that is OFF
// by default; instrumentation sites guard on `enabled()` (one relaxed
// atomic load) so disabled builds pay a branch and nothing else. All
// updates are lock-free atomics — safe from any worker thread — and
// strictly side-band: metric values never feed back into grading, whose
// payload stays bit-identical with metrics on or off.
//
// Registration returns stable references: instruments are node-allocated
// and never move, so a hot loop may look its counter up once and cache
// the reference. Export is sorted by name (std::map), so two runs that
// touch the same instruments dump byte-comparable documents apart from
// the values themselves.
//
// Metric names use dotted "<subsystem>.<what>" (see the README
// catalogue): e.g. campaign.pool_parks, kernel.events_drained.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/json.hpp"

namespace olfui::obs {

/// Monotonic event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Fixed-bucket histogram: observe(v) lands in the first bucket whose
/// upper bound is >= v, or the implicit +inf overflow bucket. Bounds are
/// fixed at registration; re-registering the same name returns the
/// existing instrument regardless of the bounds passed.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  const std::vector<double>& bounds() const { return bounds_; }
  std::uint64_t bucket_count(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  void reset();

 private:
  std::vector<double> bounds_;  ///< sorted upper bounds
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  // bounds+1 (+inf)
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

class MetricsRegistry {
 public:
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Finds or creates; the returned reference stays valid for the
  /// registry's lifetime (instruments never move or vanish).
  Counter& counter(std::string_view name);
  Histogram& histogram(std::string_view name, std::vector<double> bounds);

  /// {"counters":{...},"histograms":{...}} — every section
  /// sorted by metric name, so exports are deterministic documents.
  Json to_json() const;

  /// Zeroes all values but keeps registrations (cached references stay
  /// valid), so one process can measure several runs separately.
  void reset_values();

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;  // registration/export only; updates are atomic
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// The process-wide registry every instrumentation site uses.
MetricsRegistry& metrics();

}  // namespace olfui::obs
