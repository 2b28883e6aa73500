// olfui/obs: thread-safe span tracer emitting Chrome/Perfetto trace_event
// JSON.
//
// The campaign pipeline is instrumented with spans (test building,
// trace recording, plan, execute, merge, per-shard grading) that render
// as `ph:"X"` complete events in Perfetto or chrome://tracing. The tracer
// is a process-wide singleton that is OFF by default: every
// instrumentation site first checks `enabled()` (one relaxed atomic
// load), so a build with tracing compiled in but disabled pays a branch
// and nothing else. Telemetry is strictly side-band — nothing recorded
// here may ever feed back into fault grading, which stays bit-identical
// with tracing on or off (asserted in tests and CI).
//
// pid/tid mapping: every event carries this process's id, so a trace has
// one pid lane; tid is a small per-thread lane id — worker pools pin
// lane == participant index via set_thread_lane() so a span's row
// matches the worker that ran it.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "campaign/json.hpp"

namespace olfui::obs {

/// One recorded event. ts/dur are microseconds on the owning tracer's
/// monotonic timeline (steady_clock since tracer construction).
struct TraceEvent {
  std::string name;
  std::string cat;
  std::int64_t ts_us = 0;
  std::int64_t dur_us = 0;
  std::int64_t tid = 0;
  /// Optional args rendered under the event in the viewer.
  std::vector<std::pair<std::string, Json>> args;
};

class Tracer {
 public:
  Tracer();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Microseconds since this tracer's construction (steady clock): the
  /// timeline of every recorded event. Valid whether or not tracing is
  /// enabled.
  std::int64_t now_us() const;

  /// Records a complete event ending now. tid defaults to the calling
  /// thread's lane (see set_thread_lane). No-op when disabled.
  void complete(std::string name, std::string cat, std::int64_t ts_us,
                std::vector<std::pair<std::string, Json>> args = {});
  /// Records a fully specified event (explicit tid/dur) — the path for
  /// per-shard spans timed outside the tracer. No-op when disabled.
  void record(TraceEvent ev);

  /// RAII span: records one complete event from construction to
  /// destruction. Inert (no clock read, no allocation) when the tracer is
  /// disabled at construction.
  class Span {
   public:
    Span() = default;
    Span(Tracer* t, const char* name, const char* cat)
        : t_(t), name_(name), cat_(cat), ts_us_(t ? t->now_us() : 0) {}
    Span(Span&& o) noexcept { *this = std::move(o); }
    Span& operator=(Span&& o) noexcept {
      end();
      t_ = o.t_; name_ = o.name_; cat_ = o.cat_; ts_us_ = o.ts_us_;
      args_ = std::move(o.args_);
      o.t_ = nullptr;
      return *this;
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span() { end(); }

    /// Attaches an arg shown under the event in the viewer.
    void arg(std::string key, Json value) {
      if (t_) args_.emplace_back(std::move(key), std::move(value));
    }
    /// Closes the span early (idempotent).
    void end() {
      if (t_) t_->complete(name_, cat_, ts_us_, std::move(args_));
      t_ = nullptr;
    }

   private:
    Tracer* t_ = nullptr;
    const char* name_ = "";
    const char* cat_ = "";
    std::int64_t ts_us_ = 0;
    std::vector<std::pair<std::string, Json>> args_;
  };

  /// Opens a span, inert when disabled (the only cost is this branch).
  Span span(const char* name, const char* cat) {
    return enabled() ? Span(this, name, cat) : Span();
  }

  /// Moves all recorded events out.
  std::vector<TraceEvent> drain();
  /// Drops all recorded events.
  void clear();
  std::size_t event_count() const;

  /// Full Chrome trace document: {"traceEvents":[...]}, events in
  /// recorded order, each stamped with this process's id.
  Json to_json() const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
};

/// The process-wide tracer every instrumentation site uses.
Tracer& tracer();

/// Sets the calling thread's tid lane. Worker pools pin lane ==
/// participant index so trace rows match scheduling decisions; unpinned
/// threads get distinct lanes assigned on first use (main thread is lane
/// 0 in practice — it touches the tracer first).
void set_thread_lane(int lane);
int thread_lane();

}  // namespace olfui::obs
