#include "obs/trace.hpp"

#include <unistd.h>

namespace olfui::obs {

namespace {

std::atomic<int> g_next_lane{0};
thread_local int t_lane = -1;

}  // namespace

void set_thread_lane(int lane) { t_lane = lane; }

int thread_lane() {
  if (t_lane < 0) t_lane = g_next_lane.fetch_add(1, std::memory_order_relaxed);
  return t_lane;
}

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

std::int64_t Tracer::now_us() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void Tracer::complete(std::string name, std::string cat, std::int64_t ts_us,
                      std::vector<std::pair<std::string, Json>> args) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.name = std::move(name);
  ev.cat = std::move(cat);
  ev.ts_us = ts_us;
  ev.dur_us = now_us() - ts_us;
  if (ev.dur_us < 0) ev.dur_us = 0;
  ev.tid = thread_lane();
  ev.args = std::move(args);
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(ev));
}

void Tracer::record(TraceEvent ev) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(ev));
}

std::vector<TraceEvent> Tracer::drain() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TraceEvent> out;
  out.swap(events_);
  return out;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
}

std::size_t Tracer::event_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

Json Tracer::to_json() const {
  const std::int64_t self = static_cast<std::int64_t>(::getpid());
  Json arr = Json::array();
  std::lock_guard<std::mutex> lock(mu_);
  for (const TraceEvent& ev : events_) {
    Json e = Json::object();
    e.set("name", ev.name);
    e.set("cat", ev.cat.empty() ? "olfui" : ev.cat);
    e.set("ph", "X");
    e.set("ts", static_cast<double>(ev.ts_us));
    e.set("dur", static_cast<double>(ev.dur_us));
    e.set("pid", static_cast<double>(self));
    e.set("tid", static_cast<double>(ev.tid));
    if (!ev.args.empty()) {
      Json args = Json::object();
      for (const auto& [k, v] : ev.args) args.set(k, v);
      e.set("args", std::move(args));
    }
    arr.push_back(std::move(e));
  }
  Json doc = Json::object();
  doc.set("traceEvents", std::move(arr));
  doc.set("displayTimeUnit", "ms");
  return doc;
}

Tracer& tracer() {
  static Tracer t;
  return t;
}

}  // namespace olfui::obs
