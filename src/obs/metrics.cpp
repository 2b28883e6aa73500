#include "obs/metrics.hpp"

#include <algorithm>

namespace olfui::obs {

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  buckets_[static_cast<std::size_t>(it - bounds_.begin())].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

void Histogram::reset() {
  for (std::size_t i = 0; i <= bounds_.size(); ++i)
    buckets_[i].store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end())
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end())
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::move(bounds)))
             .first;
  return *it->second;
}

Json MetricsRegistry::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  Json counters = Json::object();
  for (const auto& [name, c] : counters_)
    counters.set(name, static_cast<double>(c->value()));
  Json histograms = Json::object();
  for (const auto& [name, h] : histograms_) {
    Json entry = Json::object();
    Json bounds = Json::array();
    for (double b : h->bounds()) bounds.push_back(b);
    Json buckets = Json::array();
    for (std::size_t i = 0; i <= h->bounds().size(); ++i)
      buckets.push_back(static_cast<double>(h->bucket_count(i)));
    entry.set("bounds", std::move(bounds));
    entry.set("buckets", std::move(buckets));
    entry.set("count", static_cast<double>(h->count()));
    entry.set("sum", h->sum());
    histograms.set(name, std::move(entry));
  }
  Json doc = Json::object();
  doc.set("counters", std::move(counters));
  doc.set("histograms", std::move(histograms));
  return doc;
}

void MetricsRegistry::reset_values() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

MetricsRegistry& metrics() {
  static MetricsRegistry m;
  return m;
}

}  // namespace olfui::obs
