#include "campaign/worker_pool.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace olfui {

namespace {

/// Captures the in-flight exception, prefixing std::exception messages
/// with the participant index (shard/test context is the dispatcher's —
/// see CampaignEngine::grade — but which lane died is only known here).
/// Non-std exceptions are kept as-is rather than losing their type.
std::exception_ptr capture_with_context(std::size_t participant) {
  try {
    throw;
  } catch (const std::exception& e) {
    return std::make_exception_ptr(std::runtime_error(
        "worker pool participant " + std::to_string(participant) + ": " +
        e.what()));
  } catch (...) {
    return std::current_exception();
  }
}

}  // namespace

WorkerPool::WorkerPool(std::size_t threads) {
  threads_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    threads_.emplace_back([this, i] { worker_main(i + 1); });
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void WorkerPool::worker_main(std::size_t index) {
  // Pin the trace lane to the participant index so spans recorded on this
  // thread land on the row matching the dispatcher's worker numbering
  // (the caller is participant 0 on its own lane).
  obs::set_thread_lane(static_cast<int>(index));
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(std::size_t)>* job = nullptr;
    {
      std::unique_lock lock(mu_);
      cv_work_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      if (index >= participants_) continue;  // not needed this job
      job = job_;
    }
    std::exception_ptr error;
    try {
      (*job)(index);
    } catch (...) {
      error = capture_with_context(index);
    }
    {
      std::lock_guard lock(mu_);
      if (error) errors_[index] = error;
      if (--active_ == 0) cv_done_.notify_one();
    }
    // Side-band: one park per job completion (the thread is about to go
    // back to the CV), profiling how often the pool cycles.
    if (obs::metrics().enabled())
      obs::metrics().counter("campaign.pool_parks").add();
  }
}

void WorkerPool::run(std::size_t participants,
                     const std::function<void(std::size_t)>& job) {
  participants = std::min(participants, threads_.size() + 1);
  if (participants == 0) return;
  const std::size_t pool_participants = participants - 1;
  {
    std::lock_guard lock(mu_);
    job_ = &job;
    participants_ = participants;
    active_ = pool_participants;
    errors_.assign(participants, nullptr);
    ++generation_;
  }
  if (pool_participants > 0) cv_work_.notify_all();
  // The caller is participant 0 — it does real work instead of idling on
  // the join, so a 1-participant run never touches a thread.
  try {
    job(0);
  } catch (...) {
    std::lock_guard lock(mu_);
    errors_[0] = capture_with_context(0);
  }
  {
    std::unique_lock lock(mu_);
    cv_done_.wait(lock, [&] { return active_ == 0; });
    job_ = nullptr;
  }
  for (const std::exception_ptr& e : errors_)
    if (e) std::rethrow_exception(e);
}

}  // namespace olfui
