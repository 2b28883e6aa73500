// olfui/campaign: persistent condition-variable-parked worker pool.
//
// CampaignEngine::grade used to spawn and join a fresh std::thread pool on
// every call. Campaign-per-test workloads barely noticed, but scan ATPG
// grades once per pattern — thousands of grade() calls — so pool
// construction (thread create + join + stack setup) dominated small
// grades. This pool is created once per engine: workers park on a
// condition variable between jobs and a job dispatch is one lock + one
// notify_all, which on many-core hosts cuts per-pattern overhead from
// milliseconds to microseconds.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace olfui {

class WorkerPool {
 public:
  /// Spawns `threads` parked worker threads (0 is valid: run() then
  /// executes everything on the caller).
  explicit WorkerPool(std::size_t threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Parked worker threads (the caller adds one more participant).
  std::size_t size() const { return threads_.size(); }

  /// Runs job(0) on the caller and job(1..participants-1) on parked
  /// workers, blocking until every participant returns. participants is
  /// clamped to size() + 1. The first exception thrown by any participant
  /// is rethrown on the caller after all participants finish, its message
  /// prefixed with the throwing participant's index (callers dispatching
  /// sharded work add the shard/test context — see
  /// CampaignEngine::grade).
  /// Not re-entrant: one run() at a time per pool.
  void run(std::size_t participants,
           const std::function<void(std::size_t)>& job);

 private:
  void worker_main(std::size_t index);

  std::mutex mu_;
  std::condition_variable cv_work_;  ///< workers park here
  std::condition_variable cv_done_;  ///< caller waits for active_ == 0
  std::uint64_t generation_ = 0;     ///< bumped per dispatched job
  std::size_t participants_ = 0;     ///< current job's participant count
  std::size_t active_ = 0;           ///< pool workers still in the job
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::vector<std::exception_ptr> errors_;  ///< per participant
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace olfui
