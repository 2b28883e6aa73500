// olfui/campaign: work-stealing shard distribution.
//
// A campaign slices its target fault list into contiguous batch_size
// shards (127 faults for SBST, a test's max_batch in general); the
// queue's only job is to hand every shard index to exactly one worker with
// good load balance. Shards are striped across per-worker deques up front
// (worker w seeds with shards w, w+W, w+2W, ...), each worker pops from
// the front of its own deque, and a worker whose deque runs dry steals
// from the *back* of the busiest victim — the classic split that keeps
// owner and thief on opposite ends. Batch results are written to
// per-shard slots, so the queue needs no result synchronisation and the
// merge order (shard 0, 1, 2, ...) is independent of who ran what.
#pragma once

#include <atomic>
#include <cstddef>
#include <deque>
#include <mutex>
#include <vector>

namespace olfui {

class ShardQueue {
 public:
  /// Distributes shard indices [0, shards) across `workers` deques.
  ShardQueue(std::size_t shards, std::size_t workers);

  /// Next shard for `worker`: its own front, else stolen from the victim
  /// with the most remaining work. Returns false when the campaign is dry.
  bool pop(std::size_t worker, std::size_t& shard);

  std::size_t workers() const { return lanes_.size(); }

 private:
  struct Lane {
    std::mutex mu;
    std::deque<std::size_t> work;
    /// Lock-free view of work.size() for victim selection.
    std::atomic<std::size_t> count{0};
  };

  /// Side-band steal/depth telemetry after a successful pop (obs).
  void note_pop(bool stolen) const;

  std::vector<Lane> lanes_;
};

}  // namespace olfui
