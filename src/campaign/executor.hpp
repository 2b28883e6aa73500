// olfui/campaign: the shard-execution seam (plan -> execute -> merge).
//
// CampaignEngine::grade used to hard-wire shard execution onto its own
// worker pool; the executor turns "who runs a shard, where" into a policy
// behind one interface. The engine cuts the targets into contiguous
// batch_size spans, hands the shard ids to a ShardExecutor, and merges
// the returned per-shard detection masks (LaneMask — up to 127 faults per
// shard) back to target order — the merge is slot-indexed by shard id, so
// the result is bit-identical no matter where (or in what order) the
// shards actually ran.
//
// Two executors ship:
//  * InProcessExecutor — a persistent CV-parked WorkerPool draining a
//    work-stealing ShardQueue in this process;
//  * SubprocessExecutor — a *supervised* fleet of worker child processes
//    (olfui_cli --worker) speaking a JSON line protocol over their
//    stdin/stdout. Shards are dispatched pull-based from a
//    coordinator-side queue (the distributed mirror of the in-process
//    ShardQueue): each worker holds a small grant window and receives the
//    next shard as it drains one, so slow workers absorb less work.
//    Worker failure is detected three ways — exit/EOF, a per-shard
//    deadline (ShardWork::shard_timeout), and a progress rule on the
//    reply stream (any shard reply or heartbeat resets the deadline) —
//    and a failed worker's in-flight shards are re-queued and regraded
//    elsewhere, never lost and never failing the campaign. Crashed
//    workers are respawned with capped exponential backoff up to a fleet
//    respawn budget; if the fleet still collapses below
//    FleetOptions::min_workers the remaining shards degrade to an
//    in-process fallback with a loud warning. Because the merge is
//    placement-independent, every recovery path is bit-identical to an
//    undisturbed run by construction.
//
// Wire protocol v4 (one JSON document per line, both directions).
// Coordinator and worker are always the same binary, so the protocol
// carries no back-compat forms:
//
//   worker -> coordinator on spawn:
//     {"type":"hello","protocol":4,"ts_us":T}
//   coordinator -> worker, once per grade() call per worker:
//     {"type":"grade","protocol":4,"test":NAME,
//      "fault_model":"stuck_at"|"transition","spec":<CampaignTest::spec>,
//      "batch_size":B,"targets":[fault ids in target order],
//      "heartbeat":true?,"telemetry":true?}
//   coordinator -> worker (pull dispatch):
//     {"type":"grant","shards":[shard ids]}        more work
//     {"type":"grant","shards":[],"final":true}    no more work -> reply done
//   worker -> coordinator per granted shard (heartbeat first when asked):
//     {"type":"heartbeat","shard":ID}
//     {"type":"shard","shard":ID,"mask":["16-hex-word",...],"seconds":S}
//   worker -> coordinator once per grade request, after the final grant:
//     {"type":"done","test":NAME,"universe":N,"state_fp":"16-hex-word",
//      "telemetry":{"spans":[...],"counters":{...}}?}
//   worker -> coordinator on any failure (the worker then exits 1):
//     {"type":"error","message":TEXT}
//
// Fields marked "?" are optional. Shard s of a request is
// targets[s*B, min(n, (s+1)*B)) — the same spans the engine cut, so the
// request carries B, never a per-target layout. A worker rejects a
// request whose batch_size is 0 or exceeds the max_batch of the test it
// rebuilds from the spec, or a grant naming a shard at or past ceil(n/B).
// "mask" is a fixed-order array of 16-hex-digit words, least significant
// word first, LaneMask::kWords long. "heartbeat" asks
// the worker to announce each shard before grading it, which is what lets
// the coordinator tell "slow shard, still alive" from "wedged";
// "telemetry" asks for side-band spans/counters on done; "ts_us" is the
// worker's monotonic clock at hello (the coordinator derives a per-worker
// clock offset so merged spans share its timeline). None of the optional
// fields ever influences grading, so the detection payload is
// bit-identical with them on or off.
//
// Determinism contract: a worker grades exactly the spans the request's
// batch_size dictates, lane semantics are the runner's, and the
// coordinator re-merges by shard id — so coordinator + N subprocess
// workers produce the same detection set as the in-process pool, bit for
// bit, *including* runs where workers crashed, stalled, or were killed
// mid-shard: a re-executed shard grades the same faults with the same
// kernel and lands in the same slot. The "done" line carries the worker's
// rebuilt universe size (and state fingerprint, cross-checked against
// spec.state_fp on the worker) so a workload mismatch fails loudly
// instead of grading garbage — that class of error is deterministic
// misconfiguration, not an infrastructure fault, and is never retried.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/worker_pool.hpp"

namespace olfui {

/// Wire-format revision; bumped on any incompatible protocol change.
/// v3 replaced the plan object with batch_size and made grants the only
/// dispatch path; v4 dropped the lane-width fields of hello and grade —
/// the test a worker rebuilds bounds batch_size.
inline constexpr int kWorkerProtocolVersion = 4;

/// One shard's outcome: detection mask (bit i = i-th fault of the batch
/// detected) plus the grading wall time (reported per shard, and the
/// input of the subprocess fleet's derived deadline).
struct ShardResult {
  LaneMask mask;
  double seconds = 0;
};

/// Everything one grade() call hands its executor. References and spans
/// point into the engine's frame and stay valid for the execute() call.
struct ShardWork {
  std::span<const FaultId> targets;  ///< in target order
  /// Faults per shard (CampaignEngine::batch_size for the test): shard s
  /// grades shard_span(targets, batch_size, s).
  std::size_t batch_size = 63;
  std::span<const std::uint32_t> shards;  ///< shard ids to execute
  const CampaignTest& test;
  FaultModel fault_model = FaultModel::kStuckAt;
  std::size_t universe = 0;  ///< remote-worker cross-check
  /// Thread-safe completion callback, called with each finished shard's
  /// batch size (may be empty). A re-executed shard reports once — on the
  /// grade that actually completed.
  std::function<void(std::size_t)> progress;
  /// Per-shard deadline in seconds for distributed backends
  /// (CampaignOptions::shard_timeout). 0 = derive from the shards this
  /// executor has already seen complete, with a generous floor — see
  /// SubprocessExecutor. Strictly a liveness knob: results are
  /// bit-identical whatever deadline fires.
  double shard_timeout = 0;

  std::span<const FaultId> shard_faults(std::uint32_t shard) const {
    return shard_span(targets, batch_size, shard);
  }
};

/// Recovery-path odometer, cumulative over an executor's lifetime. The
/// engine snapshots it around run() and reports the delta in
/// RuntimeStats; the obs registry gets the same increments live (counters
/// executor.respawns / shard_reissues / timeouts / degraded). All zero on
/// an undisturbed campaign — and nonzero values never change the
/// detection payload, only explain how it was obtained.
struct ExecutorHealth {
  std::size_t respawns = 0;        ///< worker processes relaunched
  std::size_t shard_reissues = 0;  ///< in-flight shards re-queued on failure
  std::size_t timeouts = 0;        ///< deadline/progress-rule expiries
  std::size_t degraded_shards = 0; ///< shards graded by the in-process fallback
};

class ShardExecutor {
 public:
  virtual ~ShardExecutor() = default;
  /// Backend label for reports ("inproc" / "subprocess").
  virtual std::string_view name() const = 0;
  /// Executes the requested shards; result[i] belongs to work.shards[i]
  /// regardless of completion order. Throws on any shard failure a
  /// recovery path cannot absorb (a lost shard must fail the campaign
  /// loudly, never shrink the merge).
  /// Internally synchronized: safe to call through a shared const engine.
  virtual std::vector<ShardResult> execute(const ShardWork& work) = 0;
  /// Recovery-path counters, cumulative over this executor's lifetime
  /// (zero for backends with no failure modes of their own).
  virtual ExecutorHealth health() const { return {}; }
};

/// The default backend — a persistent WorkerPool draining a work-stealing
/// ShardQueue in this process. An engine without an explicit executor
/// behaves exactly like an engine holding one of these.
class InProcessExecutor final : public ShardExecutor {
 public:
  /// Worker threads; 0 picks std::thread::hardware_concurrency().
  explicit InProcessExecutor(int threads = 0);

  std::string_view name() const override { return "inproc"; }
  std::vector<ShardResult> execute(const ShardWork& work) override;

  /// Thread count after resolving threads == 0.
  int resolved_threads() const;

 private:
  WorkerPool& pool();

  int threads_;
  /// Workers park between execute() calls (see worker_pool.hpp); created
  /// lazily on the first multi-threaded execute. The mutex also
  /// serializes concurrent execute() calls onto the one pool.
  std::mutex mu_;
  std::unique_ptr<WorkerPool> pool_;
};

/// Supervision knobs for the subprocess fleet. Defaults are production
/// shaped: generous deadlines (grading shards are normally sub-second;
/// the floor must also cover a worker's one-time per-test state rebuild),
/// a respawn budget that tolerates sporadic crashes without masking a
/// systematically broken worker binary, and degradation preferred over
/// failing a campaign that the coordinator could finish alone.
struct FleetOptions {
  int workers = 2;
  /// Fleet-wide respawn budget (not per slot). 0 = never respawn.
  int max_respawns = 8;
  /// Degrade to the in-process fallback when fewer than this many workers
  /// are live or pending respawn (clamped to [1, workers]).
  int min_workers = 1;
  /// Seconds a freshly spawned worker gets to complete the hello
  /// handshake before it is treated as crashed.
  double hello_timeout = 10.0;
  /// Respawn backoff: base * 2^(consecutive failures of that slot),
  /// capped. Keeps a crash-looping worker from burning CPU while still
  /// recovering quickly from a one-off kill.
  double backoff_base = 0.1;
  double backoff_cap = 2.0;
};

/// Distributed backend: a supervised fleet of `opts.workers` child
/// processes launched from `worker_command` (argv of one worker, e.g.
/// {"./olfui_cli","--worker"}), each speaking the line protocol above on
/// stdin/stdout. Children are spawned lazily on the first execute() and
/// persist across grade() calls (workers cache rebuilt per-test state),
/// shutting down on destruction. See the header comment for the failure
/// model; fatal (non-recoverable) errors are deterministic
/// misconfigurations only — null spec, protocol version mismatch,
/// universe/fingerprint mismatch, a worker's own "error" reply.
class SubprocessExecutor final : public ShardExecutor {
 public:
  SubprocessExecutor(std::vector<std::string> worker_command,
                     FleetOptions opts);
  SubprocessExecutor(std::vector<std::string> worker_command, int workers)
      : SubprocessExecutor(std::move(worker_command),
                           FleetOptions{.workers = workers}) {}
  ~SubprocessExecutor() override;

  SubprocessExecutor(const SubprocessExecutor&) = delete;
  SubprocessExecutor& operator=(const SubprocessExecutor&) = delete;

  std::string_view name() const override { return "subprocess"; }
  std::vector<ShardResult> execute(const ShardWork& work) override;
  ExecutorHealth health() const override;

  int workers() const { return opts_.workers; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Worker {
    enum class State {
      kDead,   ///< no process (never spawned, or failed; may await respawn)
      kHello,  ///< spawned, handshake not yet complete
      kReady,  ///< greeted; eligible for grants
    };

    long pid = -1;
    int to_fd = -1;    ///< worker's stdin (blocking; EINTR-retried writes)
    int from_fd = -1;  ///< worker's stdout (nonblocking; poll-driven)
    /// The worker's stderr, captured to an unlinked temp file so failure
    /// reports can quote the child's own diagnostics (stderr_tail). The
    /// capture is bounded: oversized files are truncated back to a tail
    /// on read-back.
    std::FILE* err = nullptr;
    /// Coordinator tracer time minus worker tracer time, measured at the
    /// hello handshake; shifts merged worker spans onto our timeline.
    std::int64_t clock_offset_us = 0;

    State state = State::kDead;
    std::string rbuf;  ///< bytes read but not yet '\n'-terminated
    /// Tail saved before an oversized stderr capture was truncated;
    /// prefixed to stderr_tail so the last pre-truncation diagnostics
    /// survive.
    std::string saved_tail;
    std::deque<std::uint32_t> inflight;  ///< granted, unanswered shard ids
    bool preamble_sent = false;  ///< grade doc sent for current execute()
    bool done_received = false;
    bool final_sent = false;  ///< final grant sent for current execute()
    /// Liveness deadline: hello completion (kHello) or next progress
    /// (kReady with in-flight work). Reset by any reply line.
    Clock::time_point deadline{};
    bool deadline_armed = false;
    int incarnation = 0;     ///< respawn generation of this slot
    int failures = 0;        ///< consecutive failures (backoff exponent)
    Clock::time_point respawn_at{};
    bool respawn_scheduled = false;
  };

  // All private methods below run under mu_ (execute() holds it).
  bool spawn_worker(std::size_t i);
  void shutdown_all();
  void fail_worker(std::size_t i, const std::string& what, bool timed_out,
                   std::deque<std::uint32_t>& pending);
  [[noreturn]] void fatal(std::size_t worker, const std::string& what);
  /// Last few lines the worker wrote to stderr ("" when silent/unknown),
  /// including any tail saved before a truncation. When the capture file
  /// has grown past the bound, truncates it back (the read-back is the
  /// bounding point — see bound_stderr).
  std::string stderr_tail(std::size_t worker);
  /// Caps the stderr capture file: keeps the last few KiB in
  /// saved_tail and truncates the file so a chatty long-running worker
  /// cannot grow it without bound.
  void bound_stderr(Worker& w);
  void reap(Worker& w, int* status);
  /// Folds a done reply's telemetry object into the process-wide tracer
  /// and metrics registry (worker pid lane, clock-offset-shifted spans).
  void merge_worker_telemetry(std::size_t worker, const Json& telemetry);
  double effective_timeout(const ShardWork& work) const;

  std::vector<std::string> command_;
  FleetOptions opts_;
  mutable std::mutex mu_;
  std::vector<Worker> procs_;
  ExecutorHealth health_;
  int respawns_left_ = 0;
  /// Longest completed-shard grading time seen over this executor's
  /// lifetime — the profile input for the derived deadline when
  /// ShardWork::shard_timeout is 0.
  double observed_max_seconds_ = 0;
  /// Most recent worker-failure warning, quoted by the fleet-collapse
  /// error so the root cause is not lost in a stderr scroll.
  std::string last_failure_;
  /// Lazy in-process fallback for the degradation ladder.
  std::unique_ptr<InProcessExecutor> fallback_;
};

// ---------------------------------------------------------------------------
// Wire format helpers (exposed for the worker side and for tests).

/// One decoded coordinator->worker grade request.
struct ShardRequest {
  std::string test;
  FaultModel fault_model = FaultModel::kStuckAt;
  Json spec;  ///< CampaignTest::spec, opaque to the protocol
  /// Faults per shard; at least 1 (serve_worker checks the upper bound
  /// against the rebuilt test's max_batch).
  std::size_t batch_size = 63;
  std::vector<FaultId> targets;  ///< target order
  /// Coordinator asked for spans/counters on the done reply (side-band;
  /// never influences grading).
  bool telemetry = false;
  /// Announce each shard with a heartbeat line before grading it.
  bool heartbeat = false;

  std::size_t num_shards() const {
    return shard_count(targets.size(), batch_size);
  }
  std::span<const FaultId> shard_faults(std::uint32_t shard) const {
    return shard_span(targets, batch_size, shard);
  }
};

/// The request preamble for `work` (its shard ids travel as grants).
Json shard_request_to_json(const ShardWork& work);
/// Parses and validates a grade request (protocol version, batch_size
/// >= 1, fault ids). Throws JsonError on malformed documents, with the
/// offending field's byte offset in the request line.
ShardRequest shard_request_from_json(const Json& doc);

// ---------------------------------------------------------------------------
// Deterministic chaos (fault injection for the worker side).
//
// OLFUI_CHAOS="<seed>:<mode>[@N][:all]" makes a worker process fail on
// the N-th shard it starts grading, reproducibly:
//   crash  — raise(SIGKILL) before grading the shard (the mid-campaign
//            worker-death scenario);
//   stall  — announce the shard, then sleep far past any deadline (the
//            wedged-worker scenario; the coordinator's SIGKILL ends it);
//   trunc  — emit a truncated shard reply line and exit 0 (the
//            corrupted-stream scenario).
// N defaults to a value drawn from the seeded RNG, so "7:crash" is as
// reproducible as "7:crash@3". By default chaos arms only in a worker's
// first incarnation (OLFUI_WORKER_INCARNATION, set by the coordinator on
// respawn) so a respawned worker recovers and the campaign completes;
// ":all" arms every incarnation, which is how tests drive the fleet all
// the way down the degradation ladder. Chaos never changes what a
// *surviving* grade computes — recovery must produce detection sets and
// deterministic JSON byte-identical to an undisturbed run.

struct ChaosSpec {
  enum class Mode { kNone, kCrash, kStall, kTrunc };
  Mode mode = Mode::kNone;
  std::uint64_t seed = 0;
  /// 1-based index of the fatal shard among those this process starts.
  int shard = 0;
  bool all_incarnations = false;
  double stall_seconds = 3600.0;
};

/// Parses "<seed>:<mode>[@N][:all]"; throws std::invalid_argument on any
/// other shape. Empty text returns an inert spec (Mode::kNone).
ChaosSpec chaos_spec_from_string(std::string_view text);

// ---------------------------------------------------------------------------
// Worker side.

/// The worker half's workload: rebuilds per-test grading state from a
/// request (a subprocess worker owns its own netlist/universe copies and
/// must reconstruct state the coordinator's CampaignTest::spec describes).
class WorkerWorkload {
 public:
  virtual ~WorkerWorkload() = default;
  /// Universe size of the rebuilt workload (reported on "done" lines so
  /// the coordinator can reject a mismatched worker).
  virtual std::size_t universe_size() = 0;
  /// Grades one batch of the request's test; bit i = faults[i] detected.
  /// Implementations should cache per-test state across requests —
  /// workers are persistent.
  virtual LaneMask run_batch(const ShardRequest& request,
                             std::span<const FaultId> faults) = 0;
  /// Fingerprint of the rebuilt per-test state (e.g.
  /// ReferenceTrace::fingerprint()); cross-checked against the spec's
  /// state_fp when present. 0 opts out.
  virtual std::uint64_t state_fingerprint(const ShardRequest& request) = 0;
  /// The rebuilt test's CampaignTest::max_batch: a request whose
  /// batch_size exceeds it is refused before any shard is graded.
  virtual int max_batch(const ShardRequest& request) = 0;
};

/// Serves the worker half of the protocol on (in, out) until EOF: hello,
/// then per request one reply per granted shard and a done after the
/// final grant. Returns 0 on clean shutdown, 1 after answering a failure
/// with an "error" document. `chaos` injects deterministic failures (see
/// ChaosSpec); null reads OLFUI_CHAOS from the environment, so chaos
/// reaches subprocess workers without any argv plumbing. olfui_cli
/// --worker is a thin wrapper around this; tests drive it over memory
/// streams.
int serve_worker(std::FILE* in, std::FILE* out, WorkerWorkload& workload,
                 const ChaosSpec* chaos = nullptr);

}  // namespace olfui
