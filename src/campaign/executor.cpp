#include "campaign/executor.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "campaign/report.hpp"
#include "campaign/shard_queue.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/posix.hpp"
#include "util/rng.hpp"

namespace olfui {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::chrono::steady_clock::duration duration_from_seconds(double s) {
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(s));
}

/// One '\n'-terminated line from `in` (terminator stripped); false on EOF
/// or a non-EINTR read error. A signal interrupting the underlying read
/// sets the stream's error flag — cleared and retried, never reported as
/// a dead peer.
bool read_line(std::FILE* in, std::string& line) {
  char* buf = nullptr;
  std::size_t cap = 0;
  ssize_t n;
  for (;;) {
    errno = 0;
    n = ::getline(&buf, &cap, in);
    if (n >= 0) break;
    if (errno == EINTR) {
      std::clearerr(in);
      continue;
    }
    std::free(buf);
    return false;
  }
  line.assign(buf, static_cast<std::size_t>(n));
  std::free(buf);
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r'))
    line.pop_back();
  return true;
}

/// Writes one JSON document as a line and flushes (the protocol is
/// line-buffered in both directions). Returns false on a broken pipe.
bool write_line(std::FILE* out, const Json& doc) {
  const std::string text = doc.dump() + "\n";
  if (std::fwrite(text.data(), 1, text.size(), out) != text.size())
    return false;
  return std::fflush(out) == 0;
}

/// Extracts the first complete line from a coordinator-side read buffer
/// (terminators stripped); false when no full line has arrived yet.
bool take_line(std::string& rbuf, std::string& line) {
  const std::size_t nl = rbuf.find('\n');
  if (nl == std::string::npos) return false;
  line.assign(rbuf, 0, nl);
  rbuf.erase(0, nl + 1);
  while (!line.empty() && line.back() == '\r') line.pop_back();
  return true;
}

std::string_view fault_model_name(FaultModel m) { return to_string(m); }

FaultModel fault_model_from_name(const Json& node) {
  const std::string& name = node.as_string();
  if (name == to_string(FaultModel::kStuckAt)) return FaultModel::kStuckAt;
  if (name == to_string(FaultModel::kTransition))
    return FaultModel::kTransition;
  throw JsonError("shard request: unknown fault_model '" + name + "'",
                  node.source_offset());
}

std::string describe_exit(int status) {
  if (WIFEXITED(status))
    return "exited with status " + std::to_string(WEXITSTATUS(status));
  if (WIFSIGNALED(status))
    return "killed by signal " + std::to_string(WTERMSIG(status));
  return "ended with wait status " + std::to_string(status);
}

/// Last few lines of a stderr capture file (the crash is at the end).
/// pread at explicit offsets: the file description (and its offset) is
/// shared with the child, which may still be appending — don't disturb it.
std::string file_tail(int fd, off_t size) {
  if (size <= 0) return {};
  constexpr off_t kTailBytes = 4096;
  const off_t start = size > kTailBytes ? size - kTailBytes : 0;
  std::string buf(static_cast<std::size_t>(size - start), '\0');
  const ssize_t n = ::pread(fd, buf.data(), buf.size(), start);
  if (n <= 0) return {};
  buf.resize(static_cast<std::size_t>(n));
  constexpr int kTailLines = 8;
  std::size_t pos = buf.size();
  for (int lines = 0; pos > 0; --pos) {
    if (buf[pos - 1] == '\n' && ++lines > kTailLines) break;
  }
  std::string tail = buf.substr(pos);
  while (!tail.empty() && (tail.back() == '\n' || tail.back() == '\r'))
    tail.pop_back();
  return tail;
}

}  // namespace

// ---------------------------------------------------------------------------
// InProcessExecutor

InProcessExecutor::InProcessExecutor(int threads) : threads_(threads) {}

int InProcessExecutor::resolved_threads() const {
  if (threads_ > 0) return threads_;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw ? static_cast<int>(hw) : 1;
}

WorkerPool& InProcessExecutor::pool() {
  if (!pool_)
    pool_ = std::make_unique<WorkerPool>(
        static_cast<std::size_t>(resolved_threads()) - 1);
  return *pool_;
}

std::vector<ShardResult> InProcessExecutor::execute(const ShardWork& work) {
  std::vector<ShardResult> results(work.shards.size());
  if (work.shards.empty()) return results;

  const bool tracing = obs::tracer().enabled();
  const auto worker = [&](ShardQueue& queue, std::size_t w) {
    std::unique_ptr<FaultBatchRunner> runner;  // created on first shard
    std::size_t idx;
    while (queue.pop(w, idx)) {
      const std::uint32_t shard = work.shards[idx];
      const std::span<const FaultId> faults = work.shard_faults(shard);
      const std::size_t n = faults.size();
      try {
        // Runner construction stays outside the timed span: shard_seconds
        // reports grading cost, not one-time per-worker setup.
        if (!runner) runner = work.test.make_runner();
        const std::int64_t s0 = tracing ? obs::tracer().now_us() : 0;
        const auto t0 = std::chrono::steady_clock::now();
        results[idx].mask = runner->run_batch(faults);
        results[idx].seconds = seconds_since(t0);
        if (obs::metrics().enabled())
          obs::metrics()
              .histogram("campaign.shard_seconds",
                         {0.001, 0.01, 0.1, 1.0, 10.0})
              .observe(results[idx].seconds);
        if (tracing) {
          // tid = participant index, so the trace lane matches the worker
          // that actually ran the shard (steals included).
          obs::TraceEvent ev;
          ev.name = "shard";
          ev.cat = "campaign";
          ev.ts_us = s0;
          ev.dur_us = obs::tracer().now_us() - s0;
          ev.tid = static_cast<std::int64_t>(w);
          ev.args.emplace_back("shard", Json(static_cast<std::size_t>(shard)));
          ev.args.emplace_back("test", Json(work.test.name));
          ev.args.emplace_back("faults", Json(n));
          obs::tracer().record(std::move(ev));
        }
      } catch (const std::exception& e) {
        // The runner knows neither which shard it was grading nor for
        // which test — attach both before the pool rethrows on the
        // caller, so a campaign failure names the work item that died.
        throw std::runtime_error("campaign test '" + work.test.name +
                                 "' shard " + std::to_string(shard) + ": " +
                                 e.what());
      }
      if (work.progress) work.progress(n);
    }
  };

  const std::size_t workers = std::min<std::size_t>(
      static_cast<std::size_t>(resolved_threads()), work.shards.size());
  ShardQueue queue(work.shards.size(), workers);
  if (workers <= 1) {
    worker(queue, 0);
  } else {
    // Fan out over the persistent pool; it captures a throw from any
    // participant and rethrows the first one here, matching the 1-thread
    // path. The lock also keeps a shared executor from dispatching two
    // jobs onto one pool.
    std::lock_guard lock(mu_);
    pool().run(workers, [&](std::size_t w) { worker(queue, w); });
  }
  return results;
}

// ---------------------------------------------------------------------------
// Wire format

Json shard_request_to_json(const ShardWork& work) {
  Json doc = Json::object();
  doc.set("type", "grade");
  doc.set("protocol", kWorkerProtocolVersion);
  doc.set("test", work.test.name);
  doc.set("fault_model", std::string(fault_model_name(work.fault_model)));
  doc.set("spec", work.test.spec);
  doc.set("batch_size", work.batch_size);
  Json targets = Json::array();
  for (FaultId f : work.targets)
    targets.push_back(static_cast<std::size_t>(f));
  doc.set("targets", std::move(targets));
  return doc;
}

ShardRequest shard_request_from_json(const Json& doc) {
  if (doc.at("type").as_string() != "grade")
    throw JsonError("shard request: not a grade document",
                    doc.at("type").source_offset());
  if (doc.at("protocol").as_int() != kWorkerProtocolVersion)
    throw JsonError("shard request: protocol version mismatch",
                    doc.at("protocol").source_offset());
  ShardRequest req;
  req.test = doc.at("test").as_string();
  req.telemetry = doc.contains("telemetry") && doc.at("telemetry").as_bool();
  req.heartbeat = doc.contains("heartbeat") && doc.at("heartbeat").as_bool();
  req.fault_model = fault_model_from_name(doc.at("fault_model"));
  req.spec = doc.at("spec");
  // The upper bound is the rebuilt test's (serve_worker checks it).
  const Json& batch = doc.at("batch_size");
  req.batch_size = batch.as_size();
  if (req.batch_size < 1)
    throw JsonError("shard request: batch_size must be at least 1",
                    batch.source_offset());
  const Json& targets = doc.at("targets");
  req.targets.reserve(targets.size());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const Json& node = targets.at(i);
    const std::size_t f = node.as_size();
    if (f > 0xFFFFFFFFull)
      throw JsonError("shard request: fault id overflows",
                      node.source_offset());
    req.targets.push_back(static_cast<FaultId>(f));
  }
  return req;
}

// ---------------------------------------------------------------------------
// Deterministic chaos

ChaosSpec chaos_spec_from_string(std::string_view text) {
  ChaosSpec spec;
  if (text.empty()) return spec;
  const auto bad = [&](const std::string& why) -> ChaosSpec& {
    throw std::invalid_argument("chaos spec '" + std::string(text) +
                                "': " + why +
                                " (expected <seed>:<mode>[@N][:all])");
  };
  const std::size_t colon = text.find(':');
  if (colon == std::string_view::npos || colon == 0) bad("missing ':'");
  std::uint64_t seed = 0;
  for (char c : text.substr(0, colon)) {
    if (c < '0' || c > '9') bad("seed is not a number");
    seed = seed * 10 + static_cast<std::uint64_t>(c - '0');
  }
  std::string_view rest = text.substr(colon + 1);
  if (rest.ends_with(":all")) {
    spec.all_incarnations = true;
    rest.remove_suffix(4);
  }
  int shard = 0;
  const std::size_t at = rest.find('@');
  if (at != std::string_view::npos) {
    const std::string_view digits = rest.substr(at + 1);
    if (digits.empty()) bad("empty shard index");
    for (char c : digits) {
      if (c < '0' || c > '9') bad("shard index is not a number");
      shard = shard * 10 + (c - '0');
    }
    if (shard < 1) bad("shard index is 1-based");
    rest = rest.substr(0, at);
  }
  if (rest == "crash") spec.mode = ChaosSpec::Mode::kCrash;
  else if (rest == "stall") spec.mode = ChaosSpec::Mode::kStall;
  else if (rest == "trunc") spec.mode = ChaosSpec::Mode::kTrunc;
  else bad("unknown mode '" + std::string(rest) + "'");
  spec.seed = seed;
  // No explicit index: draw one from the seeded RNG, so "7:crash" names a
  // single reproducible failure point just like "7:crash@3".
  spec.shard = shard ? shard : 1 + static_cast<int>(Rng(seed).next_below(4));
  return spec;
}

// ---------------------------------------------------------------------------
// Worker side

int serve_worker(std::FILE* in, std::FILE* out, WorkerWorkload& workload,
                 const ChaosSpec* chaos) {
  const auto report = [&](const std::string& message) {
    Json error = Json::object();
    error.set("type", "error");
    error.set("message", message);
    write_line(out, error);
    return 1;
  };

  ChaosSpec env_chaos;
  if (!chaos) {
    const char* env = std::getenv("OLFUI_CHAOS");
    try {
      env_chaos = chaos_spec_from_string(env ? env : "");
    } catch (const std::invalid_argument& e) {
      return report(e.what());
    }
    chaos = &env_chaos;
  }
  // Chaos normally arms only in a process's first incarnation (the
  // coordinator stamps respawns with OLFUI_WORKER_INCARNATION >= 1), so a
  // respawned worker recovers and the campaign completes; ":all" keeps it
  // armed and drives the fleet down the degradation ladder.
  const char* inc_env = std::getenv("OLFUI_WORKER_INCARNATION");
  const int incarnation = inc_env ? std::atoi(inc_env) : 0;
  const bool chaos_armed = chaos->mode != ChaosSpec::Mode::kNone &&
                           (chaos->all_incarnations || incarnation == 0);
  int shards_started = 0;

  {
    Json hello = Json::object();
    hello.set("type", "hello");
    hello.set("protocol", kWorkerProtocolVersion);
    // Our monotonic clock at hello time: the coordinator pairs it with its
    // own to shift merged telemetry spans onto a common timeline.
    hello.set("ts_us", static_cast<double>(obs::tracer().now_us()));
    if (!write_line(out, hello)) return 1;
  }

  // Grades one granted shard and writes its reply; false on a dead pipe.
  // The chaos check sits between the announcement and the grade — a
  // crashing/stalling worker has already told the coordinator which shard
  // it owes, which is exactly the in-flight state recovery must re-queue.
  const auto grade_one = [&](const ShardRequest& req,
                             std::uint32_t shard) -> bool {
    if (req.heartbeat) {
      Json hb = Json::object();
      hb.set("type", "heartbeat");
      hb.set("shard", static_cast<std::size_t>(shard));
      if (!write_line(out, hb)) return false;
    }
    ++shards_started;
    if (chaos_armed && shards_started == chaos->shard) {
      switch (chaos->mode) {
        case ChaosSpec::Mode::kCrash:
          ::kill(::getpid(), SIGKILL);  // the mid-campaign worker death
          break;
        case ChaosSpec::Mode::kStall:
          // Wedge well past any deadline; the coordinator's SIGKILL ends
          // the nap. If it never comes (deadline disabled) we wake and
          // grade normally — chaos must never corrupt a surviving run.
          std::this_thread::sleep_for(
              duration_from_seconds(chaos->stall_seconds));
          break;
        case ChaosSpec::Mode::kTrunc: {
          // Half a reply line, then a "clean" exit: the corrupted-stream
          // scenario (EOF with an unterminated line in the buffer).
          const std::string partial =
              "{\"type\":\"shard\",\"shard\":" + std::to_string(shard);
          std::fwrite(partial.data(), 1, partial.size(), out);
          std::fflush(out);
          ::_exit(0);
        }
        case ChaosSpec::Mode::kNone:
          break;
      }
    }
    const std::span<const FaultId> faults = req.shard_faults(shard);
    auto span = obs::tracer().span("shard", "worker");
    span.arg("shard", Json(static_cast<std::size_t>(shard)));
    span.arg("test", Json(req.test));
    span.arg("faults", Json(faults.size()));
    const auto t0 = std::chrono::steady_clock::now();
    const LaneMask mask = workload.run_batch(req, faults);
    Json reply = Json::object();
    reply.set("type", "shard");
    reply.set("shard", static_cast<std::size_t>(shard));
    reply.set("mask", lane_mask_to_json(mask));
    reply.set("seconds", seconds_since(t0));
    span.end();
    return write_line(out, reply);
  };

  std::string line;
  while (read_line(in, line)) {
    if (line.find_first_not_of(" \t") == std::string::npos) continue;
    try {
      const Json doc = Json::parse(line);
      const ShardRequest req = shard_request_from_json(doc);
      // Telemetry is sticky once requested: state rebuilt during an
      // instrumented campaign stays attributable.
      if (req.telemetry) {
        obs::tracer().set_enabled(true);
        obs::metrics().set_enabled(true);
      }
      // Fingerprinting first forces the workload's one-time state rebuild
      // (netlist, reference trace) before any shard is timed: the
      // per-shard seconds measure grading, not setup.
      auto rebuild_span = obs::tracer().span("rebuild_state", "worker");
      rebuild_span.arg("test", Json(req.test));
      const std::uint64_t state_fp = workload.state_fingerprint(req);
      rebuild_span.end();
      // A span wider than the rebuilt runner's lanes cannot be graded in
      // one pass and must be refused, never truncated.
      const int bound = workload.max_batch(req);
      if (req.batch_size > static_cast<std::size_t>(bound))
        throw JsonError("shard request: batch_size " +
                            std::to_string(req.batch_size) + " exceeds test '" +
                            req.test + "' bound of " + std::to_string(bound),
                        doc.at("batch_size").source_offset());
      // Pull dispatch: drain grant lines until the final one. EOF here is
      // a coordinator gone mid-request — clean shutdown, same as EOF
      // between requests.
      bool final_grant = false;
      while (!final_grant) {
        if (!read_line(in, line)) return 0;
        if (line.find_first_not_of(" \t") == std::string::npos) continue;
        const Json grant = Json::parse(line);
        const std::string gtype = grant.at("type").as_string();
        if (gtype != "grant")
          throw JsonError("worker: expected a grant, got '" + gtype + "'",
                          grant.at("type").source_offset());
        const Json& granted = grant.at("shards");
        for (std::size_t i = 0; i < granted.size(); ++i) {
          const Json& node = granted.at(i);
          const std::size_t s = node.as_size();
          if (s >= req.num_shards())
            throw JsonError("grant: shard id " + std::to_string(s) +
                                " out of range (" +
                                std::to_string(req.num_shards()) + " shards)",
                            node.source_offset());
          if (!grade_one(req, static_cast<std::uint32_t>(s))) return 1;
        }
        final_grant = grant.contains("final") && grant.at("final").as_bool();
      }
      Json done = Json::object();
      done.set("type", "done");
      done.set("test", req.test);
      done.set("universe", workload.universe_size());
      done.set("state_fp", word_to_hex(state_fp));
      if (req.telemetry) {
        // Ship this request's spans/counters as deltas and zero for the
        // next one; the coordinator owns accumulation.
        Json tel = Json::object();
        tel.set("spans", obs::trace_events_to_json(obs::tracer().drain()));
        tel.set("counters", obs::metrics().counters_to_json());
        done.set("telemetry", std::move(tel));
        obs::metrics().reset_values();
      }
      if (!write_line(out, done)) return 1;
    } catch (const std::exception& e) {
      return report(e.what());
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// SubprocessExecutor

SubprocessExecutor::SubprocessExecutor(std::vector<std::string> worker_command,
                                       FleetOptions opts)
    : command_(std::move(worker_command)), opts_(opts) {
  if (command_.empty())
    throw std::invalid_argument("SubprocessExecutor: empty worker command");
  opts_.workers = std::max(1, opts_.workers);
  opts_.max_respawns = std::max(0, opts_.max_respawns);
  opts_.min_workers = std::clamp(opts_.min_workers, 1, opts_.workers);
  if (opts_.hello_timeout <= 0) opts_.hello_timeout = 10.0;
  if (opts_.backoff_base < 0) opts_.backoff_base = 0;
  if (opts_.backoff_cap < opts_.backoff_base)
    opts_.backoff_cap = opts_.backoff_base;
  respawns_left_ = opts_.max_respawns;
  // A worker that dies mid-protocol must surface as an EPIPE write error
  // (handled by the supervisor), not kill the coordinator — but never
  // clobber a handler the embedding application installed.
  const auto prev = std::signal(SIGPIPE, SIG_IGN);
  if (prev != SIG_DFL && prev != SIG_IGN) std::signal(SIGPIPE, prev);
}

SubprocessExecutor::~SubprocessExecutor() {
  std::lock_guard lock(mu_);
  shutdown_all();
}

ExecutorHealth SubprocessExecutor::health() const {
  std::lock_guard lock(mu_);
  return health_;
}

double SubprocessExecutor::effective_timeout(const ShardWork& work) const {
  // Strictly a liveness knob: whichever deadline fires, recovery re-runs
  // the same shards and the merge is placement-independent.
  constexpr double kFloorSeconds = 30.0;
  if (work.shard_timeout > 0) return work.shard_timeout;
  if (observed_max_seconds_ > 0)
    return std::max(kFloorSeconds, 50.0 * observed_max_seconds_);
  return kFloorSeconds;
}

bool SubprocessExecutor::spawn_worker(std::size_t i) {
  Worker& w = procs_[i];
  w.respawn_scheduled = false;
  const bool is_respawn = w.incarnation > 0;

  std::vector<char*> argv;
  argv.reserve(command_.size() + 1);
  for (const std::string& arg : command_)
    argv.push_back(const_cast<char*>(arg.c_str()));
  argv.push_back(nullptr);

  // On any syscall failure the slot goes kDead and (budget permitting) a
  // respawn is scheduled — spawning is supervised like everything else.
  const auto spawn_failed = [&](const std::string& what) {
    std::fprintf(stderr,
                 "olfui: subprocess executor: worker %zu: spawn failed: %s\n",
                 i, what.c_str());
    last_failure_ = "worker " + std::to_string(i) + ": spawn failed: " + what;
    if (w.err) {
      std::fclose(w.err);
      w.err = nullptr;
    }
    w.state = Worker::State::kDead;
    ++w.failures;
    if (respawns_left_ > 0) {
      --respawns_left_;
      const double delay =
          std::min(opts_.backoff_cap,
                   opts_.backoff_base *
                       std::ldexp(1.0, std::min(w.failures - 1, 20)));
      w.respawn_at = Clock::now() + duration_from_seconds(delay);
      w.respawn_scheduled = true;
    }
    return false;
  };

  int to_child[2], from_child[2];
  // CLOEXEC so a later sibling's exec doesn't inherit (and hold open)
  // this worker's pipe ends; dup2 below clears it on the two fds the
  // child actually uses.
  if (::pipe2(to_child, O_CLOEXEC) != 0)
    return spawn_failed(std::string("pipe: ") + std::strerror(errno));
  if (::pipe2(from_child, O_CLOEXEC) != 0) {
    const int err = errno;
    ::close(to_child[0]);
    ::close(to_child[1]);
    return spawn_failed(std::string("pipe: ") + std::strerror(err));
  }
  // Unlinked temp file for the child's stderr, one per incarnation, so
  // failure reports can quote the child's own diagnostics (stderr_tail).
  // Best-effort — a worker without one just loses the quoted tail.
  // CLOEXEC in the parent copy only; the child's dup2 onto fd 2 clears it.
  w.err = std::tmpfile();
  if (w.err) ::fcntl(::fileno(w.err), F_SETFD, FD_CLOEXEC);
  const pid_t pid = ::fork();
  if (pid < 0) {
    const int err = errno;
    ::close(to_child[0]);
    ::close(to_child[1]);
    ::close(from_child[0]);
    ::close(from_child[1]);
    return spawn_failed(std::string("fork: ") + std::strerror(err));
  }
  if (pid == 0) {
    ::dup2(to_child[0], STDIN_FILENO);
    ::dup2(from_child[1], STDOUT_FILENO);
    // Redirect stderr into the capture file so a crash report can quote
    // it; the exec-failure message below lands there too.
    if (w.err) ::dup2(::fileno(w.err), STDERR_FILENO);
    // Respawned incarnations announce themselves so worker-side chaos can
    // disarm (see ChaosSpec) — recovery must recover, not re-crash.
    char inc[16];
    std::snprintf(inc, sizeof inc, "%d", w.incarnation);
    ::setenv("OLFUI_WORKER_INCARNATION", inc, 1);
    ::execvp(argv[0], argv.data());
    std::fprintf(stderr, "worker exec '%s': %s\n", argv[0],
                 std::strerror(errno));
    ::_exit(127);
  }
  ::close(to_child[0]);
  ::close(from_child[1]);
  // The reply stream is drained from a poll loop; reads must never block
  // behind a worker that has sent nothing.
  ::fcntl(from_child[0], F_SETFL, O_NONBLOCK);
  w.pid = pid;
  w.to_fd = to_child[1];
  w.from_fd = from_child[0];
  w.state = Worker::State::kHello;
  w.rbuf.clear();
  w.inflight.clear();
  w.preamble_sent = w.done_received = w.final_sent = false;
  w.deadline = Clock::now() + duration_from_seconds(opts_.hello_timeout);
  w.deadline_armed = true;
  ++w.incarnation;
  if (is_respawn) {
    ++health_.respawns;
    if (obs::metrics().enabled()) obs::metrics().counter("executor.respawns").add();
    std::fprintf(stderr,
                 "olfui: subprocess executor: respawned worker %zu "
                 "(incarnation %d, pid %ld)\n",
                 i, w.incarnation - 1, static_cast<long>(w.pid));
  }
  return true;
}

void SubprocessExecutor::reap(Worker& w, int* status) {
  *status = 0;
  if (w.pid > 0) posix::waitpid_retry(static_cast<pid_t>(w.pid), status, 0);
  w.pid = -1;
}

void SubprocessExecutor::bound_stderr(Worker& w) {
  if (!w.err) return;
  const int fd = ::fileno(w.err);
  struct stat st{};
  constexpr off_t kMaxBytes = 128 * 1024;
  if (::fstat(fd, &st) != 0 || st.st_size <= kMaxBytes) return;
  // Keep the pre-truncation tail, then rewind: the file description (and
  // its offset) is shared with the child, so the lseek lands its next
  // write at the start of the now-empty file. A line written between the
  // pread and the truncate is lost — bounded capture beats perfect
  // capture for a file that only exists to be quoted in failure reports.
  w.saved_tail = file_tail(fd, st.st_size);
  ::ftruncate(fd, 0);
  ::lseek(fd, 0, SEEK_SET);
}

std::string SubprocessExecutor::stderr_tail(std::size_t worker) {
  if (worker >= procs_.size()) return {};
  Worker& w = procs_[worker];
  std::string current;
  if (w.err) {
    const int fd = ::fileno(w.err);
    struct stat st{};
    if (::fstat(fd, &st) == 0) current = file_tail(fd, st.st_size);
  }
  if (w.saved_tail.empty()) return current;
  if (current.empty()) return w.saved_tail;
  return w.saved_tail + "\n" + current;
}

void SubprocessExecutor::fail_worker(std::size_t i, const std::string& what,
                                     bool timed_out,
                                     std::deque<std::uint32_t>& pending) {
  Worker& w = procs_[i];
  // SIGKILL before reaping: harmless on an already-dead child (waitpid
  // still returns the real exit status), decisive on a wedged one.
  if (w.pid > 0) ::kill(static_cast<pid_t>(w.pid), SIGKILL);
  int status = 0;
  reap(w, &status);
  // Quote the child's own last words — the supervisor's message says what
  // rule fired, the diagnostics that explain *why* live on its stderr.
  const std::string tail = stderr_tail(i);
  std::string msg = "worker " + std::to_string(i) + ": " + what + " (" +
                    describe_exit(status) + ")";
  if (!tail.empty()) msg += "; worker stderr: " + tail;
  last_failure_ = msg;

  const std::size_t reissued = w.inflight.size();
  for (std::uint32_t s : w.inflight) pending.push_back(s);
  health_.shard_reissues += reissued;
  if (timed_out) ++health_.timeouts;
  if (obs::metrics().enabled()) {
    if (reissued)
      obs::metrics().counter("executor.shard_reissues").add(reissued);
    if (timed_out) obs::metrics().counter("executor.timeouts").add();
  }
  std::fprintf(stderr,
               "olfui: subprocess executor: %s; re-queueing %zu shard(s)\n",
               msg.c_str(), reissued);

  if (w.to_fd >= 0) ::close(w.to_fd);
  if (w.from_fd >= 0) ::close(w.from_fd);
  w.to_fd = w.from_fd = -1;
  if (w.err) {
    std::fclose(w.err);
    w.err = nullptr;
  }
  w.saved_tail.clear();
  w.state = Worker::State::kDead;
  w.rbuf.clear();
  w.inflight.clear();
  w.preamble_sent = w.done_received = w.final_sent = false;
  w.deadline_armed = false;
  ++w.failures;
  if (respawns_left_ > 0) {
    --respawns_left_;
    const double delay = std::min(
        opts_.backoff_cap,
        opts_.backoff_base * std::ldexp(1.0, std::min(w.failures - 1, 20)));
    w.respawn_at = Clock::now() + duration_from_seconds(delay);
    w.respawn_scheduled = true;
  }
}

void SubprocessExecutor::fatal(std::size_t worker, const std::string& what) {
  // Deterministic misconfiguration (wrong binary, drifted state, a
  // worker's own error reply): retrying would fail identically, so this
  // path keeps v1's semantics — tear down and throw.
  const std::string tail =
      worker < procs_.size() ? stderr_tail(worker) : std::string();
  shutdown_all();
  throw std::runtime_error("subprocess executor: worker " +
                           std::to_string(worker) + ": " + what +
                           (tail.empty() ? std::string()
                                         : "; worker stderr: " + tail));
}

void SubprocessExecutor::shutdown_all() {
  // Closing stdin is the shutdown signal (serve_worker returns on EOF).
  for (Worker& w : procs_) {
    if (w.to_fd >= 0) ::close(w.to_fd);
    if (w.from_fd >= 0) ::close(w.from_fd);
    w.to_fd = w.from_fd = -1;
  }
  // Grace period for the EOF to land, then SIGKILL: a wedged (stalled)
  // worker never sees the EOF and would hang a blocking wait forever.
  const auto t0 = Clock::now();
  for (Worker& w : procs_) {
    while (w.pid > 0) {
      int status = 0;
      const pid_t r = posix::waitpid_retry(static_cast<pid_t>(w.pid), &status,
                                           WNOHANG);
      if (r != 0) {
        w.pid = -1;
        break;
      }
      if (seconds_since(t0) > 0.5) {
        ::kill(static_cast<pid_t>(w.pid), SIGKILL);
        posix::waitpid_retry(static_cast<pid_t>(w.pid), &status, 0);
        w.pid = -1;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    // Closed after the wait: the child has written its final words.
    if (w.err) std::fclose(w.err);
    w.err = nullptr;
  }
  procs_.clear();
}

std::vector<ShardResult> SubprocessExecutor::execute(const ShardWork& work) {
  std::lock_guard lock(mu_);
  std::vector<ShardResult> results(work.shards.size());
  if (work.shards.empty()) return results;
  if (work.test.spec.is_null())
    throw std::runtime_error("subprocess executor: test '" + work.test.name +
                             "' has no spec — it cannot be rebuilt remotely");

  const double timeout = effective_timeout(work);
  const std::string context = " during test '" + work.test.name + "'";
  /// Grants held per worker: 1 grading + 1 queued hides the grant round
  /// trip without letting a slow worker hoard work.
  constexpr std::size_t kGrantWindow = 2;

  if (procs_.empty()) {
    procs_.resize(static_cast<std::size_t>(opts_.workers));
    for (std::size_t i = 0; i < procs_.size(); ++i) spawn_worker(i);
  }
  // Reset per-execute() protocol state (workers persist across calls).
  for (Worker& w : procs_) {
    w.preamble_sent = w.done_received = w.final_sent = false;
    w.inflight.clear();
    w.rbuf.clear();
    if (w.state == Worker::State::kReady) w.deadline_armed = false;
  }

  std::unordered_map<std::uint32_t, std::size_t> slot;  // shard id -> index
  slot.reserve(work.shards.size());
  for (std::size_t i = 0; i < work.shards.size(); ++i)
    slot.emplace(work.shards[i], i);
  std::deque<std::uint32_t> pending(work.shards.begin(), work.shards.end());
  std::vector<char> answered(work.shards.size(), 0);
  std::size_t unanswered = work.shards.size();

  // One preamble per worker per execute(): the full O(targets) request;
  // all work flows through grant lines.
  Json request = shard_request_to_json(work);
  request.set("heartbeat", Json(true));
  // Side-band spans/counters only when someone is listening; the field's
  // absence keeps the wire bytes identical to pre-telemetry runs.
  if (obs::tracer().enabled() || obs::metrics().enabled())
    request.set("telemetry", Json(true));
  const std::string preamble = request.dump() + "\n";
  std::string done_fp;  // first worker's state_fp; siblings must agree

  const auto send_text = [&](Worker& w, const std::string& text) {
    return posix::write_all(w.to_fd, text.data(), text.size());
  };
  // Every greeted worker gets the preamble, granted work or not: it
  // rebuilds state and replies done, so fingerprint cross-checks (and
  // telemetry lanes) cover the whole fleet.
  const auto send_preamble = [&](std::size_t i) {
    Worker& w = procs_[i];
    if (w.preamble_sent) return true;
    if (!send_text(w, preamble)) {
      fail_worker(i, "died rejecting the grade request (write failed)" +
                         context,
                  false, pending);
      return false;
    }
    w.preamble_sent = true;
    return true;
  };

  // Processes one complete reply line from worker i. May fail_worker
  // (recoverable) or fatal (throws).
  const auto handle_line = [&](std::size_t i, const std::string& line) {
    Worker& w = procs_[i];
    if (line.find_first_not_of(" \t") == std::string::npos) return;
    Json reply;
    std::string type;
    try {
      reply = Json::parse(line);
      type = reply.at("type").as_string();
    } catch (const JsonError& e) {
      fail_worker(i, std::string("malformed reply: ") + e.what() + context,
                  false, pending);
      return;
    }
    if (w.state == Worker::State::kHello) {
      if (type != "hello") {
        fail_worker(i, "handshake is not a hello document" + context, false,
                    pending);
        return;
      }
      try {
        if (reply.at("protocol").as_int() != kWorkerProtocolVersion)
          fatal(i, "protocol version mismatch");
        // Pair the worker's monotonic clock with ours at the same (well,
        // one pipe transit later) instant; merged telemetry spans are
        // shifted by this offset onto the coordinator timeline.
        if (reply.contains("ts_us"))
          w.clock_offset_us =
              obs::tracer().now_us() -
              static_cast<std::int64_t>(reply.at("ts_us").as_number());
      } catch (const JsonError& e) {
        fail_worker(i, std::string("malformed hello: ") + e.what(), false,
                    pending);
        return;
      }
      obs::tracer().set_process_label(w.pid, "worker " + std::to_string(i));
      w.state = Worker::State::kReady;
      w.deadline_armed = false;
      send_preamble(i);
      return;
    }
    if (type == "heartbeat") {
      // The progress rule: a worker that announces a shard is alive and
      // earns a fresh deadline for grading it.
      w.deadline = Clock::now() + duration_from_seconds(timeout);
      return;
    }
    if (type == "shard") {
      std::uint32_t shard = 0;
      ShardResult r;
      try {
        shard = static_cast<std::uint32_t>(reply.at("shard").as_size());
        r.mask = lane_mask_from_json(reply.at("mask"));
        r.seconds = reply.at("seconds").as_number();
      } catch (const JsonError& e) {
        fail_worker(i, std::string("malformed shard reply: ") + e.what() +
                           context,
                    false, pending);
        return;
      }
      const auto granted =
          std::find(w.inflight.begin(), w.inflight.end(), shard);
      const auto it = slot.find(shard);
      if (granted == w.inflight.end() || it == slot.end() ||
          answered[it->second]) {
        fail_worker(i, "answered shard " + std::to_string(shard) +
                           " it was not granted (or twice)" + context,
                    false, pending);
        return;
      }
      w.inflight.erase(granted);
      answered[it->second] = 1;
      results[it->second] = r;
      --unanswered;
      observed_max_seconds_ = std::max(observed_max_seconds_, r.seconds);
      // Worker histograms don't travel the wire (only counter deltas do);
      // the coordinator observes the reported shard time instead, so the
      // distribution covers both executors.
      if (obs::metrics().enabled())
        obs::metrics()
            .histogram("campaign.shard_seconds", {0.001, 0.01, 0.1, 1.0, 10.0})
            .observe(r.seconds);
      // Progress resets the deadline; an idle worker (pending final
      // grant) has no clock running against it.
      if (w.inflight.empty())
        w.deadline_armed = false;
      else
        w.deadline = Clock::now() + duration_from_seconds(timeout);
      if (work.progress) work.progress(work.shard_faults(shard).size());
      return;
    }
    if (type == "done") {
      if (!w.final_sent) {
        fail_worker(i, "sent done before the final grant" + context, false,
                    pending);
        return;
      }
      std::string fp;
      try {
        if (reply.at("universe").as_size() != work.universe)
          fatal(i, "rebuilt a different universe (" +
                       std::to_string(reply.at("universe").as_size()) +
                       " faults, coordinator has " +
                       std::to_string(work.universe) + ")" + context);
        fp = reply.at("state_fp").as_string();
      } catch (const JsonError& e) {
        fail_worker(i, std::string("malformed done reply: ") + e.what() +
                           context,
                    false, pending);
        return;
      }
      // Siblings rebuilt the same test from the same spec; disagreeing
      // fingerprints mean at least one graded against drifted state (the
      // worker-side spec.state_fp check is the strong guard, but it is
      // opt-in — this one costs nothing and is not).
      if (done_fp.empty())
        done_fp = fp;
      else if (fp != done_fp)
        fatal(i, "rebuilt state disagrees with a sibling worker (" + fp +
                     " vs " + done_fp + ")" + context);
      if (reply.contains("telemetry")) {
        try {
          merge_worker_telemetry(i, reply.at("telemetry"));
        } catch (const JsonError& e) {
          fail_worker(i, std::string("malformed telemetry: ") + e.what() +
                             context,
                      false, pending);
          return;
        }
      }
      w.done_received = true;
      w.deadline_armed = false;
      return;
    }
    if (type == "error") {
      std::string message = "(error reply without a message)";
      try {
        message = reply.at("message").as_string();
      } catch (const JsonError&) {
      }
      fatal(i, "reported: " + message + context);
    }
    fail_worker(i, "unknown reply type '" + type + "'" + context, false,
                pending);
  };

  // Drains worker i's pipe without blocking, processes complete lines,
  // and handles EOF (the crash/exit detection path).
  const auto drain_worker = [&](std::size_t i) {
    Worker& w = procs_[i];
    bool eof = false;
    char buf[4096];
    for (;;) {
      const ssize_t n = posix::read_retry(w.from_fd, buf, sizeof buf);
      if (n > 0) {
        w.rbuf.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      eof = true;  // 0 = EOF; any other error means the pipe is dead too
      break;
    }
    std::string line;
    while (w.state != Worker::State::kDead && take_line(w.rbuf, line))
      handle_line(i, line);
    if (w.state == Worker::State::kDead || !eof) return;
    std::string what =
        w.state == Worker::State::kHello ? "died without a hello" : "died";
    // Bytes without a terminator: the worker was cut off mid-line, so the
    // stream is corrupt as well as closed.
    if (!w.rbuf.empty()) what += " mid-reply (truncated line)";
    if (w.state != Worker::State::kHello) {
      what += " with " + std::to_string(w.inflight.size()) +
              " shard(s) in flight";
    }
    fail_worker(i, what + context, false, pending);
  };

  for (;;) {
    auto now = Clock::now();

    // Due respawns first: a recovered slot can absorb grants this round.
    for (std::size_t i = 0; i < procs_.size(); ++i)
      if (procs_[i].respawn_scheduled && now >= procs_[i].respawn_at)
        spawn_worker(i);

    // Degradation ladder: when fewer workers are live or pending respawn
    // than the floor, stop supervising and finish the work here.
    std::size_t capable = 0;
    for (const Worker& w : procs_)
      if (w.state != Worker::State::kDead || w.respawn_scheduled) ++capable;
    if (capable < static_cast<std::size_t>(opts_.min_workers)) {
      for (Worker& w : procs_) {
        if (w.inflight.empty()) continue;
        for (std::uint32_t s : w.inflight) pending.push_back(s);
        health_.shard_reissues += w.inflight.size();
        w.inflight.clear();
      }
      shutdown_all();
      const std::string why =
          "worker fleet collapsed below min_workers=" +
          std::to_string(opts_.min_workers) +
          " with the respawn budget exhausted" + context +
          (last_failure_.empty() ? std::string()
                                 : "; last failure: " + last_failure_);
      if (!work.test.make_runner)
        throw std::runtime_error(
            "subprocess executor: " + why +
            " — no in-process fallback is available for this test");
      std::vector<std::uint32_t> remaining;
      remaining.reserve(unanswered);
      for (std::size_t k = 0; k < work.shards.size(); ++k)
        if (!answered[k]) remaining.push_back(work.shards[k]);
      std::fprintf(stderr,
                   "olfui: subprocess executor: %s — degrading to in-process "
                   "grading for %zu remaining shard(s)\n",
                   why.c_str(), remaining.size());
      auto span = obs::tracer().span("degrade", "executor");
      span.arg("shards", Json(remaining.size()));
      if (!fallback_) fallback_ = std::make_unique<InProcessExecutor>(0);
      const ShardWork sub{work.targets,
                          work.batch_size,
                          std::span<const std::uint32_t>(remaining),
                          work.test,
                          work.fault_model,
                          work.universe,
                          work.progress,
                          work.shard_timeout};
      const std::vector<ShardResult> sub_results = fallback_->execute(sub);
      for (std::size_t k = 0; k < remaining.size(); ++k) {
        const std::size_t idx = slot.at(remaining[k]);
        results[idx] = sub_results[k];
        answered[idx] = 1;
      }
      unanswered -= remaining.size();
      health_.degraded_shards += remaining.size();
      if (obs::metrics().enabled())
        obs::metrics().counter("executor.degraded").add(remaining.size());
      span.end();
      return results;
    }

    if (unanswered == 0) {
      // Finalize: ask each engaged worker for its done (universe and
      // fingerprint cross-checks, telemetry). Exit once none is owed.
      bool waiting = false;
      for (std::size_t i = 0; i < procs_.size(); ++i) {
        Worker& w = procs_[i];
        if (!w.preamble_sent || w.done_received ||
            w.state != Worker::State::kReady)
          continue;
        if (!w.final_sent) {
          Json grant = Json::object();
          grant.set("type", "grant");
          grant.set("shards", Json::array());
          grant.set("final", Json(true));
          if (!send_text(w, grant.dump() + "\n")) {
            fail_worker(i, "died rejecting the final grant (write failed)" +
                               context,
                        false, pending);
            continue;
          }
          w.final_sent = true;
          w.deadline = now + duration_from_seconds(timeout);
          w.deadline_armed = true;
        }
        waiting = true;
      }
      if (!waiting) return results;
    } else {
      // Breadth-first pull dispatch: one shard per pass per worker with
      // window room, so every live worker engages before any one of them
      // stacks up a queue — slow workers absorb less work.
      bool granted_any = true;
      while (granted_any && !pending.empty()) {
        granted_any = false;
        for (std::size_t i = 0; i < procs_.size() && !pending.empty(); ++i) {
          Worker& w = procs_[i];
          if (w.state != Worker::State::kReady ||
              w.inflight.size() >= kGrantWindow)
            continue;
          if (!send_preamble(i)) continue;
          const std::uint32_t s = pending.front();
          Json grant = Json::object();
          grant.set("type", "grant");
          Json arr = Json::array();
          arr.push_back(static_cast<std::size_t>(s));
          grant.set("shards", std::move(arr));
          if (!send_text(w, grant.dump() + "\n")) {
            fail_worker(i, "died rejecting a grant (write failed)" + context,
                        false, pending);
            continue;
          }
          pending.pop_front();
          w.inflight.push_back(s);
          if (!w.deadline_armed) {
            w.deadline = now + duration_from_seconds(timeout);
            w.deadline_armed = true;
          }
          granted_any = true;
        }
      }
    }

    // Sleep until the next reply, deadline, or scheduled respawn.
    int timeout_ms = 1000;
    const auto consider = [&](Clock::time_point t) {
      const auto ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(t - now)
              .count();
      timeout_ms = std::clamp(static_cast<int>(std::max<long long>(ms, 0)),
                              0, timeout_ms);
    };
    std::vector<struct pollfd> fds;
    std::vector<std::size_t> fd_worker;
    for (std::size_t i = 0; i < procs_.size(); ++i) {
      Worker& w = procs_[i];
      if (w.state == Worker::State::kDead) {
        if (w.respawn_scheduled) consider(w.respawn_at);
        continue;
      }
      bound_stderr(w);
      if (w.deadline_armed) consider(w.deadline);
      fds.push_back({w.from_fd, POLLIN, 0});
      fd_worker.push_back(i);
    }
    // poll with zero fds is a plain sleep — the fleet may be entirely
    // between incarnations, waiting on backoff.
    posix::poll_retry(fds.empty() ? nullptr : fds.data(), fds.size(),
                      timeout_ms);
    now = Clock::now();

    for (std::size_t k = 0; k < fds.size(); ++k)
      if (fds[k].revents & (POLLIN | POLLHUP | POLLERR))
        if (procs_[fd_worker[k]].state != Worker::State::kDead)
          drain_worker(fd_worker[k]);

    // Deadline sweep last, after any progress that poll surfaced.
    for (std::size_t i = 0; i < procs_.size(); ++i) {
      Worker& w = procs_[i];
      if (w.state == Worker::State::kDead || !w.deadline_armed ||
          now < w.deadline)
        continue;
      if (w.state == Worker::State::kHello) {
        fail_worker(i, "no hello within " +
                           std::to_string(opts_.hello_timeout) +
                           "s (handshake deadline expired)",
                    true, pending);
      } else {
        fail_worker(i, "no progress within " + std::to_string(timeout) +
                           "s (shard deadline expired) with " +
                           std::to_string(w.inflight.size()) +
                           " shard(s) in flight" + context,
                    true, pending);
      }
    }
  }
}

void SubprocessExecutor::merge_worker_telemetry(std::size_t worker,
                                                const Json& telemetry) {
  const Worker& w = procs_[worker];
  if (telemetry.contains("spans") && obs::tracer().enabled())
    obs::tracer().merge_foreign(
        obs::trace_events_from_json(telemetry.at("spans")), w.pid,
        w.clock_offset_us);
  if (telemetry.contains("counters") && obs::metrics().enabled())
    obs::metrics().merge_counters(telemetry.at("counters"));
}

}  // namespace olfui
