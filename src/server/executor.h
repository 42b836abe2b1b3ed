// Executor: the threaded request engine of the multi-session service
// layer.
//
// Architecture (DESIGN.md "Service layer"):
//
//   clients -> Submit() -> bounded queue -> worker pool -> Database
//
// * Admission control. The queue holds at most max_queue_depth requests.
//   A Submit() against a full queue completes immediately with
//   kRejected — backpressure surfaces to the client instead of queueing
//   unboundedly. Shutdown rejects everything still queued.
//
// * Statement batching. One queue slot carries a whole pipeline of
//   statements; a client round-trips once for
//   `begin; set obj(7).val = val + 1; commit`.
//
// * Concurrency discipline. Workers parse statements in parallel
//   (parsing is pure) and serialize on the session mutex (one batch per
//   session at a time). Each statement is routed by its kind's row in
//   the one routing table (KindInfo, server/statement.h): server state,
//   cursor, read, commit, rollback or write. Reads resolve at two tiers.
//   Read-only auto-commit statements (get/peek/select/instances) first
//   try the MVCC snapshot path: a commit-sequence snapshot resolved
//   against the Database's per-instance version chains, with NO
//   statement lock and NO timestamp-ordering marks — a snapshot read
//   can never abort a writer. Everything else — mutations, and reads
//   the chains cannot prove (derived attribute, `members`, relationship
//   traversal, a read inside an open transaction) — runs under one
//   statement mutex, since the core is single-threaded by design.
//   `fetch` only advances the session cursor and takes no lock at all.
//   The paper's multi-user concurrency is timestamp ordering over
//   interleaved statements; conflicts surface as clean kAborted
//   responses; the client retries.
//
// * Sessions. A session closes one way, CloseSession(), for a client's
//   disconnect (clean or not) as for a local caller: it leaves the table
//   at once, waits out a batch executing on it, and its open
//   transaction rolls back exactly once. Idle sessions expire on the
//   workers and Shutdown() takes the rest; every corpse is disposed the
//   same way (DisposeSessions).
//
// * Group commit. `commit` is split-phase: the delta is staged in the
//   WAL's group-commit queue under the statement mutex, the durability
//   wait happens with NO statement lock held (so other statements — and
//   other commits, which batch into one WAL write — proceed during the
//   flush), and the commit is published under the mutex once
//   durable. See DESIGN.md "Group commit".
//
// * Graceful degradation. A mutating statement that fails with a storage
//   fault (a WAL append or block write that survived its retry budget)
//   flips the executor into degraded READ-ONLY mode: further mutations
//   are refused immediately with kUnavailable, while reads — which serve
//   from the buffer pool and caches — keep running. A background probe
//   thread retests the storage layer (scratch-block write/read) every
//   degraded_probe_interval_ms and restores read-write automatically
//   once the disk answers again. The `health` statement and shell
//   `\health` report the state lock-free; metrics carry a
//   server.degraded gauge plus entered/exited/probe/reject counters.
//
// * Observability. The executor registers a "server" metrics group with
//   the database's registry: queue depth gauge, admission rejections,
//   active sessions, per-statement latency histogram (with p50/p99/p999
//   and max gauges), snapshot-read and fallback counters, and a
//   live/peak reader-concurrency gauge. (The WAL batch-size histogram
//   lives in the "wal" group.) Every stats field is readable from any
//   thread, so a scrape (SnapshotMetrics) and a sampler tick take no
//   statement mutex; a scrape is therefore not a consistent cut.

#ifndef CACTIS_SERVER_EXECUTOR_H_
#define CACTIS_SERVER_EXECUTOR_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "core/database.h"
#include "obs/metrics.h"
#include "obs/request_context.h"
#include "obs/sampler.h"
#include "obs/slow_log.h"
#include "obs/watchdog.h"
#include "server/protocol.h"
#include "server/session.h"
#include "server/statement.h"

namespace cactis::server {

struct ServerOptions {
  /// Worker threads. 0 means no threads are started: requests queue and
  /// are drained manually with RunOne() (deterministic tests).
  size_t num_workers = 4;
  /// Admission control: requests queued beyond this are rejected.
  size_t max_queue_depth = 64;
  /// Idle sessions past this are expired (open transactions rolled
  /// back). 0 disables expiry.
  uint64_t session_timeout_ms = 60'000;
  /// Millisecond clock for session-idle accounting. Null = steady clock.
  /// Injectable so expiry tests are deterministic.
  std::function<uint64_t()> now_ms;
  /// Slow-statement log threshold: statements whose latency (lock wait +
  /// execution) reaches this are candidates for the log. 0 logs every
  /// statement (tests, tail-latency hunts).
  uint64_t slow_statement_us = 10'000;
  /// Slow-statement log capacity (the N worst by latency are retained).
  /// 0 disables the log.
  size_t slow_log_capacity = 32;
  /// How often the background health probe re-tests the storage layer
  /// while the server is degraded (a scratch-block write/read round
  /// trip). 0 disables the probe thread: degraded mode then only exits
  /// through an explicit ProbeOnce() call (deterministic tests).
  uint64_t degraded_probe_interval_ms = 25;
  /// Telemetry sampling tick (obs::Sampler): every interval the metrics
  /// registry is snapshotted into the time-series ring (2 minutes at
  /// 1 Hz) and the watchdog rules run. 0 disables the sampler thread;
  /// SampleMetricsOnce() still works (deterministic tests, benches). The
  /// sampler reuses now_ms when set.
  uint64_t sampler_interval_ms = 1000;
};

/// Service-layer counters. All fields are atomics: they are written from
/// client threads (admission) and worker threads (execution) and read by
/// the metrics exporter without any lock.
struct ServerStats {
  std::atomic<uint64_t> requests_submitted{0};
  std::atomic<uint64_t> requests_rejected{0};
  std::atomic<uint64_t> requests_completed{0};
  std::atomic<uint64_t> statements_executed{0};
  std::atomic<uint64_t> statement_errors{0};
  std::atomic<uint64_t> txn_conflicts{0};  // aborts from timestamp conflicts
  std::atomic<uint64_t> txn_aborts{0};     // every abort surfaced to a client
  std::atomic<uint64_t> sessions_opened{0};
  std::atomic<uint64_t> sessions_closed{0};
  std::atomic<uint64_t> sessions_expired{0};
  std::atomic<uint64_t> queue_depth{0};
  std::atomic<uint64_t> queue_depth_peak{0};

  // Read path. Every non-fetch read lands in exactly one of
  // snapshot_reads / fast_path_fallbacks; snapshot_fallbacks additionally
  // counts the snapshot-eligible statements among the latter (attempted
  // the lock-free path and missed into the mutex).
  std::atomic<uint64_t> snapshot_reads{0};       // answered lock-free (MVCC)
  std::atomic<uint64_t> snapshot_fallbacks{0};   // snapshot miss -> mutex
  std::atomic<uint64_t> fast_path_fallbacks{0};  // answered under the mutex
  std::atomic<uint64_t> readers_active{0};       // live gauge
  std::atomic<uint64_t> readers_peak{0};

  // Request-scoped cost attribution, aggregated over every statement
  // (per-session splits live in Session::cost; the worst offenders in
  // the slow-statement log). Exported as the cost_* counters.
  obs::CostTotals cost;
  std::atomic<uint64_t> profile_statements{0};  // `profile ...` executed
  std::atomic<uint64_t> explain_statements{0};  // `explain ...` executed
  std::atomic<uint64_t> slow_statements{0};     // admitted past threshold

  // Degraded read-only mode (persistent storage failure).
  std::atomic<uint64_t> degraded{0};            // gauge: 1 while degraded
  std::atomic<uint64_t> degraded_entered{0};
  std::atomic<uint64_t> degraded_exited{0};
  std::atomic<uint64_t> degraded_probes{0};     // health probes attempted
  std::atomic<uint64_t> degraded_rejects{0};    // mutations refused

  /// Per-statement latency in microseconds (lock wait + execution).
  obs::Histogram latency_us;

  /// Exports into the "server" metrics group (active_sessions and
  /// num_workers are supplied by the executor).
  void ExportTo(obs::MetricsGroup* g) const;
};

class Executor {
 public:
  /// `db` must outlive the executor. Load the schema before starting
  /// workers (or through LoadSchema(), which serializes correctly).
  Executor(core::Database* db, ServerOptions options);
  ~Executor();
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Starts the worker pool. Idempotent.
  void Start();

  /// Stops workers, rejects everything still queued, expires every
  /// session (rolling back open transactions). Idempotent.
  void Shutdown();

  // --- Session lifecycle --------------------------------------------------

  Result<SessionId> OpenSession();

  /// Removes the session from the table at once (no new batch can find
  /// it), waits for a batch executing on it to finish, then rolls back
  /// its open transaction, exactly once. NotFound when the id is unknown
  /// or already closed. Blocks for at most one batch, so the network
  /// layer calls it off its event loop, for a clean goodbye and an
  /// unclean disconnect alike.
  Status CloseSession(SessionId id);

  size_t session_count() const { return sessions_.active_count(); }

  // --- Requests -----------------------------------------------------------

  /// Admission-controlled asynchronous submit. The future completes with
  /// kRejected immediately when the queue is full.
  std::future<Response> Submit(Request request);

  /// Callback-style submit for the network layer: `done` is invoked with
  /// the response — on a worker thread after execution, or inline on the
  /// calling thread when admission control rejects the request. Exactly
  /// one invocation, always (shutdown rejects everything still queued).
  void SubmitWithCallback(Request request, std::function<void(Response)> done);

  /// Submit + wait.
  Response Call(Request request);

  /// Pops and executes one queued request on the calling thread.
  /// Returns false when the queue is empty. For num_workers == 0
  /// (deterministic tests) — safe alongside workers too.
  bool RunOne();

  // --- Serialized database access ------------------------------------------

  /// Loads schema under the statement mutex (usable while serving).
  Status LoadSchema(std::string_view source);

  /// Database::SnapshotMetrics(). Takes no statement mutex: it returns
  /// while a statement holds the core.
  std::string SnapshotMetrics();

  // --- Telemetry (sampler + watchdog) ---------------------------------------

  /// Takes one sampler tick synchronously (snapshot, delta conversion,
  /// watchdog evaluation). For deterministic tests and benches; the
  /// background thread does exactly this.
  void SampleMetricsOnce() { sampler_->SampleOnce(); }

  /// The `metrics history [group] [n]` payload (obs::Sampler schema).
  /// Lock-free with respect to the database: reads only the sampler
  /// ring, so it answers in degraded mode and on the snapshot path.
  std::string MetricsHistoryJson(const std::string& group, size_t n) {
    return sampler_->HistoryJson(group, n);
  }

  /// The `alerts` payload (obs::Watchdog schema). Lock-free likewise.
  std::string AlertsJson() { return watchdog_->AlertsJson(); }

  obs::Sampler* sampler() { return sampler_.get(); }
  obs::Watchdog* watchdog() { return watchdog_.get(); }

  // --- Degraded read-only mode ----------------------------------------------

  /// True while the server refuses mutations after a persistent storage
  /// failure (a WAL append or block write that survived its retry
  /// budget). Reads keep serving throughout.
  bool degraded() const { return degraded_.load(std::memory_order_acquire); }

  /// Probes the storage layer once: allocate a scratch block, write,
  /// read back, free. On success while degraded, flips back to
  /// read-write. Returns true when the probe succeeded. Thread-safe;
  /// called by the background probe thread and directly by tests.
  bool ProbeOnce();

  /// The `health` statement / shell `\health` payload: degraded state,
  /// reason, probe counters. Lock-free — answers even when storage is
  /// down and workers are wedged on it.
  std::string HealthJson();

  // --- Slow-statement log ---------------------------------------------------

  /// JSON array of the retained slow statements, worst-first.
  std::string SnapshotSlowLogJson() const { return slow_log_.SnapshotJson(); }
  /// Same, but empties the log (shell `\slow`, CI artifact dumps).
  std::string DrainSlowLogJson() { return slow_log_.DrainJson(); }
  const obs::SlowStatementLog& slow_log() const { return slow_log_; }

  const ServerStats& stats() const { return stats_; }
  core::Database* db() { return db_; }
  const ServerOptions& options() const { return options_; }

 private:
  struct Task {
    Request request;
    std::promise<Response> promise;
    /// Set for callback-style submissions (the network layer): invoked
    /// with the response instead of fulfilling the promise.
    std::function<void(Response)> done;
    uint64_t enqueue_us = 0;
  };

  /// Delivers the response through whichever channel the task carries.
  static void Complete(Task* task, Response r);

  /// Shared admission-control path behind Submit / SubmitWithCallback.
  void Enqueue(Task task);

  uint64_t NowMs() const;
  static uint64_t NowUs();

  void WorkerLoop();
  /// Pops the queue's front (`lk` holds queue_mu_), releases the queue,
  /// then processes the task and delivers its response.
  void RunFront(std::unique_lock<std::mutex> lk);
  /// Routes every statement of the batch by its kind's StatementRoute.
  Response Process(Task* task);
  /// Acquires db_mu_ and charges the wait to the current statement's
  /// cost: a read's wait to lock_wait_shared_us, every other
  /// statement's to lock_wait_excl_us, so read and write waits stay
  /// apart.
  std::unique_lock<std::mutex> LockStatementMutex(bool read);
  /// Statement execution against live state (caller holds db_mu_): the
  /// read, rollback and write routes.
  StatementResult ExecuteStatement(Session* s, Statement* st);
  /// Server-state route: `health`, `metrics history`, `alerts`.
  std::string ServerStateJson(const Statement& st);
  /// Cursor route: `fetch` reads only session-local cursor state
  /// (protected by the session mutex, which the caller holds).
  StatementResult ExecuteFetch(Session* s, const Statement& st);
  /// Read route: snapshot path, else db_mu_ (taken here).
  StatementResult ExecuteReadStatement(Session* s, Statement* st);
  /// MVCC snapshot path: resolves an auto-commit read against the
  /// version chains with no statement lock at all (caller holds
  /// schema_mu_ shared to pin the catalog). nullopt means the chains
  /// could not prove the answer, or the statement is ineligible (inside
  /// a transaction, `members`) — fall back to db_mu_.
  std::optional<StatementResult> TryExecuteReadSnapshot(Session* s,
                                                        Statement* st);
  /// Split-phase commit (stage / wait durable / publish). Takes db_mu_
  /// itself, releasing it around the durability wait.
  StatementResult ExecuteCommitStatement(Session* s);
  /// `explain <stmt>`: reports the plan (residency, dependency edges,
  /// scheduling policy) without executing the statement's side effects.
  /// Caller holds db_mu_.
  StatementResult ExecuteExplain(Session* s, const Statement& st);
  Result<InstanceId> Resolve(Session* s, const Target& t);

  /// Rolls back and destroys expired/closed sessions' transactions under
  /// the statement mutex.
  void DisposeSessions(std::vector<std::shared_ptr<Session>> dead,
                       bool expired);
  void ReapExpiredSessions();

  /// Flips into degraded read-only mode (idempotent; records the cause
  /// and wakes the probe thread).
  void EnterDegraded(const Status& cause);
  /// Storage is healthy again: resume read-write.
  void ExitDegraded();
  void ProbeLoop();

  core::Database* db_;
  ServerOptions options_;
  SessionManager sessions_;
  ServerStats stats_;
  /// The N worst statements by latency (see ServerOptions). Internally
  /// synchronized; drained via DrainSlowLogJson() or the metrics export.
  obs::SlowStatementLog slow_log_;
  /// Monotonic trace-id mint for statements whose request carries no
  /// client-minted id (local callers). Wire requests propagate the
  /// client's id instead, so spans join across the socket.
  std::atomic<uint64_t> next_trace_id_{0};

  /// Telemetry pipeline: the sampler periodically snapshots the metrics
  /// registry into the time-series ring; the watchdog digests every
  /// tick. Both outlive the worker pool within this object and are
  /// stopped in Shutdown().
  std::unique_ptr<obs::Watchdog> watchdog_;
  std::unique_ptr<obs::Sampler> sampler_;

  /// THE statement lock: guards the core's live state. Every Database
  /// access except the MVCC snapshot path and telemetry goes through it.
  std::mutex db_mu_;

  /// Pins the schema catalog for snapshot readers: LoadSchema holds it
  /// exclusively (before db_mu_ — never acquire them in the other
  /// order), the snapshot read path holds it shared. Uncontended in
  /// steady state, so the shared acquisition is a single atomic op.
  std::shared_mutex schema_mu_;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Task> queue_;
  bool stopping_ = false;

  std::vector<std::thread> workers_;
  bool started_ = false;
  bool shut_down_ = false;

  // Degraded read-only mode. The flag is the routing hot path (one
  // relaxed-ish load per mutating statement); reason/since sit behind
  // their own mutex and are only touched on transitions and `health`.
  std::atomic<bool> degraded_{false};
  mutable std::mutex degraded_mu_;
  std::string degraded_reason_;
  uint64_t degraded_since_ms_ = 0;

  // Background probe thread: parked until the server degrades, then
  // retests storage every degraded_probe_interval_ms.
  std::thread probe_thread_;
  std::mutex probe_mu_;
  std::condition_variable probe_cv_;
  bool probe_stop_ = false;
};

}  // namespace cactis::server

#endif  // CACTIS_SERVER_EXECUTOR_H_
