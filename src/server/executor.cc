#include "server/executor.h"

#include <algorithm>
#include <chrono>

#include "common/error_taxonomy.h"
#include "lang/interpreter.h"
#include "obs/json_writer.h"
#include "schema/catalog.h"

namespace cactis::server {

namespace {

/// EvalContext for request expressions (`set obj(7).val = val + 1`,
/// select predicates are handled by Database::SelectWhere itself).
/// Attribute reads go through the session's transaction when one is
/// open, so read-modify-write is atomic under timestamp ordering; the
/// database serialization mutex is held by the caller.
class SessionEvalContext : public lang::EvalContext {
 public:
  SessionEvalContext(core::Database* db, core::Transaction* txn,
                     InstanceId self)
      : db_(db), txn_(txn), self_(self) {}

  Result<Value> GetLocalAttr(const std::string& name) override {
    return txn_ != nullptr ? txn_->Get(self_, name) : db_->Get(self_, name);
  }

  bool HasLocalAttr(const std::string& name) const override {
    auto cls = db_->ClassOf(self_);
    if (!cls.ok()) return false;
    const schema::ObjectClass* oc = db_->catalog()->GetClass(*cls);
    return oc != nullptr && oc->FindAttr(name) != nullptr;
  }

  bool HasPort(const std::string& name) const override {
    auto cls = db_->ClassOf(self_);
    if (!cls.ok()) return false;
    const schema::ObjectClass* oc = db_->catalog()->GetClass(*cls);
    return oc != nullptr && oc->FindPort(name) != nullptr;
  }

  Result<std::vector<Neighbor>> GetNeighbors(
      const std::string& port) override {
    (void)port;
    return Status::InvalidArgument(
        "request expressions cannot traverse relationships; use a derived "
        "attribute rule");
  }

  Result<Value> GetRemoteValue(const Neighbor&,
                               const std::string& name) override {
    return Status::InvalidArgument("no remote value '" + name +
                                   "' in request expressions");
  }

  Status SetLocalAttr(const std::string&, Value) override {
    return Status::InvalidArgument(
        "request expressions cannot assign attributes");
  }

  const lang::BuiltinRegistry& builtins() const override {
    return *db_->builtins();
  }

 private:
  core::Database* const db_;
  core::Transaction* const txn_;
  const InstanceId self_;
};

bool IsAbort(const Status& s) {
  return s.IsTransactionAborted() || s.IsConflict();
}

/// Tracks live/peak reader concurrency while a snapshot read is in
/// flight.
class ReaderScope {
 public:
  explicit ReaderScope(ServerStats* stats) : stats_(stats) {
    uint64_t active =
        stats_->readers_active.fetch_add(1, std::memory_order_relaxed) + 1;
    uint64_t peak = stats_->readers_peak.load(std::memory_order_relaxed);
    while (active > peak && !stats_->readers_peak.compare_exchange_weak(
                                peak, active, std::memory_order_relaxed)) {
    }
  }
  ~ReaderScope() {
    stats_->readers_active.fetch_sub(1, std::memory_order_relaxed);
  }

 private:
  ServerStats* const stats_;
};

bool IsConflictAbort(const Status& s) {
  // MaybeAbort wraps the triggering status into the abort message, so a
  // timestamp-ordering conflict reads "... aborted: Conflict: ...".
  return s.IsConflict() ||
         (s.IsTransactionAborted() &&
          s.message().find("Conflict") != std::string::npos);
}

std::string_view StatementKindName(StatementKind k) {
  switch (k) {
    case StatementKind::kBegin:
      return "begin";
    case StatementKind::kCommit:
      return "commit";
    case StatementKind::kAbort:
      return "abort";
    case StatementKind::kCreate:
      return "create";
    case StatementKind::kDelete:
      return "delete";
    case StatementKind::kSet:
      return "set";
    case StatementKind::kGet:
      return "get";
    case StatementKind::kPeek:
      return "peek";
    case StatementKind::kConnect:
      return "connect";
    case StatementKind::kDisconnect:
      return "disconnect";
    case StatementKind::kSelect:
      return "select";
    case StatementKind::kInstances:
      return "instances";
    case StatementKind::kMembers:
      return "members";
    case StatementKind::kFetch:
      return "fetch";
    case StatementKind::kHealth:
      return "health";
    case StatementKind::kReorganize:
      return "reorganize";
    case StatementKind::kMetricsHistory:
      return "metrics history";
    case StatementKind::kAlerts:
      return "alerts";
  }
  return "unknown";
}

/// Charges the calling statement for time spent waiting on the statement
/// mutex: a read statement's wait to the `shared` bucket, every other
/// statement's to the `excl` one, so read and write waits stay apart.
void ChargeLockWait(bool read_only, uint64_t us) {
  if (auto* c = obs::RequestScope::CurrentCost()) {
    if (read_only) {
      c->lock_wait_shared_us += us;
    } else {
      c->lock_wait_excl_us += us;
    }
  }
}

}  // namespace

std::string_view ResponseStatusToString(ResponseStatus s) {
  switch (s) {
    case ResponseStatus::kOk:
      return "ok";
    case ResponseStatus::kError:
      return "error";
    case ResponseStatus::kAborted:
      return "aborted";
    case ResponseStatus::kRejected:
      return "rejected";
    case ResponseStatus::kNoSession:
      return "no-session";
    case ResponseStatus::kUnavailable:
      return "unavailable";
  }
  return "unknown";
}

double ServerStats::LatencyQuantileUs(double q) const {
  uint64_t total = latency_count.load(std::memory_order_relaxed);
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(total - 1)) + 1;
  uint64_t cumulative = 0;
  for (size_t i = 0; i < kLatencyBuckets; ++i) {
    cumulative += latency_buckets[i].load(std::memory_order_relaxed);
    if (cumulative >= rank) {
      // Bucket 0 holds sample 0; bucket i >= 1 holds [2^(i-1), 2^i).
      // Report the upper bound.
      return i == 0 ? 0.0 : static_cast<double>(uint64_t{1} << i);
    }
  }
  return static_cast<double>(uint64_t{1} << (kLatencyBuckets - 1));
}

void ServerStats::ExportTo(obs::MetricsGroup* g) const {
  auto load = [](const std::atomic<uint64_t>& a) {
    return a.load(std::memory_order_relaxed);
  };
  g->AddCounter("requests_submitted", load(requests_submitted));
  g->AddCounter("requests_rejected", load(requests_rejected));
  g->AddCounter("requests_completed", load(requests_completed));
  g->AddCounter("statements_executed", load(statements_executed));
  g->AddCounter("statement_errors", load(statement_errors));
  g->AddCounter("txn_conflicts", load(txn_conflicts));
  g->AddCounter("txn_aborts", load(txn_aborts));
  g->AddCounter("sessions_opened", load(sessions_opened));
  g->AddCounter("sessions_closed", load(sessions_closed));
  g->AddCounter("sessions_expired", load(sessions_expired));
  g->AddCounter("queue_depth_peak", load(queue_depth_peak));
  g->AddGauge("queue_depth", static_cast<double>(load(queue_depth)));
  g->AddCounter("snapshot_reads", load(snapshot_reads));
  g->AddCounter("snapshot_fallbacks", load(snapshot_fallbacks));
  // Always 0: a read resolves on the snapshot or under the statement
  // mutex. The key stays because perfbench/run.py reads it by name.
  g->AddCounter("fast_path_reads", 0);
  g->AddCounter("fast_path_fallbacks", load(fast_path_fallbacks));
  g->AddGauge("reader_concurrency", static_cast<double>(load(readers_active)));
  g->AddCounter("reader_concurrency_peak", load(readers_peak));
  g->AddCounter("cost_blocks_read", load(cost_blocks_read));
  g->AddCounter("cost_blocks_written", load(cost_blocks_written));
  g->AddCounter("cost_cache_hits", load(cost_cache_hits));
  g->AddCounter("cost_cache_misses", load(cost_cache_misses));
  g->AddCounter("cost_attrs_reevaluated", load(cost_attrs_reevaluated));
  g->AddCounter("cost_chunks_scheduled", load(cost_chunks_scheduled));
  g->AddCounter("cost_wal_bytes", load(cost_wal_bytes));
  g->AddCounter("cost_lock_wait_shared_us", load(cost_lock_wait_shared_us));
  g->AddCounter("cost_lock_wait_excl_us", load(cost_lock_wait_excl_us));
  g->AddCounter("profile_statements", load(profile_statements));
  g->AddCounter("explain_statements", load(explain_statements));
  g->AddCounter("slow_statements", load(slow_statements));
  g->AddGauge("degraded", static_cast<double>(load(degraded)));
  g->AddCounter("degraded_entered", load(degraded_entered));
  g->AddCounter("degraded_exited", load(degraded_exited));
  g->AddCounter("degraded_probes", load(degraded_probes));
  g->AddCounter("degraded_rejects", load(degraded_rejects));
  g->AddCounter("statement_latency_count", load(latency_count));
  g->AddCounter("statement_latency_sum_us", load(latency_sum_us));
  g->AddGauge("statement_latency_p50_us", LatencyQuantileUs(0.5));
  g->AddGauge("statement_latency_p99_us", LatencyQuantileUs(0.99));
  g->AddGauge("statement_latency_p999_us", LatencyQuantileUs(0.999));
  g->AddGauge("statement_latency_max_us",
              static_cast<double>(load(latency_max_us)));
  // Full bucket export: the sampler diffs consecutive snapshots of this
  // histogram into interval p50/p99 (the lifetime quantiles above go
  // flat the moment the workload shifts; the interval ones do not).
  obs::HistogramData lat;
  lat.count = load(latency_count);
  lat.sum = load(latency_sum_us);
  for (size_t i = 0; i < kLatencyBuckets; ++i) {
    lat.buckets[i] = load(latency_buckets[i]);
  }
  g->AddHistogram("statement_latency_us", std::move(lat));
}

Executor::Executor(core::Database* db, ServerOptions options)
    : db_(db),
      options_(std::move(options)),
      sessions_(options_.session_timeout_ms),
      slow_log_(options_.slow_log_capacity, options_.slow_statement_us) {
  // Snapshots run through Executor::SnapshotMetrics() (statement mutex),
  // so reading these atomics plus the session table is safe. Everything
  // exported here is internally synchronized regardless (stats_ and
  // session accounting are atomics, the slow log has its own mutex), so
  // the export also tolerates concurrent statement execution — see the
  // snapshot-under-load test.
  db_->metrics()->RegisterSource("server", [this](obs::MetricsGroup* g) {
    stats_.ExportTo(g);
    g->AddGauge("active_sessions",
                static_cast<double>(sessions_.active_count()));
    g->AddGauge("num_workers", static_cast<double>(options_.num_workers));
    // Admission limit, so the watchdog's saturation rule needs no
    // out-of-band configuration.
    g->AddGauge("max_queue_depth",
                static_cast<double>(options_.max_queue_depth));
    g->AddCounter("slow_statements_logged", slow_log_.total_logged());
    g->AddJson("slow_statements", slow_log_.SnapshotJson());
    obs::JsonWriter w;
    w.BeginArray();
    sessions_.ForEach([&w](const Session& s) {
      auto load = [](const std::atomic<uint64_t>& a) {
        return a.load(std::memory_order_relaxed);
      };
      w.BeginObject();
      w.Key("session").Uint(s.id.value);
      w.Key("statements").Uint(load(s.acct.statements));
      w.Key("blocks_read").Uint(load(s.acct.blocks_read));
      w.Key("blocks_written").Uint(load(s.acct.blocks_written));
      w.Key("cache_hits").Uint(load(s.acct.cache_hits));
      w.Key("cache_misses").Uint(load(s.acct.cache_misses));
      w.Key("attrs_reevaluated").Uint(load(s.acct.attrs_reevaluated));
      w.Key("chunks_scheduled").Uint(load(s.acct.chunks_scheduled));
      w.Key("wal_bytes").Uint(load(s.acct.wal_bytes));
      w.Key("queue_wait_us").Uint(load(s.acct.queue_wait_us));
      w.Key("lock_wait_shared_us").Uint(load(s.acct.lock_wait_shared_us));
      w.Key("lock_wait_excl_us").Uint(load(s.acct.lock_wait_excl_us));
      w.Key("exec_us").Uint(load(s.acct.exec_us));
      w.EndObject();
    });
    w.EndArray();
    g->AddJson("per_session", w.str());
  });

  // Telemetry pipeline: sampler ticks snapshot the registry under the
  // statement lock (the same discipline as
  // SnapshotMetrics(), so subsystem stats structs are quiescent while
  // exported) and feed the watchdog. One tick per second by default;
  // E17 gates the cost at <2% of throughput.
  watchdog_ = std::make_unique<obs::Watchdog>(options_.watchdog);
  obs::SamplerOptions sopts;
  sopts.interval_ms = options_.sampler_interval_ms;
  sopts.ring_capacity = options_.sampler_ring;
  sopts.now_ms = options_.now_ms;  // fake clocks flow through
  sampler_ = std::make_unique<obs::Sampler>(
      [this] {
        std::lock_guard<std::mutex> dlk(db_mu_);
        return db_->metrics()->Snapshot();
      },
      std::move(sopts));
  sampler_->SetObserver(
      [this](const obs::Sample& s) { watchdog_->Observe(s); });
}

Executor::~Executor() {
  Shutdown();
  db_->metrics()->UnregisterSource("server");
}

uint64_t Executor::NowMs() const {
  if (options_.now_ms) return options_.now_ms();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t Executor::NowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void Executor::Start() {
  std::lock_guard<std::mutex> lk(queue_mu_);
  if (started_ || stopping_) return;
  started_ = true;
  workers_.reserve(options_.num_workers);
  for (size_t i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  if (options_.degraded_probe_interval_ms > 0) {
    probe_thread_ = std::thread([this] { ProbeLoop(); });
  }
  sampler_->Start();  // no-op when sampler_interval_ms == 0
}

void Executor::Shutdown() {
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    if (shut_down_) return;
    shut_down_ = true;
    stopping_ = true;
  }
  // Stop the sampler first: its snapshot callback takes db_mu_, and
  // nothing below should contend with a tick mid-teardown.
  sampler_->Stop();
  queue_cv_.notify_all();
  for (auto& w : workers_) w.join();
  workers_.clear();
  {
    std::lock_guard<std::mutex> lk(probe_mu_);
    probe_stop_ = true;
  }
  probe_cv_.notify_all();
  if (probe_thread_.joinable()) probe_thread_.join();

  // Reject everything still queued: nothing half-executes at shutdown.
  std::deque<Task> leftover;
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    leftover.swap(queue_);
    stats_.queue_depth.store(0, std::memory_order_relaxed);
  }
  for (auto& task : leftover) {
    Response r;
    r.status = ResponseStatus::kRejected;
    r.payload = "server shutting down";
    stats_.requests_rejected.fetch_add(1, std::memory_order_relaxed);
    Complete(&task, std::move(r));
  }

  // Expire every session; open transactions roll back.
  DisposeSessions(sessions_.TakeAll(), /*expired=*/false);

  // Publish any staged commits whose batches flushed (their owners were
  // already acknowledged) so the final state matches what clients saw.
  {
    std::lock_guard<std::mutex> dlk(db_mu_);
    (void)db_->DrainCommits();
  }
}

Result<SessionId> Executor::OpenSession() {
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    if (stopping_) return Status::InvalidArgument("server shutting down");
  }
  auto s = sessions_.Open(NowMs());
  stats_.sessions_opened.fetch_add(1, std::memory_order_relaxed);
  return s->id;
}

Status Executor::CloseSession(SessionId id) {
  auto victim = sessions_.Close(id);
  if (victim == nullptr) {
    return Status::NotFound("no session " + std::to_string(id.value));
  }
  stats_.sessions_closed.fetch_add(1, std::memory_order_relaxed);
  std::vector<std::shared_ptr<Session>> dead;
  dead.push_back(std::move(victim));
  DisposeSessions(std::move(dead), /*expired=*/false);
  return Status::OK();
}

Status Executor::CloseSessionEager(SessionId id) {
  bool deferred = false;
  auto victim = sessions_.EagerClose(id, &deferred);
  if (victim == nullptr) {
    return Status::NotFound("no session " + std::to_string(id.value));
  }
  stats_.sessions_closed.fetch_add(1, std::memory_order_relaxed);
  if (deferred) {
    // A batch was executing when the connection died. The worker usually
    // sees the disconnected flag at batch end and disposes the corpse
    // itself, but that check can race the flag store — so confirm with a
    // blocking wait (bounded by one batch; this runs on the network
    // layer's teardown thread, never on the event loop).
    std::unique_lock<std::mutex> slk(victim->mu);
    if (victim->closed) return Status::OK();  // the worker got it
    victim->closed = true;
    slk.unlock();
  }
  std::vector<std::shared_ptr<Session>> dead;
  dead.push_back(std::move(victim));
  DisposeSessions(std::move(dead), /*expired=*/false);
  return Status::OK();
}

void Executor::DisposeSessions(std::vector<std::shared_ptr<Session>> dead,
                               bool expired) {
  if (dead.empty()) return;
  std::lock_guard<std::mutex> dlk(db_mu_);
  for (auto& s : dead) {
    // The session is out of the table and marked closed; nothing else
    // touches it. Destroying an open transaction rolls it back.
    s->txn.reset();
    if (expired) {
      stats_.sessions_expired.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void Executor::ReapExpiredSessions() {
  DisposeSessions(sessions_.ReapExpired(NowMs()), /*expired=*/true);
}

void Executor::Complete(Task* task, Response r) {
  if (task->done) {
    task->done(std::move(r));
  } else {
    task->promise.set_value(std::move(r));
  }
}

void Executor::Enqueue(Task task) {
  stats_.requests_submitted.fetch_add(1, std::memory_order_relaxed);
  task.enqueue_us = NowUs();
  bool rejected = false;
  const char* reason = nullptr;
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    if (stopping_) {
      rejected = true;
      reason = "server shutting down";
    } else if (queue_.size() >= options_.max_queue_depth) {
      rejected = true;
      reason = "request queue full";
    } else {
      queue_.push_back(std::move(task));
      uint64_t depth = queue_.size();
      stats_.queue_depth.store(depth, std::memory_order_relaxed);
      uint64_t peak = stats_.queue_depth_peak.load(std::memory_order_relaxed);
      while (depth > peak &&
             !stats_.queue_depth_peak.compare_exchange_weak(
                 peak, depth, std::memory_order_relaxed)) {
      }
    }
  }
  if (rejected) {
    stats_.requests_rejected.fetch_add(1, std::memory_order_relaxed);
    Response r;
    r.status = ResponseStatus::kRejected;
    r.payload = reason;
    Complete(&task, std::move(r));
  } else {
    queue_cv_.notify_one();
  }
}

std::future<Response> Executor::Submit(Request request) {
  Task task;
  task.request = std::move(request);
  std::future<Response> fut = task.promise.get_future();
  Enqueue(std::move(task));
  return fut;
}

void Executor::SubmitWithCallback(Request request,
                                  std::function<void(Response)> done) {
  Task task;
  task.request = std::move(request);
  task.done = std::move(done);
  Enqueue(std::move(task));
}

Response Executor::Call(Request request) {
  return Submit(std::move(request)).get();
}

bool Executor::RunOne() {
  Task task;
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop_front();
    stats_.queue_depth.store(queue_.size(), std::memory_order_relaxed);
  }
  Response r = Process(&task);
  stats_.requests_completed.fetch_add(1, std::memory_order_relaxed);
  Complete(&task, std::move(r));
  return true;
}

void Executor::WorkerLoop() {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lk(queue_mu_);
      queue_cv_.wait(lk, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping; leftovers rejected later
      if (stopping_) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      stats_.queue_depth.store(queue_.size(), std::memory_order_relaxed);
    }
    Response r = Process(&task);
    stats_.requests_completed.fetch_add(1, std::memory_order_relaxed);
    Complete(&task, std::move(r));
  }
}

Status Executor::LoadSchema(std::string_view source) {
  // schema_mu_ first (snapshot readers pin the catalog through it
  // without ever touching db_mu_), then the statement lock.
  std::lock_guard<std::shared_mutex> slk(schema_mu_);
  std::lock_guard<std::mutex> dlk(db_mu_);
  return db_->LoadSchema(source);
}

std::string Executor::SnapshotMetrics() {
  std::lock_guard<std::mutex> dlk(db_mu_);
  // Publish every already-durable staged commit first, so the committed-
  // transaction gauge and WAL counters agree with what clients were told.
  (void)db_->DrainCommits();
  return db_->SnapshotMetrics();
}

Response Executor::Process(Task* task) {
  const uint64_t picked_up_us = NowUs();

  Response resp;
  resp.metrics.queue_wait_us = picked_up_us - task->enqueue_us;

  auto session = sessions_.Find(task->request.session);
  if (session == nullptr) {
    ReapExpiredSessions();
    resp.status = ResponseStatus::kNoSession;
    resp.payload = "unknown or expired session";
    return resp;
  }
  std::unique_lock<std::mutex> slk(session->mu);
  if (session->closed) {
    resp.status = ResponseStatus::kNoSession;
    resp.payload = "session closed";
    return resp;
  }
  // Refresh before reaping: issuing a request *is* activity, so the
  // requester never counts as idle (the reaper also skips it because its
  // mutex is held here).
  session->last_active_ms.store(NowMs(), std::memory_order_relaxed);
  ReapExpiredSessions();

  bool first_statement = true;
  uint64_t stmt_index = 0;
  for (const std::string& text : task->request.statements) {
    auto parsed = ParseStatement(text);
    StatementResult result;
    if (!parsed.ok()) {
      result.status = parsed.status();
      stats_.statement_errors.fetch_add(1, std::memory_order_relaxed);
      resp.statements.push_back(std::move(result));
      resp.status = ResponseStatus::kError;
      break;
    }
    {
      // Request-scoped observability: mint this statement's identity and
      // install it thread-locally. Every instrumented subsystem below
      // (disk, buffer pool, eval engine, scheduler, WAL) attributes work
      // to it through RequestScope — trace events carry the trace id and
      // the cost accumulator collects the resource breakdown.
      obs::RequestContext ctx;
      // End-to-end tracing: a wire request carries the trace id the
      // client minted (statement i of the batch gets id + i), so the id
      // a remote `profile` returns is the one the client logged. Local
      // callers leave it 0 and get a server-minted id as before.
      ctx.trace_id =
          task->request.trace_id != 0
              ? task->request.trace_id + stmt_index
              : next_trace_id_.fetch_add(1, std::memory_order_relaxed) + 1;
      ++stmt_index;
      ctx.session_id = session->id.value;
      ctx.statement_seq = ++session->statement_seq;
      obs::StatementCost cost;
      // The request waited in the queue once; charge its first statement.
      if (first_statement) cost.queue_wait_us = resp.metrics.queue_wait_us;
      first_statement = false;
      obs::RequestScope scope(ctx, &cost);

      const bool is_profile =
          parsed->modifier == StatementModifier::kProfile;

      // Mutating statements (everything that is neither a read, an
      // abort — which only releases resources — nor `health`) are
      // refused while the server is degraded, and flip the server INTO
      // degraded mode when they die on a storage fault.
      const bool is_mutation =
          !IsReadOnlyStatement(*parsed) &&
          parsed->modifier != StatementModifier::kExplain &&
          parsed->kind != StatementKind::kAbort &&
          parsed->kind != StatementKind::kHealth &&
          parsed->kind != StatementKind::kMetricsHistory &&
          parsed->kind != StatementKind::kAlerts;

      // Latency includes the statement-lock wait: that contention is what
      // the lock-free snapshot path exists to avoid.
      const uint64_t t0 = NowUs();
      if (parsed->kind == StatementKind::kHealth) {
        // Lock-free by design: health must answer while storage is down.
        result.payload = HealthJson();
      } else if (parsed->kind == StatementKind::kMetricsHistory) {
        // Also lock-free: reads only the sampler's ring, so history is
        // inspectable in degraded mode and never blocks on a writer.
        result.payload = MetricsHistoryJson(
            parsed->class_name, static_cast<size_t>(parsed->count));
      } else if (parsed->kind == StatementKind::kAlerts) {
        result.payload = AlertsJson();
      } else if (is_mutation && degraded()) {
        stats_.degraded_rejects.fetch_add(1, std::memory_order_relaxed);
        std::string reason;
        {
          std::lock_guard<std::mutex> lk(degraded_mu_);
          reason = degraded_reason_;
        }
        result.status = Status::Unavailable(
            "server degraded (read-only): " + reason);
      } else if (parsed->modifier == StatementModifier::kExplain) {
        const uint64_t lk0 = NowUs();
        std::lock_guard<std::mutex> dlk(db_mu_);
        cost.lock_wait_excl_us += NowUs() - lk0;
        result = ExecuteExplain(session.get(), *parsed);
        stats_.explain_statements.fetch_add(1, std::memory_order_relaxed);
      } else if (IsReadOnlyStatement(*parsed)) {
        result = ExecuteReadStatement(session.get(), &*parsed);
      } else if (parsed->kind == StatementKind::kCommit) {
        result = ExecuteCommitStatement(session.get());
      } else {
        const uint64_t lk0 = NowUs();
        std::lock_guard<std::mutex> dlk(db_mu_);
        cost.lock_wait_excl_us += NowUs() - lk0;
        result = ExecuteStatement(session.get(), &*parsed);
      }
      // A mutation that died on a storage fault — a transient give-up
      // (kUnavailable) or a permanent write failure (kIoError) — means
      // the write path is gone: degrade to read-only rather than let
      // every subsequent mutation grind through the same retry budget.
      if (is_mutation && IsStorageFault(result.status)) {
        EnterDegraded(result.status);
      }

      const uint64_t dt = NowUs() - t0;
      cost.exec_us = dt;
      resp.metrics.exec_us += dt;
      stats_.RecordLatencyUs(dt);

      // Fold the statement's cost into the aggregates and, when it
      // qualifies, the slow-statement log.
      stats_.AccumulateCost(cost);
      session->acct.Add(cost);
      if (options_.slow_log_capacity > 0 && dt >= options_.slow_statement_us) {
        stats_.slow_statements.fetch_add(1, std::memory_order_relaxed);
      }
      slow_log_.MaybeRecord(ctx, text, dt, cost);

      if (is_profile) {
        stats_.profile_statements.fetch_add(1, std::memory_order_relaxed);
        // `profile` replaces the payload with the result + cost JSON.
        obs::JsonWriter w;
        w.BeginObject();
        w.Key("trace_id").Uint(ctx.trace_id);
        w.Key("session").Uint(ctx.session_id);
        w.Key("seq").Uint(ctx.statement_seq);
        w.Key("status").String(result.status.ok() ? "ok"
                                                  : result.status.ToString());
        w.Key("result").String(result.payload);
        w.Key("cost");
        w.BeginObject();
        cost.WriteFields(&w);
        w.EndObject();
        w.EndObject();
        result.payload = w.str();
      }
    }
    ++resp.metrics.statements_run;
    stats_.statements_executed.fetch_add(1, std::memory_order_relaxed);
    const bool failed = !result.status.ok();
    const bool abort = IsAbort(result.status);
    const bool unavailable = result.status.IsUnavailable();
    if (failed && !abort && !unavailable) {
      stats_.statement_errors.fetch_add(1, std::memory_order_relaxed);
    }
    if (abort) {
      stats_.txn_aborts.fetch_add(1, std::memory_order_relaxed);
      if (IsConflictAbort(result.status)) {
        stats_.txn_conflicts.fetch_add(1, std::memory_order_relaxed);
        ++session->conflicts;
      }
    }
    resp.statements.push_back(std::move(result));
    if (failed) {
      resp.status = abort         ? ResponseStatus::kAborted
                    : unavailable ? ResponseStatus::kUnavailable
                                  : ResponseStatus::kError;
      break;
    }
  }

  for (size_t i = 0; i < resp.statements.size(); ++i) {
    if (i > 0) resp.payload += '\n';
    resp.payload += resp.statements[i].status.ok()
                        ? resp.statements[i].payload
                        : resp.statements[i].status.ToString();
  }
  resp.metrics.session_ts = session->last_ts;
  session->last_active_ms.store(NowMs(), std::memory_order_relaxed);

  // Eager close raced this batch: the client's connection died while we
  // were executing. The manager already removed the session from its
  // table; roll back its transaction now instead of letting it linger to
  // idle-timeout. If this load misses a concurrent flag store,
  // CloseSessionEager's blocking fallback (which waits on the session
  // mutex we still hold) disposes the corpse instead; `closed` flips
  // under the mutex on whichever path wins, so it is rolled back exactly
  // once.
  bool dispose = false;
  if (session->disconnected.load(std::memory_order_seq_cst) &&
      !session->closed) {
    session->closed = true;
    dispose = true;
  }
  slk.unlock();
  if (dispose) {
    std::vector<std::shared_ptr<Session>> dead;
    dead.push_back(session);
    DisposeSessions(std::move(dead), /*expired=*/false);
  }
  return resp;
}

Result<InstanceId> Executor::Resolve(Session* s, const Target& t) {
  if (t.raw.valid()) return t.raw;
  auto it = s->bindings.find(t.name);
  if (it == s->bindings.end()) {
    return Status::NotFound("unknown name '" + t.name +
                            "' (bind with: create <class> as " + t.name +
                            ")");
  }
  return it->second;
}

StatementResult Executor::ExecuteReadStatement(Session* s, Statement* st) {
  // `fetch` reads only session-local cursor state (protected by the
  // session mutex, which the caller holds): no database, no lock.
  if (st->kind == StatementKind::kFetch) {
    StatementResult r;
    if (s->cursor_pos >= s->cursor.size()) {
      r.payload = "end";
      return r;
    }
    size_t take = std::min(static_cast<size_t>(st->count),
                           s->cursor.size() - s->cursor_pos);
    for (size_t i = 0; i < take; ++i) {
      if (i > 0) r.payload += ' ';
      r.payload += FormatInstance(s->cursor[s->cursor_pos + i]);
    }
    s->cursor_pos += take;
    return r;
  }

  // MVCC snapshot first: resolve against the version chains with no
  // statement lock and no timestamp-ordering marks. A snapshot-eligible
  // statement that misses here is counted in snapshot_fallbacks and
  // falls back to the statement mutex below.
  {
    std::shared_lock<std::shared_mutex> slk(schema_mu_);
    ReaderScope readers(&stats_);
    std::optional<StatementResult> snap = TryExecuteReadSnapshot(s, st);
    if (snap.has_value()) {
      stats_.snapshot_reads.fetch_add(1, std::memory_order_relaxed);
      if (auto* c = obs::RequestScope::CurrentCost()) c->snapshot_path = true;
      return std::move(*snap);
    }
  }

  // The snapshot cannot answer (derived attribute, `members`, a read
  // inside an open transaction, unproven history): run the statement
  // under the statement mutex. Its wait is a read's wait, so it is
  // charged to the shared bucket.
  stats_.fast_path_fallbacks.fetch_add(1, std::memory_order_relaxed);
  const uint64_t lk0 = NowUs();
  std::lock_guard<std::mutex> dlk(db_mu_);
  ChargeLockWait(/*read_only=*/true, NowUs() - lk0);
  return ExecuteStatement(s, st);
}

std::optional<StatementResult> Executor::TryExecuteReadSnapshot(Session* s,
                                                                Statement* st) {
  // Eligible: auto-commit reads only. A `get` inside an open transaction
  // must see the transaction's own uncommitted writes and take part in
  // concurrency control; `members` needs subtype predicates, which are
  // derived and never chained. Ineligible statements return nullopt
  // without counting a snapshot fallback.
  StatementResult r;
  // Miss on an eligible statement: record the fallback, then fall
  // back to the statement mutex.
  auto miss = [this]() -> std::optional<StatementResult> {
    stats_.snapshot_fallbacks.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  };
  switch (st->kind) {
    case StatementKind::kGet:
    case StatementKind::kPeek: {
      if (st->kind == StatementKind::kGet && s->txn != nullptr) {
        return std::nullopt;
      }
      auto id = Resolve(s, st->a);
      if (!id.ok()) {
        r.status = id.status();
        return r;
      }
      txn::SnapshotIndex::Snapshot snap = db_->AcquireSnapshot();
      auto v = db_->TryGetSnapshot(snap, *id, st->attr_a);
      if (!v.has_value()) return miss();
      if (!v->ok()) {
        // Only definitive errors (unknown attribute) come back engaged.
        r.status = v->status();
        return r;
      }
      r.payload = (*v)->ToString();
      return r;
    }
    case StatementKind::kInstances: {
      txn::SnapshotIndex::Snapshot snap = db_->AcquireSnapshot();
      auto ids = db_->TryInstancesOfSnapshot(snap, st->class_name);
      if (!ids.has_value()) return miss();
      if (!ids->ok()) {
        r.status = ids->status();
        return r;
      }
      s->cursor = std::move(**ids);
      s->cursor_pos = 0;
      r.payload = "count=" + std::to_string(s->cursor.size());
      return r;
    }
    case StatementKind::kSelect: {
      txn::SnapshotIndex::Snapshot snap = db_->AcquireSnapshot();
      auto ids = db_->TrySelectWhereSnapshot(snap, st->class_name,
                                             st->predicate);
      if (!ids.has_value()) return miss();
      if (!ids->ok()) {
        r.status = ids->status();
        return r;
      }
      s->cursor = std::move(**ids);
      s->cursor_pos = 0;
      r.payload = "count=" + std::to_string(s->cursor.size());
      return r;
    }
    default:
      return std::nullopt;
  }
}

StatementResult Executor::ExecuteCommitStatement(Session* s) {
  StatementResult r;
  if (s->txn == nullptr) {
    r.status = Status::InvalidArgument("no open transaction");
    return r;
  }
  // Phase 1 (exclusive): stage the delta in the WAL's group-commit queue.
  uint64_t ticket = 0;
  {
    const uint64_t lk0 = NowUs();
    std::lock_guard<std::mutex> dlk(db_mu_);
    ChargeLockWait(/*read_only=*/false, NowUs() - lk0);
    auto staged = s->txn->StageCommit();
    if (!staged.ok()) {
      s->txn.reset();
      ++s->aborts;
      r.status = staged.status();
      return r;
    }
    ticket = *staged;
  }
  // Phase 2 (no lock): wait for the batch flush. Other statements — and
  // other commits, which batch into the same WAL write — run meanwhile.
  Status durable = s->txn->WaitCommitDurable(ticket);
  // Phase 3 (exclusive): publish, or record the abort on flush failure.
  Status status;
  {
    const uint64_t lk0 = NowUs();
    std::lock_guard<std::mutex> dlk(db_mu_);
    ChargeLockWait(/*read_only=*/false, NowUs() - lk0);
    status = s->txn->FinishCommit(ticket, std::move(durable));
  }
  s->txn.reset();
  if (status.ok()) {
    ++s->commits;
    r.payload = "committed";
    r.status = status;
  } else {
    ++s->aborts;
    r.status = status;
  }
  return r;
}

StatementResult Executor::ExecuteExplain(Session* s, const Statement& st) {
  StatementResult r;
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("explain").String(StatementKindName(st.kind));

  switch (st.kind) {
    case StatementKind::kGet:
    case StatementKind::kPeek:
    case StatementKind::kSet: {
      auto id = Resolve(s, st.a);
      if (!id.ok()) {
        r.status = id.status();
        return r;
      }
      auto info = db_->ExplainAttr(*id, st.attr_a);
      if (!info.ok()) {
        r.status = info.status();
        return r;
      }
      w.Key("target").String(FormatInstance(*id));
      w.Key("attr").String(st.attr_a);
      w.Key("class").String(info->class_name);
      w.Key("attr_kind").String(info->attr_kind);
      w.Key("block").Uint(info->block);
      w.Key("resident").Bool(info->resident);
      w.Key("cached").Bool(info->cached);
      w.Key("out_of_date").Bool(info->out_of_date);
      w.Key("subscribed").Bool(info->subscribed);
      w.Key("depends_on");
      w.BeginArray();
      for (const auto& d : info->depends_on) w.String(d);
      w.EndArray();
      w.Key("dependents");
      w.BeginArray();
      for (const auto& d : info->dependents) w.String(d);
      w.EndArray();
      w.Key("policy").String(
          sched::SchedulingPolicyToString(db_->options().policy));
      // Plan hint: what executing this statement would actually do.
      std::string action;
      if (st.kind == StatementKind::kSet) {
        action = "assign";
        if (!info->dependents.empty()) {
          action += "; invalidate " + std::to_string(info->dependents.size()) +
                    " dependent attribute(s)";
        }
      } else if (!info->resident) {
        action = "fault block " + std::to_string(info->block) +
                 " from disk, then " +
                 (info->out_of_date ? std::string("re-evaluate via rule")
                                    : std::string("read stored value"));
      } else if (info->out_of_date) {
        action = "re-evaluate via rule (value out of date)";
      } else {
        action = "read cached value";
      }
      w.Key("action").String(action);
      break;
    }
    case StatementKind::kSelect:
    case StatementKind::kInstances:
    case StatementKind::kMembers: {
      w.Key("class").String(st.class_name);
      if (st.kind == StatementKind::kSelect) {
        w.Key("predicate").String(st.predicate);
      }
      w.Key("action").String(st.kind == StatementKind::kMembers
                                 ? "enumerate subtype members"
                                 : "scan instances of class");
      break;
    }
    case StatementKind::kCreate: {
      w.Key("class").String(st.class_name);
      if (!st.binding.empty()) w.Key("binding").String(st.binding);
      w.Key("action").String("allocate instance; initialize attributes");
      break;
    }
    case StatementKind::kReorganize: {
      // Report the policy that *would* run; `explain` must not mutate the
      // configured selection.
      const char* policy =
          cluster::PolicyKindName(db_->cluster_policy());
      if (!st.class_name.empty()) {
        if (auto kind = cluster::PolicyKindFromName(st.class_name)) {
          policy = cluster::PolicyKindName(*kind);
        }
      }
      w.Key("policy").String(policy);
      w.Key("instances").Uint(db_->instance_count());
      w.Key("action").String(
          "exclusive maintenance: fold usage statistics, repack every "
          "instance into fresh blocks, recompute worst-case estimates");
      break;
    }
    default: {
      // begin/commit/abort/fetch/delete/connect/disconnect: nothing
      // plan-shaped to report beyond session state.
      w.Key("txn_open").Bool(s->txn != nullptr);
      w.Key("action").String("session/transaction operation");
      break;
    }
  }

  w.EndObject();
  r.payload = w.str();
  return r;
}

StatementResult Executor::ExecuteStatement(Session* s, Statement* st) {
  StatementResult r;
  core::Transaction* txn = s->txn.get();

  // Collapses the session transaction once an operation aborted it (the
  // core has already rolled it back; the unique_ptr just holds a husk).
  auto note_abort = [&](const Status& status) {
    if (IsAbort(status) && s->txn != nullptr) {
      s->txn.reset();
      ++s->aborts;
    }
    r.status = status;
  };

  switch (st->kind) {
    case StatementKind::kBegin: {
      if (txn != nullptr) {
        r.status = Status::AlreadyExists(
            "transaction already open (commit or abort first)");
        break;
      }
      s->txn = db_->Begin();
      ++s->txns_begun;
      s->last_ts = s->txn->ts();
      r.payload = "ts=" + std::to_string(s->last_ts);
      break;
    }
    case StatementKind::kCommit: {
      if (txn == nullptr) {
        r.status = Status::InvalidArgument("no open transaction");
        break;
      }
      Status status = txn->Commit();
      s->txn.reset();
      if (status.ok()) {
        ++s->commits;
        r.payload = "committed";
        r.status = status;
      } else {
        ++s->aborts;
        r.status = status;
      }
      break;
    }
    case StatementKind::kAbort: {
      if (txn == nullptr) {
        r.status = Status::InvalidArgument("no open transaction");
        break;
      }
      Status status = txn->Undo();
      s->txn.reset();
      ++s->aborts;
      r.status = status.ok() || status.IsTransactionAborted() ? Status::OK()
                                                              : status;
      r.payload = "rolled back";
      break;
    }
    case StatementKind::kCreate: {
      auto id = txn != nullptr ? txn->Create(st->class_name)
                               : db_->Create(st->class_name);
      if (!id.ok()) {
        note_abort(id.status());
        break;
      }
      if (!st->binding.empty()) s->bindings[st->binding] = *id;
      r.payload = FormatInstance(*id);
      break;
    }
    case StatementKind::kDelete: {
      auto id = Resolve(s, st->a);
      if (!id.ok()) {
        r.status = id.status();
        break;
      }
      Status status = txn != nullptr ? txn->Delete(*id) : db_->Delete(*id);
      if (!status.ok()) {
        note_abort(status);
        break;
      }
      r.payload = "ok";
      break;
    }
    case StatementKind::kSet: {
      auto id = Resolve(s, st->a);
      if (!id.ok()) {
        r.status = id.status();
        break;
      }
      SessionEvalContext ctx(db_, txn, *id);
      auto value = lang::Interpreter::EvalExpr(*st->expr, &ctx);
      if (!value.ok()) {
        note_abort(value.status());
        break;
      }
      Status status = txn != nullptr
                          ? txn->Set(*id, st->attr_a, std::move(*value))
                          : db_->Set(*id, st->attr_a, std::move(*value));
      if (!status.ok()) {
        note_abort(status);
        break;
      }
      r.payload = "ok";
      break;
    }
    case StatementKind::kGet: {
      auto id = Resolve(s, st->a);
      if (!id.ok()) {
        r.status = id.status();
        break;
      }
      auto v = txn != nullptr ? txn->Get(*id, st->attr_a)
                              : db_->Get(*id, st->attr_a);
      if (!v.ok()) {
        note_abort(v.status());
        break;
      }
      r.payload = v->ToString();
      break;
    }
    case StatementKind::kPeek: {
      auto id = Resolve(s, st->a);
      if (!id.ok()) {
        r.status = id.status();
        break;
      }
      // Peek is an auto-commit, non-marking read regardless of any open
      // transaction (polling semantics; see Database::Peek).
      auto v = db_->Peek(*id, st->attr_a);
      if (!v.ok()) {
        note_abort(v.status());
        break;
      }
      r.payload = v->ToString();
      break;
    }
    case StatementKind::kConnect: {
      auto a = Resolve(s, st->a);
      auto b = Resolve(s, st->b);
      if (!a.ok() || !b.ok()) {
        r.status = a.ok() ? b.status() : a.status();
        break;
      }
      auto edge = txn != nullptr
                      ? txn->Connect(*a, st->attr_a, *b, st->attr_b)
                      : db_->Connect(*a, st->attr_a, *b, st->attr_b);
      if (!edge.ok()) {
        note_abort(edge.status());
        break;
      }
      r.payload = "ok";
      break;
    }
    case StatementKind::kDisconnect: {
      auto a = Resolve(s, st->a);
      auto b = Resolve(s, st->b);
      if (!a.ok() || !b.ok()) {
        r.status = a.ok() ? b.status() : a.status();
        break;
      }
      auto edges = db_->EdgesOf(*a, st->attr_a);
      auto neighbors = db_->NeighborsOf(*a, st->attr_a);
      if (!edges.ok() || !neighbors.ok()) {
        r.status = edges.ok() ? neighbors.status() : edges.status();
        break;
      }
      EdgeId victim;
      for (size_t i = 0; i < edges->size() && i < neighbors->size(); ++i) {
        if ((*neighbors)[i] == *b) {
          victim = (*edges)[i];
          break;
        }
      }
      if (!victim.valid()) {
        r.status = Status::NotFound("no edge between the given ports");
        break;
      }
      Status status =
          txn != nullptr ? txn->Disconnect(victim) : db_->Disconnect(victim);
      if (!status.ok()) {
        note_abort(status);
        break;
      }
      r.payload = "ok";
      break;
    }
    case StatementKind::kSelect:
    case StatementKind::kInstances:
    case StatementKind::kMembers: {
      Result<std::vector<InstanceId>> ids =
          st->kind == StatementKind::kSelect
              ? db_->SelectWhere(st->class_name, st->predicate)
              : st->kind == StatementKind::kInstances
                    ? db_->InstancesOf(st->class_name)
                    : db_->MembersOfSubtype(st->class_name);
      if (!ids.ok()) {
        note_abort(ids.status());
        break;
      }
      s->cursor = std::move(*ids);
      s->cursor_pos = 0;
      r.payload = "count=" + std::to_string(s->cursor.size());
      break;
    }
    case StatementKind::kFetch: {
      if (s->cursor_pos >= s->cursor.size()) {
        r.payload = "end";
        break;
      }
      size_t take = std::min(static_cast<size_t>(st->count),
                             s->cursor.size() - s->cursor_pos);
      for (size_t i = 0; i < take; ++i) {
        if (i > 0) r.payload += ' ';
        r.payload += FormatInstance(s->cursor[s->cursor_pos + i]);
      }
      s->cursor_pos += take;
      break;
    }
    case StatementKind::kHealth: {
      // Normally short-circuited lock-free in Process(); kept here so a
      // direct call still answers.
      r.payload = HealthJson();
      break;
    }
    case StatementKind::kMetricsHistory: {
      // Same: Process() short-circuits these lock-free.
      r.payload =
          MetricsHistoryJson(st->class_name, static_cast<size_t>(st->count));
      break;
    }
    case StatementKind::kAlerts: {
      r.payload = AlertsJson();
      break;
    }
    case StatementKind::kReorganize: {
      if (!st->class_name.empty()) {
        auto kind = cluster::PolicyKindFromName(st->class_name);
        if (!kind) {
          r.status = Status::InvalidArgument(
              "unknown clustering policy '" + st->class_name +
              "' (greedy_usage | dstc | typegraph)");
          break;
        }
        db_->set_cluster_policy(*kind);
      }
      // Publish every durably-flushed commit first: reorganisation reads
      // the whole store, so it must see the acknowledged state.
      Status status = db_->DrainCommits();
      if (status.ok()) status = db_->Reorganize();
      if (!status.ok()) {
        r.status = status;
        break;
      }
      const core::ClusterStats& cs = db_->cluster_stats();
      obs::JsonWriter w;
      w.BeginObject();
      w.Key("policy").String(cluster::PolicyKindName(db_->cluster_policy()));
      w.Key("reorg_runs").Uint(cs.reorg_runs);
      w.Key("instances").Uint(cs.instances_placed);
      w.Key("clusters").Uint(cs.clusters_produced);
      w.Key("blocks").Uint(cs.blocks_produced);
      w.Key("fill_factor_pct")
          .Uint(static_cast<uint64_t>(cs.fill_factor * 100.0 + 0.5));
      w.Key("placement_us").Uint(cs.placement_us);
      w.Key("blocks_read").Uint(cs.reorg_blocks_read);
      w.Key("blocks_written").Uint(cs.reorg_blocks_written);
      w.EndObject();
      r.payload = w.str();
      break;
    }
  }
  return r;
}

// --- Degraded read-only mode -------------------------------------------------

void Executor::EnterDegraded(const Status& cause) {
  if (degraded_.exchange(true, std::memory_order_acq_rel)) return;
  {
    std::lock_guard<std::mutex> lk(degraded_mu_);
    degraded_reason_ = cause.ToString();
    degraded_since_ms_ = NowMs();
  }
  stats_.degraded.store(1, std::memory_order_relaxed);
  stats_.degraded_entered.fetch_add(1, std::memory_order_relaxed);
  probe_cv_.notify_all();
}

void Executor::ExitDegraded() {
  if (!degraded_.exchange(false, std::memory_order_acq_rel)) return;
  {
    std::lock_guard<std::mutex> lk(degraded_mu_);
    degraded_reason_.clear();
    degraded_since_ms_ = 0;
  }
  stats_.degraded.store(0, std::memory_order_relaxed);
  stats_.degraded_exited.fetch_add(1, std::memory_order_relaxed);
}

bool Executor::ProbeOnce() {
  stats_.degraded_probes.fetch_add(1, std::memory_order_relaxed);
  // Raw scratch-block round trip on the database's disk. This bypasses
  // the buffer pool and WAL deliberately: the question is whether the
  // device answers, not whether any cached state is consistent.
  storage::SimulatedDisk* disk = db_->disk();
  BlockId scratch = disk->Allocate();
  if (!scratch.valid()) return false;
  const std::string payload = "health-probe";
  bool healthy = disk->Write(scratch, payload).ok();
  if (healthy) {
    Result<std::string> back = disk->Read(scratch);
    healthy = back.ok() && *back == payload;
  }
  (void)disk->Free(scratch);
  if (healthy) {
    // Storage answers again: un-wedge the WAL (it refuses every flush
    // after a failed one until told the device is back) and resume
    // read-write.
    if (auto* wal = db_->mutable_wal()) wal->ClearWedge();
    if (degraded()) ExitDegraded();
  }
  return healthy;
}

void Executor::ProbeLoop() {
  std::unique_lock<std::mutex> lk(probe_mu_);
  for (;;) {
    // Parked until the server degrades (or shuts down): a healthy server
    // pays nothing for the probe thread.
    probe_cv_.wait(lk, [this] { return probe_stop_ || degraded(); });
    if (probe_stop_) return;
    lk.unlock();
    ProbeOnce();
    lk.lock();
    if (probe_stop_) return;
    if (degraded()) {
      probe_cv_.wait_for(
          lk, std::chrono::milliseconds(options_.degraded_probe_interval_ms),
          [this] { return probe_stop_; });
    }
  }
}

std::string Executor::HealthJson() {
  auto load = [](const std::atomic<uint64_t>& a) {
    return a.load(std::memory_order_relaxed);
  };
  obs::JsonWriter w;
  w.BeginObject();
  const bool deg = degraded();
  w.Key("status").String(deg ? "degraded" : "ok");
  w.Key("degraded").Bool(deg);
  {
    std::lock_guard<std::mutex> lk(degraded_mu_);
    w.Key("reason").String(degraded_reason_);
    w.Key("degraded_since_ms").Uint(degraded_since_ms_);
  }
  w.Key("degraded_entered").Uint(load(stats_.degraded_entered));
  w.Key("degraded_exited").Uint(load(stats_.degraded_exited));
  w.Key("probes").Uint(load(stats_.degraded_probes));
  w.Key("rejected_mutations").Uint(load(stats_.degraded_rejects));
  w.Key("active_sessions").Uint(sessions_.active_count());
  w.Key("queue_depth").Uint(load(stats_.queue_depth));
  w.Key("workers").Uint(options_.num_workers);
  w.EndObject();
  return w.str();
}

}  // namespace cactis::server
