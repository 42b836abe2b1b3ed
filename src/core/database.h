// Database: the public API of the Cactis object-oriented DBMS.
//
// A Database owns the full stack: simulated disk, buffer pool, record
// store, object cache, catalog, chunk scheduler, evaluation engine,
// timestamp concurrency control, and the delta/version store.
//
// The data-manipulation primitives are the paper's (section 2.2):
// creating and deleting object instances, establishing and breaking
// relationships, retrieving and replacing attribute values — plus the
// meta-action Undo, version management, and maintenance (clustering
// reorganisation). All mutation happens inside a Transaction; the
// Database-level convenience methods run one-operation auto-commit
// transactions.
//
// THREADING: mutating entry points are single-threaded — concurrent
// clients go through the service layer (src/server), whose Executor
// serializes mutating statements behind the exclusive side of a
// reader/writer statement lock. Read-only statements may instead run
// concurrently under the shared side, but only through the explicitly
// shared entry points (TryGetShared, InstancesOfShared,
// TrySelectWhereShared, TryMembersOfSubtypeShared): those touch nothing
// but already-cached, up-to-date state (plus the atomic read_ts marks)
// and report a miss so the caller can retry under the exclusive lock.
// Every other entry point — including SnapshotMetrics(), which reads
// live counters — is exclusive-only; a ThreadSharedGuard aborts with a
// diagnostic on any violation (use server::Executor::SnapshotMetrics()
// when a server is running).
//
// Usage:
//
//   cactis::core::Database db;
//   db.LoadSchema("object class task is ... end object;");
//   auto t = db.Begin();
//   auto id = t->Create("task");
//   t->Set(*id, "effort", cactis::Value::Int(3));
//   t->Commit();
//   auto v = db.Get(*id, "total_effort");   // derived, evaluated on demand

#ifndef CACTIS_CORE_DATABASE_H_
#define CACTIS_CORE_DATABASE_H_

#include <deque>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/policy.h"
#include "common/clock.h"
#include "common/ids.h"
#include "common/result.h"
#include "common/thread_guard.h"
#include "common/value.h"
#include "core/eval_engine.h"
#include "core/instance.h"
#include "core/object_cache.h"
#include "lang/builtins.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sched/decaying_average.h"
#include "sched/scheduler.h"
#include "schema/catalog.h"
#include "storage/buffer_pool.h"
#include "storage/record_store.h"
#include "storage/simulated_disk.h"
#include "txn/checkpoint.h"
#include "txn/delta.h"
#include "txn/snapshot_index.h"
#include "txn/timestamp_cc.h"
#include "txn/version_store.h"
#include "txn/wal.h"

namespace cactis::core {

struct DatabaseOptions {
  /// Bytes per simulated disk block, checksum frame included (records
  /// get BufferPool::usable_block_bytes() of them).
  size_t block_size = 4096;
  /// Buffer pool capacity in blocks.
  size_t buffer_capacity = 64;
  /// Traversal scheduling policy (paper 2.3; baselines for experiment E4).
  sched::SchedulingPolicy policy = sched::SchedulingPolicy::kGreedyAdaptive;
  /// Update decaying averages from observed I/O (off = cluster-time
  /// estimates only; the ablation of experiment E6).
  bool adaptive_stats = true;
  /// Weight of new samples in the decaying averages.
  double decay_alpha = 0.25;
  /// Enforce timestamp-ordering concurrency control.
  bool timestamp_cc = true;
  /// Maximum constraint-recovery rounds per operation before giving up.
  int max_recovery_rounds = 4;
  /// Iteration cap for fixed-point evaluation of `circular` attributes.
  int max_fixpoint_iterations = 100;
  /// Journal committed deltas (and version meta-actions) to a write-ahead
  /// log before acknowledging them, enabling Recover() after a crash.
  bool enable_wal = true;
  /// Enable registry-owned metric instruments (transaction counters,
  /// delta-size histograms). Subsystem stats structs always count;
  /// disabling this only gates the registry's own instruments.
  bool enable_metrics = true;
  /// Record span events (chunk runs, block traffic, WAL appends,
  /// transaction lifecycle) into the trace ring. Off by default: tracing
  /// is a debugging/analysis aid, not a production counter.
  bool enable_tracing = false;
  /// Trace ring capacity in events (oldest events drop beyond this).
  size_t trace_capacity = obs::TraceSink::kDefaultCapacity;
  /// Prune committed deltas (and their snapshot-index versions) once the
  /// retained history exceeds this many transactions. 0 disables pruning
  /// (history grows without bound). The pruner never passes the oldest
  /// live snapshot, the oldest named version, or the current checkout
  /// position.
  size_t version_prune_threshold = 1024;
  /// Recent deltas always retained by a prune: bounds how far Undo can
  /// walk back after pruning and absorbs the snapshot-acquire race.
  size_t version_prune_slack = 128;
  /// Clustering policy Reorganize() packs with (cluster/policy.h).
  cluster::PolicyKind cluster_policy = cluster::kDefaultPolicy;
  /// Weight of the newest observation period in the clustering decayed
  /// counters (the DSTC statistic). High on purpose — the point of the
  /// decayed policy is that the *recent* access pattern dictates
  /// placement; at 0.8 one period of silence costs a counter 80% of its
  /// weight. Distinct from decay_alpha, which smooths I/O estimates and
  /// wants the opposite bias (stability).
  double cluster_decay_alpha = 0.8;
};

/// Counters for the clustering subsystem (metrics group "cluster").
/// "Last run" fields describe the most recent Reorganize().
struct ClusterStats {
  uint64_t reorg_runs = 0;
  uint64_t stat_folds = 0;            // observation periods closed
  uint64_t instances_placed = 0;      // last run
  uint64_t clusters_produced = 0;     // last run: placement indices
  uint64_t blocks_produced = 0;       // last run
  double fill_factor = 0.0;           // last run, 0..1 of usable bytes
  uint64_t placement_us = 0;          // last run: policy Place() wall time
  uint64_t reorg_blocks_read = 0;     // last run: ApplyPlacement disk reads
  uint64_t reorg_blocks_written = 0;  // last run: ApplyPlacement disk writes
  // Decayed-vs-raw divergence at the last fold: when the decayed total
  // is far below the raw total, history no longer matches the present
  // access pattern (the regime where DstcPolicy beats GreedyUsage).
  uint64_t raw_access_total = 0;
  double decayed_access_total = 0.0;
  // Epoch recorded by Reorganize() at completion (cumulative disk reads
  // and traversal crossings, the rewrite's own I/O excluded): the origin
  // the drift watchdog measures its post-reorg blocks/traversal figure
  // from.
  uint64_t post_reorg_disk_reads = 0;
  uint64_t post_reorg_crossings = 0;
  void ExportTo(obs::MetricsGroup* g) const;
};

class Database;

/// One transaction. Obtained from Database::Begin(); aborted on
/// destruction if still open. Not thread-safe (Cactis concurrency is the
/// paper's simulated multi-user interleaving).
class Transaction {
 public:
  ~Transaction();
  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  TxnId id() const { return id_; }
  uint64_t ts() const { return ts_; }
  bool open() const { return open_; }
  bool aborted() const { return aborted_; }

  /// Creates an instance of the named class. Its constraints and subtype
  /// predicates are established immediately.
  Result<InstanceId> Create(const std::string& class_name);

  /// Deletes an instance, first breaking all its relationships.
  Status Delete(InstanceId id);

  /// Replaces an intrinsic attribute value. Derived dependents are marked
  /// out of date; important ones are re-evaluated and constraints checked.
  Status Set(InstanceId id, const std::string& attr, Value value);

  /// Retrieves an attribute value, evaluating it first when it is a
  /// derived attribute that is out of date. Marks the attribute as
  /// important ("the user has asked the database to retrieve it").
  Result<Value> Get(InstanceId id, const std::string& attr);

  /// Establishes a relationship between a plug port of one instance and a
  /// socket port of another (same relationship type).
  Result<EdgeId> Connect(InstanceId a, const std::string& a_port,
                         InstanceId b, const std::string& b_port);

  /// Breaks a relationship.
  Status Disconnect(EdgeId edge);

  /// Commits; the transaction's delta is appended to the version history.
  /// Equivalent to StageCommit + WaitCommitDurable + FinishCommit.
  Status Commit();

  // Split-phase commit for the service layer's group-commit path: Stage
  // under the exclusive statement lock, wait for durability WITHOUT the
  // lock (so other statements proceed while the WAL flush leader is on
  // the disk), then finish under the exclusive lock again.

  /// Stages the commit in the WAL's group-commit queue and closes the
  /// transaction. Returns the WAL ticket, or 0 when no journaling was
  /// needed (empty delta or WAL disabled) and the commit completed here.
  Result<uint64_t> StageCommit();

  /// Blocks until ticket's batch is flushed; pass the result to
  /// FinishCommit. Must NOT be called under the statement lock.
  Status WaitCommitDurable(uint64_t ticket);

  /// Publishes (or, on flush failure, aborts) the staged commit. Returns
  /// the overall commit status.
  Status FinishCommit(uint64_t ticket, Status durable);

  /// The Undo meta-action: rolls this transaction back. "This meta-action
  /// allows the user to freely explore the database, knowing that no
  /// actions need have permanent effect."
  Status Undo();

 private:
  friend class Database;
  friend class RuleContext;
  Transaction(Database* db, TxnId id, uint64_t ts)
      : db_(db), id_(id), ts_(ts) {}

  Database* db_;
  TxnId id_;
  uint64_t ts_;
  bool open_ = true;
  bool aborted_ = false;
  txn::TransactionDelta delta_;
  // Instances this transaction passed CheckWrite for; their pending-
  // writer marks are released when the commit stages or the txn rolls
  // back. Kept here (not derived from delta_) so release is exactly
  // symmetric with the CC checks even when an op fails after the check.
  std::vector<InstanceId> cc_writes_;
};

class Database {
 public:
  explicit Database(DatabaseOptions options = DatabaseOptions());
  ~Database();
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // --- Schema ---------------------------------------------------------

  schema::Catalog* catalog() { return &catalog_; }
  const schema::Catalog& catalog() const { return catalog_; }
  lang::BuiltinRegistry* builtins() { return &builtins_; }

  /// Loads data-language schema source (classes, subtypes).
  Status LoadSchema(std::string_view source);

  /// Dynamic type extension with live instances: appends a derived
  /// attribute / constraint / subtype predicate to an existing class.
  /// Cached instances migrate immediately, stored ones lazily on load.
  Result<size_t> ExtendClassWithDerived(const std::string& class_name,
                                        const std::string& attr_name,
                                        ValueType type,
                                        const std::string& rule_source);
  Result<size_t> ExtendClassWithConstraint(
      const std::string& class_name, const std::string& constraint_name,
      const std::string& predicate_source,
      const std::string& recovery_source = "");
  Result<SubtypeId> DefineSubtype(const std::string& subtype_name,
                                  const std::string& class_name,
                                  const std::string& predicate_source);

  // --- Transactions -----------------------------------------------------

  std::unique_ptr<Transaction> Begin();

  // Auto-commit conveniences.
  Result<InstanceId> Create(const std::string& class_name);
  Status Delete(InstanceId id);
  Status Set(InstanceId id, const std::string& attr, Value value);
  Result<Value> Get(InstanceId id, const std::string& attr);
  Result<EdgeId> Connect(InstanceId a, const std::string& a_port,
                         InstanceId b, const std::string& b_port);
  Status Disconnect(EdgeId edge);

  /// Like Get, but does not mark the attribute important: the value is
  /// brought up to date for this read, yet future invalidations will not
  /// eagerly re-evaluate it. For polling reads (e.g. the make facility)
  /// where sticky importance would force evaluation against
  /// partially-updated inputs.
  Result<Value> Peek(InstanceId id, const std::string& attr);

  // --- Undo / versions ---------------------------------------------------

  /// Rolls back the most recently committed transaction.
  Status UndoLast();

  /// Names the current state.
  Result<VersionId> CreateVersion(const std::string& name);

  /// Moves the database to a named version (backwards via undo deltas,
  /// forwards via redo deltas).
  Status CheckoutVersion(const std::string& name);

  // --- Crash recovery ----------------------------------------------------

  /// Rebuilds database state from the write-ahead log of another disk
  /// (typically the platter of a crashed database). Must be called on a
  /// fresh database after LoadSchema with the same schema source the
  /// crashed database used (catalog ids are deterministic). Committed
  /// transactions are redone in order; an entry torn by the crash is
  /// discarded, so the result is exactly the state acknowledged before the
  /// failure. The replayed events are re-journaled to this database's own
  /// WAL, so the recovered database is itself durable.
  Status Recover(const storage::SimulatedDisk& platter);

  /// Writes a checkpoint: a consistent snapshot of the whole database to
  /// the reserved platter region (txn/checkpoint.h), then truncates the
  /// WAL past the checkpoint LSN. Recovery afterwards is load-image +
  /// replay-tail, O(WAL tail) instead of O(history). Crash-safe: a crash
  /// at any write during checkpointing recovers to either the previous or
  /// the new checkpoint, never garbage. Requires the WAL; exclusive lock.
  Status Checkpoint();

  /// Number of transactions in the committed history (the crash-point
  /// harness compares this against its commit oracle).
  uint64_t committed_transactions() const { return versions_.end(); }

  /// The write-ahead log, or null when options.enable_wal is false.
  /// Exposed for the recovery bench (WAL write overhead) and tests.
  const txn::WriteAheadLog* wal() const { return wal_.get(); }
  /// Mutable WAL access for tests (retry policies, truncation state).
  txn::WriteAheadLog* mutable_wal() { return wal_.get(); }

  /// The checkpoint store, or null when the WAL is disabled (checkpoints
  /// are meaningless without a journal to truncate).
  const txn::CheckpointStore* checkpoint_store() const { return ckpt_.get(); }

  /// Bytes retained by all committed deltas (experiment E7).
  size_t delta_bytes() const { return versions_.TotalDeltaBytes(); }
  std::vector<std::string> VersionNames() const {
    return versions_.VersionNames();
  }

  // --- Queries -----------------------------------------------------------

  Result<std::vector<InstanceId>> InstancesOf(const std::string& class_name);

  /// Current members of a predicate subtype; predicates are (re)evaluated
  /// on demand, so the answer reflects dynamic membership migration.
  Result<std::vector<InstanceId>> MembersOfSubtype(const std::string& name);

  /// The class of a live instance, from the in-memory directory: never
  /// faults a block. NotFound for an id with no live instance.
  Result<ClassId> ClassOf(InstanceId id);

  // --- Shared (concurrent) read path --------------------------------------
  //
  // These entry points may be called from any number of threads holding
  // the *shared* side of the service layer's statement lock. They answer
  // only from already-cached, up-to-date state; a disengaged optional
  // means "fast path miss — retry under the exclusive lock", never an
  // error. An engaged optional carries exactly the result the exclusive
  // path would have produced.

  /// Shared-path Get/Peek. `t` may be null (auto-commit read; a fresh
  /// timestamp is issued for the CC check). `subscribe` distinguishes
  /// Get (true) from Peek (false); a Get of a not-yet-subscribed derived
  /// attribute misses, because subscribing mutates the instance.
  std::optional<Result<Value>> TryGetShared(Transaction* t, InstanceId id,
                                            const std::string& attr,
                                            bool subscribe);

  /// Shared-path InstancesOf. Never misses: the class index is only
  /// reshaped under the exclusive lock.
  Result<std::vector<InstanceId>> InstancesOfShared(
      const std::string& class_name);

  /// Shared-path MembersOfSubtype. Misses when any member's predicate is
  /// out of date (the exclusive path would re-evaluate it).
  std::optional<Result<std::vector<InstanceId>>> TryMembersOfSubtypeShared(
      const std::string& name);

  /// Shared-path SelectWhere. Misses when any touched instance is not
  /// cached or any needed derived value is out of date.
  std::optional<Result<std::vector<InstanceId>>> TrySelectWhereShared(
      const std::string& class_name, const std::string& predicate_source);

  /// Publishes every commit whose WAL batch has been flushed. Exclusive
  /// lock required. Called by the service layer before reading state that
  /// depends on the committed history (version meta-actions, metrics
  /// snapshots, shutdown).
  Status DrainCommits();

  // --- MVCC snapshot read path --------------------------------------------
  //
  // Unlike the shared path above, these entry points take NO statement
  // lock at all (neither side) and never touch the timestamp-ordering
  // marks: they resolve reads against the snapshot index's immutable
  // per-instance version chains, pinned at the latest published commit
  // sequence. They may therefore run concurrently with exclusive
  // mutators. A disengaged optional is a miss — the chain cannot prove
  // the committed value (derived attribute, unproven instance, pruned
  // history, expired snapshot) — and the caller falls back to the locked
  // paths. The caller must pin the schema against concurrent LoadSchema
  // (the executor's schema_mu_), because these consult the catalog.

  /// Registers a snapshot at the latest published commit. Lock-free;
  /// invalid (always-miss) when all snapshot slots are busy.
  txn::SnapshotIndex::Snapshot AcquireSnapshot() {
    return snapshots_.Acquire();
  }

  /// Snapshot-path Get/Peek of an intrinsic attribute.
  std::optional<Result<Value>> TryGetSnapshot(
      const txn::SnapshotIndex::Snapshot& snap, InstanceId id,
      const std::string& attr);

  /// Snapshot-path InstancesOf.
  std::optional<Result<std::vector<InstanceId>>> TryInstancesOfSnapshot(
      const txn::SnapshotIndex::Snapshot& snap,
      const std::string& class_name);

  /// Snapshot-path SelectWhere (intrinsic-only predicates; anything
  /// touching derived state or relationships misses).
  std::optional<Result<std::vector<InstanceId>>> TrySelectWhereSnapshot(
      const txn::SnapshotIndex::Snapshot& snap,
      const std::string& class_name, const std::string& predicate_source);

  /// The snapshot index (tests and metrics).
  const txn::SnapshotIndex& snapshot_index() const { return snapshots_; }

  /// Ad-hoc query: the instances of `class_name` for which the
  /// data-language boolean expression holds (it may read any attribute,
  /// relationship or builtin, like a subtype predicate, but is evaluated
  /// once per call rather than maintained). Example:
  ///   db.SelectWhere("milestone", "late and count(depends_on) > 2")
  Result<std::vector<InstanceId>> SelectWhere(
      const std::string& class_name, const std::string& predicate_source);

  /// Instances related via the named port, in edge order.
  Result<std::vector<InstanceId>> NeighborsOf(InstanceId id,
                                              const std::string& port);

  /// Edges incident to the named port.
  Result<std::vector<EdgeId>> EdgesOf(InstanceId id, const std::string& port);

  size_t instance_count() const { return store_.record_count(); }
  /// Blocks currently holding at least one record (fill-factor metric).
  size_t block_count() const { return store_.block_count(); }

  // --- Maintenance / stats ------------------------------------------------

  /// Clustering reorganisation (paper 2.3): packs instances into blocks
  /// with the configured cluster::Policy (options.cluster_policy), then
  /// recomputes worst-case marking statistics and reseeds the decaying
  /// averages. Closes the current usage-statistics observation period
  /// first. Results land in cluster_stats().
  Status Reorganize();

  /// Closes one usage-statistics observation period: folds the raw
  /// access/crossing counter deltas accumulated since the previous fold
  /// into the decayed counters (DSTC statistic; cluster_decay_alpha).
  /// Called by Reorganize(); callable on its own so a workload's phase
  /// boundaries can be observed without repacking.
  void FoldUsageStatistics();

  const ClusterStats& cluster_stats() const { return cluster_stats_; }
  cluster::PolicyKind cluster_policy() const {
    return options_.cluster_policy;
  }
  void set_cluster_policy(cluster::PolicyKind kind) {
    options_.cluster_policy = kind;
  }

  /// Records a relationship crossing made by an external traversal engine
  /// (the environment layer, workload harnesses): clustering statistics
  /// must see traversals that bypass rule evaluation too.
  void NoteTraversal(EdgeId edge) {
    CACTIS_SERIAL_GUARD(serial_guard_);
    RecordCrossing(edge);
  }

  /// The decayed crossing counter for `edge` (white-box tests, E16).
  double EdgeDecayedUsage(EdgeId edge) {
    return EdgeStatsFor(edge).usage_decay.value();
  }

  /// Writes every dirty block back.
  Status Flush();

  const storage::DiskStats& disk_stats() const { return disk_.stats(); }
  const storage::BufferPoolStats& buffer_stats() const {
    return pool_.stats();
  }
  const EvalStats& eval_stats() const { return engine_->stats(); }
  const sched::SchedulerStats& scheduler_stats() const {
    return scheduler_->stats();
  }
  const txn::ConcurrencyStats& cc_stats() const { return tsm_.stats(); }
  /// The committed-delta history (positions, pruning counters). White-box
  /// access for tests and benchmarks.
  const txn::VersionStore& version_store() const { return versions_; }
  void ResetStats();

  // --- Observability ------------------------------------------------------

  /// One JSON document aggregating every subsystem's counters — disk,
  /// buffer pool, eval engine, scheduler, concurrency control, WAL —
  /// plus database-level gauges and the registry-owned transaction
  /// instruments. Schema documented in DESIGN.md ("Observability").
  std::string SnapshotMetrics() const {
    CACTIS_SERIAL_GUARD(serial_guard_);
    return metrics_.SnapshotJson();
  }

  /// The metrics registry (for registering extra sources/instruments).
  obs::MetricsRegistry* metrics() { return &metrics_; }

  /// The span tracer. Disabled unless options.enable_tracing (or
  /// set_tracing) turns it on; events drain via trace()->ToJson().
  obs::TraceSink* trace() { return &trace_; }
  const obs::TraceSink& trace() const { return trace_; }
  void set_tracing(bool on) { trace_.set_enabled(on); }

  const DatabaseOptions& options() const { return options_; }
  void set_policy(sched::SchedulingPolicy policy) {
    options_.policy = policy;
    scheduler_->set_policy(policy);
  }
  void set_adaptive_stats(bool on) { options_.adaptive_stats = on; }

  /// Direct access for tests and benchmarks.
  storage::SimulatedDisk* disk() { return &disk_; }
  storage::BufferPool* buffer_pool() { return &pool_; }

  /// Fetches the live decoded instance (no access-count side effect).
  /// Exposed for the environment layer and white-box tests; the returned
  /// pointer is valid only until the next database call.
  Result<Instance*> FetchInstancePublic(InstanceId id);

  /// The scheduler's current expected-I/O estimate for values requested
  /// across `edge` (the per-relationship decaying average of section 2.3),
  /// and the worst-case estimate gathered at the last reorganisation.
  /// Exposed for experiment E6 and white-box tests.
  double EdgeExpectedIo(EdgeId edge) { return EdgeStatsFor(edge).decay.value(); }
  double EdgeWorstCaseIo(EdgeId edge) { return EdgeStatsFor(edge).worst_case; }
  uint64_t EdgeUsageCount(EdgeId edge) { return EdgeStatsFor(edge).usage; }

  /// External-change hook used by the environment layer: marks a derived
  /// attribute (by name) of an instance out of date, as if an intrinsic it
  /// depends on had changed outside the database's view.
  Status InvalidateAttribute(InstanceId id, const std::string& attr);

  // --- Introspection (service layer `explain`) ----------------------------

  /// What touching one attribute would involve, read from catalog and
  /// cache state. No *logical* side effects: no marks, no importance
  /// subscription, no evaluation, no concurrency-control interaction —
  /// though inspecting a cold instance faults its block in (a plain
  /// read), so `resident`/`cached` report the state found on entry.
  struct AttrExplainInfo {
    std::string class_name;
    std::string attr_kind;  // "intrinsic" | "derived" | "export" |
                            // "constraint"
    uint64_t block = 0;     // disk block holding the instance record
    bool resident = false;  // that block was in the buffer pool on entry
    bool cached = false;    // a decoded copy was in the object cache
    bool out_of_date = false;  // derived: evaluation pending
    bool subscribed = false;   // sticky importance from a previous get
    /// Rule dependencies, as "attr", "port.value" or "structure(port)".
    std::vector<std::string> depends_on;
    /// Local attributes that a write here would mark out of date.
    std::vector<std::string> dependents;
  };
  Result<AttrExplainInfo> ExplainAttr(InstanceId id, const std::string& attr);

  // --- Distribution hooks (src/dist; paper section 5) ---------------------

  /// Creates an instance without establishing its constraints or subtype
  /// predicates: the path used for mirror instances of remote objects
  /// (their derived values, constraints included, are fetched from the
  /// owning site on demand) and for bulk loads that validate afterwards.
  Result<InstanceId> CreateDetached(const std::string& class_name);

  /// Value source consulted instead of the attribute's rule: attr index ->
  /// value. Used for mirrors of instances owned by another site.
  using MirrorResolver = std::function<Result<Value>(uint32_t attr_index)>;

  /// Registers `id` as a mirror: whenever one of its derived attributes
  /// must be (re)evaluated, `resolver` supplies the value.
  void RegisterMirror(InstanceId id, MirrorResolver resolver) {
    mirror_resolvers_[id] = std::move(resolver);
  }
  void UnregisterMirror(InstanceId id) { mirror_resolvers_.erase(id); }
  bool IsMirror(InstanceId id) const {
    return mirror_resolvers_.contains(id);
  }

  /// Change listener: invoked after an intrinsic attribute is written and
  /// whenever a derived attribute transitions to out-of-date. The
  /// distribution layer uses it to ship invalidations/pushes to remote
  /// mirrors. The listener must not re-enter this database.
  using ChangeListener = std::function<void(InstanceId, uint32_t attr_index)>;
  void SetChangeListener(ChangeListener listener) {
    change_listener_ = std::move(listener);
  }

 private:
  friend class Transaction;
  friend class EvalEngine;
  friend class RuleContext;

  struct EdgeInfo {
    InstanceId from;
    uint32_t from_port = 0;
    InstanceId to;
    uint32_t to_port = 0;
  };

  struct EdgeStatEntry {
    sched::DecayingAverage decay;
    uint64_t usage = 0;        // crossings (clustering statistic)
    double worst_case = 1.0;   // cluster-time marking estimate
    // DSTC statistic: crossings per observation period, decayed. Folded
    // from `usage` deltas by FoldUsageStatistics.
    sched::DecayingAverage usage_decay;
    uint64_t usage_at_last_fold = 0;
    EdgeStatEntry(double alpha, double cluster_alpha)
        : decay(alpha, 1.0), usage_decay(cluster_alpha, 0.0) {}
  };

  // DSTC statistic per instance: accesses per observation period,
  // decayed. Folded from access_counts_ deltas by FoldUsageStatistics.
  struct AccessDecayEntry {
    sched::DecayingAverage decay;
    uint64_t at_last_fold = 0;
    explicit AccessDecayEntry(double cluster_alpha)
        : decay(cluster_alpha, 0.0) {}
  };

  // Operation wrappers: validate txn state, run, abort-on-violation.
  Result<InstanceId> OpCreate(Transaction* t, const std::string& class_name);
  Status OpDelete(Transaction* t, InstanceId id);
  Status OpSet(Transaction* t, InstanceId id, const std::string& attr,
               Value value);
  Result<Value> OpGet(Transaction* t, InstanceId id, const std::string& attr,
                      bool subscribe = true);
  Result<EdgeId> OpConnect(Transaction* t, InstanceId a,
                           const std::string& a_port, InstanceId b,
                           const std::string& b_port);
  Status OpDisconnect(Transaction* t, EdgeId edge);
  Status OpCommit(Transaction* t);
  Status OpUndo(Transaction* t);

  // Split-phase commit (see Transaction::StageCommit). A commit whose
  // delta must be journaled is staged in the WAL's group-commit queue and
  // parked in pending_commits_; it is published (version store append +
  // counters + trace) only once its batch is durable, in ticket order, so
  // the version history always matches the WAL.
  Result<uint64_t> CommitStage(Transaction* t);
  Status CommitPublish(Transaction* t, uint64_t ticket, Status durable);
  /// Publishes pending commits with ticket <= `ticket`, front to back.
  /// Entries whose WAL flush failed are dropped and counted as aborts
  /// (their owner's ForgetTicket happens in CommitPublish).
  void PublishDurableUpTo(uint64_t ticket);

  /// Core mutators (log + mutate + mark; no importance evaluation, no
  /// abort handling). `log` is null during undo/redo replay.
  Result<InstanceId> DoCreate(txn::TransactionDelta* log,
                              const schema::ObjectClass& cls,
                              InstanceId forced_id);
  Status DoDelete(txn::TransactionDelta* log, Transaction* t, InstanceId id);
  Status DoSet(txn::TransactionDelta* log, Transaction* t, InstanceId id,
               size_t attr_index, Value value);
  Result<EdgeId> DoConnect(txn::TransactionDelta* log, InstanceId from,
                           uint32_t from_port, InstanceId to, uint32_t to_port,
                           EdgeId forced_id);
  Status DoDisconnect(txn::TransactionDelta* log, EdgeId edge);

  /// Rolls back every record of `delta`, newest first (marking included),
  /// then re-evaluates important attributes in replay mode.
  Status ApplyUndo(const txn::TransactionDelta& delta);
  /// Replays a delta forwards.
  Status ApplyRedo(const txn::TransactionDelta& delta);

  /// Appends an event to the WAL (no-op when the WAL is disabled). Commit
  /// calls this *before* applying to the version store; meta-actions call
  /// it after they succeed.
  Status JournalEvent(const txn::WalEvent& event);
  /// UndoLast without journaling (shared by UndoLast and Recover).
  Status UndoLastInternal();
  /// Builds the checkpoint image from live state: id counters, a
  /// bootstrap delta recreating every instance/attribute/edge, and the
  /// version-store state. Exclusive lock, commits drained, WAL idle.
  Result<txn::CheckpointImage> BuildCheckpointImage();
  /// Replays a checkpoint image into this (fresh) database.
  Status LoadCheckpointImage(const txn::CheckpointImage& image);
  /// Moves history to `target` by undo/redo, without journaling (shared by
  /// CheckoutVersion and Recover).
  Status CheckoutPosition(uint64_t target);

  /// Appends a committed delta to the version store AND mirrors it into
  /// the snapshot index (publishing the new sequence), then prunes old
  /// history when it outgrew the configured threshold. The single entry
  /// point for committed history — every former versions_.Append call
  /// site routes through here so chains never diverge from the log.
  uint64_t AppendCommitted(txn::TransactionDelta delta);
  /// Mirrors one committed delta's records into the snapshot index.
  void IngestDeltaIntoSnapshots(const txn::TransactionDelta& delta,
                                uint64_t seq, bool track_membership = true);
  /// Full intrinsic default state of a fresh `cls` instance (kCreate
  /// chain nodes).
  static std::vector<std::pair<size_t, Value>> IntrinsicDefaults(
      const schema::ObjectClass& cls);
  void MaybePruneVersions();

  /// Turns a non-OK status from an operation into a transaction abort when
  /// it reflects a consistency failure (constraint violation or
  /// concurrency conflict).
  Status MaybeAbort(Transaction* t, Status s);
  /// Like MaybeAbort, but every failure aborts (used for post-mutation
  /// importance propagation, whose failure means inconsistency).
  Status AbortOnError(Transaction* t, Status s);
  Status RollbackTxn(Transaction* t);

  // Shared helpers (used by the engine and rule contexts too).
  Result<Instance*> FetchInstance(InstanceId id, bool count_access = true);
  /// Directory lookup, no I/O; NotFound for an id with no live instance.
  Result<const schema::ObjectClass*> ClassOfInstancePtr(InstanceId id);
  void UpdateSubtypeMembership(SubtypeId subtype, InstanceId instance,
                               bool member);
  Status WriteInstance(const Instance& inst) {
    return cache_.WriteThrough(inst);
  }
  Status CheckRead(Transaction* t, InstanceId id);
  Status CheckWrite(Transaction* t, InstanceId id);
  // Drops the txn's pending-writer marks (first-updater-wins) once its
  // replay order is fixed (commit staged) or moot (rolled back).
  void ReleaseCcWrites(Transaction* t);
  EdgeStatEntry& EdgeStatsFor(EdgeId id);
  void RecordCrossing(EdgeId id) {
    ++EdgeStatsFor(id).usage;
    // Cumulative crossing count across all edges: the denominator of the
    // observed blocks/traversal figure the drift watchdog samples.
    ++traversal_crossings_;
  }

  Status RecomputeWorstCaseStats();

  /// Migrates every live instance of an extended class (adds the new
  /// slots) and establishes newly-appended constraints / predicates.
  Status MigrateLiveInstances(const schema::ObjectClass& cls);

  /// Coerces `value` to the declared type (int<->real<->time promotions).
  static Result<Value> CoerceToType(Value value, ValueType declared);

  /// Called from every abort path (explicit undo, consistency abort,
  /// destructor rollback) so the counter and trace agree on what an
  /// abort is.
  void NoteTxnAborted(TxnId id);

  struct PendingCommit {
    uint64_t ticket;
    TxnId txn;
    txn::TransactionDelta delta;
  };

  DatabaseOptions options_;
  // Detects unsynchronized concurrent entry: exclusive entry points
  // conflict with everything, shared entry points only with exclusive
  // ones (see the class comment; entry points in database.cc).
  mutable ThreadSharedGuard serial_guard_;
  // Declared before the storage stack: components hold pointers into the
  // registry and trace sink, so these must outlive them.
  obs::MetricsRegistry metrics_;
  obs::TraceSink trace_;
  storage::SimulatedDisk disk_;
  storage::BufferPool pool_;
  storage::RecordStore store_;
  schema::Catalog catalog_;
  lang::BuiltinRegistry builtins_;
  ObjectCache cache_;
  std::unique_ptr<sched::ChunkScheduler> scheduler_;
  std::unique_ptr<EvalEngine> engine_;
  txn::TimestampManager tsm_;
  txn::VersionStore versions_;
  txn::SnapshotIndex snapshots_;
  std::unique_ptr<txn::WriteAheadLog> wal_;
  std::unique_ptr<txn::CheckpointStore> ckpt_;
  // Staged-but-unpublished commits, in WAL ticket order.
  std::deque<PendingCommit> pending_commits_;

  // Registry-owned transaction instruments (see ctor for registration).
  obs::Counter* txn_begun_ = nullptr;
  obs::Counter* txn_committed_ = nullptr;
  obs::Counter* txn_aborted_ = nullptr;
  obs::Histogram* commit_delta_records_ = nullptr;

  uint64_t next_instance_ = 0;
  uint64_t next_txn_ = 0;
  uint64_t next_edge_ = 0;

  std::unordered_map<EdgeId, EdgeInfo> edges_;
  std::unordered_map<ClassId, std::set<InstanceId>> instances_by_class_;
  // Class of every live instance, kept by DoCreate/DoDelete, so a class
  // lookup never faults the instance's block.
  std::unordered_map<InstanceId, ClassId> class_of_instance_;
  std::unordered_map<SubtypeId, std::set<InstanceId>> subtype_members_;
  std::unordered_map<EdgeId, EdgeStatEntry> edge_stats_;
  std::unordered_map<InstanceId, uint64_t> access_counts_;
  std::unordered_map<InstanceId, AccessDecayEntry> access_decay_;
  ClusterStats cluster_stats_;
  // Lifetime crossings across all edges (exclusive-path only, like the
  // per-edge usage statistics); exported as cluster.traversal_crossings.
  uint64_t traversal_crossings_ = 0;
  std::unordered_map<InstanceId, MirrorResolver> mirror_resolvers_;
  ChangeListener change_listener_;
};

}  // namespace cactis::core

#endif  // CACTIS_CORE_DATABASE_H_
