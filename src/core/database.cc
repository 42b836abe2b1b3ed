#include "core/database.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <map>
#include <unordered_set>

#include "lang/interpreter.h"
#include "lang/parser.h"
#include "obs/json_writer.h"
#include "schema/schema_loader.h"

namespace cactis::core {

// --- Transaction -----------------------------------------------------------

Transaction::~Transaction() {
  if (open_) {
    CACTIS_SERIAL_GUARD(db_->serial_guard_);
    (void)db_->RollbackTxn(this);
    open_ = false;
    aborted_ = true;
  }
}

Result<InstanceId> Transaction::Create(const std::string& class_name) {
  CACTIS_SERIAL_GUARD(db_->serial_guard_);
  return db_->OpCreate(this, class_name);
}
Status Transaction::Delete(InstanceId id) {
  CACTIS_SERIAL_GUARD(db_->serial_guard_);
  return db_->OpDelete(this, id);
}
Status Transaction::Set(InstanceId id, const std::string& attr, Value value) {
  CACTIS_SERIAL_GUARD(db_->serial_guard_);
  return db_->OpSet(this, id, attr, std::move(value));
}
Result<Value> Transaction::Get(InstanceId id, const std::string& attr) {
  CACTIS_SERIAL_GUARD(db_->serial_guard_);
  return db_->OpGet(this, id, attr);
}
Result<EdgeId> Transaction::Connect(InstanceId a, const std::string& a_port,
                                    InstanceId b, const std::string& b_port) {
  CACTIS_SERIAL_GUARD(db_->serial_guard_);
  return db_->OpConnect(this, a, a_port, b, b_port);
}
Status Transaction::Disconnect(EdgeId edge) {
  CACTIS_SERIAL_GUARD(db_->serial_guard_);
  return db_->OpDisconnect(this, edge);
}
Status Transaction::Commit() {
  CACTIS_SERIAL_GUARD(db_->serial_guard_);
  return db_->OpCommit(this);
}
Result<uint64_t> Transaction::StageCommit() {
  CACTIS_SERIAL_GUARD(db_->serial_guard_);
  return db_->CommitStage(this);
}
Status Transaction::WaitCommitDurable(uint64_t ticket) {
  // Deliberately no guard: this blocks on the WAL flush and is called
  // without the statement lock, concurrent with other statements.
  if (ticket == 0) return Status::OK();
  return db_->wal_->WaitDurable(ticket);
}
Status Transaction::FinishCommit(uint64_t ticket, Status durable) {
  CACTIS_SERIAL_GUARD(db_->serial_guard_);
  return db_->CommitPublish(this, ticket, std::move(durable));
}
Status Transaction::Undo() {
  CACTIS_SERIAL_GUARD(db_->serial_guard_);
  return db_->OpUndo(this);
}

// --- Construction ----------------------------------------------------------

Database::Database(DatabaseOptions options)
    : options_(options),
      trace_(options.trace_capacity),
      disk_(options.block_size),
      pool_(&disk_, options.buffer_capacity),
      store_(&disk_, &pool_),
      cache_(&catalog_, &store_) {
  builtins_ = lang::BuiltinRegistry::WithDefaults();
  scheduler_ =
      std::make_unique<sched::ChunkScheduler>(&store_, options_.policy);
  engine_ = std::make_unique<EvalEngine>(this);
  pool_.AddListener(&cache_);
  pool_.AddListener(scheduler_.get());
  trace_.set_enabled(options_.enable_tracing);
  pool_.set_trace_sink(&trace_);
  if (options_.enable_wal) {
    // Nothing has touched the disk yet, so the WAL superblock becomes the
    // first allocated block — the address Recover() looks for.
    wal_ = std::make_unique<txn::WriteAheadLog>(&disk_);
    if (!wal_->Initialize().ok()) {
      // Block size too small for a WAL chunk: run without durability
      // rather than with a log that cannot hold an entry.
      wal_.reset();
      options_.enable_wal = false;
    } else {
      wal_->set_trace_sink(&trace_);
      // Reserve the checkpoint slot blocks immediately (allocate-only, no
      // writes): they must land at the conventional addresses right after
      // the WAL's blocks, and a fresh platter carries no checkpoint until
      // the first Checkpoint() call.
      ckpt_ = std::make_unique<txn::CheckpointStore>(&disk_);
      if (!ckpt_->AllocateSlots().ok()) ckpt_.reset();
    }
  }

  // Every subsystem's stats struct registers itself as a snapshot source:
  // the counting stays in the struct, the registry only reads it when a
  // snapshot is taken.
  metrics_.RegisterSource(
      "disk", [this](obs::MetricsGroup* g) { disk_.stats().ExportTo(g); });
  metrics_.RegisterSource("buffer_pool", [this](obs::MetricsGroup* g) {
    pool_.stats().ExportTo(g);
  });
  metrics_.RegisterSource("eval", [this](obs::MetricsGroup* g) {
    engine_->stats().ExportTo(g);
  });
  metrics_.RegisterSource("scheduler", [this](obs::MetricsGroup* g) {
    scheduler_->stats().ExportTo(g);
  });
  metrics_.RegisterSource("concurrency", [this](obs::MetricsGroup* g) {
    tsm_.stats().ExportTo(g);
  });
  metrics_.RegisterSource("wal", [this](obs::MetricsGroup* g) {
    if (wal_ != nullptr) {
      g->AddGauge("enabled", 1);
      wal_->stats().ExportTo(g);
    } else {
      g->AddGauge("enabled", 0);
      txn::WalStats{}.ExportTo(g);
    }
  });
  metrics_.RegisterSource("checkpoint", [this](obs::MetricsGroup* g) {
    if (ckpt_ != nullptr) {
      g->AddGauge("enabled", 1);
      ckpt_->stats().ExportTo(g);
    } else {
      g->AddGauge("enabled", 0);
      txn::CheckpointStats{}.ExportTo(g);
    }
  });
  metrics_.RegisterSource("database", [this](obs::MetricsGroup* g) {
    g->AddGauge("instances", static_cast<double>(store_.record_count()));
    g->AddGauge("allocated_blocks",
                static_cast<double>(disk_.num_allocated_blocks()));
    g->AddGauge("resident_blocks",
                static_cast<double>(pool_.resident_blocks()));
    g->AddGauge("committed_transactions",
                static_cast<double>(committed_transactions()));
    g->AddGauge("delta_bytes", static_cast<double>(delta_bytes()));
    g->AddCounter("pruned_deltas", versions_.pruned_deltas());
    // The trace ring drops oldest events silently once full; surface the
    // loss so a drained trace is never mistaken for a complete one.
    g->AddCounter("trace_events_total", trace_.total_recorded());
    g->AddCounter("trace_dropped_events", trace_.dropped());
  });
  metrics_.RegisterSource("snapshot", [this](obs::MetricsGroup* g) {
    snapshots_.ExportTo(g);
  });
  metrics_.RegisterSource("cluster", [this](obs::MetricsGroup* g) {
    g->AddJson("policy", [this](obs::JsonWriter* w) {
      w->String(cluster::PolicyKindName(cluster_policy_));
    });
    g->AddGauge("decay_alpha", kClusterDecayAlpha);
    g->AddCounter("traversal_crossings", traversal_crossings_);
    cluster_stats_.ExportTo(g);
  });

  metrics_.RegisterSource(
      "txn", [this](obs::MetricsGroup* g) { txn_stats_.ExportTo(g); });
}

Database::~Database() = default;

// --- Schema ----------------------------------------------------------------

Status Database::LoadSchema(std::string_view source) {
  CACTIS_SERIAL_GUARD(serial_guard_);
  CACTIS_RETURN_IF_ERROR(schema::LoadSchema(&catalog_, source).status());
  // Open a membership chain per class so an empty extent is provable on
  // the snapshot path ("no members" vs "never tracked").
  for (const schema::ObjectClass* cls : catalog_.AllClasses()) {
    snapshots_.EnsureMembership(cls->id());
  }
  return Status::OK();
}


/// After a class is replaced (extension), migrate every live instance so
/// its slot vector matches, and establish any newly-appended important
/// attributes (constraints, subtype predicates) on each of them.
Status Database::MigrateLiveInstances(const schema::ObjectClass& cls) {
  const std::set<InstanceId>& instances = instances_by_class_[cls.id()];
  for (InstanceId id : instances) {
    CACTIS_ASSIGN_OR_RETURN(Instance * inst, FetchInstance(id, false));
    size_t old_count = inst->attrs().size();
    inst->MigrateTo(cls);
    CACTIS_RETURN_IF_ERROR(cache_.WriteThrough(*inst));
    for (size_t i = old_count; i < cls.attributes().size(); ++i) {
      if (cls.attributes()[i].intrinsically_important()) {
        engine_->QueueImportant(AttrSite{id, static_cast<uint32_t>(i)});
      }
    }
  }
  return engine_->EvaluateImportant(nullptr);
}

Result<size_t> Database::ExtendClassWithDerived(const std::string& class_name,
                                                const std::string& attr_name,
                                                ValueType type,
                                                const std::string& rule_source) {
  CACTIS_ASSIGN_OR_RETURN(size_t index,
                          catalog_.ExtendClassWithDerived(
                              class_name, attr_name, type, rule_source));
  CACTIS_RETURN_IF_ERROR(
      MigrateLiveInstances(*catalog_.FindClass(class_name)));
  return index;
}

Result<size_t> Database::ExtendClassWithConstraint(
    const std::string& class_name, const std::string& constraint_name,
    const std::string& predicate_source, const std::string& recovery_source) {
  CACTIS_ASSIGN_OR_RETURN(
      size_t index,
      catalog_.ExtendClassWithConstraint(class_name, constraint_name,
                                         predicate_source, recovery_source));
  CACTIS_RETURN_IF_ERROR(
      MigrateLiveInstances(*catalog_.FindClass(class_name)));
  return index;
}

Result<SubtypeId> Database::DefineSubtype(const std::string& subtype_name,
                                          const std::string& class_name,
                                          const std::string& predicate_source) {
  CACTIS_ASSIGN_OR_RETURN(SubtypeId id,
                          catalog_.DefineSubtype(subtype_name, class_name,
                                                 predicate_source));
  CACTIS_RETURN_IF_ERROR(
      MigrateLiveInstances(*catalog_.FindClass(class_name)));
  return id;
}

// --- Transactions ----------------------------------------------------------

std::unique_ptr<Transaction> Database::Begin() {
  CACTIS_SERIAL_GUARD(serial_guard_);
  TxnId id(++next_txn_);
  uint64_t ts = tsm_.BeginTransaction();
  ++txn_stats_.begun;
  trace_.Record(obs::SpanKind::kTxnBegin, id.value);
  auto t = std::unique_ptr<Transaction>(new Transaction(this, id, ts));
  t->delta_.txn = id;
  return t;
}

void Database::NoteTxnAborted(TxnId id) {
  ++txn_stats_.aborted;
  trace_.Record(obs::SpanKind::kTxnAbort, id.value);
}

Status Database::MaybeAbort(Transaction* t, Status s) {
  if (s.ok()) return s;
  if (s.IsConstraintViolation() || s.IsConflict()) {
    (void)RollbackTxn(t);
    t->open_ = false;
    t->aborted_ = true;
    return Status::TransactionAborted("transaction " +
                                      std::to_string(t->id_.value) +
                                      " aborted: " + s.ToString());
  }
  return s;
}

Status Database::AbortOnError(Transaction* t, Status s) {
  // Importance propagation after a mutation must succeed: a rule that
  // cannot evaluate (type error, missing value, cycle) means the update
  // left the database inconsistent, so the whole transaction rolls back.
  if (s.ok()) return s;
  (void)RollbackTxn(t);
  t->open_ = false;
  t->aborted_ = true;
  return Status::TransactionAborted("transaction " +
                                    std::to_string(t->id_.value) +
                                    " aborted: " + s.ToString());
}

Status Database::RollbackTxn(Transaction* t) {
  // Every abort path funnels through here (consistency aborts, explicit
  // Undo, destructor rollback of an open transaction).
  NoteTxnAborted(t->id_);
  ReleaseCcWrites(t);
  return ApplyUndo(t->delta_);
}

static Status RequireOpen(const Transaction* t) {
  if (!t->open()) {
    return Status::TransactionAborted(
        "transaction " + std::to_string(t->id().value) +
        (t->aborted() ? " was aborted" : " is already committed"));
  }
  return Status::OK();
}

Result<InstanceId> Database::OpCreate(Transaction* t,
                                      const std::string& class_name) {
  CACTIS_RETURN_IF_ERROR(RequireOpen(t));
  const schema::ObjectClass* cls = catalog_.FindClass(class_name);
  if (cls == nullptr) {
    return Status::NotFound("unknown object class '" + class_name + "'");
  }
  CACTIS_ASSIGN_OR_RETURN(InstanceId id,
                          DoCreate(&t->delta_, *cls, InstanceId()));
  // Register the creator as the instance's pending writer: another
  // transaction must not write it and journal ahead of the create entry.
  CACTIS_RETURN_IF_ERROR(CheckWrite(t, id));
  // Establish the new instance's constraints and subtype predicates.
  for (size_t idx : cls->constraint_attrs()) {
    engine_->QueueImportant(AttrSite{id, static_cast<uint32_t>(idx)});
  }
  Status s = AbortOnError(t, engine_->EvaluateImportant(t));
  if (!s.ok()) return s;
  return id;
}

Status Database::OpDelete(Transaction* t, InstanceId id) {
  CACTIS_RETURN_IF_ERROR(RequireOpen(t));
  CACTIS_RETURN_IF_ERROR(CheckWrite(t, id));
  CACTIS_RETURN_IF_ERROR(DoDelete(&t->delta_, t, id));
  return AbortOnError(t, engine_->EvaluateImportant(t));
}

Status Database::OpSet(Transaction* t, InstanceId id, const std::string& attr,
                       Value value) {
  CACTIS_RETURN_IF_ERROR(RequireOpen(t));
  CACTIS_ASSIGN_OR_RETURN(const schema::ObjectClass* cls,
                          ClassOfInstancePtr(id));
  size_t idx = cls->AttrIndexOf(attr);
  if (idx == SIZE_MAX) {
    return Status::NotFound("class " + cls->name() + " has no attribute '" +
                            attr + "'");
  }
  if (cls->attributes()[idx].is_derived()) {
    return Status::InvalidArgument(
        "attribute '" + attr + "' is derived; only intrinsic attributes "
        "may be given new values directly");
  }
  Status cc = MaybeAbort(t, CheckWrite(t, id));
  if (!cc.ok()) return cc;
  CACTIS_RETURN_IF_ERROR(DoSet(&t->delta_, t, id, idx, std::move(value)));
  return AbortOnError(t, engine_->EvaluateImportant(t));
}

Result<Value> Database::OpGet(Transaction* t, InstanceId id,
                              const std::string& attr, bool subscribe) {
  CACTIS_RETURN_IF_ERROR(RequireOpen(t));
  CACTIS_ASSIGN_OR_RETURN(const schema::ObjectClass* cls,
                          ClassOfInstancePtr(id));
  size_t idx = cls->AttrIndexOf(attr);
  if (idx == SIZE_MAX) {
    return Status::NotFound("class " + cls->name() + " has no attribute '" +
                            attr + "'");
  }
  Status cc = MaybeAbort(t, CheckRead(t, id));
  if (!cc.ok()) return cc;

  const schema::AttributeDef& def = cls->attributes()[idx];
  AttrSite site{id, static_cast<uint32_t>(idx)};
  CACTIS_ASSIGN_OR_RETURN(Instance * inst, FetchInstance(id));
  if (!def.is_derived()) return inst->attrs()[idx].value;

  // "If the user explicitly requests the value of attributes (i.e. makes a
  // query) they become important" — sticky subscription.
  if (subscribe && !inst->attrs()[idx].subscribed) {
    inst->attrs()[idx].subscribed = true;
    CACTIS_RETURN_IF_ERROR(WriteInstance(*inst));
  }
  CACTIS_ASSIGN_OR_RETURN(inst, FetchInstance(id, /*count_access=*/false));
  if (!inst->attrs()[idx].out_of_date) return inst->attrs()[idx].value;

  Result<Value> v = engine_->DemandValue(site, t, /*user_request=*/true);
  if (!v.ok()) {
    Status s = MaybeAbort(t, v.status());
    return s.ok() ? v : s;
  }
  return v;
}

Result<EdgeId> Database::OpConnect(Transaction* t, InstanceId a,
                                   const std::string& a_port, InstanceId b,
                                   const std::string& b_port) {
  CACTIS_RETURN_IF_ERROR(RequireOpen(t));
  CACTIS_ASSIGN_OR_RETURN(const schema::ObjectClass* a_cls,
                          ClassOfInstancePtr(a));
  CACTIS_ASSIGN_OR_RETURN(const schema::ObjectClass* b_cls,
                          ClassOfInstancePtr(b));
  size_t ap = a_cls->PortIndexOf(a_port);
  size_t bp = b_cls->PortIndexOf(b_port);
  if (ap == SIZE_MAX) {
    return Status::NotFound("class " + a_cls->name() +
                            " has no relationship '" + a_port + "'");
  }
  if (bp == SIZE_MAX) {
    return Status::NotFound("class " + b_cls->name() +
                            " has no relationship '" + b_port + "'");
  }
  const schema::PortDef& apd = a_cls->ports()[ap];
  const schema::PortDef& bpd = b_cls->ports()[bp];
  if (apd.rel_type != bpd.rel_type) {
    return Status::InvalidArgument(
        "ports '" + a_port + "' and '" + b_port +
        "' belong to different relationship types");
  }
  if (apd.side == bpd.side) {
    return Status::InvalidArgument(
        "a relationship must connect a plug to a socket ('" + a_port +
        "' and '" + b_port + "' are both " +
        (apd.side == schema::Side::kPlug ? "plugs" : "sockets") + ")");
  }
  auto check_single = [this](InstanceId id, const schema::PortDef& pd,
                             size_t port) -> Status {
    if (pd.cardinality != schema::Cardinality::kSingle) return Status::OK();
    CACTIS_ASSIGN_OR_RETURN(Instance * inst, FetchInstance(id));
    if (!inst->ports()[port].empty()) {
      return Status::InvalidArgument("single relationship '" + pd.name +
                                     "' of instance " +
                                     std::to_string(id.value) +
                                     " is already connected");
    }
    return Status::OK();
  };
  CACTIS_RETURN_IF_ERROR(check_single(a, apd, ap));
  CACTIS_RETURN_IF_ERROR(check_single(b, bpd, bp));

  Status cc = MaybeAbort(t, CheckWrite(t, a));
  if (!cc.ok()) return cc;
  cc = MaybeAbort(t, CheckWrite(t, b));
  if (!cc.ok()) return cc;

  CACTIS_ASSIGN_OR_RETURN(
      EdgeId edge, DoConnect(&t->delta_, a, static_cast<uint32_t>(ap), b,
                             static_cast<uint32_t>(bp), EdgeId()));
  Status s = AbortOnError(t, engine_->EvaluateImportant(t));
  if (!s.ok()) return s;
  return edge;
}

Status Database::OpDisconnect(Transaction* t, EdgeId edge) {
  CACTIS_RETURN_IF_ERROR(RequireOpen(t));
  auto it = edges_.find(edge);
  if (it == edges_.end()) {
    return Status::NotFound("unknown relationship edge " +
                            std::to_string(edge.value));
  }
  Status cc = MaybeAbort(t, CheckWrite(t, it->second.from));
  if (!cc.ok()) return cc;
  cc = MaybeAbort(t, CheckWrite(t, it->second.to));
  if (!cc.ok()) return cc;
  CACTIS_RETURN_IF_ERROR(DoDisconnect(&t->delta_, edge));
  return AbortOnError(t, engine_->EvaluateImportant(t));
}

Status Database::OpCommit(Transaction* t) {
  CACTIS_ASSIGN_OR_RETURN(uint64_t ticket, CommitStage(t));
  // Write-ahead: the delta must be on disk before the commit is
  // acknowledged. Under the exclusive statement lock this wait is safe —
  // the flush leader never takes the statement lock.
  Status durable = ticket == 0 ? Status::OK() : wal_->WaitDurable(ticket);
  return CommitPublish(t, ticket, std::move(durable));
}

Result<uint64_t> Database::CommitStage(Transaction* t) {
  CACTIS_RETURN_IF_ERROR(RequireOpen(t));
  if (t->delta_.empty() || !wal_) {
    // Nothing to journal: the commit completes right here; ticket 0 tells
    // the caller there is nothing to wait for.
    t->open_ = false;
    ReleaseCcWrites(t);
    ++txn_stats_.committed;
    txn_stats_.commit_delta_records.Record(t->delta_.records.size());
    trace_.Record(obs::SpanKind::kTxnCommit, t->id_.value,
                  t->delta_.records.size());
    if (!t->delta_.empty()) {
      AppendCommitted(std::move(t->delta_));
      t->delta_ = txn::TransactionDelta{};
    }
    return uint64_t{0};
  }
  uint64_t ticket = wal_->Stage(txn::WalEvent::Commit(t->delta_));
  t->open_ = false;
  // The WAL ticket is fixed now: any later writer of the same instances
  // will stage after us, so replay order matches apply order and the
  // pending-writer marks can be released.
  ReleaseCcWrites(t);
  pending_commits_.push_back(
      PendingCommit{ticket, t->id_, std::move(t->delta_)});
  t->delta_ = txn::TransactionDelta{};
  return ticket;
}

Status Database::CommitPublish(Transaction* t, uint64_t ticket,
                               Status durable) {
  if (ticket == 0) return durable;
  if (!durable.ok()) {
    // The batch never reached disk: every transaction it carried is NOT
    // committed. Undo their in-memory effects — newest first, so
    // overlapping writes restore correctly — because the server keeps
    // serving reads from this state in degraded mode and may resume
    // committing after a health probe, so it must reflect only durable
    // commits. The WAL wedges itself after a failed flush (no later
    // batch lands on the platter until the probe clears it), which keeps
    // this rollback race-free against succeeding commits. The sweep also
    // rolls back OTHER sessions' entries from the same failed flush;
    // whoever drops an entry counts its abort, exactly once.
    auto it = pending_commits_.end();
    while (it != pending_commits_.begin()) {
      --it;
      if (it->ticket != ticket && !wal_->TicketFailed(it->ticket)) continue;
      NoteTxnAborted(it->txn);
      (void)ApplyUndo(it->delta);
      it = pending_commits_.erase(it);
    }
    wal_->ForgetTicket(ticket);
    t->aborted_ = true;
    return durable;
  }
  PublishDurableUpTo(ticket);
  return Status::OK();
}

void Database::PublishDurableUpTo(uint64_t ticket) {
  while (!pending_commits_.empty() &&
         pending_commits_.front().ticket <= ticket) {
    PendingCommit pc = std::move(pending_commits_.front());
    pending_commits_.pop_front();
    if (wal_->TicketFailed(pc.ticket)) {
      // The batch never reached disk: not committed — undo its in-memory
      // effects, as CommitPublish does (the owner has not observed the
      // failure yet; whoever drops the entry rolls it back). The failure
      // record is the owner's to clear (its WaitDurable must still
      // observe it), so no ForgetTicket.
      NoteTxnAborted(pc.txn);
      (void)ApplyUndo(pc.delta);
      continue;
    }
    ++txn_stats_.committed;
    txn_stats_.commit_delta_records.Record(pc.delta.records.size());
    trace_.Record(obs::SpanKind::kTxnCommit, pc.txn.value,
                  pc.delta.records.size());
    AppendCommitted(std::move(pc.delta));
  }
}

uint64_t Database::AppendCommitted(txn::TransactionDelta delta) {
  // Appending below the end truncates the redo tail (VersionStore) and
  // must expire those sequence numbers in the snapshot index too before
  // they get reissued.
  if (versions_.position() < versions_.end()) {
    snapshots_.TruncateAfter(versions_.position());
  }
  uint64_t seq = versions_.Append(std::move(delta));
  IngestDeltaIntoSnapshots(versions_.history().back(), seq);
  // Release-publish AFTER the chain nodes exist: a snapshot acquired at
  // `seq` must find every node it implies.
  snapshots_.SetLatestPublished(seq);
  MaybePruneVersions();
  return seq;
}

void Database::IngestDeltaIntoSnapshots(const txn::TransactionDelta& delta,
                                        uint64_t seq,
                                        bool track_membership) {
  for (const txn::DeltaRecord& r : delta.records) {
    switch (r.op) {
      case txn::DeltaOp::kSetAttr:
        snapshots_.RecordWrite(r.instance, seq, r.attr_index, r.new_value);
        break;
      case txn::DeltaOp::kCreate: {
        // Creation installs the class defaults; same-transaction writes
        // follow as kSetAttr records and layer on top within `seq`.
        const schema::ObjectClass* cls = catalog_.GetClass(r.class_id);
        if (cls == nullptr) break;  // unknown class: reads will fall back
        snapshots_.RecordCreate(r.instance, seq, r.class_id,
                                IntrinsicDefaults(*cls), track_membership);
        break;
      }
      case txn::DeltaOp::kDelete:
        snapshots_.RecordDelete(r.instance, seq, r.class_id,
                                track_membership);
        break;
      case txn::DeltaOp::kConnect:
      case txn::DeltaOp::kDisconnect:
        // Relationship structure is not chained: port reads and derived
        // values always fall back to the statement mutex.
        break;
    }
  }
}

std::vector<std::pair<size_t, Value>> Database::IntrinsicDefaults(
    const schema::ObjectClass& cls) {
  Instance fresh = Instance::Create(InstanceId(1), cls);
  std::vector<std::pair<size_t, Value>> out;
  const auto& attrs = cls.attributes();
  for (size_t i = 0; i < attrs.size(); ++i) {
    if (attrs[i].kind != schema::AttrKind::kIntrinsic) continue;
    out.emplace_back(i, fresh.attrs()[i].value);
  }
  return out;
}

void Database::MaybePruneVersions() {
  size_t threshold = options_.version_prune_threshold;
  if (threshold == 0) return;
  if (versions_.end() - versions_.base() <= threshold) return;
  uint64_t slack = options_.version_prune_slack;
  uint64_t floor = versions_.end() > slack ? versions_.end() - slack : 0;
  floor = std::min(floor, snapshots_.OldestLiveSnapshot());
  floor = std::min(floor, versions_.OldestNamedPosition());
  floor = std::min(floor, versions_.position());
  if (versions_.PruneTo(floor) == 0) return;
  snapshots_.Prune(versions_.base());
}

Status Database::DrainCommits() {
  CACTIS_SERIAL_GUARD(serial_guard_);
  if (!wal_) return Status::OK();
  wal_->WaitIdle();
  PublishDurableUpTo(wal_->ResolvedTicket());
  return Status::OK();
}

Status Database::OpUndo(Transaction* t) {
  CACTIS_RETURN_IF_ERROR(RequireOpen(t));
  Status s = RollbackTxn(t);
  t->open_ = false;
  t->aborted_ = true;
  return s;
}

// --- Auto-commit conveniences ------------------------------------------------

Result<InstanceId> Database::CreateDetached(const std::string& class_name) {
  CACTIS_SERIAL_GUARD(serial_guard_);
  const schema::ObjectClass* cls = catalog_.FindClass(class_name);
  if (cls == nullptr) {
    return Status::NotFound("unknown object class '" + class_name + "'");
  }
  auto t = Begin();
  CACTIS_ASSIGN_OR_RETURN(InstanceId id,
                          DoCreate(&t->delta_, *cls, InstanceId()));
  CACTIS_RETURN_IF_ERROR(t->Commit());
  return id;
}

Result<InstanceId> Database::Create(const std::string& class_name) {
  CACTIS_SERIAL_GUARD(serial_guard_);
  auto t = Begin();
  CACTIS_ASSIGN_OR_RETURN(InstanceId id, t->Create(class_name));
  CACTIS_RETURN_IF_ERROR(t->Commit());
  return id;
}

Status Database::Delete(InstanceId id) {
  CACTIS_SERIAL_GUARD(serial_guard_);
  auto t = Begin();
  CACTIS_RETURN_IF_ERROR(t->Delete(id));
  return t->Commit();
}

Status Database::Set(InstanceId id, const std::string& attr, Value value) {
  CACTIS_SERIAL_GUARD(serial_guard_);
  auto t = Begin();
  CACTIS_RETURN_IF_ERROR(t->Set(id, attr, std::move(value)));
  return t->Commit();
}

Result<Value> Database::Get(InstanceId id, const std::string& attr) {
  CACTIS_SERIAL_GUARD(serial_guard_);
  auto t = Begin();
  CACTIS_ASSIGN_OR_RETURN(Value v, t->Get(id, attr));
  CACTIS_RETURN_IF_ERROR(t->Commit());
  return v;
}

Result<Value> Database::Peek(InstanceId id, const std::string& attr) {
  CACTIS_SERIAL_GUARD(serial_guard_);
  auto t = Begin();
  CACTIS_ASSIGN_OR_RETURN(Value v,
                          OpGet(t.get(), id, attr, /*subscribe=*/false));
  CACTIS_RETURN_IF_ERROR(t->Commit());
  return v;
}

Result<EdgeId> Database::Connect(InstanceId a, const std::string& a_port,
                                 InstanceId b, const std::string& b_port) {
  CACTIS_SERIAL_GUARD(serial_guard_);
  auto t = Begin();
  CACTIS_ASSIGN_OR_RETURN(EdgeId e, t->Connect(a, a_port, b, b_port));
  CACTIS_RETURN_IF_ERROR(t->Commit());
  return e;
}

Status Database::Disconnect(EdgeId edge) {
  CACTIS_SERIAL_GUARD(serial_guard_);
  auto t = Begin();
  CACTIS_RETURN_IF_ERROR(t->Disconnect(edge));
  return t->Commit();
}

// --- Core mutators -----------------------------------------------------------

Result<InstanceId> Database::DoCreate(txn::TransactionDelta* log,
                                      const schema::ObjectClass& cls,
                                      InstanceId forced_id) {
  InstanceId id = forced_id;
  if (!id.valid()) {
    id = InstanceId(++next_instance_);
  } else if (id.value > next_instance_) {
    next_instance_ = id.value;
  }
  Instance inst = Instance::Create(id, cls);
  CACTIS_RETURN_IF_ERROR(cache_.Insert(std::move(inst)));
  instances_by_class_[cls.id()].insert(id);
  class_of_instance_[id] = cls.id();

  if (log != nullptr) {
    txn::DeltaRecord rec;
    rec.op = txn::DeltaOp::kCreate;
    rec.instance = id;
    rec.class_id = cls.id();
    log->records.push_back(std::move(rec));
  }
  return id;
}

Status Database::DoDelete(txn::TransactionDelta* log, Transaction* t,
                          InstanceId id) {
  CACTIS_ASSIGN_OR_RETURN(const schema::ObjectClass* cls,
                          ClassOfInstancePtr(id));

  // Break every relationship first (each break is its own logged
  // primitive, so undo restores them).
  while (true) {
    CACTIS_ASSIGN_OR_RETURN(Instance * inst, FetchInstance(id, false));
    EdgeId victim;
    for (const auto& port : inst->ports()) {
      if (!port.empty()) {
        victim = port.front().id;
        break;
      }
    }
    if (!victim.valid()) break;
    CACTIS_RETURN_IF_ERROR(DoDisconnect(log, victim));
  }

  // Snapshot intrinsic values for undo.
  txn::DeltaRecord rec;
  rec.op = txn::DeltaOp::kDelete;
  rec.instance = id;
  rec.class_id = cls->id();
  CACTIS_ASSIGN_OR_RETURN(Instance * inst, FetchInstance(id, false));
  for (size_t i = 0; i < cls->attributes().size(); ++i) {
    if (!cls->attributes()[i].is_derived()) {
      rec.intrinsic_snapshot.emplace_back(i, inst->attrs()[i].value);
    }
    if (cls->attributes()[i].subtype.valid()) {
      UpdateSubtypeMembership(cls->attributes()[i].subtype, id, false);
    }
  }
  if (log != nullptr) log->records.push_back(std::move(rec));

  instances_by_class_[cls->id()].erase(id);
  class_of_instance_.erase(id);
  access_counts_.erase(id);
  CACTIS_RETURN_IF_ERROR(cache_.Remove(id));
  (void)t;
  return Status::OK();
}

Status Database::DoSet(txn::TransactionDelta* log, Transaction* t,
                       InstanceId id, size_t attr_index, Value value) {
  CACTIS_ASSIGN_OR_RETURN(const schema::ObjectClass* cls,
                          ClassOfInstancePtr(id));
  const schema::AttributeDef& def = cls->attributes()[attr_index];
  CACTIS_ASSIGN_OR_RETURN(Value coerced,
                          CoerceToType(std::move(value), def.type));

  CACTIS_ASSIGN_OR_RETURN(Instance * inst, FetchInstance(id));
  if (log != nullptr) {
    txn::DeltaRecord rec;
    rec.op = txn::DeltaOp::kSetAttr;
    rec.instance = id;
    rec.attr_index = attr_index;
    rec.old_value = inst->attrs()[attr_index].value;
    rec.new_value = coerced;
    log->records.push_back(std::move(rec));
  }
  inst->attrs()[attr_index].value = std::move(coerced);
  CACTIS_RETURN_IF_ERROR(WriteInstance(*inst));
  (void)t;
  if (change_listener_) {
    change_listener_(id, static_cast<uint32_t>(attr_index));
  }
  return engine_->MarkDependentsOf(
      AttrSite{id, static_cast<uint32_t>(attr_index)});
}

Result<EdgeId> Database::DoConnect(txn::TransactionDelta* log, InstanceId from,
                                   uint32_t from_port, InstanceId to,
                                   uint32_t to_port, EdgeId forced_id) {
  EdgeId edge = forced_id;
  if (!edge.valid()) {
    edge = EdgeId(++next_edge_);
  } else if (edge.value > next_edge_) {
    next_edge_ = edge.value;
  }

  {
    CACTIS_ASSIGN_OR_RETURN(Instance * a, FetchInstance(from));
    a->ports()[from_port].push_back(EdgeRecord{edge, to, to_port});
    CACTIS_RETURN_IF_ERROR(WriteInstance(*a));
  }
  {
    CACTIS_ASSIGN_OR_RETURN(Instance * b, FetchInstance(to));
    b->ports()[to_port].push_back(EdgeRecord{edge, from, from_port});
    CACTIS_RETURN_IF_ERROR(WriteInstance(*b));
  }
  edges_[edge] = EdgeInfo{from, from_port, to, to_port};

  if (log != nullptr) {
    txn::DeltaRecord rec;
    rec.op = txn::DeltaOp::kConnect;
    rec.edge = edge;
    rec.instance = from;
    rec.from = from;
    rec.from_port = from_port;
    rec.to = to;
    rec.to_port = to_port;
    log->records.push_back(std::move(rec));
  }

  CACTIS_RETURN_IF_ERROR(engine_->MarkPortChanged(from, from_port));
  CACTIS_RETURN_IF_ERROR(engine_->MarkPortChanged(to, to_port));
  return edge;
}

Status Database::DoDisconnect(txn::TransactionDelta* log, EdgeId edge) {
  auto it = edges_.find(edge);
  if (it == edges_.end()) {
    return Status::NotFound("unknown relationship edge " +
                            std::to_string(edge.value));
  }
  EdgeInfo info = it->second;

  auto remove_from = [this, edge](InstanceId id, uint32_t port) -> Status {
    CACTIS_ASSIGN_OR_RETURN(Instance * inst, FetchInstance(id));
    auto& edges = inst->ports()[port];
    edges.erase(std::remove_if(
                    edges.begin(), edges.end(),
                    [edge](const EdgeRecord& e) { return e.id == edge; }),
                edges.end());
    return WriteInstance(*inst);
  };
  CACTIS_RETURN_IF_ERROR(remove_from(info.from, info.from_port));
  CACTIS_RETURN_IF_ERROR(remove_from(info.to, info.to_port));
  edges_.erase(edge);
  if (edge.value < edge_stats_.size()) edge_stats_[edge.value].reset();

  if (log != nullptr) {
    txn::DeltaRecord rec;
    rec.op = txn::DeltaOp::kDisconnect;
    rec.edge = edge;
    rec.instance = info.from;
    rec.from = info.from;
    rec.from_port = info.from_port;
    rec.to = info.to;
    rec.to_port = info.to_port;
    log->records.push_back(std::move(rec));
  }

  CACTIS_RETURN_IF_ERROR(engine_->MarkPortChanged(info.from, info.from_port));
  return engine_->MarkPortChanged(info.to, info.to_port);
}

// --- Undo / redo / versions --------------------------------------------------

Status Database::ApplyUndo(const txn::TransactionDelta& delta) {
  engine_->set_replay_mode(true);
  Status status = Status::OK();
  for (auto it = delta.records.rbegin();
       it != delta.records.rend() && status.ok(); ++it) {
    const txn::DeltaRecord& rec = *it;
    switch (rec.op) {
      case txn::DeltaOp::kSetAttr: {
        auto inst = FetchInstance(rec.instance, false);
        if (!inst.ok()) {
          status = inst.status();
          break;
        }
        (*inst)->attrs()[rec.attr_index].value = rec.old_value;
        status = WriteInstance(**inst);
        if (status.ok()) {
          status = engine_->MarkDependentsOf(
              AttrSite{rec.instance, static_cast<uint32_t>(rec.attr_index)});
        }
        break;
      }
      case txn::DeltaOp::kConnect:
        status = DoDisconnect(nullptr, rec.edge);
        break;
      case txn::DeltaOp::kDisconnect:
        status = DoConnect(nullptr, rec.from,
                           static_cast<uint32_t>(rec.from_port), rec.to,
                           static_cast<uint32_t>(rec.to_port), rec.edge)
                     .status();
        break;
      case txn::DeltaOp::kCreate:
        status = DoDelete(nullptr, nullptr, rec.instance);
        break;
      case txn::DeltaOp::kDelete: {
        const schema::ObjectClass* cls = catalog_.GetClass(rec.class_id);
        if (cls == nullptr) {
          status = Status::Internal("undo of delete: unknown class");
          break;
        }
        auto created = DoCreate(nullptr, *cls, rec.instance);
        if (!created.ok()) {
          status = created.status();
          break;
        }
        auto inst = FetchInstance(rec.instance, false);
        if (!inst.ok()) {
          status = inst.status();
          break;
        }
        for (const auto& [idx, value] : rec.intrinsic_snapshot) {
          (*inst)->attrs()[idx].value = value;
        }
        status = WriteInstance(**inst);
        break;
      }
    }
  }
  if (status.ok()) {
    status = engine_->EvaluateImportant(nullptr);
  }
  engine_->set_replay_mode(false);
  return status;
}

Status Database::ApplyRedo(const txn::TransactionDelta& delta) {
  engine_->set_replay_mode(true);
  Status status = Status::OK();
  for (auto it = delta.records.begin();
       it != delta.records.end() && status.ok(); ++it) {
    const txn::DeltaRecord& rec = *it;
    switch (rec.op) {
      case txn::DeltaOp::kSetAttr: {
        auto inst = FetchInstance(rec.instance, false);
        if (!inst.ok()) {
          status = inst.status();
          break;
        }
        (*inst)->attrs()[rec.attr_index].value = rec.new_value;
        status = WriteInstance(**inst);
        if (status.ok()) {
          status = engine_->MarkDependentsOf(
              AttrSite{rec.instance, static_cast<uint32_t>(rec.attr_index)});
        }
        break;
      }
      case txn::DeltaOp::kConnect:
        status = DoConnect(nullptr, rec.from,
                           static_cast<uint32_t>(rec.from_port), rec.to,
                           static_cast<uint32_t>(rec.to_port), rec.edge)
                     .status();
        break;
      case txn::DeltaOp::kDisconnect:
        status = DoDisconnect(nullptr, rec.edge);
        break;
      case txn::DeltaOp::kCreate: {
        const schema::ObjectClass* cls = catalog_.GetClass(rec.class_id);
        if (cls == nullptr) {
          status = Status::Internal("redo of create: unknown class");
          break;
        }
        status = DoCreate(nullptr, *cls, rec.instance).status();
        break;
      }
      case txn::DeltaOp::kDelete:
        status = DoDelete(nullptr, nullptr, rec.instance);
        break;
    }
  }
  if (status.ok()) {
    status = engine_->EvaluateImportant(nullptr);
  }
  engine_->set_replay_mode(false);
  return status;
}

Status Database::JournalEvent(const txn::WalEvent& event) {
  if (!wal_) return Status::OK();
  return wal_->Append(event);
}

Status Database::UndoLastInternal() {
  CACTIS_ASSIGN_OR_RETURN(txn::TransactionDelta delta, versions_.PopLast());
  CACTIS_RETURN_IF_ERROR(ApplyUndo(delta));
  // The popped sequence number will be reissued by the next commit:
  // expire it from the snapshot index (epoch bump) before that happens.
  snapshots_.TruncateAfter(versions_.position());
  snapshots_.SetLatestPublished(versions_.position());
  return Status::OK();
}

Status Database::UndoLast() {
  CACTIS_SERIAL_GUARD(serial_guard_);
  // Version meta-actions read the committed history; publish every commit
  // whose WAL batch already flushed so "last" means what the user thinks.
  CACTIS_RETURN_IF_ERROR(DrainCommits());
  CACTIS_RETURN_IF_ERROR(UndoLastInternal());
  // Meta-actions are journaled after they succeed: a crash in between
  // loses at most the meta-action itself, never committed data.
  return JournalEvent(txn::WalEvent::Undo());
}

Result<VersionId> Database::CreateVersion(const std::string& name) {
  CACTIS_SERIAL_GUARD(serial_guard_);
  CACTIS_RETURN_IF_ERROR(DrainCommits());
  CACTIS_ASSIGN_OR_RETURN(VersionId id, versions_.CreateVersion(name));
  CACTIS_RETURN_IF_ERROR(JournalEvent(txn::WalEvent::Version(name)));
  return id;
}

Status Database::CheckoutPosition(uint64_t target) {
  if (target < versions_.position()) {
    CACTIS_ASSIGN_OR_RETURN(std::vector<const txn::TransactionDelta*> deltas,
                            versions_.DeltasToUndo(target));
    for (const txn::TransactionDelta* d : deltas) {
      CACTIS_RETURN_IF_ERROR(ApplyUndo(*d));
    }
  } else if (target > versions_.position()) {
    CACTIS_ASSIGN_OR_RETURN(std::vector<const txn::TransactionDelta*> deltas,
                            versions_.DeltasToRedo(target));
    for (const txn::TransactionDelta* d : deltas) {
      CACTIS_RETURN_IF_ERROR(ApplyRedo(*d));
    }
  }
  versions_.SetPosition(target);
  // Snapshot readers follow the checkout: new snapshots pin the target.
  // Chain nodes above it stay (they are the redo tail, valid for a later
  // checkout-forward) — readers at the target simply skip them.
  snapshots_.SetLatestPublished(target);
  return Status::OK();
}

Status Database::CheckoutVersion(const std::string& name) {
  CACTIS_RETURN_IF_ERROR(DrainCommits());
  CACTIS_ASSIGN_OR_RETURN(uint64_t target, versions_.PositionOf(name));
  CACTIS_RETURN_IF_ERROR(CheckoutPosition(target));
  return JournalEvent(txn::WalEvent::Checkout(target));
}

// --- Checkpointing -----------------------------------------------------------

Status Database::Checkpoint() {
  CACTIS_SERIAL_GUARD(serial_guard_);
  if (!wal_ || !ckpt_) {
    return Status::InvalidArgument(
        "checkpointing requires the write-ahead log");
  }
  // Publish every durable commit first: the image must cover exactly the
  // acknowledged history, and the WAL must be idle so the resume point
  // (tail block + next seq) is stable.
  CACTIS_RETURN_IF_ERROR(DrainCommits());
  CACTIS_ASSIGN_OR_RETURN(txn::CheckpointImage image, BuildCheckpointImage());
  uint64_t resume_seq = wal_->next_seq();
  BlockId resume_block = wal_->tail_block();
  CACTIS_RETURN_IF_ERROR(ckpt_->WriteCheckpoint(
      txn::EncodeCheckpointImage(image), resume_seq, resume_block));
  // Only after the new checkpoint is fully committed may the journal
  // entries it covers be dropped.
  return wal_->TruncateBefore(resume_seq);
}

Result<txn::CheckpointImage> Database::BuildCheckpointImage() {
  txn::CheckpointImage image;
  image.next_instance = next_instance_;
  image.next_edge = next_edge_;
  image.next_txn = next_txn_;

  // Bootstrap delta: recreate every live instance (ascending id, so
  // forced-id creation is deterministic), restore its intrinsic
  // attributes, then every edge (ascending edge id). Derived attributes
  // are deliberately omitted — the load re-derives them, exactly as WAL
  // replay does.
  std::vector<std::pair<InstanceId, ClassId>> live;
  for (const auto& [cls_id, ids] : instances_by_class_) {
    for (InstanceId id : ids) live.emplace_back(id, cls_id);
  }
  std::sort(live.begin(), live.end(), [](const auto& a, const auto& b) {
    return a.first.value < b.first.value;
  });
  for (const auto& [id, cls_id] : live) {
    const schema::ObjectClass* cls = catalog_.GetClass(cls_id);
    if (cls == nullptr) {
      return Status::Internal("checkpoint: instance of unknown class");
    }
    txn::DeltaRecord create;
    create.op = txn::DeltaOp::kCreate;
    create.instance = id;
    create.class_id = cls_id;
    image.bootstrap.records.push_back(std::move(create));
    CACTIS_ASSIGN_OR_RETURN(Instance * inst,
                            FetchInstance(id, /*count_access=*/false));
    for (size_t i = 0; i < cls->attributes().size(); ++i) {
      if (cls->attributes()[i].is_derived()) continue;
      txn::DeltaRecord set;
      set.op = txn::DeltaOp::kSetAttr;
      set.instance = id;
      set.attr_index = i;
      set.new_value = inst->attrs()[i].value;
      image.bootstrap.records.push_back(std::move(set));
    }
  }
  std::vector<std::pair<EdgeId, EdgeInfo>> edge_list(edges_.begin(),
                                                     edges_.end());
  std::sort(edge_list.begin(), edge_list.end(),
            [](const auto& a, const auto& b) {
              return a.first.value < b.first.value;
            });
  for (const auto& [edge, info] : edge_list) {
    txn::DeltaRecord connect;
    connect.op = txn::DeltaOp::kConnect;
    connect.edge = edge;
    connect.instance = info.from;
    connect.from = info.from;
    connect.from_port = info.from_port;
    connect.to = info.to;
    connect.to_port = info.to_port;
    image.bootstrap.records.push_back(std::move(connect));
  }

  image.history = versions_.history();
  image.history_base = versions_.base();
  image.position = versions_.position();
  image.versions = versions_.versions();
  image.next_version = versions_.next_version();
  return image;
}

Status Database::LoadCheckpointImage(const txn::CheckpointImage& image) {
  CACTIS_RETURN_IF_ERROR(ApplyRedo(image.bootstrap));
  // Forced ids already bumped the counters; max() guards against an image
  // whose high-water marks outlive the objects (deleted instances).
  next_instance_ = std::max(next_instance_, image.next_instance);
  next_edge_ = std::max(next_edge_, image.next_edge);
  next_txn_ = std::max(next_txn_, image.next_txn);
  versions_.Restore(image.history, image.history_base, image.position,
                    image.versions, image.next_version);

  // Rebuild the snapshot index. Three layers, pushed in ascending
  // sequence order so chain walks stay newest-first:
  //   1. retained pre-position deltas — attribute chains only: class
  //      extents below the position are unknowable (pre-base creates and
  //      deletes were pruned), so membership is not tracked here and
  //      reads below the position miss into the statement mutex;
  //   2. a full intrinsic base per live instance, plus the seeded class
  //      extents, all AT the position;
  //   3. the retained redo tail (> position), visible only after a
  //      checkout-forward republishes a higher sequence.
  snapshots_.Reset();
  snapshots_.SetCoverageFloor(image.position);
  for (const txn::TransactionDelta& d : versions_.history()) {
    if (d.commit_seq > image.position) break;
    IngestDeltaIntoSnapshots(d, d.commit_seq, /*track_membership=*/false);
  }
  std::unordered_map<InstanceId, std::vector<std::pair<size_t, Value>>>
      base_attrs;
  std::unordered_map<InstanceId, ClassId> base_class;
  std::map<ClassId, std::vector<InstanceId>> extents;
  for (const txn::DeltaRecord& r : image.bootstrap.records) {
    if (r.op == txn::DeltaOp::kCreate) {
      base_class[r.instance] = r.class_id;
      extents[r.class_id].push_back(r.instance);
    } else if (r.op == txn::DeltaOp::kSetAttr) {
      base_attrs[r.instance].emplace_back(r.attr_index, r.new_value);
    }
  }
  for (auto& [id, cls_id] : base_class) {
    snapshots_.RecordBase(id, image.position, cls_id,
                          std::move(base_attrs[id]));
  }
  for (auto& [cls_id, members] : extents) {
    std::sort(members.begin(), members.end());
    snapshots_.SeedMembership(cls_id, image.position, std::move(members));
  }
  // Classes with an empty extent at the position are provably empty from
  // here on (LoadSchema's chains were wiped by the Reset above).
  for (const schema::ObjectClass* cls : catalog_.AllClasses()) {
    snapshots_.EnsureMembership(cls->id());
  }
  for (const txn::TransactionDelta& d : versions_.history()) {
    if (d.commit_seq <= image.position) continue;
    IngestDeltaIntoSnapshots(d, d.commit_seq, /*track_membership=*/true);
  }
  snapshots_.SetLatestPublished(image.position);
  return Status::OK();
}

// --- Crash recovery ----------------------------------------------------------

Status Database::Recover(const storage::SimulatedDisk& platter) {
  if (store_.record_count() != 0 || versions_.end() != 0) {
    return Status::InvalidArgument(
        "Recover requires a fresh database: construct, LoadSchema with the "
        "same source, then recover");
  }
  // Checkpoint-aware: when the platter carries a valid checkpoint, load
  // its image and replay only the journal tail past its resume point.
  // Platters without one (fresh, or written before checkpointing existed)
  // take the legacy full-scan path.
  uint64_t start_seq = 1;
  BlockId start_block;
  bool from_checkpoint = false;
  Result<txn::CheckpointStore::Loaded> loaded =
      txn::CheckpointStore::LoadLatest(platter);
  if (loaded.ok()) {
    CACTIS_ASSIGN_OR_RETURN(txn::CheckpointImage image,
                            txn::DecodeCheckpointImage(loaded->image));
    CACTIS_RETURN_IF_ERROR(LoadCheckpointImage(image));
    start_seq = loaded->wal_resume_seq;
    start_block = loaded->wal_resume_block;
    from_checkpoint = true;
  } else {
    CACTIS_ASSIGN_OR_RETURN(start_block,
                            txn::WriteAheadLog::ReadFirstBlock(platter));
  }
  CACTIS_ASSIGN_OR_RETURN(
      txn::WalScanResult scan,
      txn::WriteAheadLog::ScanPlatterFrom(platter, start_block, start_seq));
  for (const txn::WalEvent& event : scan.events) {
    switch (event.kind) {
      case txn::WalEventKind::kCommit: {
        CACTIS_RETURN_IF_ERROR(ApplyRedo(event.delta));
        txn::TransactionDelta delta = event.delta;
        delta.commit_seq = 0;  // Append reassigns it
        AppendCommitted(std::move(delta));
        break;
      }
      case txn::WalEventKind::kUndo:
        CACTIS_RETURN_IF_ERROR(UndoLastInternal());
        break;
      case txn::WalEventKind::kCheckout:
        CACTIS_RETURN_IF_ERROR(CheckoutPosition(event.checkout_target));
        break;
      case txn::WalEventKind::kVersion:
        CACTIS_RETURN_IF_ERROR(
            versions_.CreateVersion(event.version_name).status());
        break;
      case txn::WalEventKind::kBatch:
        // Batches are containers; the scan flattens them into their
        // member events and never yields one.
        return Status::Corruption("batch container in decoded WAL stream");
    }
    // Re-journal into this database's own log so the recovered state can
    // itself be recovered (recovery is idempotent across platters).
    CACTIS_RETURN_IF_ERROR(JournalEvent(event));
  }
  if (wal_ != nullptr && scan.salvaged_tail_bytes != 0) {
    wal_->NoteSalvagedTailBytes(scan.salvaged_tail_bytes);
  }
  CACTIS_RETURN_IF_ERROR(Flush());
  if (from_checkpoint && wal_ && ckpt_) {
    // The checkpointed prefix was loaded from the image, not re-journaled:
    // this database's own WAL holds only the tail. Checkpoint immediately
    // so the recovered state is itself durable end to end.
    CACTIS_RETURN_IF_ERROR(Checkpoint());
  }
  return Status::OK();
}

// --- Queries -----------------------------------------------------------------

namespace {

// Parses an ad-hoc predicate and validates its names against `cls`: the
// checks a rule of the class would get. Shared by both SelectWhere paths,
// so the snapshot and the exclusive path reject the same predicates.
Result<lang::RuleBody> CompilePredicate(const schema::ObjectClass& cls,
                                        const std::string& source) {
  CACTIS_ASSIGN_OR_RETURN(lang::RuleBody body,
                          lang::Parser::ParseRuleBody(source));
  lang::ClassContext ctx;
  for (const schema::AttributeDef& a : cls.attributes()) {
    if (a.kind != schema::AttrKind::kExport) ctx.attribute_names.insert(a.name);
  }
  for (const schema::PortDef& port : cls.ports()) {
    ctx.port_names.insert(port.name);
  }
  CACTIS_RETURN_IF_ERROR(lang::AnalyzeDependencies(body, ctx).status());
  return body;
}

}  // namespace

// --- Snapshot (MVCC) read path ----------------------------------------------

namespace {

// Sentinel for "the snapshot cannot answer"; the caller falls back to the
// exclusive path rather than reporting it.
Status SnapshotMiss() { return Status::Internal("snapshot read miss"); }

// EvalContext over a snapshot of the version chains only. Local intrinsic
// attributes resolve against the chain; anything else — derived
// attributes, relationship traversal, remote values — reports
// SnapshotMiss() so the caller falls back to the exclusive path.
// Connectivity is not chained (kConnect/kDisconnect are skipped at
// ingest), so ports can never be answered here.
class SnapshotReadContext : public lang::EvalContext {
 public:
  SnapshotReadContext(const txn::SnapshotIndex* index,
                      const txn::SnapshotIndex::Snapshot* snap, InstanceId id,
                      const schema::ObjectClass* cls,
                      const lang::BuiltinRegistry* builtins)
      : index_(index), snap_(snap), id_(id), cls_(cls), builtins_(builtins) {}

  Result<Value> GetLocalAttr(const std::string& name) override {
    size_t idx = cls_->AttrIndexOf(name);
    if (idx == SIZE_MAX) {
      return Status::NotFound("class " + cls_->name() +
                              " has no attribute '" + name + "'");
    }
    if (cls_->attributes()[idx].is_derived()) return SnapshotMiss();
    Value v;
    if (index_->ReadAttr(*snap_, id_, idx, &v) !=
        txn::SnapshotIndex::Lookup::kHit) {
      return SnapshotMiss();
    }
    return v;
  }

  bool HasLocalAttr(const std::string& name) const override {
    return cls_->AttrIndexOf(name) != SIZE_MAX;
  }
  bool HasPort(const std::string& name) const override {
    return cls_->PortIndexOf(name) != SIZE_MAX;
  }

  Result<std::vector<Neighbor>> GetNeighbors(
      const std::string& port) override {
    size_t p = cls_->PortIndexOf(port);
    if (p == SIZE_MAX) {
      return Status::NotFound("class " + cls_->name() +
                              " has no relationship '" + port + "'");
    }
    return SnapshotMiss();
  }

  Result<Value> GetRemoteValue(const Neighbor&, const std::string&) override {
    return SnapshotMiss();
  }

  Status SetLocalAttr(const std::string& name, Value /*value*/) override {
    return Status::InvalidArgument(
        "attribute evaluation rules may not assign attributes ('" + name +
        "'); only recovery actions may");
  }

  const lang::BuiltinRegistry& builtins() const override {
    return *builtins_;
  }

 private:
  const txn::SnapshotIndex* index_;
  const txn::SnapshotIndex::Snapshot* snap_;
  InstanceId id_;
  const schema::ObjectClass* cls_;
  const lang::BuiltinRegistry* builtins_;
};

}  // namespace

std::optional<Result<Value>> Database::TryGetSnapshot(
    const txn::SnapshotIndex::Snapshot& snap, InstanceId id,
    const std::string& attr) {
  // No statement lock, no CC marks: everything below reads immutable
  // chain nodes (plus the catalog, which the caller pins via the
  // executor's schema lock).
  if (!snap.valid()) return std::nullopt;
  ClassId cls_id;
  if (snapshots_.ClassAt(snap, id, &cls_id) !=
      txn::SnapshotIndex::Lookup::kHit) {
    return std::nullopt;
  }
  const schema::ObjectClass* cls = catalog_.GetClass(cls_id);
  if (cls == nullptr) return std::nullopt;
  size_t idx = cls->AttrIndexOf(attr);
  if (idx == SIZE_MAX) {
    // Same definitive answer every other path gives for an unknown name.
    return Result<Value>(Status::NotFound("class " + cls->name() +
                                          " has no attribute '" + attr +
                                          "'"));
  }
  if (cls->attributes()[idx].is_derived()) return std::nullopt;
  Value v;
  if (snapshots_.ReadAttr(snap, id, idx, &v) !=
      txn::SnapshotIndex::Lookup::kHit) {
    return std::nullopt;
  }
  cache_.NoteSharedTouch(id);
  return Result<Value>(std::move(v));
}

std::optional<Result<std::vector<InstanceId>>> Database::TryInstancesOfSnapshot(
    const txn::SnapshotIndex::Snapshot& snap, const std::string& class_name) {
  using R = Result<std::vector<InstanceId>>;
  if (!snap.valid()) return std::nullopt;
  const schema::ObjectClass* cls = catalog_.FindClass(class_name);
  if (cls == nullptr) {
    return R(Status::NotFound("unknown object class '" + class_name + "'"));
  }
  std::vector<InstanceId> out;
  if (snapshots_.MembersAt(snap, cls->id(), &out) !=
      txn::SnapshotIndex::Lookup::kHit) {
    return std::nullopt;
  }
  return R(std::move(out));
}

std::optional<Result<std::vector<InstanceId>>> Database::TrySelectWhereSnapshot(
    const txn::SnapshotIndex::Snapshot& snap, const std::string& class_name,
    const std::string& predicate_source) {
  using R = Result<std::vector<InstanceId>>;
  if (!snap.valid()) return std::nullopt;
  const schema::ObjectClass* cls = catalog_.FindClass(class_name);
  if (cls == nullptr) {
    return R(Status::NotFound("unknown object class '" + class_name + "'"));
  }
  Result<lang::RuleBody> body = CompilePredicate(*cls, predicate_source);
  if (!body.ok()) return R(body.status());

  std::vector<InstanceId> members;
  if (snapshots_.MembersAt(snap, cls->id(), &members) !=
      txn::SnapshotIndex::Lookup::kHit) {
    return std::nullopt;
  }
  std::vector<InstanceId> out;
  for (InstanceId id : members) {
    SnapshotReadContext rctx(&snapshots_, &snap, id, cls, &builtins_);
    Result<Value> v = lang::Interpreter::EvalRule(*body, &rctx);
    // No snapshot-state evaluation error is provably identical to the
    // live-state error, so every failure falls back rather than being
    // reported as definitive.
    if (!v.ok()) return std::nullopt;
    Result<bool> keep = (*v).AsBool();
    if (!keep.ok()) return std::nullopt;
    if (*keep) out.push_back(id);
    cache_.NoteSharedTouch(id);
  }
  return R(std::move(out));
}

Result<std::vector<InstanceId>> Database::InstancesOf(
    const std::string& class_name) {
  CACTIS_SERIAL_GUARD(serial_guard_);
  CACTIS_ASSIGN_OR_RETURN(ClassId id, catalog_.ClassIdOf(class_name));
  const std::set<InstanceId>& set = instances_by_class_[id];
  return std::vector<InstanceId>(set.begin(), set.end());
}

Result<std::vector<InstanceId>> Database::MembersOfSubtype(
    const std::string& name) {
  CACTIS_SERIAL_GUARD(serial_guard_);
  const schema::SubtypeDef* sub = catalog_.FindSubtype(name);
  if (sub == nullptr) {
    return Status::NotFound("unknown subtype '" + name + "'");
  }
  const schema::ObjectClass* cls = catalog_.GetClass(sub->class_id);
  // Bring every member's predicate up to date (dynamic membership).
  for (InstanceId id : instances_by_class_[sub->class_id]) {
    AttrSite site{id, static_cast<uint32_t>(sub->predicate_attr_index)};
    (void)cls;
    CACTIS_RETURN_IF_ERROR(
        engine_->DemandValue(site, nullptr, false).status());
  }
  const std::set<InstanceId>& members = subtype_members_[sub->id];
  return std::vector<InstanceId>(members.begin(), members.end());
}

Result<std::vector<InstanceId>> Database::SelectWhere(
    const std::string& class_name, const std::string& predicate_source) {
  CACTIS_SERIAL_GUARD(serial_guard_);
  const schema::ObjectClass* cls = catalog_.FindClass(class_name);
  if (cls == nullptr) {
    return Status::NotFound("unknown object class '" + class_name + "'");
  }
  CACTIS_ASSIGN_OR_RETURN(lang::RuleBody body,
                          CompilePredicate(*cls, predicate_source));

  std::vector<InstanceId> out;
  for (InstanceId id : instances_by_class_[cls->id()]) {
    CACTIS_ASSIGN_OR_RETURN(Value v,
                            engine_->EvalAdHoc(id, cls, body, nullptr));
    CACTIS_ASSIGN_OR_RETURN(bool keep, v.AsBool());
    if (keep) out.push_back(id);
  }
  return out;
}

Result<ClassId> Database::ClassOf(InstanceId id) {
  CACTIS_ASSIGN_OR_RETURN(const schema::ObjectClass* cls,
                          ClassOfInstancePtr(id));
  return cls->id();
}

Result<std::vector<InstanceId>> Database::NeighborsOf(
    InstanceId id, const std::string& port) {
  CACTIS_ASSIGN_OR_RETURN(const schema::ObjectClass* cls,
                          ClassOfInstancePtr(id));
  size_t p = cls->PortIndexOf(port);
  if (p == SIZE_MAX) {
    return Status::NotFound("class " + cls->name() +
                            " has no relationship '" + port + "'");
  }
  CACTIS_ASSIGN_OR_RETURN(Instance * inst, FetchInstance(id));
  std::vector<InstanceId> out;
  out.reserve(inst->ports()[p].size());
  for (const EdgeRecord& e : inst->ports()[p]) out.push_back(e.peer);
  return out;
}

Result<std::vector<EdgeId>> Database::EdgesOf(InstanceId id,
                                              const std::string& port) {
  CACTIS_ASSIGN_OR_RETURN(const schema::ObjectClass* cls,
                          ClassOfInstancePtr(id));
  size_t p = cls->PortIndexOf(port);
  if (p == SIZE_MAX) {
    return Status::NotFound("class " + cls->name() +
                            " has no relationship '" + port + "'");
  }
  CACTIS_ASSIGN_OR_RETURN(Instance * inst, FetchInstance(id));
  std::vector<EdgeId> out;
  out.reserve(inst->ports()[p].size());
  for (const EdgeRecord& e : inst->ports()[p]) out.push_back(e.id);
  return out;
}

// --- Maintenance ---------------------------------------------------------------

void Database::FoldUsageStatistics() {
  CACTIS_SERIAL_GUARD(serial_guard_);
  // Fold the snapshot readers' deferred touches into the access counts
  // before closing the period over them.
  cache_.DrainTouches(&access_counts_);

  // Each fold closes one observation period: the decayed counters take
  // the period's raw delta as a new sample, so activity long past decays
  // away while lifetime counters keep accumulating.
  uint64_t raw_total = 0;
  double decayed_total = 0.0;
  std::vector<InstanceId> live = store_.AllInstances();
  {
    // Deleted instances must not pin decay state (or skew the totals).
    std::unordered_set<InstanceId> alive(live.begin(), live.end());
    std::erase_if(access_decay_,
                  [&](const auto& kv) { return !alive.contains(kv.first); });
  }
  for (InstanceId id : live) {
    auto it = access_decay_
                  .try_emplace(id, AccessDecayEntry(kClusterDecayAlpha))
                  .first;
    auto raw_it = access_counts_.find(id);
    const uint64_t raw = raw_it == access_counts_.end() ? 0 : raw_it->second;
    it->second.decay.Record(static_cast<double>(raw - it->second.at_last_fold));
    it->second.at_last_fold = raw;
    raw_total += raw;
    decayed_total += it->second.decay.value();
  }
  for (std::optional<EdgeStatEntry>& stats : edge_stats_) {
    if (!stats) continue;
    stats->usage_decay.Record(
        static_cast<double>(stats->usage - stats->usage_at_last_fold));
    stats->usage_at_last_fold = stats->usage;
  }
  cluster_stats_.raw_access_total = raw_total;
  cluster_stats_.decayed_access_total = decayed_total;
  ++cluster_stats_.stat_folds;
}

Status Database::Reorganize() {
  CACTIS_SERIAL_GUARD(serial_guard_);
  FoldUsageStatistics();

  cluster::ClusterInput input;
  input.block_capacity = pool_.usable_block_bytes();
  input.access_counts = access_counts_;

  for (InstanceId id : store_.AllInstances()) {
    CACTIS_ASSIGN_OR_RETURN(std::string_view payload, store_.View(id));
    input.record_sizes[id] = payload.size();
    CACTIS_ASSIGN_OR_RETURN(Instance * inst, FetchInstance(id, false));
    input.class_of[id] = static_cast<uint32_t>(inst->class_id().value);
    auto decay_it = access_decay_.find(id);
    if (decay_it != access_decay_.end()) {
      input.decayed_access[id] = decay_it->second.decay.value();
    }
    std::vector<cluster::ClusterInput::Neighbor> adj;
    for (size_t p = 0; p < inst->ports().size(); ++p) {
      for (const EdgeRecord& e : inst->ports()[p]) {
        const EdgeStatEntry& es = EdgeStatsFor(e.id);
        adj.push_back({e.peer, es.usage, es.usage_decay.value(),
                       static_cast<uint32_t>(p)});
      }
    }
    input.adjacency[id] = std::move(adj);
  }

  std::unique_ptr<cluster::Policy> policy =
      cluster::MakePolicy(cluster_policy_);
  const auto t0 = std::chrono::steady_clock::now();
  cluster::Placement placement = policy->Place(input);
  cluster_stats_.placement_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());

  const uint64_t reads_before = disk_.stats().reads;
  const uint64_t writes_before = disk_.stats().writes;
  CACTIS_RETURN_IF_ERROR(store_.ApplyPlacement(placement));
  cluster_stats_.reorg_blocks_read = disk_.stats().reads - reads_before;
  cluster_stats_.reorg_blocks_written = disk_.stats().writes - writes_before;

  int max_cluster = -1;
  size_t payload_bytes = 0;
  for (const auto& [id, cluster_index] : placement) {
    max_cluster = std::max(max_cluster, cluster_index);
    payload_bytes +=
        input.record_sizes[id] + storage::kRecordOverheadBytes;
  }
  cluster_stats_.instances_placed = placement.size();
  cluster_stats_.clusters_produced = static_cast<uint64_t>(max_cluster + 1);
  const size_t blocks = store_.block_count();
  cluster_stats_.blocks_produced = blocks;
  const size_t usable = pool_.usable_block_bytes();
  cluster_stats_.fill_factor =
      blocks == 0 || usable == 0
          ? 0.0
          : static_cast<double>(payload_bytes +
                                blocks * storage::kBlockHeaderBytes) /
                static_cast<double>(blocks * usable);
  ++cluster_stats_.reorg_runs;
  // Epoch origin for drift detection: cumulative I/O and crossings as of
  // this placement (the rewrite's own reads are behind us, so windows
  // measured from here describe the workload, not the reorg).
  cluster_stats_.post_reorg_disk_reads = disk_.stats().reads;
  cluster_stats_.post_reorg_crossings = traversal_crossings_;

  return RecomputeWorstCaseStats();
}

void ClusterStats::ExportTo(obs::MetricsGroup* g) const {
  g->AddCounter("reorg_runs", reorg_runs);
  g->AddCounter("stat_folds", stat_folds);
  g->AddGauge("instances_placed", static_cast<double>(instances_placed));
  g->AddGauge("clusters_produced", static_cast<double>(clusters_produced));
  g->AddGauge("blocks_produced", static_cast<double>(blocks_produced));
  g->AddGauge("fill_factor", fill_factor);
  g->AddGauge("placement_us", static_cast<double>(placement_us));
  g->AddGauge("reorg_blocks_read", static_cast<double>(reorg_blocks_read));
  g->AddGauge("reorg_blocks_written",
              static_cast<double>(reorg_blocks_written));
  g->AddCounter("raw_access_total", raw_access_total);
  g->AddGauge("decayed_access_total", decayed_access_total);
  g->AddCounter("post_reorg_disk_reads", post_reorg_disk_reads);
  g->AddCounter("post_reorg_crossings", post_reorg_crossings);
}

Status Database::RecomputeWorstCaseStats() {
  // Two directional block-visit estimates per dependency-carrying edge,
  // gathered at cluster time (paper 2.3):
  //  * marking direction (provider -> consumers): the worst-case statistic
  //    used to prioritise mark-out-of-date chunks;
  //  * evaluation direction (consumer -> providers): the initial estimate
  //    seeding each relationship's decaying average of expected I/O.
  // Both are memoised upper-bound traversals; revisits count zero, so
  // shared substructure is not multiply counted along one path.

  // --- marking direction ---
  std::unordered_map<InstanceId, double> mark_memo;
  std::unordered_set<InstanceId> mark_in_progress;
  // mark_wc(I) = sum over edges I->J where J consumes across its port of
  //              [block(J) != block(I)] + mark_wc(J)
  std::function<Result<double>(InstanceId)> mark_wc =
      [&](InstanceId id) -> Result<double> {
    auto hit = mark_memo.find(id);
    if (hit != mark_memo.end()) return hit->second;
    if (mark_in_progress.contains(id)) return 0.0;  // cycle guard
    mark_in_progress.insert(id);

    CACTIS_ASSIGN_OR_RETURN(Instance * inst, FetchInstance(id, false));
    std::vector<EdgeRecord> edges;  // copy: recursion faults blocks
    for (const auto& port : inst->ports()) {
      edges.insert(edges.end(), port.begin(), port.end());
    }
    CACTIS_ASSIGN_OR_RETURN(BlockId my_block, store_.BlockOf(id));

    double total = 0;
    for (const EdgeRecord& e : edges) {
      CACTIS_ASSIGN_OR_RETURN(const schema::ObjectClass* peer_cls,
                              ClassOfInstancePtr(e.peer));
      if (!peer_cls->ConsumesAcrossPort(e.peer_port)) continue;
      CACTIS_ASSIGN_OR_RETURN(BlockId peer_block, store_.BlockOf(e.peer));
      CACTIS_ASSIGN_OR_RETURN(double below, mark_wc(e.peer));
      double cost = (peer_block == my_block ? 0.0 : 1.0) + below;
      EdgeStatsFor(e.id).worst_case = cost;
      total += cost;
    }
    mark_in_progress.erase(id);
    mark_memo[id] = total;
    return total;
  };

  // --- evaluation direction ---
  std::unordered_map<InstanceId, double> eval_memo;
  std::unordered_set<InstanceId> eval_in_progress;
  // eval_wc(I) = sum over ports p that I consumes across, over edges
  //              I->K on p, of [block(K) != block(I)] + eval_wc(K)
  std::function<Result<double>(InstanceId)> eval_wc =
      [&](InstanceId id) -> Result<double> {
    auto hit = eval_memo.find(id);
    if (hit != eval_memo.end()) return hit->second;
    if (eval_in_progress.contains(id)) return 0.0;  // cycle guard
    eval_in_progress.insert(id);

    CACTIS_ASSIGN_OR_RETURN(const schema::ObjectClass* cls,
                            ClassOfInstancePtr(id));
    CACTIS_ASSIGN_OR_RETURN(Instance * inst, FetchInstance(id, false));
    std::vector<EdgeRecord> edges;
    for (size_t p = 0; p < inst->ports().size(); ++p) {
      if (!cls->ConsumesAcrossPort(p)) continue;
      edges.insert(edges.end(), inst->ports()[p].begin(),
                   inst->ports()[p].end());
    }
    CACTIS_ASSIGN_OR_RETURN(BlockId my_block, store_.BlockOf(id));

    double total = 0;
    for (const EdgeRecord& e : edges) {
      CACTIS_ASSIGN_OR_RETURN(BlockId peer_block, store_.BlockOf(e.peer));
      CACTIS_ASSIGN_OR_RETURN(double below, eval_wc(e.peer));
      double cost = (peer_block == my_block ? 0.0 : 1.0) + below;
      EdgeStatsFor(e.id).decay.Seed(cost);
      total += cost;
    }
    eval_in_progress.erase(id);
    eval_memo[id] = total;
    return total;
  };

  for (InstanceId id : store_.AllInstances()) {
    CACTIS_RETURN_IF_ERROR(mark_wc(id).status());
    CACTIS_RETURN_IF_ERROR(eval_wc(id).status());
  }
  return Status::OK();
}

Status Database::Flush() { return pool_.FlushAll(); }

void Database::ResetStats() {
  disk_.ResetStats();
  pool_.ResetStats();
  engine_->ResetStats();
  scheduler_->ResetStats();
  tsm_.ResetStats();
}

Status Database::InvalidateAttribute(InstanceId id, const std::string& attr) {
  CACTIS_ASSIGN_OR_RETURN(const schema::ObjectClass* cls,
                          ClassOfInstancePtr(id));
  size_t idx = cls->AttrIndexOf(attr);
  if (idx == SIZE_MAX) {
    return Status::NotFound("class " + cls->name() + " has no attribute '" +
                            attr + "'");
  }
  CACTIS_RETURN_IF_ERROR(
      engine_->MarkAttribute(AttrSite{id, static_cast<uint32_t>(idx)}));
  return engine_->EvaluateImportant(nullptr);
}

Result<Database::AttrExplainInfo> Database::ExplainAttr(
    InstanceId id, const std::string& attr) {
  CACTIS_SERIAL_GUARD(serial_guard_);
  if (!store_.Contains(id)) {
    return Status::NotFound("no instance " + std::to_string(id.value));
  }
  AttrExplainInfo info;
  // Capture residency *before* decoding: FetchInstance on a cold
  // instance faults the block in, and the point of the flags is what a
  // statement would have found.
  info.resident = store_.IsInstanceResident(id);
  info.cached = cache_.IsCached(id);
  auto block = store_.BlockOf(id);
  if (block.ok()) info.block = block->value;
  CACTIS_ASSIGN_OR_RETURN(Instance * inst, FetchInstance(id, false));
  CACTIS_ASSIGN_OR_RETURN(const schema::ObjectClass* cls,
                          ClassOfInstancePtr(id));
  const schema::AttributeDef* def = cls->FindAttr(attr);
  if (def == nullptr) {
    return Status::NotFound("class " + cls->name() + " has no attribute '" +
                            attr + "'");
  }
  info.class_name = cls->name();
  info.attr_kind = def->is_constraint            ? "constraint"
                   : def->kind == schema::AttrKind::kIntrinsic ? "intrinsic"
                   : def->kind == schema::AttrKind::kExport    ? "export"
                                                               : "derived";
  if (def->index < inst->attrs().size()) {
    const AttrSlot& slot = inst->attrs()[def->index];
    info.out_of_date = slot.out_of_date;
    info.subscribed = slot.subscribed;
  }
  for (const lang::Dependency& d : def->deps) {
    switch (d.kind) {
      case lang::Dependency::Kind::kLocal:
        info.depends_on.push_back(d.name);
        break;
      case lang::Dependency::Kind::kRemote:
        info.depends_on.push_back(d.port + "." + d.name);
        break;
      case lang::Dependency::Kind::kStructural:
        info.depends_on.push_back("structure(" + d.port + ")");
        break;
    }
  }
  for (size_t dep : cls->LocalDependents(def->index)) {
    info.dependents.push_back(cls->attributes()[dep].name);
  }
  return info;
}

// --- Shared helpers ------------------------------------------------------------

Result<Instance*> Database::FetchInstance(InstanceId id, bool count_access) {
  if (count_access) ++access_counts_[id];
  return cache_.Fetch(id);
}

Result<Instance*> Database::FetchInstancePublic(InstanceId id) {
  return FetchInstance(id, false);
}

Result<const schema::ObjectClass*> Database::ClassOfInstancePtr(
    InstanceId id) {
  auto it = class_of_instance_.find(id);
  if (it == class_of_instance_.end()) {
    return Status::NotFound("no record for instance " +
                            std::to_string(id.value));
  }
  const schema::ObjectClass* cls = catalog_.GetClass(it->second);
  if (cls == nullptr) {
    return Status::Internal("instance " + std::to_string(id.value) +
                            " references unknown class");
  }
  return cls;
}

void Database::UpdateSubtypeMembership(SubtypeId subtype, InstanceId instance,
                                       bool member) {
  if (member) {
    subtype_members_[subtype].insert(instance);
  } else {
    subtype_members_[subtype].erase(instance);
  }
}

Status Database::CheckRead(Transaction* t, InstanceId id) {
  if (t == nullptr) return Status::OK();
  return tsm_.CheckRead(id, t->ts_);
}

Status Database::CheckWrite(Transaction* t, InstanceId id) {
  if (t == nullptr) return Status::OK();
  Status s = tsm_.CheckWrite(id, t->ts_, t->id_.value);
  if (s.ok()) t->cc_writes_.push_back(id);
  return s;
}

void Database::ReleaseCcWrites(Transaction* t) {
  for (InstanceId id : t->cc_writes_) {
    tsm_.ReleaseWrite(id, t->id_.value);
  }
  t->cc_writes_.clear();
}

Database::EdgeStatEntry& Database::EdgeStatsFor(EdgeId id) {
  if (id.value >= edge_stats_.size()) edge_stats_.resize(id.value + 1);
  std::optional<EdgeStatEntry>& stats = edge_stats_[id.value];
  if (!stats) {
    stats.emplace(options_.decay_alpha, kClusterDecayAlpha);
  }
  return *stats;
}

Result<Value> Database::CoerceToType(Value value, ValueType declared) {
  if (declared == ValueType::kNull || value.type() == declared) {
    return value;
  }
  switch (declared) {
    case ValueType::kReal:
      if (value.type() == ValueType::kInt) {
        return Value::Real(static_cast<double>(*value.AsInt()));
      }
      break;
    case ValueType::kInt:
      if (value.type() == ValueType::kBool) {
        return Value::Int(*value.AsBool() ? 1 : 0);
      }
      break;
    case ValueType::kTime:
      if (value.type() == ValueType::kInt) {
        return Value::Time(*value.AsInt());
      }
      break;
    default:
      break;
  }
  return Status::TypeMismatch(
      "value " + value.ToString() + " does not match declared type " +
      std::string(ValueTypeToString(declared)));
}

}  // namespace cactis::core
