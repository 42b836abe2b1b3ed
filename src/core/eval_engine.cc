#include "core/eval_engine.h"

#include <algorithm>
#include <utility>

#include "core/database.h"
#include "obs/request_context.h"

namespace cactis::core {

namespace {

// Constraint-recovery rounds per operation before giving up.
constexpr int kMaxRecoveryRounds = 4;
// Iteration cap for fixed-point evaluation of `circular` attributes.
constexpr int kMaxFixpointIterations = 100;

std::string SiteName(Database* db, const AttrSite& site) {
  auto cls = db->ClassOf(site.instance);
  std::string out = "instance " + std::to_string(site.instance.value);
  if (cls.ok()) {
    const schema::ObjectClass* c = db->catalog()->GetClass(*cls);
    if (c != nullptr && site.attr < c->attributes().size()) {
      return c->name() + "#" + std::to_string(site.instance.value) + "." +
             c->attributes()[site.attr].name;
    }
  }
  return out + ".attr" + std::to_string(site.attr);
}

}  // namespace

// --- RuleContext -----------------------------------------------------------

/// The EvalContext a rule executes against: binds one instance, routes
/// attribute reads through the engine (with synchronous fallback
/// evaluation), counts relationship crossings, and enforces concurrency
/// control on every instance the rule touches.
class RuleContext : public lang::EvalContext {
 public:
  RuleContext(Database* db, EvalEngine* engine, InstanceId self,
              const schema::ObjectClass* cls, Transaction* txn,
              bool allow_assign)
      : db_(db),
        engine_(engine),
        self_(self),
        cls_(cls),
        txn_(txn),
        allow_assign_(allow_assign) {}

  Result<Value> GetLocalAttr(const std::string& name) override {
    size_t idx = cls_->AttrIndexOf(name);
    if (idx == SIZE_MAX) {
      return Status::NotFound("class " + cls_->name() +
                              " has no attribute '" + name + "'");
    }
    return ReadAttr(AttrSite{self_, static_cast<uint32_t>(idx)}, *cls_);
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
    CACTIS_ASSIGN_OR_RETURN(Instance * inst, db_->FetchInstance(self_));
    std::vector<Neighbor> out;
    out.reserve(inst->ports()[p].size());
    for (const EdgeRecord& e : inst->ports()[p]) {
      Neighbor n;
      n.id = e.peer;
      n.my_port = static_cast<uint32_t>(p);
      n.peer_port = e.peer_port;
      n.edge = e.id;
      out.push_back(n);
    }
    return out;
  }

  Result<Value> GetRemoteValue(const Neighbor& neighbor,
                               const std::string& name) override {
    db_->RecordCrossing(neighbor.edge);
    CACTIS_RETURN_IF_ERROR(db_->CheckRead(txn_, neighbor.id));
    CACTIS_ASSIGN_OR_RETURN(const schema::ObjectClass* peer_cls,
                            db_->ClassOfInstancePtr(neighbor.id));
    size_t idx = peer_cls->ResolveProvidedValue(neighbor.peer_port, name);
    if (idx == SIZE_MAX) {
      return Status::NotFound(
          "class " + peer_cls->name() + " provides no value '" + name +
          "' across relationship '" +
          (neighbor.peer_port < peer_cls->ports().size()
               ? peer_cls->ports()[neighbor.peer_port].name
               : "?") +
          "'");
    }
    return ReadAttr(AttrSite{neighbor.id, static_cast<uint32_t>(idx)},
                    *peer_cls);
  }

  Status SetLocalAttr(const std::string& name, Value value) override {
    if (!allow_assign_) {
      return Status::InvalidArgument(
          "attribute evaluation rules may not assign attributes ('" + name +
          "'); only recovery actions may");
    }
    size_t idx = cls_->AttrIndexOf(name);
    if (idx == SIZE_MAX) {
      return Status::NotFound("class " + cls_->name() +
                              " has no attribute '" + name + "'");
    }
    const schema::AttributeDef& def = cls_->attributes()[idx];
    if (def.is_derived()) {
      return Status::InvalidArgument(
          "recovery action assigns derived attribute '" + name +
          "'; only intrinsic attributes may be given new values");
    }
    txn::TransactionDelta* log =
        txn_ == nullptr ? nullptr : &txn_->delta_;
    return db_->DoSet(log, txn_, self_, idx, std::move(value));
  }

  const lang::BuiltinRegistry& builtins() const override {
    return db_->builtins_;
  }

 private:
  /// Reads an attribute slot; when it is a derived slot that is out of
  /// date, falls back to synchronous evaluation (in the chunked path the
  /// dependencies were pre-evaluated, so this is rare and counted).
  Result<Value> ReadAttr(const AttrSite& site,
                         const schema::ObjectClass& cls) {
    CACTIS_ASSIGN_OR_RETURN(Instance * inst, db_->FetchInstance(site.instance));
    const schema::AttributeDef& def = cls.attributes()[site.attr];
    const AttrSlot& slot = inst->attrs()[site.attr];
    if (def.is_derived() && slot.out_of_date) {
      ++engine_->stats_.sync_fallbacks;
      return engine_->EvalSync(site, txn_);
    }
    return slot.value;
  }

  Database* db_;
  EvalEngine* engine_;
  InstanceId self_;
  const schema::ObjectClass* cls_;
  Transaction* txn_;
  bool allow_assign_;
};

// --- Marking (phase 1) -----------------------------------------------------

Status EvalEngine::MarkDependentsOf(const AttrSite& site) {
  CACTIS_ASSIGN_OR_RETURN(const schema::ObjectClass* cls,
                          db_->ClassOfInstancePtr(site.instance));
  const schema::AttributeDef& def = cls->attributes()[site.attr];

  // Local dependents within the same instance.
  for (size_t idx : cls->LocalDependents(site.attr)) {
    ScheduleMark(AttrSite{site.instance, static_cast<uint32_t>(idx)},
                 EdgeId());
  }

  // Remote dependents across relationships. Scheduling a mark faults no
  // block, so the instance's edge lists are walked in place.
  CACTIS_ASSIGN_OR_RETURN(Instance * inst, db_->FetchInstance(site.instance));
  const std::string& provided_name =
      def.kind == schema::AttrKind::kExport ? def.export_name : def.name;
  auto mark_across = [&](const std::vector<EdgeRecord>& edges) -> Status {
    for (const EdgeRecord& e : edges) {
      db_->RecordCrossing(e.id);
      CACTIS_ASSIGN_OR_RETURN(const schema::ObjectClass* peer_cls,
                              db_->ClassOfInstancePtr(e.peer));
      for (size_t idx :
           peer_cls->RemoteDependents(e.peer_port, provided_name)) {
        ScheduleMark(AttrSite{e.peer, static_cast<uint32_t>(idx)}, e.id);
      }
    }
    return Status::OK();
  };
  if (def.kind == schema::AttrKind::kExport) {
    return mark_across(inst->ports()[def.export_port_index]);
  }
  for (size_t p = 0; p < inst->ports().size(); ++p) {
    if (cls->ResolveProvidedValue(p, def.name) != site.attr) continue;
    CACTIS_RETURN_IF_ERROR(mark_across(inst->ports()[p]));
  }
  return Status::OK();
}

Status EvalEngine::MarkPortChanged(InstanceId instance, size_t port_index) {
  CACTIS_ASSIGN_OR_RETURN(const schema::ObjectClass* cls,
                          db_->ClassOfInstancePtr(instance));
  std::set<size_t> targets;
  for (size_t idx : cls->StructuralDependents(port_index)) {
    targets.insert(idx);
  }
  for (const auto& [port, name] : cls->ConsumedRemoteValues()) {
    if (port != port_index) continue;
    for (size_t idx : cls->RemoteDependents(port, name)) targets.insert(idx);
  }
  for (size_t idx : targets) {
    ScheduleMark(AttrSite{instance, static_cast<uint32_t>(idx)}, EdgeId());
  }
  return Status::OK();
}

Status EvalEngine::MarkAttribute(const AttrSite& site) {
  ScheduleMark(site, EdgeId());
  return Status::OK();
}

void EvalEngine::ScheduleMark(const AttrSite& site, EdgeId via_edge) {
  sched::Chunk chunk;
  chunk.kind = sched::ChunkKind::kMark;
  chunk.owner = site.instance;
  chunk.expected_io =
      via_edge.valid() ? db_->EdgeStatsFor(via_edge).worst_case : 0.0;
  chunk.instance = site.instance;
  chunk.attr = site.attr;
  db_->scheduler_->Schedule(chunk);
}

Status EvalEngine::RunChunk(const sched::Chunk& chunk) {
  const AttrSite site{chunk.instance, chunk.attr};
  switch (chunk.kind) {
    case sched::ChunkKind::kMark:
      return RunMarkChunk(site);
    case sched::ChunkKind::kGather:
      return RunGatherChunk(site);
    case sched::ChunkKind::kResolve:
      return RunResolveChunk(
          site, EdgeRecord{chunk.edge, chunk.owner, chunk.peer_port},
          chunk.dep);
    case sched::ChunkKind::kCompute:
      return RunComputeChunk(site);
  }
  return Status::Internal("unknown chunk kind");
}

Status EvalEngine::RunMarkChunk(const AttrSite& site) {
  ++stats_.mark_visits;
  db_->trace_.Record(obs::SpanKind::kMarkChunk, site.instance.value,
                     site.attr);
  // The instance may have been deleted after this chunk was scheduled
  // (delete-instance breaks all relationships first, and those markings
  // drain after the instance is gone).
  if (!db_->store_.Contains(site.instance)) return Status::OK();
  CACTIS_ASSIGN_OR_RETURN(const schema::ObjectClass* cls,
                          db_->ClassOfInstancePtr(site.instance));
  if (site.attr >= cls->attributes().size()) {
    return Status::Internal("mark chunk for out-of-range attribute");
  }
  const schema::AttributeDef& def = cls->attributes()[site.attr];
  if (!def.is_derived()) return Status::OK();

  CACTIS_ASSIGN_OR_RETURN(Instance * inst, db_->FetchInstance(site.instance));
  AttrSlot& slot = inst->attrs()[site.attr];
  if (slot.out_of_date) {
    // The paper's repeated-update cut-off: everything downstream is
    // already marked, so this branch terminates in O(1). An important
    // attribute lingering out of date (possible after a rollback or a
    // class extension) must still be re-established.
    ++stats_.mark_cutoffs;
    if (def.intrinsically_important() || slot.subscribed) {
      to_evaluate_.push_back(site);
    }
    return Status::OK();
  }
  slot.out_of_date = true;
  bool important = def.intrinsically_important() || slot.subscribed;
  CACTIS_RETURN_IF_ERROR(db_->WriteInstance(*inst));
  ++stats_.attrs_marked;
  if (important) to_evaluate_.push_back(site);
  if (db_->change_listener_) {
    db_->change_listener_(site.instance, site.attr);
  }
  return MarkDependentsOf(site);
}

// --- Evaluation (phase 2) --------------------------------------------------

Status EvalEngine::RequestEval(const AttrSite& site,
                               std::optional<AttrSite> waiter, EdgeId via_edge,
                               bool user_request) {
  ++stats_.eval_requests;
  EvalNode& node = nodes_[site];
  node.site = site;
  if (node.done) return Status::OK();
  if (waiter.has_value()) {
    node.waiters.push_back(*waiter);
    ++nodes_[*waiter].pending;  // may rehash; `node` not used below
  }
  EvalNode& fresh = nodes_[site];
  if (!fresh.requested) {
    fresh.requested = true;
    fresh.via_edge = via_edge;
    sched::Chunk chunk;
    chunk.kind = sched::ChunkKind::kGather;
    chunk.user_request = user_request;
    chunk.owner = site.instance;
    chunk.expected_io =
        via_edge.valid() ? db_->EdgeStatsFor(via_edge).decay.value() : 0.0;
    chunk.instance = site.instance;
    chunk.attr = site.attr;
    db_->scheduler_->Schedule(chunk);
  }
  return Status::OK();
}

Status EvalEngine::RunGatherChunk(const AttrSite& site) {
  db_->trace_.Record(obs::SpanKind::kGatherChunk, site.instance.value,
                     site.attr);
  EvalNode* node = &nodes_[site];
  node->site = site;
  if (node->gathered || node->done) return Status::OK();
  if (!db_->store_.Contains(site.instance)) {
    node->gathered = true;
    return CompleteNode(site);
  }

  uint64_t before = db_->disk_.stats().reads;
  CACTIS_ASSIGN_OR_RETURN(Instance * inst, db_->FetchInstance(site.instance));
  nodes_[site].io_cost += static_cast<double>(db_->disk_.stats().reads - before);
  node = &nodes_[site];

  CACTIS_ASSIGN_OR_RETURN(const schema::ObjectClass* cls,
                          db_->ClassOfInstancePtr(site.instance));
  const schema::AttributeDef& def = cls->attributes()[site.attr];
  CACTIS_ASSIGN_OR_RETURN(inst, db_->FetchInstance(site.instance));
  const AttrSlot& slot = inst->attrs()[site.attr];
  if (!def.is_derived() || !slot.out_of_date) {
    node->gathered = true;
    return CompleteNode(site);
  }

  // Request every value the rule depends on. Local dependencies are
  // resolved immediately; remote ones get a resolve chunk per edge (the
  // neighbour must be touched to know its class and freshness, and that
  // touch is itself schedulable work).
  std::vector<AttrSite> local_requests;
  std::vector<std::pair<EdgeRecord, uint32_t>> remote_requests;
  for (uint32_t dep = 0; dep < def.deps.size(); ++dep) {
    const lang::Dependency& d = def.deps[dep];
    switch (d.kind) {
      case lang::Dependency::Kind::kLocal: {
        size_t idx = cls->AttrIndexOf(d.name);
        if (idx == SIZE_MAX) continue;  // validated at schema time
        const schema::AttributeDef& dep_def = cls->attributes()[idx];
        const AttrSlot& dep_slot = inst->attrs()[idx];
        if (dep_def.is_derived() && dep_slot.out_of_date) {
          local_requests.push_back(
              AttrSite{site.instance, static_cast<uint32_t>(idx)});
        }
        break;
      }
      case lang::Dependency::Kind::kRemote: {
        size_t p = cls->PortIndexOf(d.port);
        if (p == SIZE_MAX) continue;
        for (const EdgeRecord& e : inst->ports()[p]) {
          remote_requests.emplace_back(e, dep);
        }
        break;
      }
      case lang::Dependency::Kind::kStructural:
        break;  // edge sets are read directly by the rule
    }
  }

  for (const AttrSite& dep : local_requests) {
    CACTIS_RETURN_IF_ERROR(RequestEval(dep, site, EdgeId(), false));
  }
  for (const auto& [edge, dep] : remote_requests) {
    ++nodes_[site].pending;
    sched::Chunk chunk;
    chunk.kind = sched::ChunkKind::kResolve;
    chunk.owner = edge.peer;
    chunk.expected_io = db_->EdgeStatsFor(edge.id).decay.value();
    chunk.instance = site.instance;
    chunk.attr = site.attr;
    chunk.edge = edge.id;
    chunk.peer_port = edge.peer_port;
    chunk.dep = dep;
    db_->scheduler_->Schedule(chunk);
  }

  EvalNode& after = nodes_[site];
  after.gathered = true;
  if (after.pending == 0) ScheduleCompute(site);
  return Status::OK();
}

Status EvalEngine::RunResolveChunk(const AttrSite& parent,
                                   const EdgeRecord& edge, uint32_t dep) {
  db_->trace_.Record(obs::SpanKind::kResolveChunk, edge.peer.value,
                     parent.attr);
  if (!db_->store_.Contains(edge.peer)) return NotifyDependencyDone(parent);
  CACTIS_ASSIGN_OR_RETURN(const schema::ObjectClass* peer_cls,
                          db_->ClassOfInstancePtr(edge.peer));
  // The value name is read from the schema when the chunk runs rather
  // than carried in it: a chunk left queued by a failed drain may outlive
  // the class object that was current when it was scheduled.
  CACTIS_ASSIGN_OR_RETURN(const schema::ObjectClass* parent_cls,
                          db_->ClassOfInstancePtr(parent.instance));
  const std::string& name =
      parent_cls->attributes()[parent.attr].deps[dep].name;

  db_->RecordCrossing(edge.id);
  size_t idx = peer_cls->ResolveProvidedValue(edge.peer_port, name);
  if (idx != SIZE_MAX) {
    const schema::AttributeDef& def = peer_cls->attributes()[idx];
    // The fetch is what faults the peer's block: its cost feeds the
    // edge's expected-I/O estimate the scheduler ranks chunks by.
    uint64_t before = db_->disk_.stats().reads;
    CACTIS_ASSIGN_OR_RETURN(Instance * peer, db_->FetchInstance(edge.peer));
    nodes_[parent].io_cost +=
        static_cast<double>(db_->disk_.stats().reads - before);
    if (def.is_derived() && peer->attrs()[idx].out_of_date) {
      CACTIS_RETURN_IF_ERROR(
          RequestEval(AttrSite{edge.peer, static_cast<uint32_t>(idx)}, parent,
                      edge.id, false));
    }
  }
  // An unresolvable name is reported by the rule itself when it actually
  // reads the value; a resolve chunk stays silent (the rule may never
  // touch this neighbour dynamically).
  return NotifyDependencyDone(parent);
}

Status EvalEngine::NotifyDependencyDone(const AttrSite& site) {
  EvalNode& node = nodes_[site];
  if (--node.pending == 0 && node.gathered && !node.done) {
    ScheduleCompute(site);
  }
  return Status::OK();
}

void EvalEngine::ScheduleCompute(const AttrSite& site) {
  sched::Chunk chunk;
  chunk.kind = sched::ChunkKind::kCompute;
  chunk.owner = site.instance;
  chunk.expected_io = 0.0;  // inputs gathered; only the owner block needed
  chunk.instance = site.instance;
  chunk.attr = site.attr;
  db_->scheduler_->Schedule(chunk);
}

Status EvalEngine::RunComputeChunk(const AttrSite& site) {
  db_->trace_.Record(obs::SpanKind::kComputeChunk, site.instance.value,
                     site.attr);
  EvalNode* node = &nodes_[site];
  if (node->done) return Status::OK();
  if (!db_->store_.Contains(site.instance)) return CompleteNode(site);

  uint64_t before = db_->disk_.stats().reads;
  CACTIS_ASSIGN_OR_RETURN(Instance * inst, db_->FetchInstance(site.instance));
  nodes_[site].io_cost +=
      static_cast<double>(db_->disk_.stats().reads - before);

  // Re-check freshness: a synchronous fallback may have evaluated us while
  // we waited in a queue.
  CACTIS_ASSIGN_OR_RETURN(const schema::ObjectClass* cls,
                          db_->ClassOfInstancePtr(site.instance));
  CACTIS_ASSIGN_OR_RETURN(inst, db_->FetchInstance(site.instance));
  if (!inst->attrs()[site.attr].out_of_date ||
      !cls->attributes()[site.attr].is_derived()) {
    return CompleteNode(site);
  }

  CACTIS_ASSIGN_OR_RETURN(Value value, ExecuteRule(site, current_txn_));
  CACTIS_RETURN_IF_ERROR(PublishValue(site, std::move(value)));
  return CompleteNode(site);
}

Status EvalEngine::CompleteNode(const AttrSite& site) {
  // Move waiters out before mutating the map further.
  std::vector<AttrSite> waiters;
  double io_cost = 0;
  EdgeId via;
  {
    EvalNode& node = nodes_[site];
    if (node.done) return Status::OK();
    node.done = true;
    waiters = std::move(node.waiters);
    node.waiters.clear();
    io_cost = node.io_cost;
    via = node.via_edge;
  }

  if (via.valid() && db_->options_.adaptive_stats) {
    db_->EdgeStatsFor(via).decay.Record(io_cost);
  }

  bool charged = false;
  for (const AttrSite& w : waiters) {
    if (!charged) {
      nodes_[w].io_cost += io_cost;
      charged = true;
    }
    CACTIS_RETURN_IF_ERROR(NotifyDependencyDone(w));
  }
  return Status::OK();
}

Result<Value> EvalEngine::ExecuteRule(const AttrSite& site, Transaction* txn) {
  CACTIS_ASSIGN_OR_RETURN(const schema::ObjectClass* cls,
                          db_->ClassOfInstancePtr(site.instance));
  const schema::AttributeDef& def = cls->attributes()[site.attr];
  if (def.rule == nullptr) {
    return Status::Internal("ExecuteRule on attribute without rule: " +
                            SiteName(db_, site));
  }
  ++stats_.rule_evaluations;
  if (auto* c = obs::RequestScope::CurrentCost()) ++c->attrs_reevaluated;
  // Mirror instances (distribution layer): the owning site supplies the
  // value instead of the local rule.
  auto mirror = db_->mirror_resolvers_.find(site.instance);
  if (mirror != db_->mirror_resolvers_.end()) {
    Result<Value> fetched = mirror->second(site.attr);
    if (!fetched.ok()) {
      return Status(fetched.status().code(),
                    "fetching mirrored " + SiteName(db_, site) + ": " +
                        fetched.status().message());
    }
    return Database::CoerceToType(std::move(fetched).value(), def.type);
  }
  RuleContext ctx(db_, this, site.instance, cls, txn,
                  /*allow_assign=*/false);
  Result<Value> raw = def.rule->is_native
                          ? def.rule->native.fn(&ctx)
                          : lang::Interpreter::EvalRule(def.rule->body, &ctx);
  if (!raw.ok()) {
    return Status(raw.status().code(), "evaluating " + SiteName(db_, site) +
                                           ": " + raw.status().message());
  }
  return Database::CoerceToType(std::move(raw).value(), def.type);
}

Status EvalEngine::PublishValue(const AttrSite& site, Value value) {
  CACTIS_ASSIGN_OR_RETURN(const schema::ObjectClass* cls,
                          db_->ClassOfInstancePtr(site.instance));
  const schema::AttributeDef& def = cls->attributes()[site.attr];

  CACTIS_ASSIGN_OR_RETURN(Instance * inst, db_->FetchInstance(site.instance));
  AttrSlot& slot = inst->attrs()[site.attr];
  slot.value = value;
  slot.out_of_date = false;
  CACTIS_RETURN_IF_ERROR(db_->WriteInstance(*inst));

  if (def.is_constraint) {
    ++stats_.constraint_checks;
    auto ok = value.AsBool();
    if (!ok.ok()) {
      return Status::TypeMismatch("constraint " + SiteName(db_, site) +
                                  " did not evaluate to a boolean");
    }
    if (!*ok && !replay_mode_) {
      ++stats_.constraint_violations;
      violations_.push_back(site);
    }
  }
  if (def.subtype.valid()) {
    auto member = value.AsBool();
    if (member.ok()) {
      db_->UpdateSubtypeMembership(def.subtype, site.instance, *member);
    }
  }
  return Status::OK();
}

Result<Value> EvalEngine::EvalAdHoc(InstanceId instance,
                                    const schema::ObjectClass* cls,
                                    const lang::RuleBody& body,
                                    Transaction* txn) {
  RuleContext ctx(db_, this, instance, cls, txn, /*allow_assign=*/false);
  return lang::Interpreter::EvalRule(body, &ctx);
}

Result<Value> EvalEngine::EvalSync(const AttrSite& site, Transaction* txn) {
  CACTIS_ASSIGN_OR_RETURN(const schema::ObjectClass* cls,
                          db_->ClassOfInstancePtr(site.instance));
  const schema::AttributeDef& def = cls->attributes()[site.attr];
  CACTIS_ASSIGN_OR_RETURN(Instance * inst, db_->FetchInstance(site.instance));
  if (!def.is_derived() || !inst->attrs()[site.attr].out_of_date) {
    return inst->attrs()[site.attr].value;
  }
  if (std::find(sync_stack_.begin(), sync_stack_.end(), site) !=
      sync_stack_.end()) {
    if (def.circular) {
      // Fixed-point mode: hand back the current iterate; the engine-level
      // iteration drives convergence.
      return inst->attrs()[site.attr].value;
    }
    return Status::CycleDetected(
        "attribute dependency cycle involving " + SiteName(db_, site) +
        " (Cactis does not support data cycles)");
  }
  sync_stack_.push_back(site);
  Result<Value> value = ExecuteRule(site, txn);
  sync_stack_.pop_back();
  CACTIS_RETURN_IF_ERROR(value.status());
  CACTIS_RETURN_IF_ERROR(PublishValue(site, value.value()));
  // Re-read: PublishValue coerced nothing further, value is canonical.
  CACTIS_ASSIGN_OR_RETURN(Instance * after, db_->FetchInstance(site.instance));
  return after->attrs()[site.attr].value;
}

// --- Driving ---------------------------------------------------------------

Status EvalEngine::DrainAndCheck() {
  for (int round = 0; ; ++round) {
    while (true) {
      CACTIS_RETURN_IF_ERROR(db_->scheduler_->RunUntilIdle(this));
      if (to_evaluate_.empty()) break;
      while (!to_evaluate_.empty()) {
        AttrSite site = to_evaluate_.front();
        to_evaluate_.pop_front();
        CACTIS_RETURN_IF_ERROR(
            RequestEval(site, std::nullopt, EdgeId(), false));
      }
    }

    // Collect stuck nodes (a dependency cycle and everything waiting on
    // it).
    std::vector<AttrSite> stuck;
    for (const auto& [site, node] : nodes_) {
      if (!node.done) stuck.push_back(site);
    }
    if (stuck.empty()) {
      nodes_.clear();
      return Status::OK();
    }
    std::sort(stuck.begin(), stuck.end());

    // The stuck set is the dependency cycle itself plus every attribute
    // transitively waiting on it. Only the `circular` attributes can form
    // a resolvable cycle: fix-point them; their completion unblocks the
    // (non-circular) waiters on the next drain.
    std::vector<AttrSite> circular_stuck;
    for (const AttrSite& site : stuck) {
      auto cls = db_->ClassOfInstancePtr(site.instance);
      bool circular = cls.ok() && site.attr < (*cls)->attributes().size() &&
                      (*cls)->attributes()[site.attr].circular;
      if (circular) circular_stuck.push_back(site);
    }
    if (circular_stuck.empty() || round > 8) {
      AttrSite culprit = stuck.front();
      bool had_circular = !circular_stuck.empty();
      nodes_.clear();
      return Status::CycleDetected(
          "attribute dependency cycle involving " + SiteName(db_, culprit) +
          (had_circular
               ? " (fixed-point evaluation did not settle the graph)"
               : " (Cactis does not support data cycles; declare the "
                 "attributes `circular` for fixed-point evaluation)"));
    }

    CACTIS_RETURN_IF_ERROR(FixpointEvaluate(circular_stuck));
    // Completing the fix-pointed nodes wakes their waiters; drain again.
    for (const AttrSite& site : circular_stuck) {
      CACTIS_RETURN_IF_ERROR(CompleteNode(site));
    }
  }
}

Status EvalEngine::FixpointEvaluate(std::vector<AttrSite> sites) {
  // Initialise every participating attribute to its declared default (the
  // lattice bottom) without triggering constraint/subtype machinery.
  for (const AttrSite& site : sites) {
    CACTIS_ASSIGN_OR_RETURN(const schema::ObjectClass* cls,
                            db_->ClassOfInstancePtr(site.instance));
    const Value& bottom = cls->attributes()[site.attr].default_value;
    CACTIS_ASSIGN_OR_RETURN(Instance * inst,
                            db_->FetchInstance(site.instance));
    inst->attrs()[site.attr].value = bottom;
    inst->attrs()[site.attr].out_of_date = false;
    CACTIS_RETURN_IF_ERROR(db_->WriteInstance(*inst));
  }

  const int limit = kMaxFixpointIterations;
  for (int iter = 0; iter < limit; ++iter) {
    bool changed = false;
    for (const AttrSite& site : sites) {
      CACTIS_ASSIGN_OR_RETURN(Value value, ExecuteRule(site, current_txn_));
      CACTIS_ASSIGN_OR_RETURN(Instance * inst,
                              db_->FetchInstance(site.instance));
      if (!(inst->attrs()[site.attr].value == value)) {
        changed = true;
        CACTIS_RETURN_IF_ERROR(PublishValue(site, std::move(value)));
      }
    }
    if (!changed) return Status::OK();
  }
  return Status::CycleDetected(
      "circular attribute evaluation did not converge within " +
      std::to_string(limit) + " iterations (is the rule monotonic?)");
}

Status EvalEngine::EvaluateImportant(Transaction* txn) {
  Transaction* saved = current_txn_;
  current_txn_ = txn;
  Status status = EvaluateImportantImpl(txn);
  current_txn_ = saved;
  return status;
}

Status EvalEngine::EvaluateImportantImpl(Transaction* txn) {
  for (int round = 0; round <= kMaxRecoveryRounds; ++round) {
    CACTIS_RETURN_IF_ERROR(DrainAndCheck());
    if (violations_.empty()) return Status::OK();

    std::vector<AttrSite> viols = std::exchange(violations_, {});
    for (const AttrSite& site : viols) {
      CACTIS_ASSIGN_OR_RETURN(const schema::ObjectClass* cls,
                              db_->ClassOfInstancePtr(site.instance));
      const schema::AttributeDef& def = cls->attributes()[site.attr];
      if (def.recovery == nullptr) {
        return Status::ConstraintViolation("constraint " +
                                           SiteName(db_, site) + " violated");
      }
      ++stats_.recoveries_run;
      RuleContext ctx(db_, this, site.instance, cls, txn,
                      /*allow_assign=*/true);
      CACTIS_RETURN_IF_ERROR(
          lang::Interpreter::ExecStmts(*def.recovery, &ctx));
    }
    // Let the recovery's effects propagate, then verify each predicate.
    CACTIS_RETURN_IF_ERROR(DrainAndCheck());
    for (const AttrSite& site : viols) {
      CACTIS_ASSIGN_OR_RETURN(Value v, EvalSync(site, txn));
      auto ok = v.AsBool();
      if (!ok.ok() || !*ok) {
        return Status::ConstraintViolation(
            "constraint " + SiteName(db_, site) +
            " still violated after its recovery action");
      }
    }
  }
  if (!violations_.empty()) {
    return Status::ConstraintViolation(
        "constraint recovery did not converge after " +
        std::to_string(kMaxRecoveryRounds) + " rounds");
  }
  return Status::OK();
}

Result<Value> EvalEngine::DemandValue(const AttrSite& site, Transaction* txn,
                                      bool user_request) {
  CACTIS_RETURN_IF_ERROR(RequestEval(site, std::nullopt, EdgeId(),
                                     user_request));
  CACTIS_RETURN_IF_ERROR(EvaluateImportant(txn));
  CACTIS_ASSIGN_OR_RETURN(Instance * inst, db_->FetchInstance(site.instance));
  return inst->attrs()[site.attr].value;
}

}  // namespace cactis::core
