// EvalEngine: the incremental attribute-evaluation algorithm of paper
// section 2.2, expressed as chunked traversals (section 2.3).
//
// Phase 1 — mark out of date. From a changed intrinsic attribute or a
// structural change, traverse the attribute dependency graph forward,
// marking dependents out of date. Traversal stops at attributes that are
// already out of date (the O(1) repeated-update cut-off). Important
// attributes encountered — constraints, subtype predicates, subscribed
// attributes — are collected for phase 2.
//
// Phase 2 — demand-driven evaluation. Only important out-of-date
// attributes (and the out-of-date attributes they transitively need) are
// evaluated, each at most once. Evaluation of one attribute is two chunks:
// the first requests the values it depends on; the second, scheduled when
// they are all available, executes the rule and publishes the value.
//
// Both phases run through the ChunkScheduler, so the traversal order is a
// pure scheduling decision: resident instances first, then least expected
// disk I/O (decaying averages for evaluation, cluster-time worst-case
// statistics for marking).

#ifndef CACTIS_CORE_EVAL_ENGINE_H_
#define CACTIS_CORE_EVAL_ENGINE_H_

#include <deque>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/ids.h"
#include "common/relaxed_counter.h"
#include "common/result.h"
#include "common/value.h"
#include "core/instance.h"
#include "lang/interpreter.h"
#include "obs/metrics.h"
#include "sched/scheduler.h"
#include "schema/catalog.h"

namespace cactis::core {

class Database;
class Transaction;

/// An attribute instance: (instance id, attribute index within its class).
struct AttrSite {
  InstanceId instance;
  uint32_t attr = 0;
  auto operator<=>(const AttrSite&) const = default;
};

struct AttrSiteHash {
  size_t operator()(const AttrSite& s) const {
    uint64_t h = s.instance.value * 1099511628211ull;
    h ^= s.attr + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    return static_cast<size_t>(h);
  }
};

struct EvalStats {
  RelaxedCounter attrs_marked = 0;  // slots transitioned to out-of-date
  RelaxedCounter mark_visits = 0;   // marking steps incl. cut-offs
  RelaxedCounter mark_cutoffs = 0;  // visits stopped at already-out-of-date
  // Rule executions (each attr at most once per invalidation).
  RelaxedCounter rule_evaluations = 0;
  RelaxedCounter eval_requests = 0;  // demand requests incl. up-to-date hits
  RelaxedCounter constraint_checks = 0;
  RelaxedCounter constraint_violations = 0;
  RelaxedCounter recoveries_run = 0;
  RelaxedCounter sync_fallbacks = 0;  // dynamic deps missed by static analysis

  void ExportTo(obs::MetricsGroup* g) const {
    g->AddCounter("attrs_marked", attrs_marked);
    g->AddCounter("mark_visits", mark_visits);
    g->AddCounter("mark_cutoffs", mark_cutoffs);
    g->AddCounter("rule_evaluations", rule_evaluations);
    g->AddCounter("eval_requests", eval_requests);
    g->AddCounter("constraint_checks", constraint_checks);
    g->AddCounter("constraint_violations", constraint_violations);
    g->AddCounter("recoveries_run", recoveries_run);
    g->AddCounter("sync_fallbacks", sync_fallbacks);
  }
};

class EvalEngine : private sched::ChunkRunner {
 public:
  explicit EvalEngine(Database* db) : db_(db) {}

  /// Phase-1 entry: an intrinsic attribute of `site` changed; mark all
  /// attributes reachable through dependencies. Collects important ones.
  Status MarkDependentsOf(const AttrSite& site);

  /// Phase-1 entry for structural changes: an edge on (instance, port) was
  /// established or broken; marks structural dependents and consumers of
  /// values received across that port.
  Status MarkPortChanged(InstanceId instance, size_t port_index);

  /// Directly marks one derived attribute out of date (undo/redo path, and
  /// the environment layer's external-change hook).
  Status MarkAttribute(const AttrSite& site);

  /// Queues a derived attribute for evaluation in the next
  /// EvaluateImportant (used when instances are created: their constraints
  /// and subtype predicates must be established).
  void QueueImportant(const AttrSite& site) { to_evaluate_.push_back(site); }

  /// Phase 2: evaluates every queued important attribute (and what they
  /// need), checks constraints, runs recovery actions, re-checks. Returns
  /// ConstraintViolation when a constraint cannot be satisfied (the caller
  /// rolls the transaction back), CycleDetected on dependency cycles.
  Status EvaluateImportant(Transaction* txn);

  /// Demand a single attribute's current value (the user-query path;
  /// marks the chunk as a direct user request). Runs phase 2 for it.
  Result<Value> DemandValue(const AttrSite& site, Transaction* txn,
                            bool user_request);

  /// Synchronous recursive evaluation (also the fallback when a rule
  /// dynamically reads something static analysis missed).
  Result<Value> EvalSync(const AttrSite& site, Transaction* txn);

  /// Evaluates an ad-hoc rule body against one instance (the SelectWhere
  /// query path): a throwaway rule with full read access and no caching.
  Result<Value> EvalAdHoc(InstanceId instance,
                          const schema::ObjectClass* cls,
                          const lang::RuleBody& body, Transaction* txn);

  const EvalStats& stats() const { return stats_; }
  void ResetStats() { stats_ = EvalStats{}; }

  /// True while the engine is applying an undo/redo delta; constraint
  /// violations are not enforced then (the target state was consistent
  /// when it was current).
  void set_replay_mode(bool on) { replay_mode_ = on; }

 private:
  friend class RuleContext;

  struct EvalNode {
    AttrSite site;
    int pending = 0;           // dependency evaluations outstanding
    bool requested = false;    // chunk1 scheduled
    bool gathered = false;     // chunk1 ran
    bool done = false;
    bool charged = false;      // io_cost already credited to a parent
    double io_cost = 0;        // block misses incurred for this subtree
    EdgeId via_edge;           // edge crossed by the first requester
    std::vector<AttrSite> waiters;
  };

  /// Requests evaluation of `site` on behalf of `waiter` (nullopt for
  /// roots). `via_edge` is the relationship crossed, for I/O statistics.
  Status RequestEval(const AttrSite& site, std::optional<AttrSite> waiter,
                     EdgeId via_edge, bool user_request);

  /// sched::ChunkRunner: dispatches a chunk on its kind.
  Status RunChunk(const sched::Chunk& chunk) override;

  Status RunGatherChunk(const AttrSite& site);   // chunk 1
  /// Touches a remote dependency's instance, resolves the value name of
  /// the parent's rule dependency `dep` to an attribute of its class, and
  /// requests its evaluation if stale.
  Status RunResolveChunk(const AttrSite& parent, const EdgeRecord& edge,
                         uint32_t dep);
  Status NotifyDependencyDone(const AttrSite& site);
  void ScheduleCompute(const AttrSite& site);
  Status RunComputeChunk(const AttrSite& site);  // chunk 2
  Status CompleteNode(const AttrSite& site);
  Status EvaluateImportantImpl(Transaction* txn);

  /// Schedules a marking chunk for `site` reached across `via_edge`
  /// (invalid id for local steps).
  void ScheduleMark(const AttrSite& site, EdgeId via_edge);
  Status RunMarkChunk(const AttrSite& site);

  /// Executes the attribute's rule and publishes the value; shared by the
  /// chunked and synchronous paths.
  Result<Value> ExecuteRule(const AttrSite& site, Transaction* txn);
  Status PublishValue(const AttrSite& site, Value value);

  /// Runs the scheduler dry. Stuck evaluation nodes mean a dependency
  /// cycle: if every stuck attribute is declared `circular`, the cycle is
  /// resolved by fixed-point iteration ([Far86]; paper section 4 notes
  /// these techniques "are being incorporated into Cactis"); otherwise it
  /// is an error ("Cactis does not support data cycles").
  Status DrainAndCheck();

  /// Fixed-point evaluation of a strongly-coupled set of circular
  /// attributes: initialise each to its declared default (the lattice
  /// bottom), then re-run all rules until no value changes.
  Status FixpointEvaluate(std::vector<AttrSite> sites);

  /// Post-evaluation constraint handling with recovery rounds.
  Status ProcessViolations(Transaction* txn);

  Database* db_;
  EvalStats stats_;
  bool replay_mode_ = false;

  std::unordered_map<AttrSite, EvalNode, AttrSiteHash> nodes_;
  std::deque<AttrSite> to_evaluate_;
  std::vector<AttrSite> violations_;
  std::vector<AttrSite> sync_stack_;
  Transaction* current_txn_ = nullptr;
};

}  // namespace cactis::core

#endif  // CACTIS_CORE_EVAL_ENGINE_H_
