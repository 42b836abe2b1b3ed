#ifndef CACTIS_OBS_REQUEST_CONTEXT_H_
#define CACTIS_OBS_REQUEST_CONTEXT_H_

// Request-scoped observability context.
//
// The service layer executes each statement start-to-finish on one
// thread (a worker, or the caller in num_workers == 0 mode), so request
// identity propagates the way tracing systems usually do it: a
// thread-local context installed for the duration of the statement.
// The executor mints a RequestContext per statement and installs it with
// a RequestScope; every instrumented site below — the simulated disk,
// the buffer pool, the eval engine, the chunk scheduler, the WAL — asks
// RequestScope for the current context instead of having it plumbed
// through a dozen call signatures.
//
// Two things ride on the context:
//
//  * TraceSink events stamp RequestScope::CurrentTraceId() into their
//    `trace` field, so a drained trace ring can be sliced per statement.
//  * A StatementCost accumulator collects the statement's resource
//    breakdown (blocks read/written, cache hits/misses, attributes
//    re-evaluated, chunks scheduled, WAL bytes, lock/queue/exec time).
//    Sites bump it through CurrentCost(), which is null — one
//    thread-local load and one branch — when no statement is in flight.
//
// Attribution has the same scope as the statement lock: work a
// statement performs on behalf of others (e.g. the WAL flush leader
// writing a whole group-commit batch) is charged to the statement that
// happened to do it. That is the honest answer for "who waited on this
// disk?" and it keeps the mechanism lock-free.

#include <array>
#include <atomic>
#include <cstdint>
#include <iterator>

namespace cactis::obs {

class JsonWriter;
class MetricsGroup;

/// Identity of one in-flight statement. trace_id is globally unique per
/// executor and never zero for a real statement (zero means "no
/// context", e.g. background session reaping).
struct RequestContext {
  uint64_t trace_id = 0;
  uint64_t session_id = 0;
  uint64_t statement_seq = 0;  // per-session statement ordinal
};

/// Resource breakdown of one statement. Field glossary in DESIGN.md
/// ("Observability" > "Statement cost glossary") — keep the two in sync.
/// kCostFields below names the counters.
struct StatementCost {
  uint64_t blocks_read = 0;        // SimulatedDisk reads
  uint64_t blocks_written = 0;     // SimulatedDisk writes (WAL included)
  uint64_t cache_hits = 0;         // BufferPool frame hits
  uint64_t cache_misses = 0;       // BufferPool faults (each costs a read)
  uint64_t attrs_reevaluated = 0;  // derived-attribute rule executions
  uint64_t chunks_scheduled = 0;   // traversal chunks enqueued
  uint64_t wal_bytes = 0;          // WAL payload bytes staged
  uint64_t queue_wait_us = 0;      // submit -> worker pickup (per request,
                                   // charged to its first statement)
  uint64_t lock_wait_shared_us = 0;  // read statement: mutex wait
  uint64_t lock_wait_excl_us = 0;    // any other statement: mutex wait
  uint64_t exec_us = 0;              // lock wait + database time
  bool snapshot_path = false;        // answered from an MVCC snapshot,
                                     // no lock taken at all

  /// Writes the counters of kCostFields, then snapshot_path, as members
  /// of the writer's current object.
  void WriteFields(JsonWriter* w) const;
};

/// The statement-cost counters, one (JSON name, member) row each. The
/// one list of them: StatementCost::WriteFields, the per-session totals
/// and the server's cost_* aggregates all iterate it.
struct CostField {
  const char* name;
  uint64_t StatementCost::*member;
};
inline constexpr CostField kCostFields[] = {
    {"blocks_read", &StatementCost::blocks_read},
    {"blocks_written", &StatementCost::blocks_written},
    {"cache_hits", &StatementCost::cache_hits},
    {"cache_misses", &StatementCost::cache_misses},
    {"attrs_reevaluated", &StatementCost::attrs_reevaluated},
    {"chunks_scheduled", &StatementCost::chunks_scheduled},
    {"wal_bytes", &StatementCost::wal_bytes},
    {"queue_wait_us", &StatementCost::queue_wait_us},
    {"lock_wait_shared_us", &StatementCost::lock_wait_shared_us},
    {"lock_wait_excl_us", &StatementCost::lock_wait_excl_us},
    {"exec_us", &StatementCost::exec_us},
};

/// Cumulative totals of kCostFields over many statements, folded in
/// after each one. Relaxed atomics: workers add while the metrics
/// exporter reads without any lock. The executor keeps one per session
/// (the "per_session" array) and one server-wide (the "cost_*"
/// counters).
class CostTotals {
 public:
  void Add(const StatementCost& c) {
    for (size_t i = 0; i < std::size(kCostFields); ++i) {
      const uint64_t v = c.*kCostFields[i].member;
      if (v != 0) totals_[i].fetch_add(v, std::memory_order_relaxed);
    }
  }

  /// Writes each total as member `<name>` of the writer's current object.
  void WriteFields(JsonWriter* w) const;
  /// Exports each total as counter `cost_<name>`.
  void ExportTo(MetricsGroup* g) const;

 private:
  std::array<std::atomic<uint64_t>, std::size(kCostFields)> totals_{};
};

/// RAII installer of the thread's current request. Non-reentrant by
/// design: one statement per thread at a time (the previous context is
/// saved and restored anyway, so nesting is merely unattributed, not
/// unsafe).
class RequestScope {
 public:
  RequestScope(const RequestContext& ctx, StatementCost* cost)
      : saved_ctx_(current_ctx_), saved_cost_(current_cost_) {
    current_ctx_ = ctx;
    current_cost_ = cost;
  }
  ~RequestScope() {
    current_ctx_ = saved_ctx_;
    current_cost_ = saved_cost_;
  }
  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

  /// Trace id of the statement running on this thread, or 0.
  static uint64_t CurrentTraceId() { return current_ctx_.trace_id; }
  static const RequestContext& Current() { return current_ctx_; }

  /// Cost accumulator of the statement running on this thread, or null.
  /// Instrumented sites use the idiom
  ///   if (auto* c = RequestScope::CurrentCost()) ++c->blocks_read;
  /// which costs one thread-local load + one branch when idle — the same
  /// discipline as the trace sink's disabled check.
  static StatementCost* CurrentCost() { return current_cost_; }

 private:
  static thread_local RequestContext current_ctx_;
  static thread_local StatementCost* current_cost_;

  RequestContext saved_ctx_;
  StatementCost* saved_cost_;
};

}  // namespace cactis::obs

#endif  // CACTIS_OBS_REQUEST_CONTEXT_H_
