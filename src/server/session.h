// Session: per-client state of the service layer, and its manager.
//
// A Session owns what a connected client accumulates between requests:
//   * an open explicit transaction (`begin` ... `commit`/`abort`) whose
//     timestamp — issued by the core's TimestampManager — is the
//     session's identity for timestamp-ordering concurrency control;
//   * a binding table (`create task as t1` names live instance ids);
//   * a statement cursor (the id list produced by the last
//     select/instances/members, consumed by `fetch`);
//   * its statement count and cumulative cost (the per_session export).
//
// The SessionManager creates, looks up and removes sessions. Lookup is
// guarded by the manager mutex; the per-session mutex serializes the
// batches of one session (two requests racing on one session execute one
// after the other). A session leaves the table only through Close(),
// ReapExpired() or TakeAll(); each marks the corpse closed under its
// mutex and hands it back to the executor, which disposes it — rolling
// back an open transaction — under the database serialization mutex.
// Expiry is cooperative: the executor calls ReapExpired() on its worker
// threads.

#ifndef CACTIS_SERVER_SESSION_H_
#define CACTIS_SERVER_SESSION_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/result.h"
#include "core/database.h"
#include "obs/request_context.h"

namespace cactis::server {

struct Session {
  Session(SessionId sid, uint64_t now_ms)
      : id(sid), last_active_ms(now_ms) {}

  const SessionId id;

  /// Serializes request batches on this session and protects every field
  /// below. Lock order: session mutex before the executor's db mutex.
  std::mutex mu;

  /// Set once the session has been closed or expired; a worker that
  /// acquired the pointer before removal finds out here.
  bool closed = false;

  /// Open explicit transaction, if any. Its ts() is the session's
  /// current concurrency-control timestamp.
  std::unique_ptr<core::Transaction> txn;

  /// Name -> instance bindings (`create <class> as <name>`).
  std::unordered_map<std::string, InstanceId> bindings;

  /// Statement cursor: result of the last select/instances/members.
  std::vector<InstanceId> cursor;
  size_t cursor_pos = 0;

  /// Timestamp of the current / most recent transaction
  /// (Response.metrics.session_ts).
  uint64_t last_ts = 0;

  /// Statements executed on this session, feeding RequestContext's
  /// statement_seq (protected by the session mutex like the fields
  /// above).
  uint64_t statement_seq = 0;

  /// Statements executed and their cumulative cost, exported in the
  /// "server" metrics group's per_session array. Atomics: workers add
  /// while the exporter reads without the session mutex.
  std::atomic<uint64_t> statements{0};
  obs::CostTotals cost;

  /// Last request activity, for timeout expiry. Atomic so the reaper can
  /// read it without the session mutex.
  std::atomic<uint64_t> last_active_ms;
};

class SessionManager {
 public:
  /// `timeout_ms` of 0 disables expiry.
  explicit SessionManager(uint64_t timeout_ms) : timeout_ms_(timeout_ms) {}

  /// Creates a session. Thread-safe.
  std::shared_ptr<Session> Open(uint64_t now_ms);

  /// Removes the session from the table at once (no new batch can find
  /// it) and returns it, marked closed under its own mutex — which waits
  /// for a batch executing on it to finish — for the caller to dispose:
  /// its transaction, if open, must be rolled back under the database
  /// mutex. Null when the id is unknown.
  std::shared_ptr<Session> Close(SessionId id);

  /// Looks the session up without expiry side effects. Thread-safe.
  std::shared_ptr<Session> Find(SessionId id);

  /// Removes every session idle past the timeout and returns the corpses
  /// for disposal. Sessions whose mutex is currently held (a batch is
  /// executing) are skipped — they are active by definition.
  ///
  /// Cheap on the hot path: a next-deadline watermark makes the common
  /// call (nothing can have expired yet) a single atomic load with no
  /// table scan and no manager lock.
  std::vector<std::shared_ptr<Session>> ReapExpired(uint64_t now_ms);

  /// Removes and returns every session (server shutdown). Waits for
  /// in-flight batches: each session is marked closed under its mutex.
  std::vector<std::shared_ptr<Session>> TakeAll();

  size_t active_count() const;

  /// Visits every live session under the manager mutex, in ascending id
  /// order (deterministic exports). `fn` must not call back into the
  /// manager and should only read atomic session fields — it runs while
  /// workers may be executing on those sessions.
  void ForEach(const std::function<void(const Session&)>& fn) const;

 private:
  const uint64_t timeout_ms_;
  mutable std::mutex mu_;
  uint64_t next_id_ = 0;
  std::unordered_map<SessionId, std::shared_ptr<Session>> sessions_;
  /// Earliest time any current session could expire, set by each full
  /// scan. ReapExpired returns immediately while now < watermark. 0
  /// (initial) forces the first scan. Conservative by construction:
  /// activity only pushes real deadlines later, never earlier.
  std::atomic<uint64_t> next_deadline_ms_{0};
};

}  // namespace cactis::server

#endif  // CACTIS_SERVER_SESSION_H_
