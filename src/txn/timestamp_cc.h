// Timestamp-ordering concurrency control.
//
// The paper (section 1.1) states Cactis "uses a timestamping concurrency
// control technique". We implement basic timestamp ordering at instance
// granularity: every transaction receives a start timestamp; each instance
// carries the largest read and write timestamps that touched it.
//
//   read(I)  by T: reject if ts(T) < write_ts(I); else read_ts = max(...)
//   write(I) by T: reject if ts(T) < read_ts(I) or ts(T) < write_ts(I);
//                  else write_ts = ts(T)
//
// A rejected operation aborts the transaction, which rolls back through
// its delta. (The classic Thomas write rule is deliberately not applied:
// derived-attribute propagation makes "ignore the write" unsound.)
//
// On top of basic TO, writes enforce a first-updater-wins rule: while a
// transaction has written an instance and is still open and *unstaged*
// (no WAL ticket yet), any other transaction's write to that instance is
// rejected. Without this, in-memory updates (applied eagerly at
// statement time) and WAL tickets (assigned at commit time) can order
// two writers oppositely; replaying the journal's absolute-value deltas
// in ticket order would then resurrect the older value after a crash —
// a lost acked update. Once the first writer stages, its ticket is
// fixed, so any later writer stages later and replay order matches
// apply order. The pending mark is released when the writer stages,
// commits without journaling, or rolls back.
//
// Thread model: single-threaded, like the rest of the core. Every check
// runs under the service layer's statement mutex; MVCC snapshot reads
// never consult the marks, which is why a snapshot reader can never abort
// a writer.

#ifndef CACTIS_TXN_TIMESTAMP_CC_H_
#define CACTIS_TXN_TIMESTAMP_CC_H_

#include <cstdint>
#include <unordered_map>

#include "common/clock.h"
#include "common/ids.h"
#include "common/result.h"
#include "common/status.h"
#include "obs/metrics.h"

namespace cactis::txn {

struct ConcurrencyStats {
  uint64_t reads_checked = 0;
  uint64_t writes_checked = 0;
  uint64_t read_rejections = 0;
  uint64_t write_rejections = 0;
  uint64_t dirty_write_rejections = 0;

  void ExportTo(obs::MetricsGroup* g) const {
    g->AddCounter("reads_checked", reads_checked);
    g->AddCounter("writes_checked", writes_checked);
    g->AddCounter("read_rejections", read_rejections);
    g->AddCounter("write_rejections", write_rejections);
    g->AddCounter("dirty_write_rejections", dirty_write_rejections);
  }
};

class TimestampManager {
 public:
  /// Issues a fresh, strictly increasing transaction timestamp.
  uint64_t BeginTransaction() { return clock_.Tick(); }

  /// Validates and records a read of `id` by a transaction with timestamp
  /// `ts`. Conflict means the transaction must abort.
  Status CheckRead(InstanceId id, uint64_t ts);

  /// Validates and records a write by transaction `txn` (first-updater-
  /// wins: rejects while another open, unstaged transaction holds a
  /// pending write on `id`).
  Status CheckWrite(InstanceId id, uint64_t ts, uint64_t txn);

  /// Drops `txn`'s pending-writer mark on `id`, admitting later writers.
  /// Called when the transaction stages its commit (WAL ticket fixed),
  /// commits without journaling, or rolls back.
  void ReleaseWrite(InstanceId id, uint64_t txn);

  /// Forgets an instance (deleted).
  void Forget(InstanceId id) { marks_.erase(id); }

  const ConcurrencyStats& stats() const { return stats_; }
  void ResetStats() { stats_ = ConcurrencyStats(); }

 private:
  struct Marks {
    uint64_t read_ts = 0;
    uint64_t write_ts = 0;
    // Transaction currently holding an unstaged write on this instance
    // (0 = none).
    uint64_t pending_txn = 0;
  };

  LogicalClock clock_;
  std::unordered_map<InstanceId, Marks> marks_;
  ConcurrencyStats stats_;
};

}  // namespace cactis::txn

#endif  // CACTIS_TXN_TIMESTAMP_CC_H_
