#include "txn/timestamp_cc.h"

#include <algorithm>

namespace cactis::txn {

Status TimestampManager::CheckRead(InstanceId id, uint64_t ts) {
  ++stats_.reads_checked;
  Marks& m = marks_[id];
  if (ts < m.write_ts) {
    ++stats_.read_rejections;
    return Status::Conflict(
        "read of instance " + std::to_string(id.value) + " by txn ts " +
        std::to_string(ts) + " arrives after write ts " +
        std::to_string(m.write_ts));
  }
  m.read_ts = std::max(m.read_ts, ts);
  return Status::OK();
}

Status TimestampManager::CheckWrite(InstanceId id, uint64_t ts,
                                    uint64_t txn) {
  ++stats_.writes_checked;
  Marks& m = marks_[id];
  if (m.pending_txn != 0 && m.pending_txn != txn) {
    // First-updater-wins: another transaction wrote this instance and has
    // not staged or rolled back yet. Admitting a second writer now could
    // let it commit first, putting its WAL entry *before* the first
    // writer's — replay would then finish on the older value.
    ++stats_.write_rejections;
    ++stats_.dirty_write_rejections;
    return Status::Conflict(
        "write of instance " + std::to_string(id.value) + " by txn " +
        std::to_string(txn) + ": txn " + std::to_string(m.pending_txn) +
        " holds an uncommitted write");
  }
  if (ts < m.read_ts || ts < m.write_ts) {
    ++stats_.write_rejections;
    return Status::Conflict(
        "write of instance " + std::to_string(id.value) + " by txn ts " +
        std::to_string(ts) + " conflicts (read ts " +
        std::to_string(m.read_ts) + ", write ts " +
        std::to_string(m.write_ts) + ")");
  }
  m.write_ts = ts;
  m.pending_txn = txn;
  return Status::OK();
}

void TimestampManager::ReleaseWrite(InstanceId id, uint64_t txn) {
  auto it = marks_.find(id);
  if (it != marks_.end() && it->second.pending_txn == txn) {
    it->second.pending_txn = 0;
  }
}

}  // namespace cactis::txn
