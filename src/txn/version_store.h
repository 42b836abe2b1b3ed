// VersionStore: the delta-based version facility (paper section 3).
//
// Committed transaction deltas form a linear history. A *version* names a
// position in that history. Checking out an older version walks deltas
// backwards (undo); returning to a newer one walks forwards (redo). "The
// information needed to remember a delta is proportional in size to the
// initial changes made to the database rather than the total change ...
// which may result because of derived data."
//
// Committing new work while positioned before the end truncates the redo
// tail (linear history, like an editor's undo stack). The store only
// manages bookkeeping; applying a delta to the database is the core
// layer's job, via the records this class hands back.
//
// Pruning: retained history would otherwise grow without bound, so
// PruneTo(floor) discards the deltas at positions <= floor while keeping
// every position number ABSOLUTE — `base_` remembers how many were
// dropped, and position()/end()/commit_seq keep counting from the start
// of time. The trade-off is bounded undo depth: PopLast and checkouts
// below the base fail with FailedPrecondition. The database layer picks
// a floor no newer than the oldest live snapshot, the oldest named
// version and the current checkout position.

#ifndef CACTIS_TXN_VERSION_STORE_H_
#define CACTIS_TXN_VERSION_STORE_H_

#include <map>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/relaxed_counter.h"
#include "common/result.h"
#include "txn/delta.h"

namespace cactis::txn {

class VersionStore {
 public:
  /// Appends a committed transaction delta. If the current position is not
  /// at the end of history, the tail beyond it (and any versions naming
  /// positions inside the truncated tail) is discarded first.
  /// Returns the commit sequence number.
  uint64_t Append(TransactionDelta delta);

  /// Names the current position. Version names are unique.
  Result<VersionId> CreateVersion(const std::string& name);

  /// Position lookup.
  Result<uint64_t> PositionOf(const std::string& name) const;

  uint64_t position() const { return position_; }
  /// One past the newest committed position. Readable from any thread,
  /// like pruned_deltas() and delta_bytes() (metrics).
  uint64_t end() const { return end_; }

  /// First retained position: deltas at positions <= base() are pruned.
  uint64_t base() const { return base_; }

  /// The deltas to undo, newest first, to move from the current position
  /// back to `target`. Empty when target >= position. Fails when the walk
  /// would cross pruned history (target < base()).
  Result<std::vector<const TransactionDelta*>> DeltasToUndo(
      uint64_t target) const;

  /// The deltas to redo, oldest first, to move forward to `target`.
  /// Fails when the current position itself sits below the base (cannot
  /// happen unless pruning ignored the position floor).
  Result<std::vector<const TransactionDelta*>> DeltasToRedo(
      uint64_t target) const;

  /// Moves the position marker after the core has applied the deltas.
  void SetPosition(uint64_t position) { position_ = position; }

  /// Pops the most recent delta entirely (the Undo meta-action on the last
  /// committed transaction). Only valid when positioned at the end, and
  /// only while the last delta has not been pruned.
  Result<TransactionDelta> PopLast();

  /// Discards the deltas at positions <= floor. Clamped to the current
  /// position (never prunes unapplied redo state). Named versions keep
  /// working as long as the database layer keeps the floor at or below
  /// the oldest named position. Returns the number of deltas dropped.
  uint64_t PruneTo(uint64_t floor);

  /// Cumulative number of deltas dropped by PruneTo (metrics).
  uint64_t pruned_deltas() const { return pruned_deltas_; }

  /// Smallest position a named version refers to, or UINT64_MAX when no
  /// versions exist. Pruning must not pass this.
  uint64_t OldestNamedPosition() const;

  /// Total bytes held by all retained deltas (experiment E7): a running
  /// total kept by every call that adds or drops a delta.
  uint64_t delta_bytes() const { return delta_bytes_; }

  std::vector<std::string> VersionNames() const;

  // --- Checkpoint snapshot/restore ----------------------------------------
  //
  // A checkpoint image must carry the whole version facility: the retained
  // history (tail meta-actions and post-recovery checkouts walk it), the
  // base offset of that history, the position marker, and the name table.
  // The accessors expose the state for encoding; Restore() replaces it
  // wholesale on a fresh store during recovery.

  const std::vector<TransactionDelta>& history() const { return history_; }
  const std::map<std::string, uint64_t>& versions() const { return versions_; }
  uint64_t next_version() const { return next_version_; }

  void Restore(std::vector<TransactionDelta> history, uint64_t base,
               uint64_t position, std::map<std::string, uint64_t> versions,
               uint64_t next_version);

 private:
  std::vector<TransactionDelta> history_;  // positions base_+1 .. end()
  uint64_t base_ = 0;      // number of pruned (dropped) leading deltas
  uint64_t position_ = 0;  // number of applied deltas (absolute)
  RelaxedCounter end_ = 0;  // base_ + history_.size()
  RelaxedCounter delta_bytes_ = 0;
  RelaxedCounter pruned_deltas_ = 0;
  std::map<std::string, uint64_t> versions_;
  uint64_t next_version_ = 0;
};

}  // namespace cactis::txn

#endif  // CACTIS_TXN_VERSION_STORE_H_
