// Checkpointing: bounded-time recovery and WAL truncation.
//
// Without checkpoints, recovery replays the whole journal — O(history).
// A checkpoint writes a consistent snapshot of the database (the
// *image*) to a reserved platter region, records the WAL position it
// covers (the resume LSN), and lets TruncateBefore() drop every journal
// entry older than that LSN. Recovery becomes load-image + replay-tail:
// O(WAL tail), independent of how long the database has lived.
//
// On-disk layout. Two *slot* blocks are reserved right after the WAL's
// superblock and first tail block (blocks 3 and 4 of a fresh database).
// The image itself lives in a chain of freshly allocated blocks:
//
//   slot:  [crc32][slot magic u64][generation u64][chain head block u64]
//          [wal resume seq u64][wal resume block u64]
//
//   chain: [crc32][chain magic u32][next block u64]
//          [image piece (length-prefixed)]       (next == 0 ends the chain)
//
// Writing a checkpoint is double-buffered: the new image chain is written
// to fresh blocks, then the *inactive* slot (the one with the lower
// generation) is overwritten in a single block write — the atomic commit
// point. The active slot and its chain are never touched, so a crash at
// any write during checkpointing leaves either the old or the new
// checkpoint fully intact, never garbage. LoadLatest() validates slots in
// descending generation order and falls back to the older one if the
// newer fails anywhere (torn slot, damaged chain, undecodable image).
//
// The image (built by Database::BuildCheckpointImage) carries the id
// counters, a bootstrap delta that recreates every live instance, its
// intrinsic attributes and every edge, and the full version-store state
// (retained history, position, name table) — the tail may contain undo/
// checkout meta-actions that walk the history, so it must survive.

#ifndef CACTIS_TXN_CHECKPOINT_H_
#define CACTIS_TXN_CHECKPOINT_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/backoff.h"
#include "common/ids.h"
#include "common/relaxed_counter.h"
#include "common/result.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "storage/simulated_disk.h"
#include "txn/delta.h"

namespace cactis::txn {

/// Everything a fresh database needs to reconstruct the checkpointed
/// state. The bootstrap delta replays through the same redo machinery as
/// a committed transaction (forced ids bump the counters); derived
/// attributes are re-evaluated on load, exactly as WAL replay does.
struct CheckpointImage {
  uint64_t next_instance = 0;
  uint64_t next_edge = 0;
  uint64_t next_txn = 0;
  /// kCreate per live instance (ascending id), kSetAttr per intrinsic
  /// attribute, kConnect per edge (ascending edge id).
  TransactionDelta bootstrap;
  /// Version facility state, verbatim. `history_base` is the number of
  /// pruned leading deltas: the retained history covers the absolute
  /// positions history_base+1 .. history_base+history.size().
  std::vector<TransactionDelta> history;
  uint64_t history_base = 0;
  uint64_t position = 0;
  std::map<std::string, uint64_t> versions;
  uint64_t next_version = 0;
};

std::string EncodeCheckpointImage(const CheckpointImage& image);
Result<CheckpointImage> DecodeCheckpointImage(std::string_view bytes);

struct CheckpointStats {
  RelaxedCounter checkpoints_written = 0;
  RelaxedCounter chain_blocks_written = 0;
  RelaxedCounter image_bytes = 0;  ///< bytes of the most recent image
  RelaxedCounter retries = 0;      ///< transient write faults retried
  RelaxedCounter give_ups = 0;     ///< retry budgets exhausted
  RelaxedCounter backoff_us = 0;

  void ExportTo(obs::MetricsGroup* g) const {
    g->AddCounter("checkpoints_written", checkpoints_written);
    g->AddCounter("chain_blocks_written", chain_blocks_written);
    g->AddGauge("image_bytes", static_cast<double>(image_bytes));
    g->AddCounter("retries", retries);
    g->AddCounter("give_ups", give_ups);
    g->AddCounter("backoff_us", backoff_us);
  }
};

class CheckpointStore {
 public:
  static constexpr uint64_t kSlotMagic = 0x434143544943504BULL;  // "CACTICPK"
  static constexpr uint32_t kChainMagic = 0x4B504843;            // "CHPK"
  /// Slot addresses on a conventional platter: the two allocations right
  /// after the WAL's superblock (1) and first tail block (2).
  static constexpr uint64_t kSlotA = 3;
  static constexpr uint64_t kSlotB = 4;

  explicit CheckpointStore(storage::SimulatedDisk* disk) : disk_(disk) {}

  /// Reserves the two slot blocks. Must run right after the WAL
  /// initializes (so the slots land at kSlotA/kSlotB) and performs NO
  /// writes — a fresh database's platter carries no checkpoint until the
  /// first Checkpoint() call.
  Status AllocateSlots();

  /// Writes `image` as a new checkpoint covering the WAL up to (but not
  /// including) `wal_resume_seq`, whose first chunk will land in
  /// `wal_resume_block`. Crash-safe per the double-buffer protocol above.
  Status WriteCheckpoint(const std::string& image, uint64_t wal_resume_seq,
                         BlockId wal_resume_block);

  struct Loaded {
    std::string image;
    uint64_t generation = 0;
    uint64_t wal_resume_seq = 1;
    BlockId wal_resume_block;
  };

  /// Offline: returns the newest fully-valid checkpoint on the platter,
  /// or NotFound if neither slot holds one (fresh or pre-checkpoint
  /// platter).
  static Result<Loaded> LoadLatest(const storage::SimulatedDisk& platter);

  void set_retry_policy(BackoffPolicy policy) { retry_policy_ = policy; }
  const CheckpointStats& stats() const { return stats_; }

 private:
  Status WriteWithRetry(BlockId id, const std::string& framed);

  storage::SimulatedDisk* disk_;
  BlockId slots_[2];
  BackoffPolicy retry_policy_;
  CheckpointStats stats_;
};

}  // namespace cactis::txn

#endif  // CACTIS_TXN_CHECKPOINT_H_
