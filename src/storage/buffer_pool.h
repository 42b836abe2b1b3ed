// BufferPool: fixed-capacity LRU cache of resident blocks over the
// SimulatedDisk.
//
// A resident block is a BlockImage holding the block's own framed bytes:
// a fault verifies the checksum and adopts the buffer it read, and a dirty
// write-back stamps a fresh checksum and writes the bytes as they stand.
//
// ResidencyListener.OnBlockLoaded is the hook the rest of the system needs
// (paper section 2.3): "Whenever a disk block is read into memory, all
// processes which are associated with some instance stored on that block
// are promoted to a special very high priority queue." The chunk scheduler
// registers a listener to implement exactly that.

#ifndef CACTIS_STORAGE_BUFFER_POOL_H_
#define CACTIS_STORAGE_BUFFER_POOL_H_

#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/backoff.h"
#include "common/ids.h"
#include "common/relaxed_counter.h"
#include "common/result.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/block_image.h"
#include "storage/checksum.h"
#include "storage/simulated_disk.h"

namespace cactis::storage {

/// Notification interface for block residency transitions.
class ResidencyListener {
 public:
  virtual ~ResidencyListener() = default;
  /// The block has just been read from disk into the pool.
  virtual void OnBlockLoaded(BlockId id) = 0;
  /// The block is about to leave the pool (already flushed if dirty).
  virtual void OnBlockEvicted(BlockId id) = 0;
};

struct BufferPoolStats {
  RelaxedCounter hits = 0;
  RelaxedCounter misses = 0;
  RelaxedCounter evictions = 0;
  RelaxedCounter discards = 0;
  RelaxedCounter retries = 0;     ///< transient disk faults retried
  RelaxedCounter give_ups = 0;    ///< retry budgets exhausted
  RelaxedCounter backoff_us = 0;  ///< total time slept in retry backoff

  void ExportTo(obs::MetricsGroup* g) const {
    g->AddCounter("hits", hits);
    g->AddCounter("misses", misses);
    g->AddCounter("evictions", evictions);
    g->AddCounter("discards", discards);
    g->AddCounter("retries", retries);
    g->AddCounter("give_ups", give_ups);
    g->AddCounter("backoff_us", backoff_us);
  }
};

class BufferPool {
 public:
  /// `capacity` is the number of blocks held in memory; must be >= 1.
  /// Disk geometry is validated here: a block size that cannot hold the
  /// checksum frame plus at least one payload byte leaves the pool in a
  /// failed state (see status()) and every Fetch returns that error.
  BufferPool(SimulatedDisk* disk, size_t capacity);

  /// Construction-time validation result. Not OK when the disk's block
  /// size is <= kChecksumFrameBytes, in which case usable_block_bytes()
  /// would be 0 and capacity checks above the pool would divide by or
  /// compare against zero.
  const Status& status() const { return init_status_; }

  /// Returns the in-memory image of `id`, reading it from disk (and
  /// possibly evicting the LRU block) if needed. The pointer stays valid
  /// until the block is evicted. Every block read is checksum-verified;
  /// a torn or bit-rotted block surfaces as kCorruption instead of being
  /// decoded as garbage.
  Result<BlockImage*> Fetch(BlockId id);

  /// Bytes of a disk block available to a BlockImage's payload: the block
  /// size minus the checksum frame the pool adds on write-back. Capacity
  /// checks above the pool must use this, not the raw block size.
  size_t usable_block_bytes() const {
    return disk_->block_size() > kChecksumFrameBytes
               ? disk_->block_size() - kChecksumFrameBytes
               : 0;
  }

  /// Marks a resident block dirty; it will be written back on eviction or
  /// FlushAll. It is an error to mark a non-resident block.
  Status MarkDirty(BlockId id);

  /// True when the block is in memory (no I/O is triggered).
  bool IsResident(BlockId id) const { return frames_.contains(id); }

  /// Writes back every dirty block (blocks stay resident).
  Status FlushAll();

  /// Drops a block from the pool without writing it back; used when the
  /// record store frees or relocates the block. Listeners receive
  /// OnBlockEvicted so caches of decoded state (the object cache) drop
  /// entries for the vanished block instead of serving stale pointers.
  void Discard(BlockId id);

  /// Registers an additional residency listener (the object cache and the
  /// chunk scheduler both observe block transitions).
  void AddListener(ResidencyListener* listener) {
    listeners_.push_back(listener);
  }

  /// Optional span tracer; records block fetch/evict/discard events.
  void set_trace_sink(obs::TraceSink* sink) { trace_ = sink; }

  /// Retry budget for transient disk faults (flaky reads/writes classified
  /// kTransient by the error taxonomy). Permanent and corruption faults
  /// are never retried.
  void set_retry_policy(BackoffPolicy policy) { retry_policy_ = policy; }

  size_t capacity() const { return capacity_; }
  /// Readable from any thread (the database.resident_blocks metric).
  size_t resident_blocks() const { return resident_blocks_; }
  /// Ids of every resident block. Benchmarks use this (with FlushAll +
  /// Discard) to cold the pool so runs score from identical cache state.
  std::vector<BlockId> ResidentBlockIds() const {
    std::vector<BlockId> out;
    out.reserve(frames_.size());
    for (const auto& [id, frame] : frames_) out.push_back(id);
    return out;
  }
  const BufferPoolStats& stats() const { return stats_; }
  void ResetStats() { stats_ = BufferPoolStats{}; }

 private:
  struct Frame {
    BlockImage image;
    bool dirty = false;
    std::list<BlockId>::iterator lru_pos;
  };

  Status EvictOne();
  Status WriteBack(BlockId id, Frame* frame);
  Result<std::string> ReadWithRetry(BlockId id);
  Status WriteWithRetry(BlockId id, const std::string& framed);

  SimulatedDisk* disk_;
  size_t capacity_;
  Status init_status_;
  BackoffPolicy retry_policy_;
  obs::TraceSink* trace_ = nullptr;
  std::unordered_map<BlockId, Frame> frames_;
  RelaxedCounter resident_blocks_ = 0;  // frames_.size()
  std::list<BlockId> lru_;  // front = most recently used
  std::vector<ResidencyListener*> listeners_;
  BufferPoolStats stats_;
};

}  // namespace cactis::storage

#endif  // CACTIS_STORAGE_BUFFER_POOL_H_
