// ObjectCache: decoded instances layered over the record store.
//
// The cache mirrors buffer-pool residency: an instance may be cached only
// while its block is resident; eviction of the block drops the decoded
// copy. Writes are write-through — every mutation serialises the instance
// back into the record store immediately — so a dropped copy is never
// newer than its record.
//
// POINTER DISCIPLINE: a Fetch()ed Instance* is valid only until the next
// operation that can fault a block in (another Fetch, a Write, any
// record-store access). Callers copy what they need and re-fetch.
//
// The discipline is enforced mechanically: every cache operation that can
// fault a block bumps `generation_`, each handed-out handle records the
// generation it was issued at, and IsFresh() tells whether a handle is
// still from the current generation. Debug builds assert freshness when a
// cached copy is written through; tests assert it directly.
//
// THREADING: single-threaded — callers (Database, and through it the
// server executor) serialise every operation behind the statement mutex,
// and a ThreadSerialGuard aborts loudly if two threads ever race into
// one. The exception is NoteSharedTouch: MVCC snapshot readers, which
// take no lock, record deferred touches into small sharded buffers that
// the reorganizer drains into the access counts (DrainTouches), so
// hot-set clustering still sees read traffic.

#ifndef CACTIS_CORE_OBJECT_CACHE_H_
#define CACTIS_CORE_OBJECT_CACHE_H_

#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/thread_guard.h"
#include "core/instance.h"
#include "schema/catalog.h"
#include "storage/buffer_pool.h"
#include "storage/record_store.h"

namespace cactis::core {

class ObjectCache : public storage::ResidencyListener {
 public:
  ObjectCache(const schema::Catalog* catalog, storage::RecordStore* store)
      : catalog_(catalog), store_(store) {}

  /// Returns the decoded instance, faulting its block in if needed.
  Result<Instance*> Fetch(InstanceId id);

  /// Serialises `inst` and writes it through to the record store (the
  /// record may move blocks if it grew). `inst` may be the cached copy.
  Status WriteThrough(const Instance& inst);

  /// Registers a brand-new instance: stores its record and caches it.
  Status Insert(Instance inst);

  /// Removes the instance from cache and store.
  Status Remove(InstanceId id);

  /// Records a snapshot read for later clustering accounting. Safe from
  /// any thread without the statement mutex: lock-striped; drops the
  /// touch if its shard is full.
  void NoteSharedTouch(InstanceId id);

  /// Drains all deferred touches, adding one count per touch into
  /// `counts`. Statement mutex required (the reorganizer).
  void DrainTouches(std::unordered_map<InstanceId, uint64_t>* counts);

  bool IsCached(InstanceId id) const { return cache_.contains(id); }

  /// Current cache generation; bumped by every operation that can fault
  /// a block (Fetch, WriteThrough, Insert, Remove, block eviction).
  uint64_t generation() const { return generation_; }

  /// True while `inst` is a handle issued at the current generation —
  /// i.e. no block-faulting operation has happened since it was fetched,
  /// so the pointer is still safe to dereference.
  bool IsFresh(const Instance* inst) const {
    return inst != nullptr && inst->cache_epoch() == generation_;
  }

  // storage::ResidencyListener:
  void OnBlockLoaded(BlockId /*id*/) override {}
  void OnBlockEvicted(BlockId id) override;

 private:
  void IndexUnderBlock(InstanceId id);

  static constexpr size_t kTouchShards = 8;
  static constexpr size_t kTouchShardCapacity = 4096;

  struct TouchShard {
    std::mutex mu;
    std::vector<InstanceId> touches;
  };

  const schema::Catalog* catalog_;
  storage::RecordStore* store_;
  ThreadSerialGuard serial_guard_;
  uint64_t generation_ = 0;
  std::unordered_map<InstanceId, std::unique_ptr<Instance>> cache_;
  std::unordered_map<BlockId, std::unordered_set<InstanceId>> by_block_;
  std::unordered_map<InstanceId, BlockId> block_of_;
  TouchShard touch_shards_[kTouchShards];
};

}  // namespace cactis::core

#endif  // CACTIS_CORE_OBJECT_CACHE_H_
