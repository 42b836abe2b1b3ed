#include "core/object_cache.h"

#include <cassert>

namespace cactis::core {

Result<Instance*> ObjectCache::Fetch(InstanceId id) {
  CACTIS_SERIAL_GUARD(serial_guard_);
  ++generation_;  // Touch/View below can fault; prior handles go stale.
  // Touch first: this may evict another block (dropping its cached
  // instances) but guarantees our block is resident afterwards.
  CACTIS_RETURN_IF_ERROR(store_->Touch(id));
  auto it = cache_.find(id);
  if (it != cache_.end()) {
    it->second->set_cache_epoch(generation_);
    return it->second.get();
  }

  // Decode straight out of the resident block's bytes; nothing can evict
  // the block between the view and the decode.
  CACTIS_ASSIGN_OR_RETURN(std::string_view payload, store_->View(id));
  CACTIS_ASSIGN_OR_RETURN(Instance inst,
                          Instance::Deserialize(payload, *catalog_));
  auto owned = std::make_unique<Instance>(std::move(inst));
  Instance* raw = owned.get();
  raw->set_cache_epoch(generation_);
  cache_[id] = std::move(owned);
  IndexUnderBlock(id);
  return raw;
}

Status ObjectCache::WriteThrough(const Instance& inst) {
  CACTIS_SERIAL_GUARD(serial_guard_);
  // Writing through a stale cached copy means the caller held the
  // pointer across a faulting operation — exactly the bug the pointer
  // discipline forbids. (An uncached `inst`, e.g. a caller-owned copy
  // being flushed, is exempt: its lifetime is the caller's business.)
  assert(!IsCached(inst.id()) || cache_.find(inst.id())->second.get() != &inst ||
         IsFresh(&inst));
  ++generation_;  // Put below can fault; prior handles go stale.
  std::string payload = inst.Serialize();
  InstanceId id = inst.id();
  // NOTE: `inst` may be *the cached copy*; Put can evict or discard
  // blocks, and loss of our own block would destroy it mid-call.
  // Serialising first (above) makes that safe; we must not touch `inst`
  // after Put.
  CACTIS_RETURN_IF_ERROR(store_->Put(id, payload));
  IndexUnderBlock(id);  // the record may have moved to a new block
  auto it = cache_.find(id);
  if (it != cache_.end()) it->second->set_cache_epoch(generation_);
  return Status::OK();
}

Status ObjectCache::Insert(Instance inst) {
  CACTIS_SERIAL_GUARD(serial_guard_);
  ++generation_;  // Put below can fault; prior handles go stale.
  InstanceId id = inst.id();
  std::string payload = inst.Serialize();
  auto owned = std::make_unique<Instance>(std::move(inst));
  owned->set_cache_epoch(generation_);
  CACTIS_RETURN_IF_ERROR(store_->Put(id, payload));
  // Put may have evicted blocks but cannot have evicted this instance's
  // (it was just fetched by Put). Cache the decoded copy.
  cache_[id] = std::move(owned);
  IndexUnderBlock(id);
  return Status::OK();
}

void ObjectCache::NoteSharedTouch(InstanceId id) {
  TouchShard& shard =
      touch_shards_[std::hash<InstanceId>{}(id) % kTouchShards];
  std::lock_guard<std::mutex> lk(shard.mu);
  if (shard.touches.size() < kTouchShardCapacity) shard.touches.push_back(id);
}

void ObjectCache::DrainTouches(
    std::unordered_map<InstanceId, uint64_t>* counts) {
  CACTIS_SERIAL_GUARD(serial_guard_);
  for (TouchShard& shard : touch_shards_) {
    std::lock_guard<std::mutex> lk(shard.mu);
    for (InstanceId id : shard.touches) ++(*counts)[id];
    shard.touches.clear();
  }
}

Status ObjectCache::Remove(InstanceId id) {
  CACTIS_SERIAL_GUARD(serial_guard_);
  ++generation_;  // Delete below can fault; prior handles go stale.
  auto blk = block_of_.find(id);
  if (blk != block_of_.end()) {
    auto set = by_block_.find(blk->second);
    if (set != by_block_.end()) set->second.erase(id);
    block_of_.erase(blk);
  }
  cache_.erase(id);
  return store_->Delete(id);
}

void ObjectCache::OnBlockEvicted(BlockId id) {
  // Covers both pool evictions (mid-faulting-operation) and discards of
  // freed/relocated blocks arriving from record-store maintenance: any
  // outstanding handle may now dangle, so all of them go stale.
  ++generation_;
  auto it = by_block_.find(id);
  if (it == by_block_.end()) return;
  for (InstanceId inst : it->second) {
    cache_.erase(inst);
    block_of_.erase(inst);
  }
  by_block_.erase(it);
}

void ObjectCache::IndexUnderBlock(InstanceId id) {
  auto block = store_->BlockOf(id);
  if (!block.ok()) return;
  auto prev = block_of_.find(id);
  if (prev != block_of_.end()) {
    if (prev->second == *block) return;
    auto set = by_block_.find(prev->second);
    if (set != by_block_.end()) set->second.erase(id);
  }
  block_of_[id] = *block;
  by_block_[*block].insert(id);
}

}  // namespace cactis::core
