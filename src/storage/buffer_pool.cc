#include "storage/buffer_pool.h"

#include <cassert>

#include "common/error_taxonomy.h"
#include "obs/request_context.h"

namespace cactis::storage {

BufferPool::BufferPool(SimulatedDisk* disk, size_t capacity)
    : disk_(disk), capacity_(capacity == 0 ? 1 : capacity) {
  if (disk_->block_size() <= kChecksumFrameBytes) {
    init_status_ = Status::InvalidArgument(
        "block size " + std::to_string(disk_->block_size()) +
        " leaves no payload after the " +
        std::to_string(kChecksumFrameBytes) + "-byte checksum frame");
  }
}

Result<BlockImage*> BufferPool::Fetch(BlockId id) {
  CACTIS_RETURN_IF_ERROR(init_status_);
  auto it = frames_.find(id);
  if (it != frames_.end()) {
    ++stats_.hits;
    if (auto* c = obs::RequestScope::CurrentCost()) ++c->cache_hits;
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return &it->second.image;
  }
  ++stats_.misses;
  if (auto* c = obs::RequestScope::CurrentCost()) ++c->cache_misses;
  while (frames_.size() >= capacity_) {
    CACTIS_RETURN_IF_ERROR(EvictOne());
  }
  CACTIS_ASSIGN_OR_RETURN(std::string framed, ReadWithRetry(id));
  Result<std::string_view> bytes = UnwrapChecksum(framed);
  if (!bytes.ok()) {
    return Status::Corruption("block " + std::to_string(id.value) + ": " +
                              bytes.status().message());
  }
  CACTIS_ASSIGN_OR_RETURN(BlockImage image, BlockImage::Decode(*bytes));
  lru_.push_front(id);
  Frame frame{std::move(image), /*dirty=*/false, lru_.begin()};
  auto [pos, inserted] = frames_.emplace(id, std::move(frame));
  assert(inserted);
  (void)inserted;
  if (trace_) trace_->Record(obs::SpanKind::kBlockFetch, id.value);
  for (ResidencyListener* l : listeners_) l->OnBlockLoaded(id);
  return &pos->second.image;
}

Status BufferPool::MarkDirty(BlockId id) {
  auto it = frames_.find(id);
  if (it == frames_.end()) {
    return Status::Internal("MarkDirty on non-resident block " +
                            std::to_string(id.value));
  }
  it->second.dirty = true;
  return Status::OK();
}

Status BufferPool::EvictOne() {
  if (lru_.empty()) {
    return Status::Internal("buffer pool eviction with no frames");
  }
  BlockId victim = lru_.back();
  auto it = frames_.find(victim);
  assert(it != frames_.end());
  const bool was_dirty = it->second.dirty;
  CACTIS_RETURN_IF_ERROR(WriteBack(victim, &it->second));
  lru_.pop_back();
  frames_.erase(it);
  ++stats_.evictions;
  if (trace_) {
    trace_->Record(obs::SpanKind::kBlockEvict, victim.value,
                   was_dirty ? 1 : 0);
  }
  for (ResidencyListener* l : listeners_) l->OnBlockEvicted(victim);
  return Status::OK();
}

Status BufferPool::WriteBack(BlockId id, Frame* frame) {
  if (!frame->dirty) return Status::OK();
  if (pre_evict_hook_) pre_evict_hook_(id, &frame->image);
  CACTIS_RETURN_IF_ERROR(
      WriteWithRetry(id, WrapWithChecksum(frame->image.Encode())));
  frame->dirty = false;
  return Status::OK();
}

Result<std::string> BufferPool::ReadWithRetry(BlockId id) {
  Result<std::string> r = disk_->Read(id);
  if (r.ok() || !IsTransientFault(r.status())) return r;
  Backoff backoff(retry_policy_);
  while (backoff.ShouldRetry()) {
    ++stats_.retries;
    r = disk_->Read(id);
    if (r.ok() || !IsTransientFault(r.status())) break;
  }
  stats_.backoff_us += backoff.slept_us();
  if (!r.ok() && IsTransientFault(r.status())) ++stats_.give_ups;
  return r;
}

Status BufferPool::WriteWithRetry(BlockId id, const std::string& framed) {
  Status s = disk_->Write(id, framed);
  if (s.ok() || !IsTransientFault(s)) return s;
  Backoff backoff(retry_policy_);
  while (backoff.ShouldRetry()) {
    ++stats_.retries;
    s = disk_->Write(id, framed);
    if (s.ok() || !IsTransientFault(s)) break;
  }
  stats_.backoff_us += backoff.slept_us();
  if (!s.ok() && IsTransientFault(s)) ++stats_.give_ups;
  return s;
}

Status BufferPool::FlushAll() {
  for (auto& [id, frame] : frames_) {
    CACTIS_RETURN_IF_ERROR(WriteBack(id, &frame));
  }
  return Status::OK();
}

void BufferPool::Discard(BlockId id) {
  auto it = frames_.find(id);
  if (it == frames_.end()) return;
  lru_.erase(it->second.lru_pos);
  frames_.erase(it);
  ++stats_.discards;
  if (trace_) trace_->Record(obs::SpanKind::kBlockDiscard, id.value);
  // The block left memory; listeners must treat this exactly like an
  // eviction or they keep decoded state for records that no longer exist.
  for (ResidencyListener* l : listeners_) l->OnBlockEvicted(id);
}

}  // namespace cactis::storage
