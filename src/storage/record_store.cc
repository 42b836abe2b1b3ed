#include "storage/record_store.h"

#include <algorithm>

namespace cactis::storage {

Status RecordStore::Put(InstanceId id, std::string payload) {
  if (!id.valid()) return Status::InvalidArgument("invalid instance id");
  // Surface invalid disk geometry as the pool's InvalidArgument rather
  // than a misleading "record larger than a disk block" for every record.
  CACTIS_RETURN_IF_ERROR(pool_->status());
  if (payload.size() + kRecordOverheadBytes + kBlockHeaderBytes >
      pool_->usable_block_bytes()) {
    return Status::OutOfRange("record larger than a disk block: " +
                              std::to_string(payload.size()) + " bytes");
  }

  auto dir = directory_.find(id);
  if (dir != directory_.end()) {
    // Update in place when it still fits, else move.
    BlockId block = dir->second;
    CACTIS_ASSIGN_OR_RETURN(BlockImage * image, pool_->Fetch(block));
    if (image->Fits(id, payload.size(), pool_->usable_block_bytes())) {
      image->Put(id, std::move(payload));
      return pool_->MarkDirty(block);
    }
    CACTIS_RETURN_IF_ERROR(Delete(id));
    return Put(id, std::move(payload));
  }

  // New record: try the fill block, else allocate a new one.
  if (fill_block_.valid()) {
    CACTIS_ASSIGN_OR_RETURN(BlockImage * image, pool_->Fetch(fill_block_));
    if (image->Fits(id, payload.size(), pool_->usable_block_bytes())) {
      return PutIntoBlock(id, std::move(payload), fill_block_);
    }
  }
  fill_block_ = disk_->Allocate();
  return PutIntoBlock(id, std::move(payload), fill_block_);
}

Status RecordStore::PutIntoBlock(InstanceId id, std::string payload,
                                 BlockId block) {
  CACTIS_ASSIGN_OR_RETURN(BlockImage * image, pool_->Fetch(block));
  if (!image->Fits(id, payload.size(), pool_->usable_block_bytes())) {
    return Status::Internal("PutIntoBlock target does not fit");
  }
  image->Put(id, std::move(payload));
  directory_[id] = block;
  ++block_population_[block];
  return pool_->MarkDirty(block);
}

Result<std::string> RecordStore::Get(InstanceId id) {
  auto dir = directory_.find(id);
  if (dir == directory_.end()) {
    return Status::NotFound("no record for instance " +
                            std::to_string(id.value));
  }
  CACTIS_ASSIGN_OR_RETURN(BlockImage * image, pool_->Fetch(dir->second));
  return image->Get(id);
}

Status RecordStore::Touch(InstanceId id) {
  auto dir = directory_.find(id);
  if (dir == directory_.end()) {
    return Status::NotFound("no record for instance " +
                            std::to_string(id.value));
  }
  return pool_->Fetch(dir->second).status();
}

Status RecordStore::Delete(InstanceId id) {
  auto dir = directory_.find(id);
  if (dir == directory_.end()) {
    return Status::NotFound("no record for instance " +
                            std::to_string(id.value));
  }
  BlockId block = dir->second;
  CACTIS_ASSIGN_OR_RETURN(BlockImage * image, pool_->Fetch(block));
  CACTIS_RETURN_IF_ERROR(image->Erase(id));
  CACTIS_RETURN_IF_ERROR(pool_->MarkDirty(block));
  directory_.erase(dir);
  auto pop = block_population_.find(block);
  if (pop != block_population_.end() && --pop->second == 0) {
    block_population_.erase(pop);
    pool_->Discard(block);
    CACTIS_RETURN_IF_ERROR(disk_->Free(block));
    if (fill_block_ == block) fill_block_ = BlockId();
  }
  return Status::OK();
}

Result<BlockId> RecordStore::BlockOf(InstanceId id) const {
  auto dir = directory_.find(id);
  if (dir == directory_.end()) {
    return Status::NotFound("no record for instance " +
                            std::to_string(id.value));
  }
  return dir->second;
}

bool RecordStore::IsInstanceResident(InstanceId id) const {
  auto dir = directory_.find(id);
  if (dir == directory_.end()) return false;
  return pool_->IsResident(dir->second);
}

Status RecordStore::ApplyPlacement(
    const std::vector<std::pair<InstanceId, int>>& placement) {
  // Pull every payload out first (this is a bulk maintenance operation;
  // the reorganizer runs it offline, so the I/O spike is expected).
  std::vector<std::pair<InstanceId, std::string>> payloads;
  payloads.reserve(placement.size());
  for (const auto& [id, cluster] : placement) {
    (void)cluster;
    CACTIS_ASSIGN_OR_RETURN(std::string payload, Get(id));
    payloads.emplace_back(id, std::move(payload));
  }
  if (payloads.size() != directory_.size()) {
    return Status::InvalidArgument(
        "placement must cover every stored instance exactly once");
  }

  // Free all current blocks.
  std::vector<BlockId> old_blocks;
  old_blocks.reserve(block_population_.size());
  for (const auto& [block, pop] : block_population_) {
    (void)pop;
    old_blocks.push_back(block);
  }
  directory_.clear();
  block_population_.clear();
  fill_block_ = BlockId();
  for (BlockId block : old_blocks) {
    pool_->Discard(block);
    CACTIS_RETURN_IF_ERROR(disk_->Free(block));
  }

  // Re-insert grouped by placement index, packing each group contiguously.
  std::vector<std::pair<int, size_t>> order;  // (cluster, payload index)
  order.reserve(placement.size());
  for (size_t i = 0; i < placement.size(); ++i) {
    order.emplace_back(placement[i].second, i);
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });

  int current_cluster = order.empty() ? 0 : order.front().first - 1;
  for (const auto& [cluster, idx] : order) {
    if (cluster != current_cluster) {
      // Fresh block at each index boundary: the packer already chose
      // which clusters share a block, so an index that fits is one block.
      fill_block_ = BlockId();
      current_cluster = cluster;
    }
    auto& [id, payload] = payloads[idx];
    CACTIS_RETURN_IF_ERROR(Put(id, std::move(payload)));
  }
  return pool_->FlushAll();
}

std::vector<InstanceId> RecordStore::AllInstances() const {
  std::vector<InstanceId> out;
  out.reserve(directory_.size());
  for (const auto& [id, block] : directory_) {
    (void)block;
    out.push_back(id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace cactis::storage
