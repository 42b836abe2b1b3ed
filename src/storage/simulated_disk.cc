#include "storage/simulated_disk.h"

#include <chrono>
#include <thread>

#include "obs/request_context.h"

namespace cactis::storage {

namespace {

/// Deterministic single-bit corruption: flip the low bit of the middle
/// byte (content must be non-empty).
void FlipMiddleBit(std::string* content) {
  if (content->empty()) return;
  (*content)[content->size() / 2] ^= 1;
}

}  // namespace

BlockId SimulatedDisk::Allocate() {
  std::lock_guard<std::mutex> lk(mu_);
  // Allocation is directory bookkeeping, not data I/O; it cannot fault.
  // A crashed disk hands back the invalid id, which any subsequent access
  // turns into an IoError.
  if (crashed_) return BlockId();
  ++stats_.allocations;
  BlockId id;
  if (!free_list_.empty()) {
    id = free_list_.back();
    free_list_.pop_back();
  } else {
    id = BlockId(++next_block_);
  }
  blocks_[id] = std::string();
  allocated_ = blocks_.size();
  return id;
}

Status SimulatedDisk::Free(BlockId id) {
  std::lock_guard<std::mutex> lk(mu_);
  if (crashed_) return CrashedError();
  auto it = blocks_.find(id);
  if (it == blocks_.end()) {
    return Status::IoError("freeing unallocated block " +
                           std::to_string(id.value));
  }
  blocks_.erase(it);
  allocated_ = blocks_.size();
  free_list_.push_back(id);
  ++stats_.frees;
  return Status::OK();
}

Result<std::string> SimulatedDisk::Read(BlockId id) {
  std::lock_guard<std::mutex> lk(mu_);
  if (crashed_) return CrashedError();
  auto it = blocks_.find(id);
  if (it == blocks_.end()) {
    return Status::IoError("reading unallocated block " +
                           std::to_string(id.value));
  }
  FaultKind fault = FaultKind::kNone;
  if (fault_policy_ != nullptr) {
    fault = fault_policy_->OnRead(id, read_attempts_);
  }
  ++read_attempts_;
  switch (fault) {
    case FaultKind::kCrash:
      crashed_ = true;
      ++stats_.crashes;
      return CrashedError();
    case FaultKind::kTransient:
      ++stats_.transient_errors;
      return Status::Unavailable("injected transient read error on block " +
                                 std::to_string(id.value));
    case FaultKind::kBitFlip: {
      // Corrupt the returned copy only: the platter is fine, the transfer
      // was not. Checksum verification upstream catches it.
      ++stats_.bit_flips;
      ++stats_.reads;
      if (auto* c = obs::RequestScope::CurrentCost()) ++c->blocks_read;
      std::string copy = it->second;
      FlipMiddleBit(&copy);
      return copy;
    }
    case FaultKind::kTornWrite:  // meaningless on reads
    case FaultKind::kNone:
      break;
  }
  ++stats_.reads;
  if (auto* c = obs::RequestScope::CurrentCost()) ++c->blocks_read;
  return it->second;
}

Status SimulatedDisk::Write(BlockId id, std::string content) {
  std::lock_guard<std::mutex> lk(mu_);
  if (crashed_) return CrashedError();
  auto it = blocks_.find(id);
  if (it == blocks_.end()) {
    return Status::IoError("writing unallocated block " +
                           std::to_string(id.value));
  }
  if (content.size() > block_size_) {
    return Status::OutOfRange("block content exceeds block size: " +
                              std::to_string(content.size()) + " > " +
                              std::to_string(block_size_));
  }
  FaultKind fault = FaultKind::kNone;
  if (fault_policy_ != nullptr) {
    fault = fault_policy_->OnWrite(id, write_attempts_);
  }
  ++write_attempts_;
  switch (fault) {
    case FaultKind::kCrash:
      // Power loss before any byte reached the platter.
      crashed_ = true;
      ++stats_.crashes;
      return CrashedError();
    case FaultKind::kTornWrite:
      // Power loss mid-write: a prefix lands, then the disk dies. The
      // caller sees the same error as a clean crash; the difference is on
      // the platter, where the block now fails its checksum.
      it->second = content.substr(0, content.size() / 2);
      crashed_ = true;
      ++stats_.torn_writes;
      ++stats_.crashes;
      return CrashedError();
    case FaultKind::kTransient:
      ++stats_.transient_errors;
      return Status::Unavailable("injected transient write error on block " +
                                 std::to_string(id.value));
    case FaultKind::kBitFlip:
      FlipMiddleBit(&content);
      ++stats_.bit_flips;
      break;
    case FaultKind::kNone:
      break;
  }
  ++stats_.writes;
  if (auto* c = obs::RequestScope::CurrentCost()) ++c->blocks_written;
  it->second = std::move(content);
  uint64_t latency = write_latency_us_.load(std::memory_order_relaxed);
  if (latency != 0) {
    // One head: sleep under the device mutex, so concurrent callers queue
    // behind this write exactly as they would on real hardware.
    std::this_thread::sleep_for(std::chrono::microseconds(latency));
  }
  return Status::OK();
}

Result<std::string> SimulatedDisk::PeekRaw(BlockId id) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = blocks_.find(id);
  if (it == blocks_.end()) {
    return Status::NotFound("no such block on platter: " +
                            std::to_string(id.value));
  }
  return it->second;
}

Status SimulatedDisk::FlipBitForTesting(BlockId id, size_t bit_index) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = blocks_.find(id);
  if (it == blocks_.end()) {
    return Status::NotFound("no such block on platter: " +
                            std::to_string(id.value));
  }
  if (it->second.empty()) {
    return Status::InvalidArgument("cannot corrupt an empty block");
  }
  size_t bit = bit_index % (it->second.size() * 8);
  it->second[bit / 8] ^= static_cast<char>(1u << (bit % 8));
  return Status::OK();
}

}  // namespace cactis::storage
