#include "sched/scheduler.h"

#include "obs/request_context.h"

namespace cactis::sched {

std::string_view SchedulingPolicyToString(SchedulingPolicy p) {
  switch (p) {
    case SchedulingPolicy::kGreedyAdaptive:
      return "greedy-adaptive";
    case SchedulingPolicy::kDepthFirst:
      return "depth-first";
    case SchedulingPolicy::kBreadthFirst:
      return "breadth-first";
  }
  return "?";
}

ChunkScheduler::ChunkScheduler(storage::RecordStore* store,
                               SchedulingPolicy policy)
    : store_(store), policy_(policy) {}

void ChunkScheduler::Schedule(const Chunk& chunk) {
  if (auto* c = obs::RequestScope::CurrentCost()) ++c->chunks_scheduled;
  uint64_t seq = ++next_seq_;
  if (live_ == 0) {
    slab_.clear();
    slab_base_ = seq;
  }
  slab_.push_back(Slot{chunk, /*live=*/true});
  ++live_;

  switch (policy_) {
    case SchedulingPolicy::kDepthFirst:
      dfs_stack_.push_back(seq);
      break;
    case SchedulingPolicy::kBreadthFirst:
      bfs_queue_.push_back(seq);
      break;
    case SchedulingPolicy::kGreedyAdaptive: {
      if (chunk.user_request) {
        user_.push_back(seq);
      } else if (store_ != nullptr && store_->IsInstanceResident(chunk.owner)) {
        high_.push_back(seq);
      } else {
        pending_.push({chunk.expected_io, seq});
        IndexByBlock(seq, chunk);
      }
      break;
    }
  }
}

void ChunkScheduler::IndexByBlock(uint64_t seq, const Chunk& chunk) {
  if (store_ == nullptr) return;
  auto block = store_->BlockOf(chunk.owner);
  if (block.ok()) by_block_[*block].push_back(seq);
}

void ChunkScheduler::OnBlockLoaded(BlockId id) {
  auto it = by_block_.find(id);
  if (it == by_block_.end()) return;
  for (uint64_t seq : it->second) {
    if (IsLive(seq)) {
      high_.push_back(seq);
      ++stats_.promotions;
    }
  }
  by_block_.erase(it);
}

bool ChunkScheduler::Take(uint64_t seq, Chunk* out) {
  if (!IsLive(seq)) return false;  // ran already via promotion
  Slot& slot = slab_[seq - slab_base_];
  slot.live = false;
  --live_;
  *out = slot.chunk;
  return true;
}

bool ChunkScheduler::PopNext(Chunk* out) {
  switch (policy_) {
    case SchedulingPolicy::kDepthFirst:
      while (!dfs_stack_.empty()) {
        uint64_t seq = dfs_stack_.back();
        dfs_stack_.pop_back();
        if (Take(seq, out)) return true;
      }
      return false;
    case SchedulingPolicy::kBreadthFirst:
      while (!bfs_queue_.empty()) {
        uint64_t seq = bfs_queue_.front();
        bfs_queue_.pop_front();
        if (Take(seq, out)) return true;
      }
      return false;
    case SchedulingPolicy::kGreedyAdaptive: {
      while (!high_.empty()) {
        uint64_t seq = high_.front();
        high_.pop_front();
        if (Take(seq, out)) {
          ++stats_.high_runs;
          return true;
        }
      }
      while (!user_.empty()) {
        uint64_t seq = user_.front();
        user_.pop_front();
        if (Take(seq, out)) return true;
      }
      while (!pending_.empty()) {
        uint64_t seq = pending_.top().seq;
        pending_.pop();
        if (Take(seq, out)) {
          ++stats_.pending_runs;
          return true;
        }
      }
      return false;
    }
  }
  return false;
}

Status ChunkScheduler::RunUntilIdle(ChunkRunner* runner) {
  // The chunk is copied out of the slab: running it may schedule more
  // chunks, which can reallocate the slab under a reference.
  Chunk chunk;
  while (PopNext(&chunk)) {
    // The chunk body faults its owner's block in itself (so the engine
    // can attribute the I/O to the right traversal); the resulting
    // OnBlockLoaded event promotes sibling chunks on the same block.
    ++stats_.chunks_run;
    CACTIS_RETURN_IF_ERROR(runner->RunChunk(chunk));
  }
  return Status::OK();
}

}  // namespace cactis::sched
