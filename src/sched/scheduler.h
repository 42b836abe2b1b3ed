// ChunkScheduler: the simulated-concurrency traversal engine of paper
// section 2.3.
//
// Cactis expresses the mark-out-of-date and attribute-evaluation
// traversals as *chunks* — small units of work, each associated with one
// instance — and turns the choice of traversal order into a scheduling
// decision:
//
//  * a hash index keeps pending chunks keyed by the disk block of their
//    instance; when the buffer pool reads a block, that block's chunks are
//    promoted to a very-high-priority queue ("processes which can be
//    executed without disk access always have priority");
//  * chunks whose instance is already resident are queued high directly;
//  * direct user requests get a special priority queue;
//  * everything else is ordered by expected disk I/O, lowest first, where
//    the estimate comes from per-relationship decaying averages (or
//    worst-case statistics for marking).
//
// Fixed-order baseline policies (depth-first / breadth-first) are provided
// for experiment E4, which reproduces the paper's claim that the greedy
// adaptive order reduces disk access.

#ifndef CACTIS_SCHED_SCHEDULER_H_
#define CACTIS_SCHED_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <queue>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/relaxed_counter.h"
#include "common/result.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "storage/buffer_pool.h"
#include "storage/record_store.h"

namespace cactis::sched {

enum class SchedulingPolicy {
  /// The paper's policy: in-memory first, then least expected I/O. The
  /// estimates adapt unless DatabaseOptions::adaptive_stats is off (the
  /// ablation of experiment E6).
  kGreedyAdaptive,
  /// Fixed depth-first order (a "naive trigger" style traversal).
  kDepthFirst,
  /// Fixed breadth-first / FIFO order.
  kBreadthFirst,
};

std::string_view SchedulingPolicyToString(SchedulingPolicy p);

/// The four chunk kinds of the evaluator's traversals (core::EvalEngine):
/// marking one attribute out of date, gathering an attribute's inputs,
/// resolving one remote input across an edge, and computing the attribute.
enum class ChunkKind : uint8_t { kMark, kGather, kResolve, kCompute };

/// A schedulable unit of work: a plain value naming what to do, which a
/// ChunkRunner dispatches on. Scheduling one allocates nothing.
struct Chunk {
  ChunkKind kind = ChunkKind::kMark;
  bool user_request = false; // "direct user requests" special priority
  InstanceId owner;          // instance whose block this chunk touches
  double expected_io = 1.0;  // priority key: expected block reads
  // The attribute site the chunk works for. It is on `owner` except for
  // kResolve, whose owner is the peer across `edge`.
  InstanceId instance;
  uint32_t attr = 0;
  // kResolve: the edge crossed (its peer is `owner`, on port `peer_port`)
  // and the index of the remote dependency in the attribute's rule.
  EdgeId edge;
  uint32_t peer_port = 0;
  uint32_t dep = 0;
};

/// Executes chunks for RunUntilIdle. A running chunk may schedule more.
class ChunkRunner {
 public:
  virtual ~ChunkRunner() = default;
  virtual Status RunChunk(const Chunk& chunk) = 0;
};

struct SchedulerStats {
  RelaxedCounter chunks_run = 0;
  RelaxedCounter promotions = 0;    // pending -> high on block load
  RelaxedCounter high_runs = 0;     // chunks run from the in-memory queue
  RelaxedCounter pending_runs = 0;  // chunks run from the expected-I/O queue

  void ExportTo(obs::MetricsGroup* g) const {
    g->AddCounter("chunks_run", chunks_run);
    g->AddCounter("promotions", promotions);
    g->AddCounter("high_runs", high_runs);
    g->AddCounter("pending_runs", pending_runs);
  }
};

class ChunkScheduler : public storage::ResidencyListener {
 public:
  ChunkScheduler(storage::RecordStore* store, SchedulingPolicy policy);

  void set_policy(SchedulingPolicy policy) { policy_ = policy; }
  SchedulingPolicy policy() const { return policy_; }

  /// Enqueues a chunk. May be called while RunUntilIdle is draining (a
  /// running chunk scheduling its successors).
  void Schedule(const Chunk& chunk);

  /// Runs chunks through `runner` until every queue is empty. Returns the
  /// first error, leaving the chunks not yet run queued.
  Status RunUntilIdle(ChunkRunner* runner);

  bool Idle() const { return live_ == 0; }

  // storage::ResidencyListener:
  void OnBlockLoaded(BlockId id) override;
  void OnBlockEvicted(BlockId /*id*/) override {}

  const SchedulerStats& stats() const { return stats_; }
  void ResetStats() { stats_ = SchedulerStats{}; }

 private:
  struct Slot {
    Chunk chunk;
    bool live;  // scheduled and not yet run
  };

  /// Copies the next chunk to run under the current policy into `out`;
  /// false when every queue is empty.
  bool PopNext(Chunk* out);
  /// Takes the chunk `seq` out of the slab; false if it already ran.
  bool Take(uint64_t seq, Chunk* out);
  bool IsLive(uint64_t seq) const {
    return seq >= slab_base_ && seq - slab_base_ < slab_.size() &&
           slab_[seq - slab_base_].live;
  }
  void IndexByBlock(uint64_t seq, const Chunk& chunk);

  storage::RecordStore* store_;
  SchedulingPolicy policy_;

  uint64_t next_seq_ = 0;
  // All queues hold sequence numbers into the slab: slab_[seq - slab_base_]
  // is chunk `seq`. A popped seq whose chunk is no longer live already ran
  // from another queue. The slab restarts empty whenever nothing is live,
  // so it holds one drain's chunks at most.
  std::vector<Slot> slab_;
  uint64_t slab_base_ = 1;
  size_t live_ = 0;
  std::deque<uint64_t> high_;  // in-memory / promoted
  std::deque<uint64_t> user_;  // direct user requests
  struct IoOrder {
    double expected_io;
    uint64_t seq;
    bool operator>(const IoOrder& o) const {
      if (expected_io != o.expected_io) return expected_io > o.expected_io;
      return seq > o.seq;
    }
  };
  std::priority_queue<IoOrder, std::vector<IoOrder>, std::greater<IoOrder>>
      pending_;
  std::vector<uint64_t> dfs_stack_;
  std::deque<uint64_t> bfs_queue_;
  std::unordered_map<BlockId, std::vector<uint64_t>> by_block_;

  SchedulerStats stats_;
};

}  // namespace cactis::sched

#endif  // CACTIS_SCHED_SCHEDULER_H_
