// ChunkScheduler and DecayingAverage unit tests: queue discipline per
// policy, block-load promotion, and the self-adaptive statistic. Chunks
// run through a recording runner that logs each chunk's tag.

#include "sched/scheduler.h"

#include <gtest/gtest.h>

#include <functional>

#include "sched/decaying_average.h"
#include "storage/record_store.h"

namespace cactis::sched {
namespace {

TEST(DecayingAverageTest, FirstSampleReplacesSeed) {
  DecayingAverage avg(0.25, 1.0);
  avg.Seed(10.0);
  EXPECT_DOUBLE_EQ(avg.value(), 10.0);
  avg.Record(2.0);  // replaces the seed entirely
  EXPECT_DOUBLE_EQ(avg.value(), 2.0);
  avg.Record(6.0);  // 0.25*6 + 0.75*2 = 3.0
  EXPECT_DOUBLE_EQ(avg.value(), 3.0);
}

TEST(DecayingAverageTest, AdaptsTowardNewRegime) {
  DecayingAverage avg(0.5, 0.0);
  avg.Record(0.0);
  for (int i = 0; i < 20; ++i) avg.Record(8.0);
  EXPECT_NEAR(avg.value(), 8.0, 0.01);
}

/// Runs chunks the way the engine does — fault the owner's block in
/// first — and records each chunk's tag. `then`, when set, runs after the
/// tag is logged and supplies the chunk's status.
class RecordingRunner : public ChunkRunner {
 public:
  RecordingRunner(storage::RecordStore* store, std::vector<int>* log)
      : store_(store), log_(log) {}

  Status RunChunk(const Chunk& chunk) override {
    CACTIS_RETURN_IF_ERROR(store_->Touch(chunk.owner));
    log_->push_back(static_cast<int>(chunk.attr));
    return then ? then(chunk) : Status::OK();
  }

  std::function<Status(const Chunk&)> then;

 private:
  storage::RecordStore* store_;
  std::vector<int>* log_;
};

class SchedulerTest : public ::testing::Test {
 protected:
  SchedulerTest()
      : disk_(256), pool_(&disk_, 2), store_(&disk_, &pool_) {}

  /// Stores a tiny record for each of `n` instances, one per block.
  void Populate(int n) {
    for (int i = 1; i <= n; ++i) {
      ASSERT_TRUE(store_.Put(InstanceId(i), std::string(200, 'x')).ok());
    }
    ASSERT_TRUE(pool_.FlushAll().ok());
  }

  /// A chunk whose `attr` carries `tag`, the value the runner logs.
  static Chunk Make(uint64_t owner, double io, int tag, bool user = false) {
    Chunk c;
    c.owner = InstanceId(owner);
    c.expected_io = io;
    c.user_request = user;
    c.instance = InstanceId(owner);
    c.attr = static_cast<uint32_t>(tag);
    return c;
  }

  storage::SimulatedDisk disk_;
  storage::BufferPool pool_;
  storage::RecordStore store_;
};

TEST_F(SchedulerTest, DepthFirstIsLifo) {
  ChunkScheduler sched(&store_, SchedulingPolicy::kDepthFirst);
  Populate(3);
  std::vector<int> log;
  RecordingRunner runner(&store_, &log);
  sched.Schedule(Make(1, 1, 1));
  sched.Schedule(Make(2, 1, 2));
  sched.Schedule(Make(3, 1, 3));
  ASSERT_TRUE(sched.RunUntilIdle(&runner).ok());
  EXPECT_EQ(log, (std::vector<int>{3, 2, 1}));
}

TEST_F(SchedulerTest, BreadthFirstIsFifo) {
  ChunkScheduler sched(&store_, SchedulingPolicy::kBreadthFirst);
  Populate(3);
  std::vector<int> log;
  RecordingRunner runner(&store_, &log);
  for (int i = 1; i <= 3; ++i) sched.Schedule(Make(i, 1, i));
  ASSERT_TRUE(sched.RunUntilIdle(&runner).ok());
  EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
}

TEST_F(SchedulerTest, GreedyOrdersByExpectedIo) {
  ChunkScheduler sched(&store_, SchedulingPolicy::kGreedyAdaptive);
  Populate(3);
  // Drop everything from the pool so nothing is resident.
  for (int i = 4; i <= 8; ++i) {
    ASSERT_TRUE(store_.Put(InstanceId(i), std::string(200, 'y')).ok());
  }
  std::vector<int> log;
  RecordingRunner runner(&store_, &log);
  sched.Schedule(Make(1, 5.0, 1));
  sched.Schedule(Make(2, 0.5, 2));
  sched.Schedule(Make(3, 2.0, 3));
  ASSERT_TRUE(sched.RunUntilIdle(&runner).ok());
  // Note: running chunk 2 loads instance 2's block; chunks are re-checked
  // against the priority order each pop, so expected order is by io.
  EXPECT_EQ(log, (std::vector<int>{2, 3, 1}));
}

TEST_F(SchedulerTest, ResidentOwnersRunFirst) {
  ChunkScheduler sched(&store_, SchedulingPolicy::kGreedyAdaptive);
  Populate(6);
  // Make instance 6 resident.
  ASSERT_TRUE(store_.Touch(InstanceId(6)).ok());
  std::vector<int> log;
  RecordingRunner runner(&store_, &log);
  sched.Schedule(Make(1, 0.1, 1));  // cheapest pending
  sched.Schedule(Make(6, 9.0, 6));  // resident: high queue
  ASSERT_TRUE(sched.RunUntilIdle(&runner).ok());
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], 6);
  EXPECT_GE(sched.stats().high_runs, 1u);
}

TEST_F(SchedulerTest, UserRequestsRunBeforePending) {
  ChunkScheduler sched(&store_, SchedulingPolicy::kGreedyAdaptive);
  Populate(3);
  // Push instances 1-3 out of the pool so no owner is resident.
  for (int i = 4; i <= 8; ++i) {
    ASSERT_TRUE(store_.Put(InstanceId(i), std::string(200, 'y')).ok());
  }
  std::vector<int> log;
  RecordingRunner runner(&store_, &log);
  sched.Schedule(Make(1, 0.1, 1));                // cheapest pending
  sched.Schedule(Make(2, 9.0, 2, /*user=*/true));  // direct user request
  sched.Schedule(Make(3, 0.2, 3));
  ASSERT_TRUE(sched.RunUntilIdle(&runner).ok());
  EXPECT_EQ(log, (std::vector<int>{2, 1, 3}));
}

TEST_F(SchedulerTest, BlockLoadPromotesSiblings) {
  // Two instances in the same block; loading the block for one promotes
  // the other's chunk to the high-priority queue. Sizes chosen so 1 and 2
  // fill one block and 3 spills to the next.
  ASSERT_TRUE(store_.Put(InstanceId(1), std::string(100, 'a')).ok());
  ASSERT_TRUE(store_.Put(InstanceId(2), std::string(100, 'b')).ok());
  ASSERT_TRUE(store_.Put(InstanceId(3), std::string(200, 'z')).ok());
  ASSERT_NE(*store_.BlockOf(InstanceId(1)), *store_.BlockOf(InstanceId(3)));
  ASSERT_EQ(*store_.BlockOf(InstanceId(1)), *store_.BlockOf(InstanceId(2)));
  ASSERT_TRUE(pool_.FlushAll().ok());
  // Evict everything.
  ASSERT_TRUE(store_.Put(InstanceId(4), std::string(200, 'w')).ok());
  ASSERT_TRUE(store_.Put(InstanceId(5), std::string(200, 'v')).ok());

  ChunkScheduler sched(&store_, SchedulingPolicy::kGreedyAdaptive);
  pool_.AddListener(&sched);
  std::vector<int> log;
  RecordingRunner runner(&store_, &log);
  sched.Schedule(Make(1, 1.0, 1));
  sched.Schedule(Make(3, 2.0, 3));
  sched.Schedule(Make(2, 9.0, 2));  // expensive, but shares 1's block
  ASSERT_TRUE(sched.RunUntilIdle(&runner).ok());
  // 1 runs first (cheapest); its block load promotes 2 past 3.
  EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
  EXPECT_GE(sched.stats().promotions, 1u);
}

TEST_F(SchedulerTest, ChunksCanScheduleMoreChunks) {
  ChunkScheduler sched(&store_, SchedulingPolicy::kBreadthFirst);
  Populate(1);
  std::vector<int> log;
  RecordingRunner runner(&store_, &log);
  runner.then = [&sched](const Chunk& chunk) {
    if (chunk.attr == 1) sched.Schedule(Make(1, 1, 2));  // the inner chunk
    return Status::OK();
  };
  sched.Schedule(Make(1, 1, 1));
  ASSERT_TRUE(sched.RunUntilIdle(&runner).ok());
  EXPECT_EQ(log, (std::vector<int>{1, 2}));
  EXPECT_TRUE(sched.Idle());
}

TEST_F(SchedulerTest, ErrorStopsDraining) {
  ChunkScheduler sched(&store_, SchedulingPolicy::kBreadthFirst);
  Populate(2);
  std::vector<int> log;
  RecordingRunner runner(&store_, &log);
  runner.then = [](const Chunk& chunk) {
    return chunk.attr == 1 ? Status::Internal("boom") : Status::OK();
  };
  sched.Schedule(Make(1, 1, 1));
  sched.Schedule(Make(2, 1, 2));
  EXPECT_FALSE(sched.RunUntilIdle(&runner).ok());
}

TEST_F(SchedulerTest, PolicyNames) {
  EXPECT_EQ(SchedulingPolicyToString(SchedulingPolicy::kGreedyAdaptive),
            "greedy-adaptive");
  EXPECT_EQ(SchedulingPolicyToString(SchedulingPolicy::kDepthFirst),
            "depth-first");
}

}  // namespace
}  // namespace cactis::sched
