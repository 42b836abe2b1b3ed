// The paper's section-2.2 algorithmic guarantees, as white-box tests over
// the EvalStats counters:
//   * no attribute is evaluated more than once per invalidation wave;
//   * attributes that are not needed are not evaluated (lazy importance);
//   * a second update to an already-out-of-date region cuts off in O(1);
//   * instance-level dependency cycles are detected and reported;
//   * exports transmit values across relationships transitively.

#include <gtest/gtest.h>

#include "core/database.h"

namespace cactis::core {
namespace {

const char* kChainSchema = R"(
  object class cell is
    relationships
      prev : chain multi socket;
      next : chain multi plug;
    attributes
      base : int;
      acc  : int;
    rules
      acc = begin
        t : int;
        t = base;
        for each p related to prev do
          t = t + p.acc;
        end;
        return t;
      end;
  end object;
)";

class EvalEngineTest : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_TRUE(db_.LoadSchema(kChainSchema).ok()); }

  /// Builds a linear chain c0 <- c1 <- ... <- c[n-1]; returns ids.
  std::vector<InstanceId> Chain(int n) {
    std::vector<InstanceId> ids;
    for (int i = 0; i < n; ++i) {
      auto id = db_.Create("cell");
      EXPECT_TRUE(id.ok());
      EXPECT_TRUE(db_.Set(*id, "base", Value::Int(1)).ok());
      ids.push_back(*id);
      if (i > 0) {
        EXPECT_TRUE(db_.Connect(ids[i], "prev", ids[i - 1], "next").ok());
      }
    }
    return ids;
  }

  Database db_;
};

TEST_F(EvalEngineTest, LazyUntilQueried) {
  auto ids = Chain(10);
  // Nothing is important yet: no rule should have run.
  EXPECT_EQ(db_.eval_stats().rule_evaluations, 0u);
  // Query the tail: exactly the 10 acc attributes evaluate, each once.
  db_.ResetStats();
  EXPECT_EQ(*db_.Get(ids.back(), "acc"), Value::Int(10));
  EXPECT_EQ(db_.eval_stats().rule_evaluations, 10u);
}

TEST_F(EvalEngineTest, EachAttributeEvaluatedAtMostOnce) {
  // Diamond: top feeds left and right, both feed bottom. The naive
  // recursive-trigger strategy would evaluate top's subtree twice.
  auto top = *db_.Create("cell");
  auto left = *db_.Create("cell");
  auto right = *db_.Create("cell");
  auto bottom = *db_.Create("cell");
  for (InstanceId id : {top, left, right, bottom}) {
    ASSERT_TRUE(db_.Set(id, "base", Value::Int(1)).ok());
  }
  ASSERT_TRUE(db_.Connect(left, "prev", top, "next").ok());
  ASSERT_TRUE(db_.Connect(right, "prev", top, "next").ok());
  ASSERT_TRUE(db_.Connect(bottom, "prev", left, "next").ok());
  ASSERT_TRUE(db_.Connect(bottom, "prev", right, "next").ok());

  db_.ResetStats();
  EXPECT_EQ(*db_.Get(bottom, "acc"), Value::Int(5));  // 1+ (2 + 2)
  // 4 attribute instances, 4 rule executions — top evaluated once even
  // though two consumers need it.
  EXPECT_EQ(db_.eval_stats().rule_evaluations, 4u);
}

TEST_F(EvalEngineTest, RepeatedUpdateCutsOffInConstantWork) {
  auto ids = Chain(200);
  // Warm the chain without subscribing anything (Peek), so updates mark
  // but never trigger eager re-evaluation.
  ASSERT_TRUE(db_.Peek(ids.back(), "acc").ok());

  // First update marks the whole downstream chain...
  db_.ResetStats();
  ASSERT_TRUE(db_.Set(ids[0], "base", Value::Int(5)).ok());
  uint64_t first_visits = db_.eval_stats().mark_visits;
  EXPECT_GE(first_visits, 199u);

  // ...the second assignment finds everything already out of date and
  // stops immediately (the paper's O(1) claim).
  db_.ResetStats();
  ASSERT_TRUE(db_.Set(ids[0], "base", Value::Int(6)).ok());
  uint64_t second_visits = db_.eval_stats().mark_visits;
  EXPECT_LE(second_visits, 3u);
  EXPECT_GE(db_.eval_stats().mark_cutoffs, 1u);
}

TEST_F(EvalEngineTest, UnimportantAttributesStayOutOfDate) {
  auto ids = Chain(50);
  ASSERT_TRUE(db_.Get(ids[10], "acc").ok());  // subscribe only cell 10
  db_.ResetStats();
  ASSERT_TRUE(db_.Set(ids[0], "base", Value::Int(3)).ok());
  // Eager work re-evaluates cells 1..10 (the subscribed prefix), not the
  // remaining 39 downstream cells.
  EXPECT_LE(db_.eval_stats().rule_evaluations, 11u);
}

TEST_F(EvalEngineTest, InstanceLevelCycleDetected) {
  auto a = *db_.Create("cell");
  auto b = *db_.Create("cell");
  // a.prev <- b and b.prev <- a: acc depends on itself through the cycle.
  ASSERT_TRUE(db_.Connect(a, "prev", b, "next").ok());
  ASSERT_TRUE(db_.Connect(b, "prev", a, "next").ok());
  auto v = db_.Get(a, "acc");
  ASSERT_FALSE(v.ok());
  EXPECT_TRUE(v.status().IsCycleDetected()) << v.status();
}

TEST_F(EvalEngineTest, EvaluationCountScalesWithChangedRegionOnly) {
  auto ids = Chain(100);
  ASSERT_TRUE(db_.Get(ids.back(), "acc").ok());
  // Change the 90th cell: only cells 90..99 can change.
  db_.ResetStats();
  ASSERT_TRUE(db_.Set(ids[90], "base", Value::Int(2)).ok());
  ASSERT_TRUE(db_.Get(ids.back(), "acc").ok());
  EXPECT_LE(db_.eval_stats().rule_evaluations, 10u);
  EXPECT_EQ(*db_.Get(ids.back(), "acc"), Value::Int(101));
}

const char* kExportSchema = R"(
  object class source is
    relationships
      feed : wire multi plug;
    attributes
      raw : int;
    rules
      feed.cooked = raw * 10;
  end object;
  object class sink is
    relationships
      inputs : wire multi socket;
    attributes
      sum_cooked : int;
    rules
      sum_cooked = begin
        t : int = 0;
        for each s related to inputs do
          t = t + s.cooked;
        end;
        return t;
      end;
  end object;
)";

TEST(EvalExportTest, ExportsTransmitAcrossRelationships) {
  Database db;
  ASSERT_TRUE(db.LoadSchema(kExportSchema).ok());
  auto s1 = *db.Create("source");
  auto s2 = *db.Create("source");
  auto sink = *db.Create("sink");
  ASSERT_TRUE(db.Set(s1, "raw", Value::Int(1)).ok());
  ASSERT_TRUE(db.Set(s2, "raw", Value::Int(2)).ok());
  ASSERT_TRUE(db.Connect(sink, "inputs", s1, "feed").ok());
  ASSERT_TRUE(db.Connect(sink, "inputs", s2, "feed").ok());
  EXPECT_EQ(*db.Get(sink, "sum_cooked"), Value::Int(30));
  ASSERT_TRUE(db.Set(s1, "raw", Value::Int(5)).ok());
  EXPECT_EQ(*db.Get(sink, "sum_cooked"), Value::Int(70));
}

TEST(EvalExportTest, RemoteReadOfUnprovidedValueFails) {
  Database db;
  ASSERT_TRUE(db.LoadSchema(R"(
    object class a is
      relationships
        peers : r multi socket;
      attributes
        x : int;
      rules
        x = begin
          t : int = 0;
          for each p related to peers do
            t = t + p.ghost_value;
          end;
          return t;
        end;
    end object;
    object class b is
      relationships
        back : r multi plug;
    end object;
  )")
                  .ok());
  auto a = *db.Create("a");
  auto b = *db.Create("b");
  ASSERT_TRUE(db.Connect(a, "peers", b, "back").ok());
  auto v = db.Get(a, "x");
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(EvalPolicyTest, AllPoliciesComputeTheSameValues) {
  // The traversal order is a pure scheduling decision; results must not
  // depend on it (paper 2.3: "we may in fact choose any traversal order").
  for (auto policy :
       {sched::SchedulingPolicy::kGreedyAdaptive,
        sched::SchedulingPolicy::kDepthFirst,
        sched::SchedulingPolicy::kBreadthFirst}) {
    DatabaseOptions opts;
    opts.policy = policy;
    opts.buffer_capacity = 2;  // force eviction churn
    Database db(opts);
    ASSERT_TRUE(db.LoadSchema(kChainSchema).ok());
    std::vector<InstanceId> ids;
    for (int i = 0; i < 30; ++i) {
      ids.push_back(*db.Create("cell"));
      ASSERT_TRUE(db.Set(ids[i], "base", Value::Int(i)).ok());
      if (i > 0) {
        ASSERT_TRUE(db.Connect(ids[i], "prev", ids[i - 1], "next").ok());
      }
    }
    auto v = db.Get(ids.back(), "acc");
    ASSERT_TRUE(v.ok()) << v.status();
    EXPECT_EQ(*v, Value::Int(29 * 30 / 2))
        << sched::SchedulingPolicyToString(policy);
  }
}

TEST(EvalIoEstimateTest, ResolveAcrossEvictedBlockRecordsItsFault) {
  // src <- mid <- sink, one record per block. Evaluating sink.acc cold
  // requests mid.acc across edge sink->mid; mid's resolve across
  // mid->src faults src's block, and that fault is the observation the
  // sink->mid expected-I/O estimate learns from. Class lookups do no
  // I/O, so the fault must be counted at the fetch of the peer itself.
  DatabaseOptions opts;
  opts.block_size = 160;
  Database db(opts);
  ASSERT_TRUE(db.LoadSchema(kChainSchema).ok());
  InstanceId src = *db.Create("cell");
  InstanceId mid = *db.Create("cell");
  InstanceId sink = *db.Create("cell");
  for (InstanceId id : {src, mid, sink}) {
    ASSERT_TRUE(db.Set(id, "base", Value::Int(1)).ok());
  }
  ASSERT_TRUE(db.Connect(mid, "prev", src, "next").ok());
  auto sink_mid = db.Connect(sink, "prev", mid, "next");
  ASSERT_TRUE(sink_mid.ok());
  // Reorganize seeds the estimates; the first observation replaces them.
  ASSERT_TRUE(db.Reorganize().ok());
  ASSERT_EQ(db.block_count(), 3u) << "each record must sit in its own block";

  ASSERT_TRUE(db.Flush().ok());
  for (BlockId b : db.buffer_pool()->ResidentBlockIds()) {
    db.buffer_pool()->Discard(b);
  }
  EXPECT_EQ(*db.Get(sink, "acc"), Value::Int(3));
  EXPECT_GT(db.EdgeExpectedIo(*sink_mid), 0.0);
}

}  // namespace
}  // namespace cactis::core
