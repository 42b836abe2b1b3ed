// Property-based tests: random graphs and random operation sequences
// (set / connect / disconnect / undo / read), validated against a naive
// in-memory oracle that recomputes everything from scratch. Parameterized
// across scheduling policies, buffer capacities and seeds — the derived
// values must be identical in every configuration (the traversal order
// and the cache state are pure performance concerns).

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/rng.h"
#include "core/database.h"

namespace cactis::core {
namespace {

const char* kSchema = R"(
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

/// The oracle: a plain in-memory mirror recomputed naively on demand.
class Oracle {
 public:
  void Create(InstanceId id) { base_[id] = 0; }
  void Remove(InstanceId id) {
    base_.erase(id);
    prev_.erase(id);
    for (auto& [k, v] : prev_) v.erase(id);
    (void)base_;
  }
  void SetBase(InstanceId id, int64_t v) { base_[id] = v; }
  void Connect(InstanceId of, InstanceId prev) { prev_[of].insert(prev); }
  void Disconnect(InstanceId of, InstanceId prev) { prev_[of].erase(prev); }
  bool HasEdge(InstanceId of, InstanceId prev) const {
    auto it = prev_.find(of);
    return it != prev_.end() && it->second.contains(prev);
  }

  /// Would adding prev -> of create a cycle?
  bool WouldCycle(InstanceId of, InstanceId prev) const {
    // `of` must not be reachable from... reachable via prev-chains from
    // `prev`.
    std::set<InstanceId> seen;
    return Reaches(prev, of, &seen);
  }

  int64_t Acc(InstanceId id) const {
    int64_t t = base_.at(id);
    auto it = prev_.find(id);
    if (it != prev_.end()) {
      for (InstanceId p : it->second) t += Acc(p);
    }
    return t;
  }

  const std::map<InstanceId, int64_t>& bases() const { return base_; }

 private:
  bool Reaches(InstanceId from, InstanceId target,
               std::set<InstanceId>* seen) const {
    if (from == target) return true;
    if (!seen->insert(from).second) return false;
    auto it = prev_.find(from);
    if (it == prev_.end()) return false;
    for (InstanceId p : it->second) {
      if (Reaches(p, target, seen)) return true;
    }
    return false;
  }

  std::map<InstanceId, int64_t> base_;
  std::map<InstanceId, std::set<InstanceId>> prev_;
};

struct Config {
  sched::SchedulingPolicy policy;
  size_t buffer_capacity;
  uint64_t seed;
};

std::string ConfigName(const ::testing::TestParamInfo<Config>& info) {
  std::string name(sched::SchedulingPolicyToString(info.param.policy));
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name + "_buf" + std::to_string(info.param.buffer_capacity) +
         "_seed" + std::to_string(info.param.seed);
}

class RandomGraphTest : public ::testing::TestWithParam<Config> {};

TEST_P(RandomGraphTest, DerivedValuesMatchOracleUnderRandomOps) {
  const Config& cfg = GetParam();
  DatabaseOptions opts;
  opts.policy = cfg.policy;
  opts.buffer_capacity = cfg.buffer_capacity;
  opts.block_size = 1024;
  Database db(opts);
  ASSERT_TRUE(db.LoadSchema(kSchema).ok());

  Rng rng(cfg.seed);
  Oracle oracle;
  std::vector<InstanceId> ids;
  // edge id -> (consumer, provider)
  std::map<EdgeId, std::pair<InstanceId, InstanceId>> edges;

  // Seed population.
  for (int i = 0; i < 25; ++i) {
    auto id = *db.Create("cell");
    oracle.Create(id);
    ids.push_back(id);
  }

  int undoable = 0;  // committed single-op txns we may undo
  for (int step = 0; step < 300; ++step) {
    switch (rng.Uniform(10)) {
      case 0:
      case 1:
      case 2:
      case 3: {  // set base
        InstanceId id = ids[rng.Uniform(ids.size())];
        int64_t v = rng.UniformInt(-50, 50);
        ASSERT_TRUE(db.Set(id, "base", Value::Int(v)).ok());
        oracle.SetBase(id, v);
        ++undoable;
        break;
      }
      case 4:
      case 5: {  // connect (avoiding cycles, which the oracle predicts)
        InstanceId a = ids[rng.Uniform(ids.size())];
        InstanceId b = ids[rng.Uniform(ids.size())];
        // The database allows parallel edges; the oracle's provider sets
        // cannot mirror their multiplicity, so skip duplicates here.
        if (a == b || oracle.HasEdge(a, b) || oracle.WouldCycle(a, b)) break;
        auto e = db.Connect(a, "prev", b, "next");
        ASSERT_TRUE(e.ok()) << e.status();
        oracle.Connect(a, b);
        edges[*e] = {a, b};
        ++undoable;
        break;
      }
      case 6: {  // disconnect a random edge
        if (edges.empty()) break;
        auto it = edges.begin();
        std::advance(it, rng.Uniform(edges.size()));
        ASSERT_TRUE(db.Disconnect(it->first).ok());
        oracle.Disconnect(it->second.first, it->second.second);
        edges.erase(it);
        ++undoable;
        break;
      }
      case 7: {  // read a random derived value and check it
        InstanceId id = ids[rng.Uniform(ids.size())];
        auto v = db.Peek(id, "acc");
        ASSERT_TRUE(v.ok()) << v.status();
        EXPECT_EQ(*v->AsInt(), oracle.Acc(id)) << "step " << step;
        break;
      }
      case 8: {  // undo the last committed transaction
        if (undoable == 0) break;
        // Only Set undos keep the oracle simple to mirror; skip others by
        // tracking nothing — instead, mirror by checkpointing: easiest is
        // to skip undo when the last op type is unknown. We emulate by
        // performing a Set we can mirror, then undoing it: a no-op pair
        // that still exercises the machinery.
        InstanceId id = ids[rng.Uniform(ids.size())];
        auto before = db.Peek(id, "base");
        ASSERT_TRUE(before.ok());
        ASSERT_TRUE(db.Set(id, "base", Value::Int(777)).ok());
        ASSERT_TRUE(db.UndoLast().ok());
        auto after = db.Peek(id, "base");
        ASSERT_TRUE(after.ok());
        EXPECT_EQ(*after, *before) << "undo failed at step " << step;
        break;
      }
      case 9: {  // explicit-txn batch with rollback half the time
        InstanceId id = ids[rng.Uniform(ids.size())];
        int64_t v = rng.UniformInt(-50, 50);
        auto t = db.Begin();
        ASSERT_TRUE(t->Set(id, "base", Value::Int(v)).ok());
        if (rng.Bernoulli(0.5)) {
          ASSERT_TRUE(t->Commit().ok());
          oracle.SetBase(id, v);
        } else {
          ASSERT_TRUE(t->Undo().ok());
        }
        break;
      }
    }
  }

  // Full final sweep: every derived value matches the oracle.
  for (InstanceId id : ids) {
    auto v = db.Peek(id, "acc");
    ASSERT_TRUE(v.ok()) << v.status();
    EXPECT_EQ(*v->AsInt(), oracle.Acc(id));
    EXPECT_EQ(*db.Peek(id, "base")->AsInt(), oracle.bases().at(id));
  }
}

INSTANTIATE_TEST_SUITE_P(
    PolicyBufferSeedSweep, RandomGraphTest,
    ::testing::Values(
        Config{sched::SchedulingPolicy::kGreedyAdaptive, 64, 1},
        Config{sched::SchedulingPolicy::kGreedyAdaptive, 3, 2},
        Config{sched::SchedulingPolicy::kGreedyAdaptive, 8, 3},
        Config{sched::SchedulingPolicy::kDepthFirst, 4, 4},
        Config{sched::SchedulingPolicy::kDepthFirst, 64, 5},
        Config{sched::SchedulingPolicy::kBreadthFirst, 6, 6},
        Config{sched::SchedulingPolicy::kBreadthFirst, 2, 7},
        Config{sched::SchedulingPolicy::kGreedyAdaptive, 2, 8}),
    ConfigName);

}  // namespace
}  // namespace cactis::core
