// GreedyUsagePolicy unit tests: the paper's clustering loop
// (most-referenced seed, highest-usage relationship pulls, block-capacity
// bound).

#include "cluster/policy.h"

#include <gtest/gtest.h>

#include <map>

namespace cactis::cluster {
namespace {

ClusterInput MakeInput(size_t capacity) {
  ClusterInput in;
  in.block_capacity = capacity;
  return in;
}

void AddInstance(ClusterInput* in, uint64_t id, uint64_t refs,
                 size_t size = 20) {
  in->access_counts[InstanceId(id)] = refs;
  in->record_sizes[InstanceId(id)] = size;
}

void AddEdge(ClusterInput* in, uint64_t a, uint64_t b, uint64_t usage) {
  in->adjacency[InstanceId(a)].push_back({InstanceId(b), usage});
  in->adjacency[InstanceId(b)].push_back({InstanceId(a), usage});
}

Placement Pack(const ClusterInput& in) { return GreedyUsagePolicy().Place(in); }

std::map<uint64_t, int> ClusterOf(const Placement& placement) {
  std::map<uint64_t, int> out;
  for (const auto& [id, c] : placement) out[id.value] = c;
  return out;
}

TEST(GreedyUsagePolicyTest, CoversEveryInstanceExactlyOnce) {
  ClusterInput in = MakeInput(100);
  for (uint64_t i = 1; i <= 10; ++i) AddInstance(&in, i, i);
  auto placement = Pack(in);
  EXPECT_EQ(placement.size(), 10u);
  auto map = ClusterOf(placement);
  EXPECT_EQ(map.size(), 10u);
}

TEST(GreedyUsagePolicyTest, HighUsageNeighborsShareACluster) {
  // 1-2 hot pair, 3-4 hot pair, cold cross edges.
  ClusterInput in = MakeInput(4 + 2 * (12 + 20));  // two records per block
  for (uint64_t i = 1; i <= 4; ++i) AddInstance(&in, i, 10);
  AddEdge(&in, 1, 2, 100);
  AddEdge(&in, 3, 4, 100);
  AddEdge(&in, 1, 3, 1);
  AddEdge(&in, 2, 4, 1);
  auto map = ClusterOf(Pack(in));
  EXPECT_EQ(map[1], map[2]);
  EXPECT_EQ(map[3], map[4]);
  EXPECT_NE(map[1], map[3]);
}

TEST(GreedyUsagePolicyTest, SeedsByMostReferenced) {
  ClusterInput in = MakeInput(4 + 12 + 20);  // one record per block
  AddInstance(&in, 1, 5);
  AddInstance(&in, 2, 50);  // most referenced: cluster 0
  AddInstance(&in, 3, 1);
  auto map = ClusterOf(Pack(in));
  EXPECT_EQ(map[2], 0);
}

TEST(GreedyUsagePolicyTest, RespectsBlockCapacity) {
  // Three records of 40 bytes; capacity fits exactly two.
  ClusterInput in = MakeInput(4 + 2 * (12 + 40));
  for (uint64_t i = 1; i <= 3; ++i) AddInstance(&in, i, 10, 40);
  AddEdge(&in, 1, 2, 10);
  AddEdge(&in, 2, 3, 9);
  AddEdge(&in, 1, 3, 8);
  auto map = ClusterOf(Pack(in));
  std::map<int, int> sizes;
  for (const auto& [id, c] : map) {
    (void)id;
    sizes[c]++;
  }
  for (const auto& [c, n] : sizes) {
    (void)c;
    EXPECT_LE(n, 2);
  }
}

TEST(GreedyUsagePolicyTest, ChainPacksContiguously) {
  // A chain with uniform usage packs consecutive runs together.
  size_t per_block = 3;
  ClusterInput in = MakeInput(4 + per_block * (12 + 20));
  for (uint64_t i = 1; i <= 9; ++i) AddInstance(&in, i, 9);
  for (uint64_t i = 1; i < 9; ++i) AddEdge(&in, i, i + 1, 5);
  auto map = ClusterOf(Pack(in));
  // Every cluster's members form a contiguous id range (chain locality).
  std::map<int, std::pair<uint64_t, uint64_t>> ranges;
  std::map<int, int> counts;
  for (const auto& [id, c] : map) {
    auto [it, fresh] = ranges.try_emplace(c, std::make_pair(id, id));
    if (!fresh) {
      it->second.first = std::min(it->second.first, id);
      it->second.second = std::max(it->second.second, id);
    }
    counts[c]++;
  }
  for (const auto& [c, range] : ranges) {
    EXPECT_EQ(range.second - range.first + 1,
              static_cast<uint64_t>(counts[c]))
        << "cluster " << c << " is not contiguous";
  }
}

TEST(GreedyUsagePolicyTest, DisconnectedInstancesStillPlaced) {
  ClusterInput in = MakeInput(200);
  AddInstance(&in, 1, 10);
  AddInstance(&in, 2, 0);  // no edges, never referenced
  auto map = ClusterOf(Pack(in));
  EXPECT_EQ(map.size(), 2u);
}

TEST(GreedyUsagePolicyTest, EmptyInputYieldsEmptyPlacement) {
  ClusterInput in = MakeInput(100);
  EXPECT_TRUE(Pack(in).empty());
}

TEST(GreedyUsagePolicyTest, DeterministicTieBreaks) {
  ClusterInput in = MakeInput(100);
  for (uint64_t i = 1; i <= 5; ++i) AddInstance(&in, i, 7);
  auto a = Pack(in);
  auto b = Pack(in);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace cactis::cluster
