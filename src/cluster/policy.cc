#include "cluster/policy.h"

#include <algorithm>
#include <map>
#include <queue>
#include <set>

namespace cactis::cluster {
namespace {

/// Bytes one instance's record occupies in a block.
size_t RecordBytes(const ClusterInput& input, InstanceId id) {
  auto it = input.record_sizes.find(id);
  size_t payload = it == input.record_sizes.end() ? 0 : it->second;
  return payload + storage::kRecordOverheadBytes;
}

/// Packs whole clusters into blocks. `clusters` lists every instance with
/// its cluster index, each cluster contiguous and in the order the
/// skeleton grew them. Each cluster goes, whole, into the already-open
/// block it has the most edges into (ties: lower block) among those it
/// fits; failing that into the last block opened if it fits; otherwise
/// it opens a new block. Affinity counts edges, not pull keys, so the
/// pass behaves the same under every policy. A cluster is never split,
/// so the blocks a traversal touches can only go down; the returned
/// indices name blocks.
Placement PackClustersIntoBlocks(const ClusterInput& input,
                                 const Placement& clusters) {
  Placement placement;
  placement.reserve(clusters.size());
  std::unordered_map<InstanceId, int> block_of;
  std::vector<size_t> used;  // bytes per open block, header included

  for (size_t lo = 0; lo < clusters.size();) {
    size_t hi = lo;
    size_t bytes = 0;
    std::map<int, size_t> edges_into;  // block -> edges from this cluster
    for (; hi < clusters.size() && clusters[hi].second == clusters[lo].second;
         ++hi) {
      const InstanceId id = clusters[hi].first;
      bytes += RecordBytes(input, id);
      auto adj = input.adjacency.find(id);
      if (adj == input.adjacency.end()) continue;
      for (const ClusterInput::Neighbor& n : adj->second) {
        auto b = block_of.find(n.peer);
        if (b != block_of.end()) ++edges_into[b->second];
      }
    }
    auto fits = [&](int block) {
      return used[block] + bytes <= input.block_capacity;
    };

    int target = -1;
    size_t best_edges = 0;
    for (const auto& [block, edges] : edges_into) {
      if (edges > best_edges && fits(block)) {
        target = block;
        best_edges = edges;
      }
    }
    if (target < 0 && !used.empty() &&
        fits(static_cast<int>(used.size()) - 1)) {
      target = static_cast<int>(used.size()) - 1;
    }
    if (target < 0) {
      target = static_cast<int>(used.size());
      used.push_back(storage::kBlockHeaderBytes);
    }

    used[target] += bytes;
    for (; lo < hi; ++lo) {
      block_of[clusters[lo].first] = target;
      placement.emplace_back(clusters[lo].first, target);
    }
  }
  return placement;
}

/// The paper's greedy packing skeleton, shared by every policy:
///
///   Repeat
///     Choose the unassigned instance with the highest seed key;
///     Place this instance in a new block;
///     Repeat
///       Choose the relationship belonging to some instance assigned to
///       the block such that (1) it connects to an unassigned instance
///       outside the block and (2) its pull key is the highest;
///       Assign the instance attached to this relationship to the block;
///     Until the block is full;
///   Until all instances are assigned blocks.
///
/// Policies differ only in the two keys. Both orderings break ties on
/// lower instance id, so the placement is deterministic. Candidates that
/// no longer fit are skipped (the packer keeps trying smaller ones); an
/// instance larger than the capacity by itself still seeds its own
/// cluster, so oversized records degrade to one-record blocks instead of
/// wedging the loop. The clusters then go through PackClustersIntoBlocks,
/// so a cluster the pull loop left half empty shares its block.
template <typename SeedKey, typename PullKey>
Placement PackWith(const ClusterInput& input, SeedKey seed_key,
                   PullKey pull_key) {
  Placement clusters;  // (instance, cluster index), clusters contiguous
  clusters.reserve(input.record_sizes.size());

  std::vector<InstanceId> seeds;
  seeds.reserve(input.record_sizes.size());
  for (const auto& [id, size] : input.record_sizes) {
    (void)size;
    seeds.push_back(id);
  }
  std::sort(seeds.begin(), seeds.end(), [&](InstanceId a, InstanceId b) {
    double ka = seed_key(a), kb = seed_key(b);
    if (ka != kb) return ka > kb;
    return a < b;
  });

  std::set<InstanceId> unassigned(seeds.begin(), seeds.end());
  size_t seed_cursor = 0;
  int cluster = 0;

  while (!unassigned.empty()) {
    while (seed_cursor < seeds.size() &&
           !unassigned.contains(seeds[seed_cursor])) {
      ++seed_cursor;
    }
    if (seed_cursor >= seeds.size()) break;  // defensive; cannot happen
    InstanceId seed = seeds[seed_cursor];

    size_t used = storage::kBlockHeaderBytes + RecordBytes(input, seed);
    unassigned.erase(seed);
    clusters.emplace_back(seed, cluster);

    // Candidate frontier: (pull key desc, peer id asc). Lazily validated.
    struct Cand {
      double key;
      InstanceId peer;
      bool operator<(const Cand& o) const {
        if (key != o.key) return key < o.key;  // max-heap by key
        return peer > o.peer;
      }
    };
    std::priority_queue<Cand> frontier;
    auto push_neighbors = [&](InstanceId from) {
      auto adj = input.adjacency.find(from);
      if (adj == input.adjacency.end()) return;
      for (const ClusterInput::Neighbor& n : adj->second) {
        if (unassigned.contains(n.peer)) frontier.push({pull_key(n), n.peer});
      }
    };
    push_neighbors(seed);

    while (!frontier.empty()) {
      Cand c = frontier.top();
      frontier.pop();
      if (!unassigned.contains(c.peer)) continue;  // stale entry
      if (used + RecordBytes(input, c.peer) > input.block_capacity) {
        // The paper stops when "the block is full"; we skip candidates
        // that no longer fit and keep trying smaller ones.
        continue;
      }
      used += RecordBytes(input, c.peer);
      unassigned.erase(c.peer);
      clusters.emplace_back(c.peer, cluster);
      push_neighbors(c.peer);
    }
    ++cluster;
  }

  return PackClustersIntoBlocks(input, clusters);
}

}  // namespace

const char* PolicyKindName(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kGreedyUsage:
      return "greedy_usage";
    case PolicyKind::kDstc:
      return "dstc";
    case PolicyKind::kTypeGraph:
      return "typegraph";
  }
  return "unknown";
}

std::optional<PolicyKind> PolicyKindFromName(std::string_view name) {
  for (PolicyKind kind : AllPolicyKinds()) {
    if (name == PolicyKindName(kind)) return kind;
  }
  // Convenience alias: the paper's scheme is usually just called greedy.
  if (name == "greedy") return PolicyKind::kGreedyUsage;
  return std::nullopt;
}

const std::vector<PolicyKind>& AllPolicyKinds() {
  static const std::vector<PolicyKind> kAll = {
      PolicyKind::kGreedyUsage, PolicyKind::kDstc, PolicyKind::kTypeGraph};
  return kAll;
}

Placement GreedyUsagePolicy::Place(const ClusterInput& input) const {
  auto seed_key = [&](InstanceId id) -> double {
    auto it = input.access_counts.find(id);
    return it == input.access_counts.end()
               ? 0.0
               : static_cast<double>(it->second);
  };
  auto pull_key = [](const ClusterInput::Neighbor& n) -> double {
    return static_cast<double>(n.usage);
  };
  return PackWith(input, seed_key, pull_key);
}

Placement DstcPolicy::Place(const ClusterInput& input) const {
  auto seed_key = [&](InstanceId id) -> double {
    auto it = input.decayed_access.find(id);
    return it == input.decayed_access.end() ? 0.0 : it->second;
  };
  auto pull_key = [](const ClusterInput::Neighbor& n) -> double {
    return n.decayed_usage;
  };
  return PackWith(input, seed_key, pull_key);
}

Placement TypeGraphPolicy::Place(const ClusterInput& input) const {
  // No runtime statistics: group instances of the same class (seed order
  // walks class extents lowest class id first) and pull neighbours across
  // the lowest-index relationship port first, so placement follows the
  // schema's declaration structure.
  auto seed_key = [&](InstanceId id) -> double {
    auto it = input.class_of.find(id);
    return it == input.class_of.end() ? 0.0
                                      : -static_cast<double>(it->second);
  };
  auto pull_key = [](const ClusterInput::Neighbor& n) -> double {
    return -static_cast<double>(n.rel);
  };
  return PackWith(input, seed_key, pull_key);
}

std::unique_ptr<Policy> MakePolicy(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kGreedyUsage:
      return std::make_unique<GreedyUsagePolicy>();
    case PolicyKind::kDstc:
      return std::make_unique<DstcPolicy>();
    case PolicyKind::kTypeGraph:
      return std::make_unique<TypeGraphPolicy>();
  }
  return std::make_unique<GreedyUsagePolicy>();
}

}  // namespace cactis::cluster
