// Clustering policies: competing answers to "which instances share a
// block?".
//
// The paper (section 2.3) prescribes one scheme — greedy packing by raw
// lifetime usage counters. Darmont et al.'s OCB work (arXiv:1611.09177,
// arXiv:0705.0454) shows that clustering policies rank very differently
// across workload shapes, so the packer is factored behind this
// interface and scored per workload by bench_clustering (E16):
//
//  * GreedyUsagePolicy — the paper's scheme verbatim: seed blocks with
//    the most-referenced unassigned instance, pull neighbours across the
//    highest-raw-usage relationships. Best when the access pattern is
//    stable for the database's whole life.
//  * DstcPolicy — the same greedy skeleton driven by *decayed* counters
//    (sched::DecayingAverage folded once per observation period), in the
//    spirit of DSTC dynamic clustering: cold history stops dictating
//    placement, so a workload whose hot set or traversal direction
//    shifts re-clusters toward the recent pattern.
//  * TypeGraphPolicy — ignores runtime statistics entirely and places by
//    schema relationship structure (group by class, walk low-index
//    relationships first). The cold-start answer: sensible placement
//    before a single traversal has been observed.
//
// All three share one packing skeleton and the same determinism
// guarantee: ties break on lower instance id, so a placement is a pure
// function of its ClusterInput. The skeleton grows clusters; a final
// pass packs whole clusters into blocks by edge affinity, so a placement
// index names one block and small clusters share blocks instead of each
// opening a fresh one.

#ifndef CACTIS_CLUSTER_POLICY_H_
#define CACTIS_CLUSTER_POLICY_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "storage/block_image.h"

namespace cactis::cluster {

/// The graph view the packers work over, gathered by
/// Database::Reorganize() from the paper's usage counters (section 2.3:
/// "We keep a count of the total number of times each instance in the
/// database is accessed, as well as the number of times we cross a
/// relationship between instances"). `record_sizes` are encoded record
/// sizes; `block_capacity` is the usable bytes per block, and the packer
/// accounts the record store's per-record overhead and block header
/// (storage/block_image.h).
///
/// The statistic fields feed different policies:
///  * `access_counts` / `Neighbor::usage` — raw lifetime counters (the
///    paper's scheme, GreedyUsagePolicy);
///  * `decayed_access` / `Neighbor::decayed_usage` — per-observation-
///    period decayed counters (DstcPolicy); absent entries read as 0;
///  * `class_of` / `Neighbor::rel` — schema structure (TypeGraphPolicy;
///    `rel` is the port index the edge leaves through).
struct ClusterInput {
  struct Neighbor {
    InstanceId peer;
    uint64_t usage = 0;        // relationship crossing count (both directions)
    double decayed_usage = 0;  // decayed crossing count (DSTC statistic)
    uint32_t rel = 0;          // port index on this side (schema structure)
  };

  std::unordered_map<InstanceId, uint64_t> access_counts;
  std::unordered_map<InstanceId, double> decayed_access;
  std::unordered_map<InstanceId, uint32_t> class_of;
  std::unordered_map<InstanceId, std::vector<Neighbor>> adjacency;
  std::unordered_map<InstanceId, size_t> record_sizes;
  size_t block_capacity = 4096;
};

enum class PolicyKind {
  kGreedyUsage,  // paper 2.3: raw lifetime counters
  kDstc,         // decayed counters (DSTC-style dynamic clustering)
  kTypeGraph,    // schema structure only (cold start)
};

/// The policy Database::Reorganize() uses unless configured otherwise
/// (DatabaseOptions::cluster_policy). DSTC won the E16 matrix: it matches
/// greedy on stable workloads (one observation period of decayed counts
/// orders like raw counts) and strictly beats it when the traversal
/// pattern shifts between reorganisations.
inline constexpr PolicyKind kDefaultPolicy = PolicyKind::kDstc;

/// Stable lowercase name ("greedy_usage" | "dstc" | "typegraph") used by
/// the `reorganize <policy>` statement, metrics and bench output.
const char* PolicyKindName(PolicyKind kind);
std::optional<PolicyKind> PolicyKindFromName(std::string_view name);
/// Every kind, in declaration order (bench matrix iteration).
const std::vector<PolicyKind>& AllPolicyKinds();

using Placement = std::vector<std::pair<InstanceId, int>>;

class Policy {
 public:
  virtual ~Policy() = default;
  virtual PolicyKind kind() const = 0;
  const char* name() const { return PolicyKindName(kind()); }
  /// Assigns every instance in `input.record_sizes` a block index:
  /// instances sharing an index fit one block of `block_capacity`, and a
  /// cluster is never split across indices. Pure and deterministic; an
  /// instance whose record alone exceeds the usable capacity gets an
  /// index of its own (the record store rejects such records upstream,
  /// but the packer must not wedge on them).
  virtual Placement Place(const ClusterInput& input) const = 0;
};

class GreedyUsagePolicy : public Policy {
 public:
  PolicyKind kind() const override { return PolicyKind::kGreedyUsage; }
  Placement Place(const ClusterInput& input) const override;
};

class DstcPolicy : public Policy {
 public:
  PolicyKind kind() const override { return PolicyKind::kDstc; }
  Placement Place(const ClusterInput& input) const override;
};

class TypeGraphPolicy : public Policy {
 public:
  PolicyKind kind() const override { return PolicyKind::kTypeGraph; }
  Placement Place(const ClusterInput& input) const override;
};

std::unique_ptr<Policy> MakePolicy(PolicyKind kind);

}  // namespace cactis::cluster

#endif  // CACTIS_CLUSTER_POLICY_H_
