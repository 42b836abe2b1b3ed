// Experiment E16 — competing clustering policies on OCB-style workloads.
//
// Paper claim (section 2.3): packing instances that are frequently
// referenced together into the same block "will tighten the locality of
// reference for the database". E16 extends the old single-workload E5
// into a policy x scenario matrix: every cluster::Policy (plus "none",
// the natural insertion-order placement) is scored on every workload
// scenario emitted by the OCB-inspired generator (cluster/workload_gen).
//
// Per cell we report:
//   * blocks read per traversal (bpt) over the scored op stream, from a
//     cold buffer pool so every cell starts from identical cache state;
//   * reorganisation cost: blocks written by ApplyPlacement;
//   * post-reorg fill factor (payload+headers over usable block bytes).
//
// Scenarios:
//   stable_tree  — one phase, skewed hot set, depth-first tree closure
//                  with a 10% write mix. Usage statistics match the
//                  scored pattern exactly; greedy and dstc should tie.
//   shift_dfs    — two phases, rotate_rel: warm phase 0 walks the tree,
//                  phase 1 (and the scored ops) walk the jump cycle. Raw
//                  lifetime counters stay tree-biased (70% of warm ops
//                  land in phase 0); decayed counters follow the shift,
//                  so dstc beats greedy_usage here.
//   shift_pull   — the same shift with wide attribute-pull traversals.
//   cold_uniform — no skew, tiny warm stream: the cold-start case where
//                  the schema-only typegraph policy has all it needs.
//
// Counters are deterministic (seeded Rng, simulated disk); tools/
// bench_diff.py hard-gates the clustered/scrambled ratio and the
// default policy's wins against the committed baseline.

#include <string>
#include <vector>

#include "bench_util.h"
#include "cluster/policy.h"
#include "cluster/workload_gen.h"

namespace cactis::bench {
namespace {

using cluster::PolicyKind;
using cluster::TraversalKind;
using cluster::WorkloadOp;
using cluster::WorkloadOptions;
using cluster::WorkloadSpec;

/// Two relationship structures over one class: `wtree` is the fan_out-ary
/// structural tree (rel 0), `wjump` the random permutation cycle (rel 1).
/// Traversals walk "down": from an instance's plug port to its socket
/// peers.
const char* kWorkloadSchema = R"(
  relationship wtree;
  relationship wjump;
  object class wnode is
    relationships
      t_up   : wtree multi socket;
      t_down : wtree multi plug;
      j_up   : wjump multi socket;
      j_down : wjump multi plug;
    attributes
      base : int;
  end object;
)";

const char* DownPort(uint32_t rel) { return rel == 0 ? "t_down" : "j_down"; }

struct Scenario {
  const char* name;
  WorkloadOptions options;
};

std::vector<Scenario> MakeScenarios(bool smoke) {
  // Smoke mode shrinks the op streams (CI runs every push); the graph
  // sizes stay put so placement quality is still exercised.
  const int warm = smoke ? 240 : 480;
  const int score = smoke ? 90 : 200;

  Scenario stable{"stable_tree", {}};
  stable.options.seed = 11;
  stable.options.objects = 360;
  stable.options.fan_out = 3;
  stable.options.depth = 4;
  stable.options.kind = TraversalKind::kDepthFirst;
  stable.options.write_fraction = 0.1;
  stable.options.warm_ops = warm;
  stable.options.score_ops = score;

  Scenario shift_dfs{"shift_dfs", {}};
  shift_dfs.options.seed = 23;
  shift_dfs.options.objects = 360;
  shift_dfs.options.fan_out = 3;
  shift_dfs.options.depth = 6;
  shift_dfs.options.kind = TraversalKind::kDepthFirst;
  shift_dfs.options.phases = 2;
  shift_dfs.options.rotate_rel = true;
  shift_dfs.options.warm_ops = warm;
  shift_dfs.options.score_ops = score;

  Scenario shift_pull{"shift_pull", {}};
  shift_pull.options.seed = 37;
  shift_pull.options.objects = 360;
  shift_pull.options.fan_out = 3;
  shift_pull.options.kind = TraversalKind::kAttrPull;
  shift_pull.options.phases = 2;
  shift_pull.options.rotate_rel = true;
  shift_pull.options.warm_ops = warm;
  shift_pull.options.score_ops = score;

  Scenario cold{"cold_uniform", {}};
  cold.options.seed = 53;
  cold.options.objects = 360;
  cold.options.fan_out = 3;
  cold.options.depth = 4;
  cold.options.kind = TraversalKind::kDepthFirst;
  cold.options.hot_skew = 0.0;  // uniform roots: no hot set at all
  cold.options.warm_ops = smoke ? 30 : 60;  // barely any statistics
  cold.options.score_ops = score;

  return {stable, shift_dfs, shift_pull, cold};
}

/// One traversal against the database, mirroring what an environment
/// layer's closure walk would do: touch the root, follow the op's
/// relationship downward (depth-first to op.depth, or one wide
/// attribute pull), reporting every crossing to the clustering
/// statistics. Writes rewrite the root's intrinsic attribute.
void RunOp(core::Database* db, const std::vector<InstanceId>& ids,
           const WorkloadOp& op, int* op_serial) {
  const char* port = DownPort(op.rel);
  Die(db->Peek(ids[op.root], "base").status(), "peek root");
  if (op.kind == TraversalKind::kAttrPull) {
    auto edges = MustV(db->EdgesOf(ids[op.root], port), "edges");
    auto peers = MustV(db->NeighborsOf(ids[op.root], port), "neighbors");
    for (size_t i = 0; i < peers.size(); ++i) {
      db->NoteTraversal(edges[i]);
      Die(db->Peek(peers[i], "base").status(), "peek peer");
    }
  } else {
    // Depth-first closure. The structures are acyclic within any
    // depth-limited walk (tree; jump is a permutation cycle walked at
    // most `depth` steps), so no visited set is needed.
    struct Frame {
      InstanceId id;
      int remaining;
    };
    std::vector<Frame> stack{{ids[op.root], op.depth}};
    while (!stack.empty()) {
      Frame f = stack.back();
      stack.pop_back();
      if (f.remaining == 0) continue;
      auto edges = MustV(db->EdgesOf(f.id, port), "edges");
      auto peers = MustV(db->NeighborsOf(f.id, port), "neighbors");
      for (size_t i = 0; i < peers.size(); ++i) {
        db->NoteTraversal(edges[i]);
        Die(db->Peek(peers[i], "base").status(), "peek peer");
        stack.push_back({peers[i], f.remaining - 1});
      }
    }
  }
  if (op.write) {
    Die(db->Set(ids[op.root], "base", Value::Int(++*op_serial)), "write");
  }
}

/// Flush + discard every resident block so each scored run starts from
/// the same (empty) cache state regardless of what warming or
/// reorganisation left behind.
void ColdPool(core::Database* db) {
  Die(db->Flush(), "flush");
  auto* pool = db->buffer_pool();
  for (BlockId id : pool->ResidentBlockIds()) pool->Discard(id);
}

struct CellResult {
  uint64_t score_reads = 0;
  uint64_t blocks = 0;         // blocks holding records after placement
  uint64_t reorg_writes = 0;   // blocks written by ApplyPlacement
  double fill_factor = 0.0;    // post-reorg (0 for policy "none")
};

/// Materialises `spec`, warms statistics (folding observation periods at
/// the spec's phase breaks), optionally reorganises under `policy`, then
/// scores blocks read over the spec's scored op stream from a cold pool.
/// `policy == nullptr` means "none": natural insertion-order placement.
CellResult RunCell(const WorkloadSpec& spec, const PolicyKind* policy) {
  core::DatabaseOptions opts;
  opts.block_size = 1024;
  opts.buffer_capacity = 8;
  core::Database db(opts);
  Die(db.LoadSchema(kWorkloadSchema), "schema");

  // Create in the spec's scrambled order so natural placement interleaves
  // structurally unrelated instances, then wire both edge structures.
  std::vector<InstanceId> ids(spec.objects);
  for (int index : spec.create_order) {
    ids[index] = MustV(db.Create("wnode"), "create");
  }
  for (int i = 0; i < spec.objects; ++i) {
    Die(db.Set(ids[i], "base", Value::Int(i)), "set");
  }
  for (const auto& e : spec.edges) {
    const char* up = e.rel == 0 ? "t_up" : "j_up";
    Die(db.Connect(ids[e.to], up, ids[e.from], DownPort(e.rel)).status(),
        "connect");
  }

  int op_serial = 0;
  size_t next_break = 0;
  for (size_t i = 0; i < spec.warm_ops.size(); ++i) {
    if (next_break < spec.phase_breaks.size() &&
        spec.phase_breaks[next_break] == i) {
      db.FoldUsageStatistics();
      ++next_break;
    }
    RunOp(&db, ids, spec.warm_ops[i], &op_serial);
  }

  CellResult r;
  if (policy != nullptr) {
    db.set_cluster_policy(*policy);
    Die(db.Reorganize(), "reorganize");
    r.reorg_writes = db.cluster_stats().reorg_blocks_written;
    r.fill_factor = db.cluster_stats().fill_factor;
  }

  ColdPool(&db);
  uint64_t before = db.disk_stats().reads;
  for (const auto& op : spec.score_ops) RunOp(&db, ids, op, &op_serial);
  r.score_reads = db.disk_stats().reads - before;
  r.blocks = db.block_count();
  return r;
}

}  // namespace
}  // namespace cactis::bench

int main() {
  using namespace cactis::bench;
  namespace cluster = cactis::cluster;
  const bool smoke = EnvInt("CACTIS_BENCH_SMOKE", 0) != 0;

  std::printf(
      "E16: clustering policy x workload scenario matrix.\n"
      "Score = blocks read per traversal (x100), cold buffer pool.\n"
      "'none' keeps natural insertion-order placement.\n\n");

  BenchReport report("clustering");
  report.SetConfig("experiment", "E16");
  report.SetConfig("smoke", smoke);
  report.SetConfig("block_size", 1024);
  report.SetConfig("buffer_blocks", 8);
  report.SetConfig("default_policy",
                   cluster::PolicyKindName(cluster::kDefaultPolicy));
  report.SetConfig("scenarios", "stable_tree,shift_dfs,shift_pull,cold_uniform");
  report.SetConfig("policies", "none,greedy_usage,dstc,typegraph");

  const auto scenarios = MakeScenarios(smoke);
  uint64_t default_wins_vs_greedy = 0;

  for (const Scenario& scenario : scenarios) {
    WorkloadSpec spec = cluster::GenerateWorkload(scenario.options);
    const uint64_t ops = spec.score_ops.size();

    Table table({"policy", "blocks", "reads", "blocks/traversal",
                 "reorg writes", "fill %"});
    uint64_t none_reads = 0, greedy_reads = 0, default_reads = 0;

    auto record = [&](const char* pol_name, const CellResult& r,
                      bool reorganized) {
      double bpt = static_cast<double>(r.score_reads) /
                   static_cast<double>(ops == 0 ? 1 : ops);
      table.AddRow({pol_name, Num(r.blocks), Num(r.score_reads), Num(bpt),
                    reorganized ? Num(r.reorg_writes) : std::string("-"),
                    reorganized ? Num(r.fill_factor * 100.0)
                                : std::string("-")});
      std::string prefix =
          std::string("e16_") + scenario.name + "_" + pol_name + "_";
      report.SetCounter(prefix + "bpt_x100",
                        static_cast<uint64_t>(bpt * 100.0 + 0.5));
      if (reorganized) {
        report.SetCounter(prefix + "reorg_writes", r.reorg_writes);
        report.SetCounter(prefix + "fill_x100",
                          static_cast<uint64_t>(r.fill_factor * 100.0 + 0.5));
      }
    };

    CellResult none = RunCell(spec, nullptr);
    none_reads = none.score_reads;
    record("none", none, false);

    for (PolicyKind kind : cluster::AllPolicyKinds()) {
      CellResult r = RunCell(spec, &kind);
      record(cluster::PolicyKindName(kind), r, true);
      if (kind == PolicyKind::kGreedyUsage) greedy_reads = r.score_reads;
      if (kind == cluster::kDefaultPolicy) default_reads = r.score_reads;
    }

    // Hard-gate inputs: how much better the default policy is than no
    // clustering at all (must stay > 1.0x on every scenario), and whether
    // it strictly beats the pre-PR greedy packer here.
    uint64_t ratio_x100 =
        default_reads == 0 ? 0
                           : none_reads * 100 / default_reads;
    report.SetCounter(std::string("e16_") + scenario.name + "_ratio_x100",
                      ratio_x100);
    if (default_reads < greedy_reads) ++default_wins_vs_greedy;

    std::printf("scenario %s (%llu scored traversals):\n", scenario.name,
                static_cast<unsigned long long>(ops));
    table.Print();
    std::printf("\n");
    report.AddTable(scenario.name, table);
  }

  report.SetCounter("e16_default_wins_vs_greedy", default_wins_vs_greedy);
  std::printf(
      "Shape check: every policy should beat 'none' on every scenario;\n"
      "the default (%s) must strictly beat greedy_usage on the shift\n"
      "scenarios, where raw lifetime counters lag the workload.\n",
      cluster::PolicyKindName(cluster::kDefaultPolicy));
  report.Write();
  return 0;
}
