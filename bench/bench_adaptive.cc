// Experiment E6 — self-adaptive statistics.
//
// Paper claim (section 2.3): "We keep information about past behavior in
// the form of a decaying average which changes over time. This makes the
// database self-adaptive, allowing changes in the structure of the
// database to be reflected in changing averages and hence changing
// scheduling priorities."
//
// Workload: a sink consumes values across two relationships. At cluster
// time arm B is a long chain (worst-case estimate ~its block span) and
// arm A is short. Then the structure shifts: B's tail is disconnected, so
// servicing B becomes cheap, and A is extended, becoming expensive. We
// track the scheduler's per-relationship expected-I/O estimates across
// post-shift epochs:
//   * with adaptive decaying averages they converge to the new reality
//     (B cheap, A expensive) and the scheduling priority flips;
//   * with static cluster-time statistics they stay frozen at the stale
//     values.

#include "bench_util.h"

namespace cactis::bench {
namespace {

struct World {
  std::unique_ptr<core::Database> db;
  InstanceId sink;
  std::vector<InstanceId> arm_a, arm_b;
  EdgeId edge_a, edge_b;  // the sink's two dependency edges
};

World Build(bool adaptive) {
  World w;
  core::DatabaseOptions opts;
  opts.adaptive_stats = adaptive;
  opts.buffer_capacity = 3;
  opts.block_size = 512;
  opts.decay_alpha = 0.5;
  w.db = std::make_unique<core::Database>(opts);
  Die(w.db->LoadSchema(kCellSchema), "schema");

  auto chain = [&](int len, std::vector<InstanceId>* out) {
    for (int i = 0; i < len; ++i) {
      InstanceId id = MustV(w.db->Create("cell"), "create");
      Die(w.db->Set(id, "base", Value::Int(1)), "set");
      if (!out->empty()) {
        Die(w.db->Connect(id, "prev", out->back(), "next").status(),
            "connect");
      }
      out->push_back(id);
    }
  };
  chain(3, &w.arm_a);    // short at cluster time
  chain(40, &w.arm_b);   // long at cluster time

  w.sink = MustV(w.db->Create("cell"), "create");
  Die(w.db->Set(w.sink, "base", Value::Int(0)), "set");
  w.edge_a = MustV(
      w.db->Connect(w.sink, "prev", w.arm_a.back(), "next"), "connect");
  w.edge_b = MustV(
      w.db->Connect(w.sink, "prev", w.arm_b.back(), "next"), "connect");

  Die(w.db->Peek(w.sink, "acc").status(), "warm");
  Die(w.db->Reorganize(), "reorganize");  // seeds worst-case estimates
  return w;
}

/// The structural shift: arm B collapses to one cell; arm A grows long.
void Shift(World* w) {
  auto edges = w->db->EdgesOf(w->arm_b.back(), "prev");
  Die(edges.status(), "edges");
  for (EdgeId e : *edges) Die(w->db->Disconnect(e), "disconnect");

  std::vector<InstanceId> extension;
  for (int i = 0; i < 40; ++i) {
    InstanceId id = MustV(w->db->Create("cell"), "create");
    Die(w->db->Set(id, "base", Value::Int(1)), "set");
    if (!extension.empty()) {
      Die(w->db->Connect(id, "prev", extension.back(), "next").status(),
          "connect");
    }
    extension.push_back(id);
  }
  Die(w->db->Connect(w->arm_a.front(), "prev", extension.back(), "next")
          .status(),
      "connect");
}

void Epoch(World* w) {
  Die(w->db->Set(w->arm_a.front(), "base", Value::Int(2)), "set");
  Die(w->db->Set(w->arm_b.front(), "base", Value::Int(2)), "set");
  Die(w->db->Peek(w->sink, "acc").status(), "read");
}

}  // namespace
}  // namespace cactis::bench

int main() {
  using namespace cactis::bench;
  std::printf(
      "E6: per-relationship expected-I/O estimates after a structural\n"
      "shift (arm B collapses, arm A grows). The scheduler prioritises\n"
      "the lower estimate; a correct post-shift priority services B "
      "first.\n\n");
  World adaptive = Build(true);
  World fixed = Build(false);
  Shift(&adaptive);
  Shift(&fixed);

  BenchReport report("adaptive");
  report.SetConfig("experiment", "E6");
  report.SetConfig("epochs", 6);
  Table table({"epoch", "adaptive est(A)", "adaptive est(B)",
               "adaptive priority", "static est(A)", "static est(B)",
               "static priority"});
  for (int epoch = 0; epoch <= 6; ++epoch) {
    double aa = adaptive.db->EdgeExpectedIo(adaptive.edge_a);
    double ab = adaptive.db->EdgeExpectedIo(adaptive.edge_b);
    double fa = fixed.db->EdgeExpectedIo(fixed.edge_a);
    double fb = fixed.db->EdgeExpectedIo(fixed.edge_b);
    table.AddRow({Num(static_cast<uint64_t>(epoch)), Num(aa), Num(ab),
                  ab <= aa ? "B first (correct)" : "A first (stale)",
                  Num(fa), Num(fb),
                  fb <= fa ? "B first (correct)" : "A first (stale)"});
    Epoch(&adaptive);
    Epoch(&fixed);
  }
  table.Print();
  std::printf(
      "\nShape check (paper): both start from the same cluster-time\n"
      "worst-case estimates (B looks expensive). The adaptive decaying\n"
      "averages converge to the post-shift costs within a few epochs and\n"
      "flip the scheduling priority; the static estimates never change.\n");
  report.AddTable("estimates", table);
  report.AttachMetricsJson(adaptive.db->SnapshotMetrics());
  report.Write();
  return 0;
}
