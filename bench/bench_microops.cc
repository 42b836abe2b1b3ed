// Micro-benchmarks (google-benchmark): wall-clock cost of the primitive
// operations and of incremental vs from-scratch evaluation. Complements
// the counter-based experiment tables (E1-E9) with timing.

#include <benchmark/benchmark.h>
#include <unistd.h>

#include "bench_util.h"
#include "core/instance.h"
#include "sched/scheduler.h"
#include "server/executor.h"
#include "server/transport.h"
#include "storage/buffer_pool.h"
#include "storage/checksum.h"
#include "storage/record_store.h"
#include "storage/simulated_disk.h"

namespace cactis::bench {
namespace {

std::unique_ptr<core::Database> FreshDb(size_t buffer = 1u << 16) {
  core::DatabaseOptions opts;
  opts.buffer_capacity = buffer;
  auto db = std::make_unique<core::Database>(opts);
  Die(db->LoadSchema(kCellSchema), "schema");
  return db;
}

void BM_CreateInstance(benchmark::State& state) {
  auto db = FreshDb();
  for (auto _ : state) {
    benchmark::DoNotOptimize(db->Create("cell"));
  }
}
BENCHMARK(BM_CreateInstance);

void BM_SetIntrinsicNoDependents(benchmark::State& state) {
  auto db = FreshDb();
  InstanceId id = MustV(db->Create("cell"), "create");
  int64_t v = 0;
  for (auto _ : state) {
    Die(db->Set(id, "base", Value::Int(++v)), "set");
  }
}
BENCHMARK(BM_SetIntrinsicNoDependents);

void BM_GetIntrinsic(benchmark::State& state) {
  auto db = FreshDb();
  InstanceId id = MustV(db->Create("cell"), "create");
  for (auto _ : state) {
    benchmark::DoNotOptimize(db->Get(id, "base"));
  }
}
BENCHMARK(BM_GetIntrinsic);

void BM_GetDerivedCached(benchmark::State& state) {
  auto db = FreshDb();
  auto ids = BuildChain(db.get(), 64);
  Die(db->Get(ids.back(), "acc").status(), "warm");
  for (auto _ : state) {
    benchmark::DoNotOptimize(db->Get(ids.back(), "acc"));
  }
}
BENCHMARK(BM_GetDerivedCached);

/// Incremental update+read on a chain of the given length: one intrinsic
/// write at the head, one read at the tail.
void BM_IncrementalChainUpdate(benchmark::State& state) {
  auto db = FreshDb();
  auto ids = BuildChain(db.get(), static_cast<int>(state.range(0)));
  Die(db->Get(ids.back(), "acc").status(), "warm");
  int64_t v = 0;
  for (auto _ : state) {
    Die(db->Set(ids[0], "base", Value::Int(++v)), "set");
    benchmark::DoNotOptimize(db->Get(ids.back(), "acc"));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_IncrementalChainUpdate)->Arg(8)->Arg(64)->Arg(512);

/// Localized update: write near the tail so only a few attributes
/// recompute — this is the incremental win over re-deriving everything.
void BM_IncrementalLocalizedUpdate(benchmark::State& state) {
  auto db = FreshDb();
  auto ids = BuildChain(db.get(), static_cast<int>(state.range(0)));
  Die(db->Get(ids.back(), "acc").status(), "warm");
  int64_t v = 0;
  size_t near_tail = ids.size() - 3;
  for (auto _ : state) {
    Die(db->Set(ids[near_tail], "base", Value::Int(++v)), "set");
    benchmark::DoNotOptimize(db->Get(ids.back(), "acc"));
  }
}
BENCHMARK(BM_IncrementalLocalizedUpdate)->Arg(64)->Arg(512);

void BM_ConnectDisconnect(benchmark::State& state) {
  auto db = FreshDb();
  InstanceId a = MustV(db->Create("cell"), "create");
  InstanceId b = MustV(db->Create("cell"), "create");
  for (auto _ : state) {
    EdgeId e = MustV(db->Connect(a, "prev", b, "next"), "connect");
    Die(db->Disconnect(e), "disconnect");
  }
}
BENCHMARK(BM_ConnectDisconnect);

void BM_UndoLast(benchmark::State& state) {
  auto db = FreshDb();
  InstanceId id = MustV(db->Create("cell"), "create");
  int64_t v = 0;
  for (auto _ : state) {
    Die(db->Set(id, "base", Value::Int(++v)), "set");
    Die(db->UndoLast(), "undo");
  }
}
BENCHMARK(BM_UndoLast);

void BM_RuleInterpreterArithmetic(benchmark::State& state) {
  // Interpreter overhead in isolation: a rule mixing arithmetic,
  // comparison and builtins over local attributes.
  core::DatabaseOptions opts;
  opts.buffer_capacity = 1u << 16;
  core::Database db(opts);
  Die(db.LoadSchema(R"(
    object class calc is
      attributes
        a : int;
        b : int;
        r : int;
      rules
        r = begin
          t : int = 0;
          if a > b then t = a * 2 + b; else t = b * 2 + a; end;
          return t + max(a, b) - min(a, b);
        end;
    end object;
  )"),
      "schema");
  InstanceId id = MustV(db.Create("calc"), "create");
  int64_t v = 0;
  for (auto _ : state) {
    Die(db.Set(id, "a", Value::Int(++v)), "set");
    benchmark::DoNotOptimize(db.Get(id, "r"));
  }
}
BENCHMARK(BM_RuleInterpreterArithmetic);

/// The CRC-32 kernel every block fault, WAL block and wire frame runs.
void BM_Crc32(benchmark::State& state) {
  std::string buf(static_cast<size_t>(state.range(0)), '\0');
  for (size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<char>(i * 131 + 7);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(storage::Crc32(buf));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(1024)->Arg(4096);

/// One block fault, the way the evaluator pays for it: a 4 KB block holding
/// 25 cell records (four edges each, 132 bytes; 3.6 KB in all) is faulted
/// in, five of its records are decoded into instances, one is written back
/// at the same size, and the dirty block is evicted — written back — by
/// faulting a second block into the one-frame pool.
void BM_BlockFaultEvict(benchmark::State& state) {
  auto db = FreshDb();
  const schema::ObjectClass* cls = db->catalog()->FindClass("cell");
  storage::SimulatedDisk disk(4096);
  storage::BufferPool pool(&disk, 1);
  storage::RecordStore store(&disk, &pool);
  constexpr int kRecords = 25;
  for (int i = 1; i <= kRecords; ++i) {
    core::Instance inst = core::Instance::Create(InstanceId(i), *cls);
    for (int e = 0; e < 4; ++e) {
      inst.ports()[0].push_back(core::EdgeRecord{
          EdgeId(i * 8 + e), InstanceId(i + e + 1), 1});
    }
    Die(store.Put(InstanceId(i), inst.Serialize()), "put");
  }
  const InstanceId other(kRecords + 1);
  Die(store.Put(other, std::string(3000, 'x')), "put other");
  if (*store.BlockOf(InstanceId(1)) != *store.BlockOf(InstanceId(kRecords)) ||
      *store.BlockOf(InstanceId(1)) == *store.BlockOf(other)) {
    Die(Status::Internal("records did not pack into one block"), "layout");
  }
  Die(pool.FlushAll(), "flush");
  for (auto _ : state) {
    for (int i = 1; i <= kRecords; i += kRecords / 5) {
      std::string_view payload = MustV(store.View(InstanceId(i)), "view");
      core::Instance inst = MustV(
          core::Instance::Deserialize(payload, *db->catalog()), "decode");
      benchmark::DoNotOptimize(inst.attrs().data());
      if (i == 1) Die(store.Put(InstanceId(i), inst.Serialize()), "write");
    }
    Die(store.Touch(other), "evict");
  }
}
BENCHMARK(BM_BlockFaultEvict);

/// Chunk dispatch alone: a drain of 64 chunks (the size of one write's
/// marking wave, scaled down) scheduled and run through a runner that
/// does no work, on instances whose block is resident.
void BM_ChunkScheduleRun(benchmark::State& state) {
  storage::SimulatedDisk disk(4096);
  storage::BufferPool pool(&disk, 4);
  storage::RecordStore store(&disk, &pool);
  constexpr int kChunks = 64;
  for (int i = 1; i <= kChunks; ++i) {
    Die(store.Put(InstanceId(i), "r"), "put");
  }
  sched::ChunkScheduler scheduler(&store,
                                  sched::SchedulingPolicy::kGreedyAdaptive);
  struct CountingRunner : sched::ChunkRunner {
    Status RunChunk(const sched::Chunk& chunk) override {
      sum += chunk.attr;
      return Status::OK();
    }
    uint64_t sum = 0;
  } runner;
  for (auto _ : state) {
    for (int i = 1; i <= kChunks; ++i) {
      sched::Chunk chunk;
      chunk.kind = sched::ChunkKind::kCompute;
      chunk.owner = InstanceId(i);
      chunk.instance = InstanceId(i);
      chunk.attr = static_cast<uint32_t>(i);
      scheduler.Schedule(chunk);
    }
    Die(scheduler.RunUntilIdle(&runner), "run");
  }
  benchmark::DoNotOptimize(runner.sum);
  state.SetItemsProcessed(state.iterations() * kChunks);
}
BENCHMARK(BM_ChunkScheduleRun);

/// An executor with no worker or sampler threads and `sessions` open
/// sessions, each of which has run one statement, so it carries cost
/// totals.
std::unique_ptr<server::Executor> ServedExecutor(core::Database* db,
                                                 int64_t sessions) {
  server::ServerOptions opts;
  opts.num_workers = 0;          // drained by hand below
  opts.sampler_interval_ms = 0;  // no sampler thread: ticks are timed here
  auto exec = std::make_unique<server::Executor>(db, opts);
  server::LoopbackTransport client(exec.get());
  for (int64_t i = 0; i < sessions; ++i) {
    auto session = client.Connect();
    Die(session.status(), "connect");
    auto done = client.Submit(*session, "health");
    while (exec->RunOne()) {
    }
    if (!done.get().ok()) Die(Status::Internal("health failed"), "health");
  }
  return exec;
}

/// One telemetry sampler tick (Executor::SampleMetricsOnce(): the
/// registry snapshot plus the delta conversion) with 8 open sessions,
/// and with the 1000 of the E15 soak.
void BM_SampleOnce(benchmark::State& state) {
  auto db = FreshDb();
  auto exec = ServedExecutor(db.get(), state.range(0));
  for (auto _ : state) exec->SampleMetricsOnce();
}
BENCHMARK(BM_SampleOnce)->Arg(8)->Arg(1000);

/// One metrics scrape (Executor::SnapshotMetrics(): the whole JSON
/// document, per-session costs and slow log included), sessions as above.
void BM_SnapshotMetrics(benchmark::State& state) {
  auto db = FreshDb();
  auto exec = ServedExecutor(db.get(), state.range(0));
  for (auto _ : state) benchmark::DoNotOptimize(exec->SnapshotMetrics());
}
BENCHMARK(BM_SnapshotMetrics)->Arg(8)->Arg(1000);

/// ConsoleReporter that also copies each run into a table so the results
/// can be written as BENCH_microops.json next to the console output.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  explicit CapturingReporter(Table* table)
      : benchmark::ConsoleReporter(isatty(fileno(stdout)) ? OO_Defaults
                                                          : OO_Tabular),
        table_(table) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      char ns[64];
      std::snprintf(ns, sizeof(ns), "%.1f", run.GetAdjustedRealTime());
      table_->AddRow({run.benchmark_name(), ns,
                      Num(static_cast<uint64_t>(run.iterations))});
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

 private:
  Table* table_;
};

}  // namespace
}  // namespace cactis::bench

int main(int argc, char** argv) {
  using namespace cactis::bench;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  BenchReport report("microops");
  Table table({"benchmark", "real time (ns)", "iterations"});
  CapturingReporter reporter(&table);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  report.AddTable("timings", table);
  report.Write();
  return 0;
}
