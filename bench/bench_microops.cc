// Micro-benchmarks (google-benchmark): wall-clock cost of the primitive
// operations and of incremental vs from-scratch evaluation. Complements
// the counter-based experiment tables (E1-E9) with timing.

#include <benchmark/benchmark.h>
#include <unistd.h>

#include "bench_util.h"
#include "storage/checksum.h"

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
