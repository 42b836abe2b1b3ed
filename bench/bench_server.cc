// Experiment E13 — concurrent read path through the service layer.
//
// Paper context (section 1.1): Cactis is "a multi-user DBMS" — the
// service layer is what turns the single-user core into that multi-user
// system. E13 drives the full request path (LoopbackTransport ->
// admission control -> bounded queue -> worker pool -> timestamp-
// ordered transactions) with a read-heavy workload (95% reads / 5%
// increments, each an explicit begin / set / commit in three round
// trips) and sweeps the worker pool at a fixed session count. Auto-
// commit reads resolve on the MVCC snapshot path — per-instance version
// chains, no statement lock, no read-timestamp marks, so a read can
// never abort a writer — and commits group-batch in the WAL. Worker
// scaling here is real parallel execution. The headline numbers are
// stmt/s at 4 and 8 workers vs 1; tools/bench_diff.py gates them.
//
// The served driver (served_driver.h) audits every run: a per-object
// shadow count of committed increments must equal the final attribute
// values (lost_updates), no operation may fail and no session may
// outlive its client. The process exits nonzero on any violation.
//
// Env knobs (EXPERIMENTS.md E13):
//   CACTIS_BENCH_SMOKE=1   200 ops per session instead of 600
//   CACTIS_BENCH_TRIALS=N  runs per worker count, best taken (default 3)
//   CACTIS_BENCH_TRACE=1   enable request tracing and log every
//                          statement (slow-statement threshold 0); the
//                          exit status then also requires >= 99% of
//                          trace events to carry a trace id
// The 4-worker run's slow-statement log is dumped next to the bench
// JSON as slow_statements_w4.json.

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>

#include "bench_util.h"
#include "served_driver.h"

namespace cactis::bench {
namespace {

constexpr size_t kSessions = 8;
constexpr int kReadPercent = 95;
// Realistic platter write latency (the knob bench_recovery uses for the
// same reason): an instantaneous disk hides the commit stalls that worker
// scaling exists to overlap — with it, a lone worker idles through every
// WAL flush while extra workers keep serving snapshot reads and batch
// their commits into one write.
constexpr uint64_t kPlatterWriteUs = 200;
// Only genuinely slow statements pay the log's mutex, so the threshold
// keeps the hot path unperturbed while still catching the tail.
constexpr uint64_t kSlowStatementUs = 1000;

struct E13Point {
  ServedRun run;
  int violations = 0;
  uint64_t statements = 0;
  uint64_t snapshot_reads = 0;
  uint64_t snapshot_fallbacks = 0;
  uint64_t fast_path_fallbacks = 0;
  uint64_t readers_peak = 0;
  uint64_t wal_batches = 0;
  double p50_us = 0;
  double p99_us = 0;
  double p999_us = 0;
  uint64_t max_us = 0;
  std::string slow_log_json;
  uint64_t trace_events = 0;  // with CACTIS_BENCH_TRACE=1
  uint64_t trace_traced = 0;  // events carrying a non-zero trace id

  double stmt_per_s() const {
    return run.wall_s > 0 ? static_cast<double>(statements) / run.wall_s : 0;
  }
};

E13Point RunE13(size_t workers, int ops_per_session, bool trace) {
  ServedWorkload w;
  w.sessions = kSessions;
  w.ops_per_session = ops_per_session;
  w.read_pct = kReadPercent;
  w.seed = 991;
  w.platter_write_us = kPlatterWriteUs;
  w.db.enable_tracing = trace;
  w.db.trace_capacity = 1 << 16;
  w.server.num_workers = workers;
  w.server.max_queue_depth = 2 * kSessions + 8;
  w.server.slow_statement_us = trace ? 0 : kSlowStatementUs;

  E13Point p;
  p.run = RunServed(w, [&](core::Database& db, server::Executor& exec) {
    const server::ServerStats& st = exec.stats();
    p.statements = st.statements_executed.load();
    p.snapshot_reads = st.snapshot_reads.load();
    p.snapshot_fallbacks = st.snapshot_fallbacks.load();
    p.fast_path_fallbacks = st.fast_path_fallbacks.load();
    p.readers_peak = st.readers_peak.load();
    p.p50_us = st.latency_us.Quantile(0.5);
    p.p99_us = st.latency_us.Quantile(0.99);
    p.p999_us = st.latency_us.Quantile(0.999);
    p.max_us = st.latency_us.max();
    p.slow_log_json = exec.DrainSlowLogJson();
    if (db.wal() != nullptr) p.wal_batches = db.wal()->stats().group_batches;
    if (trace) {
      // Every client has finished: the trace ring is quiescent.
      for (const obs::TraceEvent& e : db.trace()->events()) {
        ++p.trace_events;
        if (e.trace_id != 0) ++p.trace_traced;
      }
    }
  });
  p.violations = ReportViolations("E13", w, p.run);
  return p;
}

}  // namespace
}  // namespace cactis::bench

int main() {
  using namespace cactis::bench;
  const bool smoke = EnvInt("CACTIS_BENCH_SMOKE", 0) != 0;
  const bool trace = EnvInt("CACTIS_BENCH_TRACE", 0) != 0;
  const int ops = smoke ? 200 : 600;
  // Each point is best-of-N trials: wall-clock speedup ratios on a loaded
  // (or single-core) host jitter with scheduler noise, and taking the
  // best run per worker count measures each configuration's capability
  // rather than one draw from the noise distribution. Invariants are
  // checked on every trial, not just the best.
  const int trials = std::max(1, EnvInt("CACTIS_BENCH_TRIALS", 3));

  BenchReport report("server");
  report.SetConfig("smoke", smoke);
  // Worker scaling is wall-clock: on a single-core host the sweep can
  // only show pipelining, so record the hardware for interpretation.
  report.SetConfig("host_cpus",
                   static_cast<uint64_t>(std::thread::hardware_concurrency()));
  report.SetConfig("hot_set", kHotSet);
  report.SetConfig("e13_trials", trials);
  report.SetConfig("e13_ops_per_session", ops);
  report.SetConfig("e13_read_percent", kReadPercent);
  report.SetConfig("e13_sessions", static_cast<uint64_t>(kSessions));

  std::printf(
      "E13: concurrent read path, %d ops/session (%d%% reads, %d%%\n"
      "read-modify-write transactions), %zu sessions, worker sweep\n"
      "(best of %d trials per point)\n\n",
      ops, kReadPercent, 100 - kReadPercent, kSessions, trials);

  Table t13({"workers", "stmt/s", "speedup", "snapshot", "snap-fb",
             "fallback", "rd-peak", "batches", "p50 us", "p99 us",
             "p999 us", "max us", "lost"});
  uint64_t total_lost = 0;
  int violations = 0;
  double base_per_s = 0;
  for (size_t workers : {1, 2, 4, 8}) {
    E13Point r;
    for (int trial = 0; trial < trials; ++trial) {
      E13Point again = RunE13(workers, ops, trace);
      total_lost += again.run.lost_updates;
      violations += again.violations;
      if (trial == 0 || again.stmt_per_s() > r.stmt_per_s()) {
        r = std::move(again);
      }
    }
    if (workers == 1) base_per_s = r.stmt_per_s();
    const double speedup = base_per_s > 0 ? r.stmt_per_s() / base_per_s : 0;
    t13.AddRow({Num(workers), Num(r.stmt_per_s()), Num(speedup),
                Num(r.snapshot_reads), Num(r.snapshot_fallbacks),
                Num(r.fast_path_fallbacks), Num(r.readers_peak),
                Num(r.wal_batches), Num(r.p50_us), Num(r.p99_us),
                Num(r.p999_us), Num(r.max_us), Num(r.run.lost_updates)});
    report.SetCounter("e13_stmt_per_s_w" + std::to_string(workers),
                      static_cast<uint64_t>(r.stmt_per_s()));
    if (workers == 8) {
      report.SetCounter("e13_speedup_x100_w8",
                        static_cast<uint64_t>(speedup * 100));
      report.SetCounter("e13_snapshot_reads_w8", r.snapshot_reads);
      report.SetCounter("e13_snapshot_fallbacks_w8", r.snapshot_fallbacks);
    }
    if (workers == 4) {
      report.SetCounter("e13_speedup_x100_w4",
                        static_cast<uint64_t>(speedup * 100));
      if (trace) {
        report.SetCounter("e13_trace_events_w4", r.trace_events);
        report.SetCounter("e13_trace_traced_w4", r.trace_traced);
        std::printf("trace coverage (4 workers): %llu/%llu events\n",
                    static_cast<unsigned long long>(r.trace_traced),
                    static_cast<unsigned long long>(r.trace_events));
        if (r.trace_events == 0 ||
            r.trace_traced * 100 < r.trace_events * 99) {
          std::fprintf(stderr,
                       "E13 FAILED: under 99%% of trace events carry a "
                       "trace id\n");
          ++violations;
        }
      }
      // The CI perf-smoke job uploads the run's worst statements.
      DumpArtifact("slow_statements_w4.json", r.slow_log_json);
    }
  }
  t13.Print();
  std::printf(
      "\nShape check: stmt/s grows with workers because auto-commit reads\n"
      "resolve on the lock-free MVCC snapshot path (snapshot >> fallback,\n"
      "rd-peak > 1 proves real overlap) and commits group-batch in the\n"
      "WAL. A snapshot read never raises a read mark, so readers cannot\n"
      "abort writers — throughput at 8 workers must strictly exceed 1\n"
      "worker (gated: e13_speedup_x100_w8 > 100). `lost` must be 0 —\n"
      "in-transaction accesses still run full timestamp ordering, so\n"
      "every racy update ends in a clean abort, never a lost write.\n");
  report.AddTable("e13_scaling", t13);
  report.SetCounter("lost_updates", total_lost);
  report.Write();
  return violations == 0 ? 0 : 1;
}
