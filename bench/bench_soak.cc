// Experiment E15 — multi-session TCP soak.
//
// The network transport's endurance test: thousands of concurrent client
// sessions over REAL sockets (an in-process TcpServer on loopback, but
// every byte crosses the kernel TCP stack), with connection churn, an
// OCB-style read/RMW mix and hot-set skew. The paper's claim that Cactis
// is "a multi-user DBMS" meets the modern bar here: many unreliable
// clients, admission control, and sessions that die mid-transaction.
//
// Workload (run by served_driver.h): S sessions over T driver threads,
// each one TCP connection + server session. Per operation, 70% are
// auto-commit `get obj(N).v` (MVCC snapshot path) and the rest one
// `begin; set obj(N).v = v + 1; commit` batch, retried client-side
// (bounded backoff) on clean aborts and rejections. 80% of targets land
// on a hot set of 8, the rest on a cold set of 256. After each op a
// session churns with 10% probability — a clean close, an abandoned
// socket, or (one churn in six) an abandoned socket with an UNCOMMITTED
// increment that the eager-close path must roll back.
//
// The process exits nonzero unless lost_updates, session_leaks,
// op_failures and framing_errors are all 0 and every session was live
// at once (peak_sessions >= sessions). Reported: throughput,
// client-observed p50/p99/p999, rejects, reconnects (BENCH_soak.json).
//
// Env knob (EXPERIMENTS.md E15):
//   CACTIS_BENCH_SMOKE=1   CI size: 128 sessions x 10 ops, 4 driver
//                          threads (full: 1000 x 20, min(8, cores))

#include <algorithm>
#include <cstdio>
#include <thread>

#include "bench_util.h"
#include "served_driver.h"

namespace cactis::bench {
namespace {

constexpr int kColdSet = 256;

int RunSoak() {
  const bool smoke = EnvInt("CACTIS_BENCH_SMOKE", 0) != 0;
  ServedWorkload w;
  w.transport = Transport::kTcp;
  w.sessions = smoke ? 128 : 1000;
  w.threads = smoke ? 4 : std::min(8u, std::thread::hardware_concurrency());
  w.ops_per_session = smoke ? 10 : 20;
  w.read_pct = 70;
  w.cold_set = kColdSet;
  w.churn_pct = 10;
  w.seed = 0x50AC;
  w.server.num_workers = 4;
  // Deep enough that steady-state traffic is admitted, shallow enough
  // that the rejection path is really exercised under bursts.
  w.server.max_queue_depth = 2 * w.threads + 32;
  w.server.slow_statement_us = 50'000;

  std::printf(
      "E15 — TCP soak: %zu sessions x %d ops (%d%% reads, %llu%% hot, "
      "%d%% churn) over %zu driver threads, %zu workers\n\n",
      w.sessions, w.ops_per_session, w.read_pct,
      static_cast<unsigned long long>(kHotPct), w.churn_pct, w.threads,
      w.server.num_workers);

  const ServedRun r = RunServed(w);
  const ClientTally& c = r.clients;
  const uint64_t total_ops = c.reads + c.commits;
  const double ops_per_s = r.wall_s > 0 ? total_ops / r.wall_s : 0;
  const double p50 = c.latency.QuantileUs(0.5);
  const double p99 = c.latency.QuantileUs(0.99);
  const double p999 = c.latency.QuantileUs(0.999);

  Table t({"sessions", "ops", "ops/s", "p50us", "p99us", "p999us",
           "commits", "aborts", "rejects", "reconnects", "eager", "lost",
           "leaked"});
  t.AddRow({Num(static_cast<uint64_t>(w.sessions)), Num(total_ops),
            Num(ops_per_s), Num(p50), Num(p99), Num(p999), Num(c.commits),
            Num(c.aborts), Num(c.rejects), Num(c.reconnects),
            Num(r.eager_closes), Num(r.lost_updates),
            Num(r.session_leaks)});
  t.Print();

  std::printf(
      "\nchurn: %llu clean / %llu abrupt / %llu dirty (open txn at "
      "disconnect); peak concurrent sessions %llu; %llu frames in, "
      "%llu frames out\n",
      static_cast<unsigned long long>(c.clean_churns),
      static_cast<unsigned long long>(c.abrupt_churns),
      static_cast<unsigned long long>(c.dirty_churns),
      static_cast<unsigned long long>(r.peak_sessions),
      static_cast<unsigned long long>(r.frames_received),
      static_cast<unsigned long long>(r.frames_sent));

  BenchReport report("soak");
  report.SetConfig("sessions", static_cast<uint64_t>(w.sessions));
  report.SetConfig("ops_per_session", w.ops_per_session);
  report.SetConfig("read_pct", w.read_pct);
  report.SetConfig("hot_pct", kHotPct);
  report.SetConfig("churn_pct", w.churn_pct);
  report.SetConfig("driver_threads", static_cast<uint64_t>(w.threads));
  report.SetConfig("workers", static_cast<uint64_t>(w.server.num_workers));
  report.SetConfig("hot_set", kHotSet);
  report.SetConfig("cold_set", kColdSet);
  report.SetConfig("smoke", smoke);
  // Latency quantiles are wall-clock: record the hardware so bench_diff
  // only compares them across like hosts.
  report.SetConfig("host_cpus",
                   static_cast<uint64_t>(std::thread::hardware_concurrency()));
  report.SetCounter("ops", total_ops);
  report.SetCounter("reads", c.reads);
  report.SetCounter("commits", c.commits);
  report.SetCounter("aborts", c.aborts);
  report.SetCounter("rejects", c.rejects);
  report.SetCounter("reconnects", c.reconnects);
  report.SetCounter("op_failures", c.op_failures);
  report.SetCounter("clean_churns", c.clean_churns);
  report.SetCounter("abrupt_churns", c.abrupt_churns);
  report.SetCounter("dirty_churns", c.dirty_churns);
  report.SetCounter("eager_closes", r.eager_closes);
  report.SetCounter("peak_sessions", r.peak_sessions);
  report.SetCounter("connections_accepted", r.connections_accepted);
  report.SetCounter("frames_received", r.frames_received);
  report.SetCounter("frames_sent", r.frames_sent);
  report.SetCounter("framing_errors", r.framing_errors);
  report.SetCounter("p50_us", static_cast<uint64_t>(p50));
  report.SetCounter("p99_us", static_cast<uint64_t>(p99));
  report.SetCounter("p999_us", static_cast<uint64_t>(p999));
  report.SetCounter("lost_updates", r.lost_updates);
  report.SetCounter("session_leaks", r.session_leaks);
  report.AddTable("soak", t);
  report.Write();

  if (ReportViolations("E15", w, r) != 0) return 1;
  std::printf("\nE15 ok: lost_updates=0, session_leaks=0\n");
  return 0;
}

}  // namespace
}  // namespace cactis::bench

int main() { return cactis::bench::RunSoak(); }
