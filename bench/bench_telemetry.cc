// Experiment E17 — telemetry pipeline overhead.
//
// The sampler thread snapshots the metrics registry under the statement
// mutex and the watchdog digests every tick; both exist to be *always
// on* in production, so their cost must be provably negligible. This
// bench measures exactly that: the same workload runs with telemetry
// fully on (sampler thread at an aggressive 100 ms tick — 10x the 1 s
// default — plus all watchdog rules) and fully off (sampler disabled,
// never ticked), and reports the throughput ratio.
//
//   W0 — single-threaded direct Database loop (95% Peek / 5% Set over a
//        hot set), telemetry arm calls Sampler::SampleOnce() inline on
//        the same 100 ms cadence (clock checked every 1024 ops). Measures
//        the raw snapshot + delta-conversion + watchdog cost with no
//        service layer to hide in.
//   W1 / W4 — the E13-style read-heavy statement workload (8 sessions,
//        95% get / 5% auto-commit increment) through the full request
//        path, 1 and 4 workers. The telemetry arm runs the Executor's
//        real sampler thread, so the ratio includes snapshot contention
//        on the statement mutex. The served driver (served_driver.h)
//        runs both arms and audits each run for lost updates.
//
// Trials are paired: each trial runs both arms back to back (order
// alternating) and yields one on/off ratio, and the gate takes the best
// pair — scheduler noise on a shared CI host is uncorrelated across
// pairs, while a real pipeline regression drags every pair down. Gated
// counters: e17_overhead_ratio_x100_w{0,1,4} must stay >= 98 —
// telemetry may cost at most 2% throughput (tools/bench_diff.py hard
// gate).
//
// The W4 telemetry run also dumps its `metrics history` and `alerts`
// payloads next to the bench JSON (telemetry_history_w4.json,
// telemetry_alerts_w4.json) so the CI perf-smoke job uploads a real
// time-series window and alert log as artifacts.
//
// Env knobs (EXPERIMENTS.md E17):
//   CACTIS_BENCH_SMOKE=1   reduced op counts (W0 2M ops, W1/W4 12k per
//                          session; full 6M and 40k)
//   CACTIS_BENCH_TRIALS=N  paired trials per workload (default 3)

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "obs/sampler.h"
#include "obs/watchdog.h"
#include "served_driver.h"

namespace cactis::bench {
namespace {

constexpr uint64_t kSamplerTickMs = 100;  // 10x the production default
constexpr int kW0ClockEvery = 1024;  // ops between W0 clock checks

/// W0: direct Database loop. Returns ops/s; with `telemetry` the loop
/// drives a manual sampler (with watchdog observer) on the same 100 ms
/// cadence the real thread would use.
double RunDirect(int ops, bool telemetry) {
  core::Database db;
  Die(db.LoadSchema(kCounterSchema), "schema");
  std::vector<InstanceId> objs;
  for (int i = 0; i < kHotSet; ++i) {
    objs.push_back(MustV(db.Create("counter"), "create"));
  }

  obs::Watchdog watchdog;
  obs::SamplerOptions sopts;
  sopts.interval_ms = 0;  // manual ticks only
  obs::Sampler sampler([&db] { return db.metrics()->Snapshot(); }, sopts);
  sampler.SetObserver(
      [&watchdog](const obs::Sample& s) { watchdog.Observe(s); });

  Rng rng(4242);
  auto t0 = std::chrono::steady_clock::now();
  auto last_sample = t0;
  for (int op = 0; op < ops; ++op) {
    const size_t j = rng.Uniform(kHotSet);
    if (rng.Uniform(100) < 95) {
      Die(db.Peek(objs[j], "v").status(), "peek");
    } else {
      Die(db.Set(objs[j], "v", Value::Int(op)), "set");
    }
    if (telemetry && op % kW0ClockEvery == 0) {
      auto now = std::chrono::steady_clock::now();
      if (now - last_sample >= std::chrono::milliseconds(kSamplerTickMs)) {
        sampler.SampleOnce();
        last_sample = now;
      }
    }
  }
  double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return wall > 0 ? ops / wall : 0;
}

/// W1/W4: the read-heavy statement workload through the service layer.
/// Returns stmt/s; with `telemetry` the Executor's real sampler thread
/// ticks at kSamplerTickMs. On the telemetry arm of the final trial the
/// history/alerts payloads are dumped via `artifacts`. `violations`
/// counts broken served-system invariants.
double RunServedArm(size_t workers, int ops_per_session, bool telemetry,
                    bool artifacts, int* violations) {
  ServedWorkload w;
  w.explicit_txn = false;
  w.sessions = 8;
  w.ops_per_session = ops_per_session;
  w.read_pct = 95;
  w.seed = 1303;
  w.server.num_workers = workers;
  w.server.max_queue_depth = 2 * w.sessions + 8;
  w.server.sampler_interval_ms = telemetry ? kSamplerTickMs : 0;

  uint64_t statements = 0;
  ServedRun r = RunServed(w, [&](core::Database&, server::Executor& exec) {
    statements = exec.stats().statements_executed.load();
    if (artifacts) {
      DumpArtifact("telemetry_history_w4.json",
                   exec.MetricsHistoryJson("", 0));
      DumpArtifact("telemetry_alerts_w4.json", exec.AlertsJson());
    }
  });
  *violations += ReportViolations("E17", w, r);
  return r.wall_s > 0 ? statements / r.wall_s : 0;
}

/// The gated counter is capped at 100: a paired ratio above parity only
/// means the noise draw favored the telemetry arm, not negative cost,
/// and capping keeps committed baselines stable across hosts.
uint64_t RatioX100(double ratio) {
  return std::min<uint64_t>(
      static_cast<uint64_t>(std::llround(ratio * 100.0)), 100);
}

}  // namespace
}  // namespace cactis::bench

int main() {
  using namespace cactis::bench;
  const bool smoke = EnvInt("CACTIS_BENCH_SMOKE", 0) != 0;
  // A 2% gate needs multi-second arms: at ~4M direct ops/s and ~200k
  // served stmt/s the sizes below give each arm 0.5 s (smoke) to 1.5+ s
  // (full), long enough that scheduler jitter stays under the budget.
  const int w0_ops = smoke ? 2000000 : 6000000;
  const int served_ops = smoke ? 12000 : 40000;
  const int trials = std::max(1, EnvInt("CACTIS_BENCH_TRIALS", 3));

  BenchReport report("telemetry");
  report.SetConfig("smoke", smoke);
  report.SetConfig("host_cpus",
                   static_cast<uint64_t>(std::thread::hardware_concurrency()));
  report.SetConfig("sampler_tick_ms", kSamplerTickMs);
  report.SetConfig("w0_clock_every", kW0ClockEvery);
  report.SetConfig("w0_ops", w0_ops);
  report.SetConfig("served_ops_per_session", served_ops);
  report.SetConfig("trials", trials);

  std::printf(
      "E17: telemetry overhead — identical workloads with the sampler +\n"
      "watchdog fully on (100 ms tick, 10x the production rate) vs fully\n"
      "off, %d paired trials. ratio = best paired on/off (>= 98%% gated).\n\n",
      trials);

  Table table({"workload", "off /s", "on /s", "ratio"});
  int violations = 0;  // served-system invariants broken in any W1/W4 run

  // Paired trials: each trial runs both arms back to back (order
  // alternating between trials) and yields one on/off ratio; the gate
  // takes the best pair. One metrics sample costs ~17 us, so the true
  // ratio is ~100.0 — but a shared 1-CPU CI host adds multi-percent
  // noise that lasts longer than a trial. Noise is uncorrelated across
  // pairs, so the *best* pair approaches the true ratio, while a real
  // pipeline regression drags every pair down and still trips the gate.
  struct PairResult {
    double off = 0, on = 0;  // best per arm, for the table
    double ratio = 0;        // best paired on/off
  };
  auto best_pair = [&](auto&& run_off, auto&& run_on) {
    PairResult r;
    for (int t = 0; t < trials; ++t) {
      const bool last = t == trials - 1;
      double off, on;
      if (t % 2 == 0) {
        off = run_off();
        on = run_on(last);
      } else {
        on = run_on(last);
        off = run_off();
      }
      r.off = std::max(r.off, off);
      r.on = std::max(r.on, on);
      if (off > 0) r.ratio = std::max(r.ratio, on / off);
    }
    return r;
  };

  {
    PairResult r =
        best_pair([&] { return RunDirect(w0_ops, false); },
                  [&](bool) { return RunDirect(w0_ops, true); });
    uint64_t ratio = RatioX100(r.ratio);
    table.AddRow({"w0 direct", Num(r.off), Num(r.on), Num(ratio) + "%"});
    report.SetCounter("e17_overhead_ratio_x100_w0", ratio);
  }
  for (size_t workers : {1, 4}) {
    PairResult r = best_pair(
        [&] {
          return RunServedArm(workers, served_ops, false, false, &violations);
        },
        // Dump artifacts from the last telemetry trial (ring is fullest).
        [&](bool last) {
          return RunServedArm(workers, served_ops, true, workers == 4 && last,
                              &violations);
        });
    uint64_t ratio = RatioX100(r.ratio);
    table.AddRow({"w" + std::to_string(workers) + " served", Num(r.off),
                  Num(r.on), Num(ratio) + "%"});
    report.SetCounter(
        "e17_overhead_ratio_x100_w" + std::to_string(workers), ratio);
  }
  table.Print();
  std::printf(
      "\nShape check: every ratio should hover around 100%% — one metrics\n"
      "snapshot per tick is microseconds of work under the statement\n"
      "mutex, and the watchdog only walks the newest sample. A ratio\n"
      "below 98%% means the pipeline got expensive (gated).\n");
  report.AddTable("e17_overhead", table);
  report.Write();
  return violations == 0 ? 0 : 1;
}
