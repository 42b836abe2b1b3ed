#!/usr/bin/env python3
"""Compare fresh bench JSON against committed baselines and gate on regressions.

Usage:
    tools/bench_diff.py --baseline tools/bench_baselines --fresh perf-artifacts \
        [--threshold 0.25] [--raw]

Reads the BENCH_*.json records from both directories and fails (exit 1)
when a threshold or a trend gate breaks. This script owns every such
gate; invariants that say something was lost, leaked or corrupted
(lost updates, session leaks, failed operations, framing errors, E14's
acked-commit audit, E11c's checkpoint replay, trace coverage) are each
bench's own exit status and are not repeated here. The gates:

  * read scaling in BENCH_server.json: 4-worker read-heavy throughput
    must be at least 1.3x 1-worker (e13_stmt_per_s_w4 >= 1.3 *
    e13_stmt_per_s_w1), and 8 workers must strictly beat 1
    (e13_speedup_x100_w8 > 100) — MVCC snapshot reads make scaling real;
  * telemetry overhead past budget in BENCH_telemetry.json: the E17
    sampler+watchdog on/off throughput ratios must report
    e17_overhead_ratio_x100_w{0,1,4} >= 98 — the always-on telemetry
    pipeline may cost at most 2% throughput at a 100 ms tick, 10x the
    production sampling rate;
  * clustering in BENCH_clustering.json: on every E16 scenario the
    default policy must beat unclustered placement
    (e16_<scenario>_ratio_x100 > 100) and fill its blocks to at least
    80% (e16_<scenario>_<default_policy>_fill_x100 >= 80), and it must
    strictly beat the paper's raw-counter greedy packer on at least two
    scenarios (e16_default_wins_vs_greedy >= 2);
  * a gated metric regressed by more than --threshold (default 25%)
    against the committed baseline.

Gated metrics are chosen to be machine-independent so the gate is
meaningful across CI hosts:

  server     e13_speedup_x100_w4     4-worker/1-worker read scaling ratio
  server     e13_speedup_x100_w8     8-worker/1-worker read scaling ratio
  recovery   e11b blocks-per-commit  WAL blocks / committed txn (w1, w4)
  recovery   e11b entries-per-batch  group-commit batching efficiency (w4)
  clustering e16_*_bpt_x100          blocks read per traversal, per
                                     scenario, for the default policy
                                     (deterministic: seeded workload,
                                     simulated disk, cold buffer pool)
  telemetry  e17_overhead_ratio_*    telemetry on/off throughput ratios

Raw throughput and latency counters (e13_stmt_per_s_w*, the soak's
client p50_us/p99_us) are wall-clock and therefore hardware-dependent:
they are compared only when the fresh and baseline reports come from
hosts with the same CPU count, or always under --raw. Skipped
comparisons are reported, never silently dropped.
"""

import argparse
import json
import os
import sys


class Gate:
    """One metric comparison: fresh vs baseline with a relative threshold."""

    def __init__(self, name, baseline, fresh, threshold, higher_is_better=True):
        self.name = name
        self.baseline = baseline
        self.fresh = fresh
        self.threshold = threshold
        self.higher_is_better = higher_is_better

    @property
    def change(self):
        if self.baseline == 0:
            return 0.0
        return (self.fresh - self.baseline) / self.baseline

    @property
    def ok(self):
        if self.higher_is_better:
            return self.fresh >= self.baseline * (1.0 - self.threshold)
        return self.fresh <= self.baseline * (1.0 + self.threshold)

    def row(self):
        direction = "higher-better" if self.higher_is_better else "lower-better"
        verdict = "ok" if self.ok else "REGRESSION"
        return (
            f"  {self.name:<32} baseline={self.baseline:<12.4g} "
            f"fresh={self.fresh:<12.4g} change={self.change:+7.1%} "
            f"[{direction}] {verdict}"
        )


def load(directory, name):
    path = os.path.join(directory, name)
    if not os.path.exists(path):
        return None, path
    with open(path) as f:
        return json.load(f), path


def counter(doc, key):
    return doc.get("counters", {}).get(key)


def same_host(base, fresh, raw, notes, what):
    """Wall-clock metrics compare only between hosts with the same CPU
    count (or under --raw); a skip is noted, never silent."""
    base_cpus = base.get("config", {}).get("host_cpus")
    fresh_cpus = fresh.get("config", {}).get("host_cpus")
    if raw or (base_cpus is not None and base_cpus == fresh_cpus):
        return True
    notes.append(
        f"{what}: wall-clock metrics skipped (baseline host_cpus="
        f"{base_cpus}, fresh={fresh_cpus}; pass --raw to force)"
    )
    return False


def server_gates(base, fresh, args, notes):
    gates = []
    for key in ("e13_speedup_x100_w4", "e13_speedup_x100_w8"):
        b, f = counter(base, key), counter(fresh, key)
        if b is not None and f is not None:
            gates.append(Gate(key, b, f, args.threshold))
        else:
            notes.append(f"{key} missing from server report; skipped")
    if same_host(base, fresh, args.raw, notes, "e13_stmt_per_s_w*"):
        for w in (1, 2, 4, 8):
            key = f"e13_stmt_per_s_w{w}"
            b, f = counter(base, key), counter(fresh, key)
            if b is not None and f is not None:
                gates.append(Gate(key, b, f, args.threshold))
    return gates


def recovery_gates(base, fresh, args, notes):
    gates = []
    for w in (1, 4):
        bb = counter(base, f"e11b_wal_blocks_w{w}")
        bc = counter(base, f"e11b_commits_w{w}")
        fb = counter(fresh, f"e11b_wal_blocks_w{w}")
        fc = counter(fresh, f"e11b_commits_w{w}")
        if None in (bb, bc, fb, fc) or bc == 0 or fc == 0:
            notes.append(f"e11b w{w} counters incomplete; blocks/commit skipped")
            continue
        gates.append(
            Gate(
                f"e11b_wal_blocks_per_commit_w{w}",
                bb / bc,
                fb / fc,
                args.threshold,
                higher_is_better=False,
            )
        )
    # Batching efficiency only matters where commits overlap (w4).
    bc = counter(base, "e11b_commits_w4")
    bt = counter(base, "e11b_batches_w4")
    fc = counter(fresh, "e11b_commits_w4")
    ft = counter(fresh, "e11b_batches_w4")
    if None in (bc, bt, fc, ft) or bt == 0 or ft == 0:
        notes.append("e11b w4 batch counters incomplete; entries/batch skipped")
    else:
        gates.append(Gate("e11b_entries_per_batch_w4", bc / bt, fc / ft,
                          args.threshold))
    return gates


E13_MIN_W4_OVER_W1 = 1.3


def server_hard_gates(fresh, failures):
    """Read scaling must be real: 4 read-heavy workers must reach
    E13_MIN_W4_OVER_W1 times 1 worker's throughput, and 8 must beat 1
    outright. Snapshot reads take no lock and raise no read marks, so this
    holds even on a single-CPU host (pipelining plus zero reader-induced
    aborts); failing it means readers are stalling writers again."""
    w1 = counter(fresh, "e13_stmt_per_s_w1")
    w4 = counter(fresh, "e13_stmt_per_s_w4")
    if w1 is None or w4 is None:
        failures.append("fresh server report has no e13_stmt_per_s_w1/w4")
    else:
        ratio = w4 / w1 if w1 else 0.0
        if ratio < E13_MIN_W4_OVER_W1:
            failures.append(
                f"e13 read scaling w4/w1 = {ratio:.2f} (must be >= "
                f"{E13_MIN_W4_OVER_W1}: 4-worker read throughput over "
                "1-worker)"
            )
    w8 = counter(fresh, "e13_speedup_x100_w8")
    if w8 is None:
        failures.append("fresh server report has no e13_speedup_x100_w8 counter")
    elif w8 <= 100:
        failures.append(
            f"e13_speedup_x100_w8 = {w8} (must be > 100: 8-worker "
            "throughput must strictly exceed 1-worker)"
        )


def soak_gates(base, fresh, args, notes):
    gates = []
    if not same_host(base, fresh, args.raw, notes, "soak p50_us/p99_us"):
        return gates
    for key in ("p50_us", "p99_us"):
        b, f = counter(base, key), counter(fresh, key)
        if b is None or f is None:
            notes.append(f"soak {key} missing; skipped")
            continue
        gates.append(Gate(f"soak_{key}", b, f, args.threshold,
                          higher_is_better=False))
    return gates


CLUSTER_SCENARIOS = ("stable_tree", "shift_dfs", "shift_pull", "cold_uniform")


CLUSTER_MIN_FILL_X100 = 80


def clustering_hard_gates(fresh, failures):
    """E16 invariants are deterministic (seeded workload, simulated disk):
    the default clustering policy must beat no-clustering on EVERY
    scenario and fill its blocks to CLUSTER_MIN_FILL_X100 percent there
    (whole clusters share blocks), and must strictly beat the paper's
    raw-counter greedy packer on at least two (the shifting-workload
    scenarios, where decayed statistics are the whole point). No
    baseline, no threshold."""
    default_policy = fresh.get("config", {}).get("default_policy")
    if not default_policy:
        failures.append("fresh clustering report has no default_policy")
    for scen in CLUSTER_SCENARIOS:
        key = f"e16_{scen}_ratio_x100"
        v = counter(fresh, key)
        if v is None:
            failures.append(f"fresh clustering report has no {key} counter")
        elif v <= 100:
            failures.append(
                f"{key} = {v} (must be > 100: the default policy must beat "
                "unclustered placement on every scenario)"
            )
        if not default_policy:
            continue
        key = f"e16_{scen}_{default_policy}_fill_x100"
        v = counter(fresh, key)
        if v is None:
            failures.append(f"fresh clustering report has no {key} counter")
        elif v < CLUSTER_MIN_FILL_X100:
            failures.append(
                f"{key} = {v} (must be >= {CLUSTER_MIN_FILL_X100}: whole "
                "clusters must share blocks instead of each opening one)"
            )
    wins = counter(fresh, "e16_default_wins_vs_greedy")
    if wins is None:
        failures.append(
            "fresh clustering report has no e16_default_wins_vs_greedy counter"
        )
    elif wins < 2:
        failures.append(
            f"e16_default_wins_vs_greedy = {wins} (must be >= 2: the default "
            "policy must strictly beat greedy_usage on the shift scenarios)"
        )


def clustering_gates(base, fresh, args, notes):
    """Baseline-relative gates on the default policy's blocks-per-traversal.
    The counters are deterministic, so any drift is a real placement
    change; the smoke flag must match because op-stream sizes differ."""
    gates = []
    base_smoke = base.get("config", {}).get("smoke")
    fresh_smoke = fresh.get("config", {}).get("smoke")
    if base_smoke != fresh_smoke:
        notes.append(
            f"clustering smoke flags differ (baseline={base_smoke}, "
            f"fresh={fresh_smoke}); bpt baseline gates skipped"
        )
        return gates
    default_policy = fresh.get("config", {}).get("default_policy")
    if not default_policy:
        notes.append("clustering report has no default_policy; bpt gates skipped")
        return gates
    for scen in CLUSTER_SCENARIOS:
        key = f"e16_{scen}_{default_policy}_bpt_x100"
        b, f = counter(base, key), counter(fresh, key)
        if b is None or f is None:
            notes.append(f"{key} missing; skipped")
            continue
        gates.append(Gate(key, b, f, args.threshold, higher_is_better=False))
    return gates


def telemetry_hard_gates(fresh, failures):
    """E17 overhead budget is absolute: telemetry on vs off throughput
    must stay within 2% on every workload shape, even sampling 10x
    faster than production. Best-of-trials on both arms makes the ratio
    a capability measure, so no baseline or threshold is needed."""
    for w in (0, 1, 4):
        key = f"e17_overhead_ratio_x100_w{w}"
        v = counter(fresh, key)
        if v is None:
            failures.append(f"fresh telemetry report has no {key} counter")
        elif v < 98:
            failures.append(
                f"{key} = {v} (must be >= 98: the sampler+watchdog "
                "pipeline may cost at most 2% throughput)"
            )


def telemetry_gates(base, fresh, args, notes):
    """Baseline-relative trend on the same ratios. The ratio is already
    host-normalized (on/off on the same machine), so it is comparable
    across CI hosts without a host_cpus check."""
    gates = []
    for w in (0, 1, 4):
        key = f"e17_overhead_ratio_x100_w{w}"
        b, f = counter(base, key), counter(fresh, key)
        if b is None or f is None:
            notes.append(f"{key} missing; skipped")
            continue
        gates.append(Gate(key, b, f, args.threshold))
    return gates


# Each report: its file, the thresholds checked on the fresh report
# alone, the gates against the committed baseline, and whether the
# report must be present.
REPORTS = (
    ("BENCH_server.json", server_hard_gates, server_gates, True),
    ("BENCH_recovery.json", None, recovery_gates, True),
    ("BENCH_clustering.json", clustering_hard_gates, clustering_gates, True),
    ("BENCH_telemetry.json", telemetry_hard_gates, telemetry_gates, True),
    ("BENCH_soak.json", None, soak_gates, False),
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", required=True, help="directory of committed baselines")
    ap.add_argument("--fresh", required=True, help="directory of freshly produced bench JSON")
    ap.add_argument("--threshold", type=float, default=0.25,
                    help="maximum tolerated relative regression (default 0.25)")
    ap.add_argument("--raw", action="store_true",
                    help="compare wall-clock throughput even across differing hosts")
    args = ap.parse_args()

    failures = []
    notes = []
    gates = []

    for name, hard_gates, trend_gates, required in REPORTS:
        fresh, fresh_path = load(args.fresh, name)
        base, base_path = load(args.baseline, name)
        missing = failures if required else notes
        if fresh is None:
            missing.append(f"missing fresh report: {fresh_path}")
            continue
        if hard_gates is not None:
            hard_gates(fresh, failures)
        if base is None:
            missing.append(f"missing committed baseline: {base_path}")
        else:
            gates += trend_gates(base, fresh, args, notes)

    print(f"bench_diff: threshold {args.threshold:.0%}")
    for g in gates:
        print(g.row())
        if not g.ok:
            failures.append(
                f"{g.name} regressed {g.change:+.1%} "
                f"(baseline {g.baseline:.4g}, fresh {g.fresh:.4g})"
            )
    for n in notes:
        print(f"  note: {n}")

    if failures:
        print("\nbench_diff FAILED:")
        for f in failures:
            print(f"  * {f}")
        return 1
    print("\nbench_diff OK: no gated metric regressed past the threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
