#!/usr/bin/env python3
"""Compare fresh bench JSON against committed baselines and gate on regressions.

Usage:
    tools/bench_diff.py --baseline tools/bench_baselines --fresh perf-artifacts \
        [--threshold 0.25] [--raw]

Reads BENCH_server.json and BENCH_recovery.json from both directories and
fails (exit 1) when:

  * lost_updates != 0 in the fresh server bench (hard gate, no threshold);
  * readers stall writers: the fresh server bench must report
    e13_speedup_x100_w8 > 100 — 8-worker read-heavy throughput strictly
    above 1 worker (hard gate; MVCC snapshot reads make scaling real);
  * recovery-after-checkpoint replays more than the WAL tail: the fresh
    recovery bench must report e11c_replayed_entries ==
    e11c_total_txns - e11c_checkpoint_at exactly (hard gate);
  * chaos invariants violated in BENCH_chaos.json, when present:
    e14_lost_acked_commits, e14_phantom_updates and e14_failed_recoveries
    must all be 0 and e14_storm_restored must be 1 (hard gates);
  * soak invariants violated in BENCH_soak.json, when present:
    lost_updates, session_leaks, op_failures and framing_errors must all
    be 0, and peak_sessions must reach the configured session count
    (hard gates; rejects may be nonzero — admission control is expected
    to fire — but nothing may be silently lost);
  * telemetry overhead past budget in BENCH_telemetry.json: the E17
    sampler+watchdog on/off throughput ratios must report
    e17_overhead_ratio_x100_w{0,1,4} >= 98 — the always-on telemetry
    pipeline may cost at most 2% throughput at a 100 ms tick, 10x the
    production sampling rate (hard gates);
  * clustering invariants violated in BENCH_clustering.json: on every
    E16 scenario the default policy must beat unclustered placement
    (e16_<scenario>_ratio_x100 > 100) and fill its blocks to at least
    80% (e16_<scenario>_<default_policy>_fill_x100 >= 80), and it must
    strictly beat the paper's raw-counter greedy packer on at least two
    scenarios (e16_default_wins_vs_greedy >= 2) — all hard gates;
  * a gated metric regressed by more than --threshold (default 25%).

Gated metrics are chosen to be machine-independent so the gate is
meaningful across CI hosts:

  server     e13_speedup_x100_w4     4-worker/1-worker read scaling ratio
  recovery   e11b blocks-per-commit  WAL blocks / committed txn (w1, w4)
  recovery   e11b entries-per-batch  group-commit batching efficiency (w4)
  clustering e16_*_bpt_x100          blocks read per traversal, per
                                     scenario, for the default policy
                                     (deterministic: seeded workload,
                                     simulated disk, cold buffer pool)

Raw throughput counters (e13_stmt_per_s_w*) are wall-clock and therefore
hardware-dependent: they are compared only when the fresh and baseline
reports come from hosts with the same CPU count, or always under --raw.
Skipped comparisons are reported, never silently dropped.
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


def server_gates(base, fresh, threshold, raw, notes):
    gates = []
    for key in ("e13_speedup_x100_w4", "e13_speedup_x100_w8"):
        b, f = counter(base, key), counter(fresh, key)
        if b is not None and f is not None:
            gates.append(Gate(key, b, f, threshold))
        else:
            notes.append(f"{key} missing from server report; skipped")

    base_cpus = base.get("config", {}).get("host_cpus")
    fresh_cpus = fresh.get("config", {}).get("host_cpus")
    comparable = raw or (base_cpus is not None and base_cpus == fresh_cpus)
    for w in (1, 2, 4, 8):
        key = f"e13_stmt_per_s_w{w}"
        b, f = counter(base, key), counter(fresh, key)
        if b is None or f is None:
            continue
        if comparable:
            gates.append(Gate(key, b, f, threshold))
        else:
            notes.append(
                f"{key}: wall-clock metric skipped (baseline host_cpus="
                f"{base_cpus}, fresh={fresh_cpus}; pass --raw to force)"
            )
    return gates


def recovery_gates(base, fresh, threshold, notes):
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
                threshold,
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
        gates.append(Gate("e11b_entries_per_batch_w4", bc / bt, fc / ft, threshold))
    return gates


def server_hard_gates(fresh, failures):
    """Read scaling must be real: 8 read-heavy workers must beat 1 worker
    outright. Snapshot reads take no lock and raise no read marks, so this
    holds even on a single-CPU host (pipelining plus zero reader-induced
    aborts); a value <= 100 means readers are stalling writers again."""
    w8 = counter(fresh, "e13_speedup_x100_w8")
    if w8 is None:
        failures.append("fresh server report has no e13_speedup_x100_w8 counter")
    elif w8 <= 100:
        failures.append(
            f"e13_speedup_x100_w8 = {w8} (must be > 100: 8-worker "
            "throughput must strictly exceed 1-worker)"
        )


def checkpoint_hard_gate(fresh, failures):
    """Recovery replay must be O(WAL tail): exactly total - checkpoint_at
    journal entries replayed. Deterministic event counts, no threshold."""
    total = counter(fresh, "e11c_total_txns")
    at = counter(fresh, "e11c_checkpoint_at")
    replayed = counter(fresh, "e11c_replayed_entries")
    if None in (total, at, replayed):
        failures.append("fresh recovery report has no e11c checkpoint counters")
        return
    if replayed != total - at:
        failures.append(
            f"e11c_replayed_entries = {replayed}: checkpoint at txn {at} of "
            f"{total} must replay exactly the {total - at}-entry tail"
        )


def soak_hard_gates(fresh, failures):
    """E15 invariants are absolute — no baseline, no threshold. The soak's
    rejects counter may be nonzero (admission control working as designed);
    what must be zero is anything *lost*: updates, sessions, or requests
    that failed past the retry budget."""
    for key in ("lost_updates", "session_leaks", "op_failures",
                "framing_errors"):
        v = counter(fresh, key)
        if v is None:
            failures.append(f"fresh soak report has no {key} counter")
        elif v != 0:
            failures.append(f"soak {key} = {v} (must be 0)")
    peak = counter(fresh, "peak_sessions")
    want = fresh.get("config", {}).get("sessions")
    if peak is None or want is None:
        failures.append("fresh soak report has no peak_sessions/sessions")
    elif peak < want:
        failures.append(
            f"soak peak_sessions = {peak} < configured {want}: the run "
            "never actually held every session open concurrently"
        )


def soak_gates(base, fresh, threshold, raw, notes):
    gates = []
    base_cpus = base.get("config", {}).get("host_cpus")
    fresh_cpus = fresh.get("config", {}).get("host_cpus")
    comparable = raw or (base_cpus is not None and base_cpus == fresh_cpus)
    for key in ("p50_us", "p99_us"):
        b, f = counter(base, key), counter(fresh, key)
        if b is None or f is None:
            notes.append(f"soak {key} missing; skipped")
            continue
        if comparable:
            gates.append(Gate(f"soak_{key}", b, f, threshold,
                              higher_is_better=False))
        else:
            notes.append(
                f"soak {key}: wall-clock metric skipped (baseline host_cpus="
                f"{base_cpus}, fresh={fresh_cpus}; pass --raw to force)"
            )
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


def clustering_gates(base, fresh, threshold, notes):
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
        gates.append(Gate(key, b, f, threshold, higher_is_better=False))
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


def telemetry_gates(base, fresh, threshold, notes):
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
        gates.append(Gate(key, b, f, threshold))
    return gates


def chaos_hard_gates(fresh, failures):
    """E14 invariants are absolute — no baseline, no threshold."""
    for key in ("e14_lost_acked_commits", "e14_phantom_updates",
                "e14_failed_recoveries"):
        v = counter(fresh, key)
        if v is None:
            failures.append(f"fresh chaos report has no {key} counter")
        elif v != 0:
            failures.append(f"{key} = {v} (must be 0)")
    restored = counter(fresh, "e14_storm_restored")
    if restored is None:
        failures.append("fresh chaos report has no e14_storm_restored counter")
    elif restored != 1:
        failures.append("e14_storm_restored = 0: probe failed to restore "
                        "read-write after the storm")


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

    fresh_server, fresh_server_path = load(args.fresh, "BENCH_server.json")
    base_server, base_server_path = load(args.baseline, "BENCH_server.json")
    if fresh_server is None:
        failures.append(f"missing fresh server report: {fresh_server_path}")
    else:
        lost = counter(fresh_server, "lost_updates")
        if lost is None:
            failures.append("fresh server report has no lost_updates counter")
        elif lost != 0:
            failures.append(f"lost_updates = {lost} (must be 0)")
        server_hard_gates(fresh_server, failures)
        if base_server is None:
            failures.append(f"missing committed baseline: {base_server_path}")
        else:
            gates += server_gates(base_server, fresh_server, args.threshold,
                                  args.raw, notes)

    fresh_rec, fresh_rec_path = load(args.fresh, "BENCH_recovery.json")
    base_rec, base_rec_path = load(args.baseline, "BENCH_recovery.json")
    if fresh_rec is None:
        failures.append(f"missing fresh recovery report: {fresh_rec_path}")
    else:
        checkpoint_hard_gate(fresh_rec, failures)
        if base_rec is None:
            failures.append(f"missing committed baseline: {base_rec_path}")
        else:
            gates += recovery_gates(base_rec, fresh_rec, args.threshold, notes)

    fresh_clu, fresh_clu_path = load(args.fresh, "BENCH_clustering.json")
    base_clu, base_clu_path = load(args.baseline, "BENCH_clustering.json")
    if fresh_clu is None:
        failures.append(f"missing fresh clustering report: {fresh_clu_path}")
    else:
        clustering_hard_gates(fresh_clu, failures)
        if base_clu is None:
            failures.append(f"missing committed baseline: {base_clu_path}")
        else:
            gates += clustering_gates(base_clu, fresh_clu, args.threshold,
                                      notes)

    fresh_tel, fresh_tel_path = load(args.fresh, "BENCH_telemetry.json")
    base_tel, base_tel_path = load(args.baseline, "BENCH_telemetry.json")
    if fresh_tel is None:
        failures.append(f"missing fresh telemetry report: {fresh_tel_path}")
    else:
        telemetry_hard_gates(fresh_tel, failures)
        if base_tel is None:
            failures.append(f"missing committed baseline: {base_tel_path}")
        else:
            gates += telemetry_gates(base_tel, fresh_tel, args.threshold,
                                     notes)

    fresh_chaos, _ = load(args.fresh, "BENCH_chaos.json")
    if fresh_chaos is None:
        notes.append("no fresh BENCH_chaos.json; E14 invariant gates skipped")
    else:
        chaos_hard_gates(fresh_chaos, failures)

    fresh_soak, _ = load(args.fresh, "BENCH_soak.json")
    base_soak, _ = load(args.baseline, "BENCH_soak.json")
    if fresh_soak is None:
        notes.append("no fresh BENCH_soak.json; E15 invariant gates skipped")
    else:
        soak_hard_gates(fresh_soak, failures)
        if base_soak is None:
            notes.append("no committed BENCH_soak.json baseline; "
                         "soak latency gates skipped")
        else:
            gates += soak_gates(base_soak, fresh_soak, args.threshold,
                                args.raw, notes)

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
