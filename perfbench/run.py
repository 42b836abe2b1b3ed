#!/usr/bin/env python3
"""Served-system benchmark for Cactis: one command, one workload per run.

Builds perfbench_served from the repository's sources (into .bench_build,
or $CARGO_TARGET_DIR when set), runs it on one workload and prints every
metric by name with its unit. The last line of stdout is one JSON object:

  {"correct": bool, "attempted": n, "failed": n,
   "metrics": {"<name>": {"value": x, "unit": "<unit>"}, ...}}

With --trace 0 the metrics are the end-to-end ones, measured with tracing
off; with --trace 1 they are the per-layer ones, from a traced run (which
also writes Chrome trace-event JSON into .bench_out/).

Usage, from the repository root:

  python3 perfbench/run.py --workload derived_dag --seed 1 --seconds 10 \
      --trace 0

Exit status is nonzero when the build fails, a correctness check fails, or
the build is a Debug or sanitizer build.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("intrinsic_rw", "derived_dag", "durable_commits")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds perfbench_served; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: repository sources not found next to perfbench/")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4",
                    "--target", "perfbench_served"],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench_served")


def ratio(num, den):
    return num / den if den else 0.0


class Delta:
    """Counter deltas between the two snapshots bracketing the window."""

    def __init__(self, report):
        self.before = report["metrics_before"]["sources"]
        self.after = report["metrics_after"]["sources"]
        self.net_before = report["net_before"]
        self.net_after = report["net_after"]

    def __call__(self, group, name):
        return self.after[group][name] - self.before[group][name]

    def net(self, name):
        return self.net_after[name] - self.net_before[name]


def end_to_end(r):
    slices = r["window"]["slices"]

    def over_slices(kind, q):
        return statistics.median(sl[kind][q] for sl in slices)

    return {
        "setup_s": (statistics.median(r["setup_s"]), "s"),
        "throughput_ops_s": (
            statistics.median(sl["throughput_ops_s"] for sl in slices),
            "ops/s"),
        "read_p50_us": (over_slices("read_us", "p50"), "us"),
        "read_p90_us": (over_slices("read_us", "p90"), "us"),
        "write_p50_us": (over_slices("write_us", "p50"), "us"),
        "write_p90_us": (over_slices("write_us", "p90"), "us"),
        # The fastest recovery: the replay is the same work every time, and
        # host load only ever slows it (the median of the repetitions
        # spreads 3-4x more from run to run on a shared 4-CPU host).
        "recover_s": (min(r["recover_s"]), "s"),
        "peak_rss_mb": (r["peak_rss_mb"], "MB"),
    }


def per_layer(r):
    win, tr = r["window"], r["traced"]
    d = Delta(r)
    ops, reads, writes = win["ops"], win["reads"], win["writes"]
    reads_all = (d("server", "snapshot_reads") + d("server", "fast_path_reads")
                 + d("server", "fast_path_fallbacks"))
    hits, misses = d("buffer_pool", "hits"), d("buffer_pool", "misses")
    return {
        "net.overhead_us": (win["read_net_overhead_us"]["p50"], "us"),
        "net.bytes_per_op": (ratio(d.net("bytes_received")
                                   + d.net("bytes_sent"), ops), "B/op"),
        "server.queue_wait_p50_us": (win["queue_wait_us"]["p50"], "us"),
        "server.queue_wait_p99_us": (win["queue_wait_us"]["p99"], "us"),
        "server.lock_wait_excl_us_per_write": (
            ratio(d("server", "cost_lock_wait_excl_us"), writes), "us/op"),
        "server.lock_wait_shared_us_per_read": (
            ratio(d("server", "cost_lock_wait_shared_us"), reads), "us/op"),
        "server.get_exec_p50_us": (tr["get_exec_us"]["p50"], "us"),
        "server.commit_exec_p50_us": (tr["commit_exec_us"]["p50"], "us"),
        "server.rejects_per_op": (
            ratio(d("server", "requests_rejected"), ops), "1/op"),
        "lang.parse_us": (tr["parse_us"]["p50"], "us"),
        "txn.snapshot_read_frac": (
            ratio(d("server", "snapshot_reads"), reads_all), "frac"),
        "txn.retries_per_txn": (win["write_retries"]["mean"], "1/txn"),
        "txn.wal_entries_per_flush": (
            ratio(d("wal", "group_batched_entries"),
                  d("wal", "group_batches")), "entries"),
        "txn.wal_blocks_per_commit": (
            ratio(d("wal", "blocks_written"), writes), "blocks"),
        "txn.wal_bytes_per_commit": (
            ratio(d("wal", "bytes_logged"), writes), "B"),
        "txn.recover_entries": (r["recover_entries"], "count"),
        "core.rule_evals_per_write": (
            ratio(d("eval", "rule_evaluations"), writes), "1/op"),
        "core.mark_visits_per_write": (
            ratio(d("eval", "mark_visits"), writes), "1/op"),
        "core.attrs_reevaluated_per_get": (tr["attrs_per_get"]["mean"],
                                           "1/op"),
        "core.get_us": (tr["core_get_us"]["p50"], "us"),
        "core.set_commit_us": (tr["core_set_commit_us"]["p50"], "us"),
        "sched.chunks_per_write": (
            ratio(d("scheduler", "chunks_run"), writes), "1/op"),
        "sched.pending_run_frac": (
            ratio(d("scheduler", "pending_runs"),
                  d("scheduler", "chunks_run")), "frac"),
        "cluster.blocks": (r["blocks"], "blocks"),
        "cluster.fill_factor_pct": (100.0 * r["fill_factor"], "%"),
        "cluster.reorg_s": (r["reorg_s"], "s"),
        "storage.blocks_read_per_op": (ratio(d("disk", "reads"), ops),
                                       "blocks/op"),
        "storage.blocks_written_per_op": (ratio(d("disk", "writes"), ops),
                                          "blocks/op"),
        "storage.pool_hit_ratio": (ratio(hits, hits + misses), "frac"),
        "storage.evictions_per_op": (
            ratio(d("buffer_pool", "evictions"), ops), "1/op"),
        "obs.trace_overhead_frac": (
            1.0 - ratio(tr["throughput_ops_s"], win["throughput_ops_s"]),
            "frac"),
    }


def print_human(r, metrics, failed_frac):
    cfg = r["config"]
    print(f"workload {r['workload']}  seed {r['seed']}  trace "
          f"{int(r['trace'])}  host_cpus {r['host_cpus']}  build "
          f"{r['build_type']}")
    print("config " + json.dumps(cfg, sort_keys=True))
    win = r["window"]
    counts = {"read_p50_us": win["read_us"]["n"],
              "read_p90_us": win["read_us"]["n"],
              "write_p50_us": win["write_us"]["n"],
              "write_p90_us": win["write_us"]["n"],
              "setup_s": len(r["setup_s"]),
              "recover_s": len(r["recover_s"])}
    for name, (value, unit) in metrics.items():
        n = counts.get(name)
        print(f"  {name:38s} {value:14.4f} {unit:10s}"
              + (f" (n={n})" if n is not None else ""))
    print(f"  {'failed_op_frac':38s} {failed_frac:14.6f} {'frac':10s}"
          f" (attempted={r['attempted']})")
    for kind in ("read", "write"):
        p99 = statistics.median(sl[kind + "_us"]["p99"]
                                for sl in win["slices"])
        print(f"  {kind + '_p99_us':38s} {p99:14.4f} {'us':10s}"
              f" (n={win[kind + '_us']['n']}; printed only, see README)")
    if r["first_error"]:
        print(f"first failure: {r['first_error']}")
    print(f"served platter: {r['served_recover_entries']} WAL entries "
          f"recovered in {r['served_recover_s']:.4f} s")
    if r["trace"]:
        print("span self time (us per call) over the traced window:")
        for name, s in sorted(r["traced"]["spans"].items()):
            print(f"  {name:24s} calls={s['count']:8d} "
                  f"total={s['total_us'] / s['count']:10.2f} "
                  f"self={s['self_us'] / s['count']:10.2f}")
    checks = r["checks"]
    print("checks " + json.dumps(checks, sort_keys=True))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        trace_file = os.path.join(
            out_dir, f"trace_{args.workload}_seed{args.seed}.json")
        cmd += ["--trace-out", trace_file]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"perfbench: perfbench_served exited with {proc.returncode}")
    report = json.loads(lines[-1])

    named = per_layer(report) if args.trace else end_to_end(report)
    failed_frac = ratio(report["failed"], report["attempted"])
    print_human(report, named, failed_frac)
    if args.trace:
        print(f"trace file {os.path.relpath(trace_file, ROOT)} "
              f"({report['traced']['spans_written']} spans)")
    correct = bool(report["correct"])
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in named.items()},
    }))
    if not correct:
        sys.exit(1)


if __name__ == "__main__":
    main()
