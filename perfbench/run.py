#!/usr/bin/env python3
"""Benchmark of the p2pq measure -> fit -> generate pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload stream_hybrid --seed 7 --seconds 15 --trace 0

It builds the `perfbench` package (release, offline) into
$CARGO_TARGET_DIR (default `.bench_build`), then starts the `perfbench`
binary once per operation: every operation runs in a fresh process, on one
thread, with the same seed and window, so peak RSS and CPU time describe
that operation alone. A run is OPS operations; each end-to-end metric is
the median over them. The last line of standard output is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`.

With `--trace 0` the metrics are the end-to-end ones. With `--trace 1` the
run alternates untraced and traced operations and reports the per-layer
metrics: medians over the traced operations, plus
`bench.tracing_overhead_frac`, the traced median wall time over the
untraced one, minus 1. The spans of the last traced operation are written
to `.perfbench/spans-<workload>-<seed>.json`.

An operation fails when its process exits non-zero (a panic, or an output
check that did not hold) or when its outputs differ from those of the
run's other operations, which share its seed.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Virtual days of campaign (or of generated workload) per second of an
# operation's time budget, measured once on a 2-vCPU Xeon VM. Fixed
# constants, never re-measured at run time: a faster program does the
# same work in less time, it is not handed more work.
DAYS_PER_SECOND = {
    "paper_repro": 0.25,
    "stream_hybrid": 0.39,
    "admission_flood": 0.33,
    "generate": 165.0,
}

# Operations per run. The median of several short operations rejects the
# host's slow bursts, which last about a second.
OPS = 9
# A traced run alternates this many untraced and traced operations.
TRACED_OPS = 5

# Whole-run deadline after the build, in seconds; operations that would
# start after it count as failed.
DEADLINE_S = 150.0

# Metric names and units, as BENCHMARK.json declares them.
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def child_env():
    """The environment for cargo and the benchmark binary: offline, and
    with the program's own telemetry settings at their defaults."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("P2PQ_")}
    env["CARGO_NET_OFFLINE"] = "true"
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    return env


def build():
    """Build the benchmark binary; return its path, or None on failure."""
    env = child_env()
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        log(f"cannot run cargo: {e}")
        return None
    if done.returncode != 0:
        log(f"build failed (exit {done.returncode})")
        return None
    target = env["CARGO_TARGET_DIR"]
    return os.path.join(ROOT, target, "release", "perfbench")


def operation(binary, workload, seed, days, traced, timeout, drop_batch=None):
    """Run one operation in a fresh process. Returns (result, error): the
    parsed JSON line (None if it printed none) and, when the operation
    failed, why. The result gains `setup_s`: from the moment before the
    process is started to its first timed call, on the monotonic clock
    both sides read."""
    cmd = [
        binary, "--workload", workload, "--seed", str(seed),
        "--days", repr(days), "--trace", "1" if traced else "0",
    ]
    if drop_batch is not None:
        cmd += ["--drop-batch", str(drop_batch)]
    env = child_env()
    try:
        spawned_ns = time.monotonic_ns()
        done = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    lines = done.stdout.decode(errors="replace").strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None, f"exit {done.returncode} without a result"
    result["setup_s"] = (result["first_call_mono_ns"] - spawned_ns) / 1e9
    failed = [c for c in result.get("checks", []) if not c["holds"]]
    if done.returncode != 0 or not result.get("ok") or failed:
        why = "; ".join(f"{c['what']}: {c['left']} != {c['right']}" for c in failed)
        return result, f"exit {done.returncode}: {why or 'no check failed'}"
    return result, None


def window_days(workload, seconds):
    """Virtual days of one operation of a `seconds`-long run."""
    return seconds / OPS * DAYS_PER_SECOND[workload]


def run_ops(binary, workload, seed, days, plan):
    """Run one operation per entry of `plan` (True = traced) before the
    deadline. Returns (results, failures) with results[i] None when
    operation i failed."""
    deadline = time.monotonic() + DEADLINE_S
    results, failures = [], []
    for traced in plan:
        left = deadline - time.monotonic()
        if left <= 0:
            results.append(None)
            failures.append("deadline passed before the operation started")
            continue
        result, err = operation(binary, workload, seed, days, traced, left)
        if err:
            log(f"{workload} seed {seed}: operation failed: {err}")
            failures.append(err)
            result = None
        results.append(result)
    # Operations of one run share their seed, so their outputs must agree.
    prints = [json.dumps(r["fingerprint"]) for r in results if r]
    if prints:
        common = max(set(prints), key=prints.count)
        for i, r in enumerate(results):
            if r and json.dumps(r["fingerprint"]) != common:
                log(f"{workload} seed {seed}: operation {i} output differs: "
                    f"{r['fingerprint']} vs {common}")
                failures.append("output differs from the run's other operations")
                results[i] = None
    return results, failures


def end_to_end(ok):
    return {
        "setup_s": statistics.median(r["setup_s"] for r in ok),
        "wall_s": statistics.median(r["wall_s"] for r in ok),
        "cpu_s": statistics.median(r["cpu_s"] for r in ok),
        "records_per_s": statistics.median(r["records"] / r["wall_s"] for r in ok),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
    }


def per_layer(traced, plain):
    """Medians over the traced operations; a layer the workload does not
    run reads 0."""
    undeclared = {name for r in traced for name in r["layers"]} - set(PER_LAYER)
    if undeclared:
        sys.exit(f"perfbench: undeclared per-layer metrics {sorted(undeclared)}")
    layers = {
        name: statistics.median(r["layers"].get(name, 0.0) for r in traced)
        for name in PER_LAYER if name != "bench.tracing_overhead_frac"
    }
    layers["bench.tracing_overhead_frac"] = (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in plain) - 1.0
    )
    return layers


def write_spans(workload, seed, result):
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{workload}-{seed}.json")
    with open(path, "w") as f:
        json.dump({"workload": workload, "seed": seed, "days": result["days"],
                   "wall_s": result["wall_s"], "spans": result["spans"],
                   "sink_calls": result["sink_calls"]}, f, indent=1)
        f.write("\n")


def main():
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the
    # operation (or the build) it is waiting for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(DAYS_PER_SECOND))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if not 0 <= args.seed < 2**64:
        ap.error("--seed must lie in [0, 2^64)")
    if not 1 <= args.seconds <= 60:
        ap.error("--seconds must lie in [1, 60]")

    binary = build()
    if binary is None:
        return 2
    days = window_days(args.workload, args.seconds)
    plan = [False] * OPS if not args.trace else [False, True] * TRACED_OPS
    results, failures = run_ops(binary, args.workload, args.seed, days, plan)

    plain = [r for r, t in zip(results, plan) if r and not t]
    traced = [r for r, t in zip(results, plan) if r and t]
    if not plain or (args.trace and not traced):
        log("no operation succeeded; no result")
        return 1
    if args.trace:
        write_spans(args.workload, args.seed, traced[-1])
        values, units = per_layer(traced, plain), PER_LAYER
    else:
        values, units = end_to_end(plain), END_TO_END
    print(json.dumps({
        "correct": not failures,
        "attempted": len(plan),
        "failed": len(failures),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
