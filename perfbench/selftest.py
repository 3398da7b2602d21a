#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

Run from the root of a checkout:

    python3 perfbench/selftest.py

Every workload, at a tiny window, must pass all of its output checks on
three seeds, untraced and traced. A traced campaign whose sink wrapper
silently drops one batch must be rejected. Exits 0 when all of this holds.
"""

import sys

import run

SEEDS = (1964, 7, 123456)

# Tiny windows, in virtual days: a fraction of a second per operation.
TINY_DAYS = {
    "paper_repro": 0.02,
    "stream_hybrid": 0.02,
    "admission_flood": 0.005,
    "generate": 0.05,
}

# Workloads whose campaign writes into a sink the wrapper can fault.
SINK_WORKLOADS = ("paper_repro", "stream_hybrid", "admission_flood")


def main():
    binary = run.build()
    if binary is None:
        return 2
    bad = []

    def expect(ok, what):
        print(("PASS " if ok else "FAIL ") + what, flush=True)
        if not ok:
            bad.append(what)

    reported = set()
    for workload, days in TINY_DAYS.items():
        for seed in SEEDS:
            outputs = []
            for traced in (False, True):
                result, err = run.operation(binary, workload, seed, days, traced, 120)
                expect(err is None, f"{workload} seed {seed} trace {int(traced)}: checks hold"
                       + (f" ({err})" if err else ""))
                outputs.append(result and result["fingerprint"])
                if traced and result:
                    reported |= set(result["layers"])
            expect(outputs[0] == outputs[1],
                   f"{workload} seed {seed}: tracing leaves the outputs unchanged")

    # run.py adds the tracing overhead; every other per-layer metric must
    # come from some workload's traced operations.
    missing = set(run.PER_LAYER) - {"bench.tracing_overhead_frac"} - reported
    expect(not missing, "every per-layer metric is reported by some workload"
           + (f" (missing {sorted(missing)})" if missing else ""))

    for workload in SINK_WORKLOADS:
        result, err = run.operation(binary, workload, SEEDS[0], TINY_DAYS[workload],
                                    True, 120, drop_batch=1)
        rejected = err is not None and result is not None and not result["ok"]
        expect(rejected, f"{workload}: a dropped sink batch is rejected"
               + (f" ({err})" if err else ""))

    print(f"{len(bad)} failure(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
