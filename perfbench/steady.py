#!/usr/bin/env python3
"""Steadiness check: run one workload N times, each with another seed, and
print the median and quartiles of every metric, with the quartile spread as
a share of the median and the bound BENCHMARK.json sets for it.

    python3 perfbench/steady.py --workload lcc_tlp [--runs 10] [--first-seed 1]
                                [--trace] [--overhead]

--trace summarises the per-layer metrics of traced runs instead.
--overhead adds one traced run, prints its per-layer metrics, and prints its
op_ms_p50 minus the median op_ms_p50 of the untraced runs (the cost of
tracing).
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("run failed (exit %d): %s" % (done.returncode, " ".join(command)))
    result = json.loads(lines[-1])
    noise = next((json.loads(l.split(":", 1)[1]) for l in lines if l.startswith("host-noise:")),
                 {})
    traced_p50 = None
    for line in lines:
        m = re.match(r"trace: op_ms_p50 (\S+) ms", line)
        if m:
            traced_p50 = float(m.group(1))
        m = re.match(r"tail: op_ms_p99 (\S+) ms", line)
        if m:  # informational, not a declared metric
            result["metrics"]["op_ms_p99 (tail line)"] = {"value": float(m.group(1))}
    return result, noise, traced_p50


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--overhead", action="store_true")
    args = parser.parse_args()

    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in declared}

    values = {}
    shares = []
    for i in range(args.runs):
        seed = args.first_seed + i
        result, noise, _ = run_once(args.workload, seed, seconds, args.trace)
        shares.append((result["failed"], result["attempted"]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print("seed %d: correct=%s attempted=%d failed=%d steal_ticks=%s" % (
            seed, result["correct"], result["attempted"], result["failed"],
            noise.get("steal_ticks")), flush=True)
        if not result["correct"]:
            print("  incorrect output; see the run's output for the first error")

    print("\n%-32s %14s %14s %14s %8s %7s" % ("metric", "q1", "median", "q3", "spread", "bound"))
    for name, vals in values.items():
        q1, med, q3 = quartiles(vals)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print("%-32s %14.6g %14.6g %14.6g %7.2f%% %7s" % (
            name, q1, med, q3, 100 * spread, "" if bound is None else "%g%%" % (100 * bound)))
    failed_shares = sorted({f / a if a else 0.0 for f, a in shares})
    print("\nfailed share per run: %s" % ", ".join("%g" % s for s in failed_shares))

    if args.overhead and not args.trace:
        result, _, traced = run_once(args.workload, args.first_seed, seconds, True)
        print("\ntraced run (seed %d), per-layer metrics:" % args.first_seed)
        for name, metric in result["metrics"].items():
            print("  %-32s %14.6g %s" % (name, metric["value"], metric["unit"]))
        untraced = statistics.median(values["op_ms_p50"])
        print("tracing overhead: traced op_ms_p50 %.4g ms - untraced median %.4g ms = %+.4g ms"
              " (%+.1f%%)" % (traced, untraced, traced - untraced,
                              100 * (traced - untraced) / untraced))


if __name__ == "__main__":
    main()
