#!/usr/bin/env python3
"""Steadiness report for the benchmark in BENCHMARK.json.

Runs each workload N times, one run after another, and prints for every
metric its median, first and third quartiles (Python's
statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median.
For end-to-end metrics the spread is shown next to the metric's bound;
a spread above a third of its bound is flagged.

Run from the root of the repository:

    python3 perfbench/steadiness.py --runs 10
    python3 perfbench/steadiness.py --runs 5 --workloads serve_ring_big
    python3 perfbench/steadiness.py --runs 3 --fixed-seed 7   # exact metrics repeat
    python3 perfbench/steadiness.py --runs 1 --trace 1        # every per-layer metric

With --out FILE the raw values are saved as JSON; with --against FILE the
medians are compared with a saved set, metric by metric, against the
bounds.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys

HOST_LINE = re.compile(r"host\.ref_ns median ([0-9.]+)")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_once(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    if trace:
        sys.stderr.write(proc.stderr)
    host = HOST_LINE.search(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1]), host.group(1) if host else "?"


def worse_by(better, base, value):
    """How much worse `value` is than `base`, as a share of `base`."""
    if base == 0:
        return 0.0
    change = (value - base) / abs(base)
    return -change if better == "higher" else change


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--fixed-seed", type=int, default=None)
    ap.add_argument("--out")
    ap.add_argument("--against")
    args = ap.parse_args()

    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    saved = {}
    for workload in args.workloads.split(","):
        values = {}
        units = {}
        hosts = []
        for i in range(args.runs):
            seed = args.fixed_seed if args.fixed_seed is not None else args.first_seed + i
            result, host = run_once(bench, workload, seed, args.seconds, args.trace)
            if not result["correct"]:
                print(f"{workload} seed {seed}: correct is false", file=sys.stderr)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            hosts.append((seed, result["metrics"].get("events_per_s", {}).get("value"), host))
            print(f"# {workload} seed {seed} done", file=sys.stderr, flush=True)
        saved[workload] = values
        print(f"\n{workload}: {args.runs} runs of {args.seconds} s")
        print("per run: seed, events_per_s, host.ref_ns (a slow host shows in the last)")
        for seed, rate, ref in hosts:
            shown = "-" if rate is None else f"{rate:.6g}"
            print(f"  {seed:>6} {shown:>14} {ref:>8}")
        print(f"{'metric':<30} {'unit':<6} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else 0.0
            bound = spec.get(name, {}).get("bound")
            flag = ""
            if bound is not None:
                flag = "  > bound/3" if spread > bound / 3 else ""
            shown = "" if bound is None else f"{bound:.2f}"
            print(f"{name:<30} {units[name]:<6} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} {shown:>6}{flag}")

    if args.out:
        with open(args.out, "w") as f:
            json.dump(saved, f, indent=1)
    if args.against:
        with open(args.against) as f:
            before = json.load(f)
        print("\nmedian against the saved set (worse by, as a share of the saved median)")
        for workload, values in saved.items():
            for name, vals in values.items():
                if name not in before.get(workload, {}):
                    continue
                base = statistics.median(before[workload][name])
                now = statistics.median(vals)
                metric = spec.get(name, {})
                worse = worse_by(metric.get("better", "lower"), base, now)
                bound = metric.get("bound")
                verdict = "" if bound is None else ("  FAIL" if worse > bound else "  ok")
                print(f"{workload:<24} {name:<30} {base:>14.6g} {now:>14.6g} {worse:>+8.4f}{verdict}")


if __name__ == "__main__":
    main()
