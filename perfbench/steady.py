#!/usr/bin/env python3
"""Steadiness report: runs the benchmark once per seed on each workload,
in one or more sets of seeds, and prints for every end-to-end metric:

- per set, the median and the spread of the per-run values
  (interquartile range over median, statistics.quantiles with n=4),
  next to the median and spread of the raw, uncalibrated host figure
  behind it;
- per later set, the shift of its median from the first set's.

A metric is flagged when a spread exceeds its bound in BENCHMARK.json,
or when a later set's median is worse than the first set's by more than
the bound. Any flag, failed run or incorrect result makes the exit code 1.

Run from the repository root:

    python3 perfbench/steady.py --workloads repro32,repro16,serve --seeds 1-10,11-20

Each run's full report is read from <build-dir>/reports.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

# Raw twin of each calibrated metric, read from the run's report.
RAW = {"pass_ms": "host.pass_raw_ms", "setup_s": "host.setup_raw_s"}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2, q2


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_set(spec, workload, seeds, seconds, build_dir):
    """Runs one set; returns [(result line, report)] or None on a failed run."""
    runs = []
    for seed in seeds:
        cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if out.returncode != 0:
            print(f"{workload} seed {seed}: exit {out.returncode}", file=sys.stderr)
            return None
        res = json.loads(out.stdout.strip().splitlines()[-1])
        with open(os.path.join(build_dir, "reports", f"{workload}-seed{seed}-trace0.json")) as f:
            rep = json.load(f)
        runs.append((res, rep))
        print(f"{workload} seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items()))
            + f", correct={res['correct']}", file=sys.stderr)
    return runs


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="repro32,repro16,serve")
    ap.add_argument("--seeds", default="1-10,11-20",
                    help="comma-separated inclusive seed ranges, one set each, e.g. 1-10,11-20")
    ap.add_argument("--seconds", type=int, default=None,
                    help="run length (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--build-dir", default=os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    metrics = spec["end_to_end"]
    sets = [seed_range(r) for r in args.seeds.split(",")]
    ok = True
    for w in args.workloads.split(","):
        results = []
        for seeds in sets:
            runs = run_set(spec, w, seeds, seconds, args.build_dir)
            if runs is None:
                return 1
            results.append(runs)
        print(f"\n{w}: runs of {seconds} s, seed sets {args.seeds}")
        print(f"  {'metric':<12} {'set':<6} {'median':>10} {'spread':>8} {'bound':>6}"
              f"   {'raw median':>10} {'raw spread':>10}   {'shift':>8} {'raw shift':>9}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            sign = 1 if m["better"] == "lower" else -1
            first = raw_first = None
            for k, runs in enumerate(results):
                sp, med = spread([r[0]["metrics"][name]["value"] for r in runs])
                raw = rmed = None
                if name in RAW:
                    rsp, rmed = spread([r[1]["more_metrics"][RAW[name]]["value"] for r in runs])
                    raw = f"{rmed:>10.4g} {rsp:>10.2%}"
                flags, notes = [], []
                if sp > bound:
                    flags.append("SPREAD OVER BOUND")
                elif sp > bound / 3:
                    notes.append("spread over bound/3")
                shift = ""
                if k == 0:
                    first, raw_first = med, rmed
                else:
                    rel = med / first - 1
                    shift = f"{rel:>+8.2%}"
                    if rmed is not None:
                        shift += f" {rmed / raw_first - 1:>+9.2%}"
                    if sign * rel > bound:
                        flags.append("MEDIAN SHIFT OVER BOUND")
                ok = ok and not flags
                label = f"{sets[k][0]}-{sets[k][-1]}"
                print(f"  {name:<12} {label:<6} {med:>10.4g} {sp:>8.2%} {bound:>6.2f}"
                      f"   {raw or ' ' * 21}   {shift}" + "".join("  " + f for f in flags + notes))
        correct = all(r[0]["correct"] for runs in results for r in runs)
        ok = ok and correct
        print(f"  correct on every run: {correct}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
