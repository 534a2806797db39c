#!/usr/bin/env python3
"""Steadiness report for the repository benchmark.

Runs flobench/run.py (untraced) on every workload of BENCHMARK.json with
seeds 1..RUNS, in SETS sets separated by PAUSE_S seconds, and writes a
Markdown report: per set and metric the median and quartiles, the spread
(q3 - q1) / median, and the shift of each set's median from the first
set's, in the direction that would count as worse. Each is compared with
the metric's bound from BENCHMARK.json. A held-out seed (never used by the
sets) is run once per workload at the end: its simulated metrics should
differ from every set run's values, and its host metrics should lie within
the bound of the sets' median.

Usage (from the repository root):
  python3 flobench/steadiness.py [--out report.md]

The quartiles are Python's statistics.quantiles(values, n=4).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Metrics measured on the host clock; every other metric is simulated or a
# count and is a pure function of the seed.
HOST_METRICS = {"throughput_per_s", "setup_s", "peak_rss_mb"}
RUNS = 10
SETS = 2
PAUSE_S = 120
HELD_OUT_SEED = 1001


def run_once(spec, workload, seed):
    command = [sys.executable, os.path.join(ROOT, "flobench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    out = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True, check=False)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def worse_shift(metric, first, later):
    if first == 0:
        return 0.0
    change = (later - first) / first
    return -change if metric["better"] == "higher" else change


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    metrics = spec["end_to_end"]
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = list(range(1, RUNS + 1))

    # values[set][workload][metric] -> list over seeds
    values = []
    started = time.strftime("%Y-%m-%d %H:%M:%S UTC", time.gmtime())
    for set_index in range(SETS):
        if set_index > 0:
            time.sleep(PAUSE_S)
        per_set = {w: {m["name"]: [] for m in metrics} for w in workloads}
        for seed in seeds:
            for workload in workloads:
                result = run_once(spec, workload, seed)
                for metric in metrics:
                    per_set[workload][metric["name"]].append(result[metric["name"]])
                print(f"set {set_index + 1} seed {seed} {workload}: "
                      + json.dumps(result), flush=True)
        values.append(per_set)
    held_out = {w: run_once(spec, w, HELD_OUT_SEED) for w in workloads}

    lines = [
        "# flobench steadiness report",
        "",
        f"Started {started}; {SETS} sets x {RUNS} seeds "
        f"({seeds[0]}..{seeds[-1]}) per workload, {PAUSE_S} s between "
        f"sets, run_seconds {spec['run_seconds']}, held-out seed "
        f"{HELD_OUT_SEED}. Spread = (q3 - q1) / median over the seeds; "
        "shift = change of the set median from set 1, positive = worse. "
        "Host metrics are marked (host); the rest are simulated or counts.",
        "",
    ]
    failures = 0
    for workload in workloads:
        lines += [f"## {workload}", "",
                  "| metric | bound | set | median | q1 | q3 | spread | shift | "
                  "held-out | verdict |",
                  "|---|---|---|---|---|---|---|---|---|---|"]
        for metric in metrics:
            name = metric["name"]
            bound = metric["bound"]
            host = name in HOST_METRICS
            first = summarize(values[0][workload][name])
            for set_index, per_set in enumerate(values):
                stats = summarize(per_set[workload][name])
                shift = worse_shift(metric, first["median"], stats["median"])
                spread_ok = stats["spread"] <= bound
                held = held_out[workload][name]
                if host:
                    held_ok = worse_shift(metric, stats["median"], held) <= bound
                else:
                    held_ok = held not in per_set[workload][name] or len(
                        set(per_set[workload][name])) == 1
                ok = spread_ok and shift <= bound and held_ok
                failures += 0 if ok else 1
                margin = "" if stats["spread"] <= bound / 3 else " (spread > bound/3)"
                lines.append(
                    f"| {name}{' (host)' if host else ''} | {bound} | {set_index + 1} | "
                    f"{stats['median']:.6g} | {stats['q1']:.6g} | {stats['q3']:.6g} | "
                    f"{stats['spread']:.4f} | {shift:+.4f} | {held:.6g} | "
                    f"{'ok' if ok else 'FAIL'}{margin} |")
        lines.append("")
    lines.append(f"Verdict: {'all within bounds' if failures == 0 else f'{failures} failures'}.")
    report = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report)
    print(report)
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
