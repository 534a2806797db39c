#!/usr/bin/env python3
"""A/B two prebuilt flobench binaries on one workload, alternating sides.

Runs the parent binary (A) and the change's binary (B) in pairs. Pair i
uses seed seeds[i % len(seeds)]; even pairs run A first, odd pairs B
first, so drift on a shared host lands on both sides. Every run's
end-to-end metrics are printed, then one summary row per metric:

  - each side's median and quartiles;
  - the change's median relative to the parent's;
  - the pairs the change won (ties count for neither side);
  - "gain": whether the claim rule holds: the change won at least nine
    tenths of the pairs, and the medians differ, in the better direction,
    by more than the parent's interquartile range;
  - "bound": whether the change's median is worse than the parent's by
    more than the metric's bound.

Metric directions and bounds come from BENCHMARK.json's end_to_end list.
Runs use a fresh temporary directory as working and output directory, so
nothing is written next to the binaries or under flobench/.

Usage:
  tools/flobench_ab.py PARENT_BIN CHANGE_BIN --workload fleet_churn \\
      --seeds 1,2,3 --seconds 3 --pairs 10 [--benchmark BENCHMARK.json]

Exits 1 if a run fails, prints no result line, or reports correct=false.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(binary, workload, seed, seconds):
    """One untraced run; returns (metric values, attempted, failed)."""
    work_dir = tempfile.mkdtemp(prefix="flobench_ab_")
    try:
        command = [os.path.abspath(binary), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0", "--out-dir", work_dir]
        run = subprocess.run(command, cwd=work_dir, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        raise RuntimeError(f"{binary}: no result line (exit {run.returncode})")
    if run.returncode != 0 or not result.get("correct", False):
        raise RuntimeError(f"{binary}: exit {run.returncode}, correct={result.get('correct')}")
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    return values, result.get("attempted", 0), result.get("failed", 0)


def quartiles(values):
    """(q1, median, q3), inclusive method; a single value repeats."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(metric, parent, change):
    """The summary row for one metric over paired runs."""
    higher = metric["better"] == "higher"
    wins = sum(1 for a, b in zip(parent, change) if (b > a if higher else b < a))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    gain = c_med - p_med if higher else p_med - c_med
    pairs = len(parent)
    holds = wins * 10 >= pairs * 9 and gain > (p_q3 - p_q1)
    # Worse by more than the bound, relative to the parent's median.
    worse = -gain / abs(p_med) if p_med != 0 else (1.0 if gain < 0 else 0.0)
    return {
        "parent": (p_q1, p_med, p_q3), "change": (c_q1, c_med, c_q3),
        "rel": (c_med / p_med - 1.0) if p_med != 0 else 0.0, "wins": wins,
        "pairs": pairs, "gain": holds, "over_bound": worse > metric["bound"],
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="flobench binary built from the parent commit")
    parser.add_argument("change", help="flobench binary built from the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1", help="comma-separated seeds, used in turn")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args()

    with open(args.benchmark) as f:
        metrics = json.load(f)["end_to_end"]
    seeds = [int(s) for s in args.seeds.split(",")]
    runs = {"parent": [], "change": []}
    try:
        for i in range(args.pairs):
            seed = seeds[i % len(seeds)]
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                binary = args.parent if side == "parent" else args.change
                values, attempted, failed = run_once(binary, args.workload, seed, args.seconds)
                runs[side].append(values)
                shown = " ".join(f"{m['name']}={values[m['name']]:.6g}" for m in metrics
                                 if m["name"] in values)
                print(f"pair {i} seed {seed} {side:6s} failed={failed}/{attempted} {shown}",
                      flush=True)
    except RuntimeError as error:
        print(f"flobench_ab: {error}", file=sys.stderr)
        return 1

    print(f"\n{args.workload}: {args.pairs} pairs, seeds {args.seeds}, {args.seconds} s")
    print(f"{'metric':18s} {'parent q1/med/q3':>32s} {'change q1/med/q3':>32s} "
          f"{'change':>8s} {'won':>6s} {'gain':>5s} {'bound':>6s}")
    for metric in metrics:
        name = metric["name"]
        if not all(name in r for r in runs["parent"] + runs["change"]):
            continue
        row = summarize(metric, [r[name] for r in runs["parent"]],
                        [r[name] for r in runs["change"]])
        p = "/".join(f"{v:.4g}" for v in row["parent"])
        c = "/".join(f"{v:.4g}" for v in row["change"])
        print(f"{name:18s} {p:>32s} {c:>32s} {row['rel']:+8.2%} "
              f"{row['wins']:>2d}/{row['pairs']:<3d} {'yes' if row['gain'] else 'no':>5s} "
              f"{'WORSE' if row['over_bound'] else 'ok':>6s}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
