"""Run the benchmark over workloads x seeds and summarise the spread.

    python3 perfbench/sweep.py --workloads experiment,degradation,images --seeds 1-10

Each run is ``run.py --workload W --seed S --seconds N --trace T`` in a
child process, one after another.  For every metric the summary gives
the median, the quartiles (``statistics.quantiles(values, n=4)``), the
spread (q3 - q1) / median, and the bound from ``BENCHMARK.json``; a
spread at or above a third of the bound is marked ``WIDE``.  With a
single seed it is the one-command table of every end-to-end metric,
report hash and oracle status per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_one(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    notes = [line.strip() for line in lines if "sha256" in line]
    return json.loads(lines[-1]), notes


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for workload in args.workloads.split(","):
        values = {}
        for seed in parse_seeds(args.seeds):
            result, notes = run_one(workload, seed, args.seconds, args.trace)
            shown = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} {shown}")
            for note in notes:
                print(f"    {note}")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append((metric["value"], metric["unit"]))
            sys.stdout.flush()
        print(f"== {workload}")
        for name, pairs in values.items():
            series = [v for v, _ in pairs]
            median = statistics.median(series)
            line = f"   {name:<34} median {median:.6g} {pairs[0][1]}"
            if len(series) >= 2:
                q1, _, q3 = statistics.quantiles(series, n=4)
                spread = (q3 - q1) / median if median else 0.0
                line += f"  q1 {q1:.6g} q3 {q3:.6g} spread {spread:.4f}"
                bound = bounds.get(name)
                if bound is not None:
                    line += f" bound {bound}" + ("  WIDE" if spread >= bound / 3 else "")
            print(line)
        sys.stdout.flush()


if __name__ == "__main__":
    main()
