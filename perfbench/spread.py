#!/usr/bin/env python3
"""Repeated runs of the fleet benchmark, and the comparison of two sets.

Run from the repository root:

    # ten untraced runs per workload, seeds 1..10, appended to a JSONL file;
    # each run measures BENCHMARK.json's run_seconds
    python3 perfbench/spread.py run --runs 10 --out set_a.jsonl
    # spread (IQR / median) of every end-to-end metric per workload
    python3 perfbench/spread.py summary set_a.jsonl
    # bound check of a second set against a first
    python3 perfbench/spread.py compare set_a.jsonl set_b.jsonl

The compare rule is benchstats.compare: every spread within the metric's
bound, and no second-set median worse than the first by more than the
bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import benchstats  # noqa: E402
import run  # noqa: E402


def do_run(args):
    workloads = args.workloads.split(",")
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"]
    with open(args.out, "a") as out:
        for seed in range(1, args.runs + 1):
            for workload in workloads:
                cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
                proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                      text=True)
                if proc.returncode != 0:
                    print(f"{workload} seed {seed}: FAILED (exit {proc.returncode})", flush=True)
                    return 1
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                metrics = {k: v["value"] for k, v in result["metrics"].items()}
                out.write(json.dumps({"workload": workload, "seed": seed,
                                      "metrics": metrics}) + "\n")
                out.flush()
                print(f"{workload} seed {seed}: " +
                      " ".join(f"{k}={v:.4g}" for k, v in metrics.items()), flush=True)
    return 0


def load(path):
    sets = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                row = json.loads(line)
                per = sets.setdefault(row["workload"], {})
                for k, v in row["metrics"].items():
                    per.setdefault(k, []).append(v)
    return sets


def do_summary(args):
    for workload, metrics in load(args.file).items():
        print(workload)
        for name, _unit, _better, bound in benchstats.END_TO_END:
            values = metrics[name]
            s = benchstats.spread(values) if len(values) >= 2 else float("nan")
            flag = "" if s <= bound / 3 else "  > bound/3"
            print(f"  {name:18s} n={len(values):2d} median={statistics.median(values):.6g} "
                  f"spread={s:.4f} bound={bound}{flag}")
    return 0


def do_compare(args):
    first, second = load(args.first), load(args.second)
    failed = False
    for workload in first:
        failures = benchstats.compare(first[workload], second[workload])
        for name, reason in failures:
            print(f"{workload}: {name}: {reason}")
        failed |= bool(failures)
        if not failures:
            print(f"{workload}: within bounds")
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("run")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", default=",".join(run.WORKLOADS))
    p.add_argument("--out", required=True)
    p = sub.add_parser("summary")
    p.add_argument("file")
    p = sub.add_parser("compare")
    p.add_argument("first")
    p.add_argument("second")
    args = parser.parse_args()
    return {"run": do_run, "summary": do_summary, "compare": do_compare}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
