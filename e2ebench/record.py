#!/usr/bin/env python3
"""Record the end-to-end benchmark in ``e2ebench/BENCH_e2e.json``.

Runs every workload of ``run.py`` twice with one seed: untraced for the
end-to-end metrics, traced for the per-layer split.  The record carries
the machine (CPU count, BLAS and its thread settings, start method) and
the git commit, so records compare like with like.  Each metric's
change against the record being replaced is printed before the file is
overwritten.

Usage (from the repository root)::

    python3 e2ebench/record.py [--seed 1] [--seconds 20]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from run import ROOT, WORKLOADS, machine

HERE = os.path.dirname(os.path.abspath(__file__))
RECORD = os.path.join(HERE, "BENCH_e2e.json")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}\n"
                         f"{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: outputs were not correct\n"
                         f"{proc.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def git_commit() -> str | None:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def print_deltas(old: dict, new: dict) -> None:
    for workload, groups in new["workloads"].items():
        for group, metrics in groups.items():
            before = old.get("workloads", {}).get(workload, {}).get(group, {})
            for name, value in metrics.items():
                line = f"{workload:8} {name:18} {value:12.4f}"
                if before.get(name):
                    change = (value - before[name]) / before[name]
                    line += f"   was {before[name]:12.4f} ({change:+.1%})"
                print(line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measured seconds per run (default: "
                             "run_seconds of BENCHMARK.json)")
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json"),
                  encoding="utf-8") as fh:
            seconds = json.load(fh)["run_seconds"]

    record = {"machine": machine(), "commit": git_commit(),
              "seed": args.seed, "run_seconds": seconds, "workloads": {}}
    for workload in WORKLOADS:
        record["workloads"][workload] = {
            "end_to_end": run_once(workload, args.seed, seconds, 0),
            "per_layer": run_once(workload, args.seed, seconds, 1),
        }

    previous = {}
    if os.path.exists(RECORD):
        with open(RECORD, encoding="utf-8") as fh:
            previous = json.load(fh)
    print_deltas(previous, record)
    with open(RECORD, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"written to {os.path.relpath(RECORD, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
