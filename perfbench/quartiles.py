#!/usr/bin/env python3
"""Runs the benchmark once per seed and prints each end-to-end metric's quartiles.

    python3 perfbench/quartiles.py --workload fig6-paper --seeds 1-10

Each run's result line is printed as it arrives. Spread is
(Q3 - Q1) / median, with quartiles as `statistics.quantiles(values, n=4)`
gives them.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(rows):
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    failed = sum(r["failed"] for r in rows)
    attempted = sum(r["attempted"] for r in rows)
    print(f"{len(rows)} runs, {failed} of {attempted} cells failed")
    for name in rows[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in rows]
        unit = rows[0]["metrics"][name]["unit"]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        print(f"{name:16} median {med:12.6g} {unit:7} Q1 {q1:12.6g} Q3 {q3:12.6g} "
              f"spread {(q3 - q1) / med:.4f} (bound {bounds[name]})")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = ap.parse_args()
    rows = []
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, check=True,
        )
        line = done.stdout.strip().splitlines()[-1]
        print(f"seed {seed}: {line}", flush=True)
        rows.append(json.loads(line))
    summarise(rows)


if __name__ == "__main__":
    main()
