"""Repeat the benchmark over seeds and summarise the spread of each metric.

    python3 perfbench/sweep.py --workloads pretrain finetune verify --seeds 10 --trace 0

Runs run.py once per workload and seed, in sequence, with the run length
from BENCHMARK.json, and prints per metric the median, the quartiles and the
distance between the quartiles as a share of the median, next to the
metric's bound. Every run's result line is appended to
perfbench/results/sweep.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", type=int, default=10, help="seeds 0 .. seeds - 1")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    (HERE / "results").mkdir(exist_ok=True)
    log = HERE / "results" / "sweep.jsonl"
    ok = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        shares = set()
        for seed in range(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            t0 = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            wall = time.monotonic() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}, no result", flush=True)
                ok = False
                continue
            result = json.loads(lines[-1])
            with open(log, "a") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed, "trace": args.trace, "wall_s": wall, **result}) + "\n")
            ok &= result["correct"]
            shares.add(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: correct {result['correct']} attempted {result['attempted']} failed {result['failed']} wall {wall:.1f} s", flush=True)
        print(f"\n{workload}: failed share {sorted(shares)}")
        print(f"{'metric':34} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/med':>8} {'bound':>6}")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            print(f"{name:34} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} {'' if bound is None else bound:>6}")
        print(flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
