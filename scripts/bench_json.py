"""Collect interleaved benchmark runs of a parent and a change into one JSON file.

    python3 scripts/bench_json.py --parent <parent checkout>/perfbench/results \
        --change <change checkout>/perfbench/results --out BENCH_11.json

Reads the `<workload>-seed<n>-trace<t>.json` files that perfbench/run.py
writes in each directory. Both directories are required: perfbench/run.py
never clears its results directory, so run each side from a clean checkout,
or earlier runs of the same seeds get paired with the new ones. For every
workload it pairs the parent's and the change's untraced runs by seed and
reports, per end-to-end metric, both medians, the median of the per-seed
change/parent ratios and the number of seeds on which the change is
better. Traced runs, paired by seed the same
way, give the per-layer values of both sides per seed, and a `summary` over
all traced pairs: per metric both medians, the median ratio and the pair
count. Machine info (cores, Python, numpy and its BLAS) is that of the
process running this script, which should be the machine the runs ran on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
from collections.abc import Sequence
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"(?P<workload>\w+)-seed(?P<seed>\d+)-trace(?P<trace>[01])\.json")


def load_runs(results: Path) -> dict[tuple[str, int, int], dict]:
    runs = {}
    for path in sorted(results.glob("*.json")):
        m = NAME.fullmatch(path.name)
        if m:
            runs[m["workload"], int(m["seed"]), int(m["trace"])] = json.loads(path.read_text())
    return runs


def values(run: dict) -> dict[str, float]:
    return {name: m["value"] for name, m in run["metrics"].items()}


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": len(os.sched_getaffinity(0)),
        "processor": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
    }


def medians(p: Sequence[float], c: Sequence[float]) -> dict:
    """Both sides' medians of paired values, the median change/parent ratio
    (None when every parent value is 0) and the number of pairs."""
    ratios = [b / a for a, b in zip(p, c) if a]
    return {
        "parent_median": statistics.median(p),
        "change_median": statistics.median(c),
        "median_ratio": statistics.median(ratios) if ratios else None,
        "pairs": len(p),
    }


def compare(parent: dict, change: dict, better: dict[str, str]) -> dict:
    """Untraced runs of one workload, paired by seed."""
    seeds = sorted(set(parent) & set(change))
    pairs = [{"seed": s, "parent": values(parent[s]), "change": values(change[s]),
              "correct": [parent[s]["correct"], change[s]["correct"]]} for s in seeds]
    summary = {}
    for name in better:
        p = [pair["parent"][name] for pair in pairs if name in pair["parent"] and name in pair["change"]]
        c = [pair["change"][name] for pair in pairs if name in pair["parent"] and name in pair["change"]]
        if not p:
            continue
        sign = 1 if better[name] == "higher" else -1
        q1, _, q3 = statistics.quantiles(p, n=4) if len(p) > 1 else (p[0], p[0], p[0])
        summary[name] = {
            **medians(p, c),
            "parent_iqr": q3 - q1,
            "change_better": sum(sign * (b - a) > 0 for a, b in zip(p, c)),
        }
    return {"pairs": pairs, "summary": summary}


def per_layer(parent: dict, change: dict) -> dict:
    """Traced runs of one workload, paired by seed: each seed's values and
    a summary over the seeds."""
    seeds = sorted(set(parent) & set(change))
    if not seeds:
        return {}
    doc = {
        f"seed{s}": {name: {"parent": value, "change": change[s].get(name)} for name, value in parent[s].items()}
        for s in seeds
    }
    doc["summary"] = {}
    for name in dict.fromkeys(name for s in seeds for name in parent[s]):
        both = [(parent[s][name], change[s][name]) for s in seeds if name in parent[s] and change[s].get(name) is not None]
        if both:
            doc["summary"][name] = medians(*zip(*both))
    return doc


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", type=Path, required=True, help="results directory of the parent's runs")
    ap.add_argument("--change", type=Path, required=True, help="results directory of the change's runs")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    parent, change = load_runs(args.parent), load_runs(args.change)
    doc = {"machine": machine(), "run_seconds": spec["run_seconds"], "end_to_end": {}, "per_layer": {}}
    for w in (w["name"] for w in spec["workloads"]):
        untraced = [{s: r for (wl, s, t), r in side.items() if wl == w and t == 0} for side in (parent, change)]
        if untraced[0] and untraced[1]:
            doc["end_to_end"][w] = compare(*untraced, better)
        traced = [{s: values(r) for (wl, s, t), r in side.items() if wl == w and t == 1} for side in (parent, change)]
        if layers := per_layer(*traced):
            doc["per_layer"][w] = layers
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
