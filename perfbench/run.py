"""Benchmark of the longvid trainer and verification paths.

    python3 perfbench/run.py --workload pretrain --seed 0 --seconds 10 --trace 0

Runs one workload (pretrain, finetune or verify, see README.md) against the
source tree next to this directory, checks its outputs and prints one JSON
line last: `correct`, `attempted`, `failed` and `metrics`. With `--trace 0`
the metrics are the end-to-end ones; with `--trace 1` the run is traced and
the metrics are the per-layer ones.

The workload runs in a child process (workloads.py) with BLAS limited to the
cores this process may use. With `--trace 0`, more children do the set-up
alone, before and after the workload child, so that the set-ups span the
run: before it at least one, more while they took under 1.5 s in all;
after it more while all set-ups took under 3 s; at most two on each side.
`setup_s` is the median of all set-ups, the workload child's included: of
three to five on pretrain and finetune, of two on verify, where each set-up
builds 3 GB of encoders in 6-13 s.

The result line is printed whenever the workload child reports, also when a
check failed or an operation raised before any round completed; the exit
code is 0 only when every check passed. Results are written under
perfbench/results/; scratch files live under perfbench/work/ and are removed
when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SIDE_MAX, SETUP_BUDGET_S = 2, 3.0
TIME_LIMIT_S = 170.0
WORKLOADS = ("pretrain", "finetune", "verify")


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_child(args, extra: list[str], deadline: float) -> dict:
    """One workload process; its last stdout line is its JSON report."""
    t0 = time.monotonic()
    cmd = [
        sys.executable,
        str(HERE / "workloads.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--t0", repr(t0),
        *extra,
    ]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{args.workload}: child still running at the {TIME_LIMIT_S:.0f} s limit")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{args.workload}: child exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_setups(args, extra: list[str], deadline: float, budget: float, spent: float = 0.0, minimum: int = 0) -> list[float]:
    """Set-up-only children: at least `minimum`, more while all set-ups of
    the run took under `budget` seconds, at most SETUP_SIDE_MAX."""
    setups = []
    while len(setups) < SETUP_SIDE_MAX and (len(setups) < minimum or spent + sum(setups) < budget):
        setups.append(run_child(args, [*extra, "--setup-only"], deadline)["setup_s"])
    return setups


def end_to_end(report: dict, setups: list[float]) -> dict:
    """Medians over the run. The warm-up round's evaluations count: only a
    process's first training call is slower than the later ones."""
    timed = [*report["rounds"], *([report["final"]] if report.get("final") else [])]
    evals = [*([report["warmup"]] if report.get("warmup") else []), *timed]

    def rate(key, rounds):
        return statistics.median(items / seconds for r in rounds for items, seconds in r.get(key, []))

    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "grad_items_per_s": {"value": rate("grad", timed), "unit": "items/s"},
        "eval_items_per_s": {"value": rate("eval", evals), "unit": "items/s"},
        "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
    }


def summarise(report: dict, setups: list[float], trace: int) -> dict:
    """The result line of one workload child's report. A run in which no
    timed round completed is not correct and has no metrics."""
    errors = list(report["errors"])
    if not report["rounds"]:
        errors.append("no timed round completed")
    for err in errors:
        print(f"check failed: {err}", file=sys.stderr)
    metrics = {}
    if report["rounds"]:
        metrics = report["per_layer"] if trace else end_to_end(report, setups)
    return {"correct": not errors, "attempted": report["attempted"], "failed": report["failed"], "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True, help="how long the timed rounds run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # SIGTERM unwinds like an exception, so subprocess.run kills and waits
    # for the running child and the scratch files are removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "longvid" / "__init__.py").is_file():
        print(f"error: no longvid sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = HERE / "work" / f"{stem}-{os.getpid()}"
    extra = ["--work", str(work)]
    setups = []
    try:
        if not args.trace:
            setups = run_setups(args, extra, deadline, SETUP_BUDGET_S / 2, minimum=1)
        report = run_child(args, extra, deadline)
        setups.append(report["setup_s"])
        if not args.trace:
            setups += run_setups(args, extra, deadline, SETUP_BUDGET_S, spent=sum(setups))
    except ChildFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's files are still there
    result = summarise(report, setups, args.trace)
    detail = dict(
        result,
        setups_s=setups,
        warmup=report.get("warmup"),
        rounds=report["rounds"],
        final=report.get("final"),
        threads=child_env()["OPENBLAS_NUM_THREADS"],
    )
    (results / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
