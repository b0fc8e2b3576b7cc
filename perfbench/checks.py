"""Output checks of the benchmark.

Each check compares one output of the program with a value the benchmark
computes apart from the program, or with a property the method must have.
A check returns nothing when the output is right and raises CheckFailed
naming what is wrong otherwise. The checks take plain numbers and numpy
arrays, so they can be tested without running the program.
"""

from __future__ import annotations

import math

import numpy as np

REL_TOL = 1e-12


class CheckFailed(AssertionError):
    """A program output is wrong."""


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def expected_lr(step: int, total_steps: int, n_train: int, batch_size: int, warmup_epochs: float, peak: float) -> float:
    """Linear warmup over `warmup_epochs` epochs, then linear decay to 0."""
    warmup = round(warmup_epochs * max(1, n_train // batch_size))
    if step < warmup:
        return peak * (step + 1) / warmup
    return peak * max(0.0, (total_steps - step) / max(1, total_steps - warmup))


def check_rows(rows: list[dict], total_key: str, first_key: str, second_key: str, weight: float) -> None:
    """Every row is finite and its total is first + weight * second."""
    for row in rows:
        values = [row["lr"], row[total_key], row[first_key], row[second_key]]
        if not all(math.isfinite(v) for v in values):
            raise CheckFailed(f"step {row['step']}: non-finite value in {values}")
        want = row[first_key] + weight * row[second_key]
        if not _close(row[total_key], want):
            raise CheckFailed(
                f"step {row['step']}: {total_key} {row[total_key]!r} != {first_key} + {weight} * {second_key} = {want!r}"
            )


def check_lr(rows: list[dict], total_steps: int, n_train: int, batch_size: int, warmup_epochs: float, peak: float) -> None:
    if [r["step"] for r in rows] != list(range(total_steps)):
        raise CheckFailed(f"expected steps 0..{total_steps - 1}, got {len(rows)} rows")
    for row in rows:
        want = expected_lr(row["step"], total_steps, n_train, batch_size, warmup_epochs, peak)
        if not _close(row["lr"], want):
            raise CheckFailed(f"step {row['step']}: lr {row['lr']!r} != schedule {want!r}")


def check_loss_decreases(rows: list[dict], key: str = "loss_total") -> None:
    """The mean loss of the last tenth of steps is below that of the first tenth."""
    k = max(1, len(rows) // 10)
    first = sum(r[key] for r in rows[:k]) / k
    last = sum(r[key] for r in rows[-k:]) / k
    if not last < first:
        raise CheckFailed(f"mean {key} of the last {k} steps {last!r} is not below the first {k} {first!r}")


def ranks(paras: np.ndarray, vids: np.ndarray) -> np.ndarray:
    """1-based rank of the matching video for each paragraph; ties rank best.

    Sorts each row of similarities and finds the matching entry by binary
    search, so it shares no code path with the program's counting.
    """
    sim = paras @ vids.T
    diag = np.diagonal(sim)
    ascending = np.sort(sim, axis=1)
    above = [sim.shape[1] - np.searchsorted(row, d, side="right") for row, d in zip(ascending, diag)]
    return np.asarray(above) + 1


def check_retrieval(report, paras: np.ndarray, vids: np.ndarray, n_eval: int) -> None:
    """R@1, R@5, the median rank and the count against an own ranking."""
    r = ranks(paras, vids)
    want = {
        "r_at_1": float(np.mean(r <= 1)),
        "r_at_5": float(np.mean(r <= 5)),
        "median_rank": float(np.median(r)),
        "count": n_eval,
    }
    for key, value in want.items():
        got = getattr(report, key)
        if got != value:
            raise CheckFailed(f"retrieval {key} {got!r} != {value!r} from an own ranking")
    if len(r) != n_eval:
        raise CheckFailed(f"encode_eval gave {len(r)} rows for an eval split of {n_eval}")


def check_same_bytes(a: bytes, b: bytes, what: str) -> None:
    if a != b:
        raise CheckFailed(f"{what}: {len(a)} and {len(b)} bytes differ")


def check_arrays_equal(before: dict[str, np.ndarray], after: dict[str, np.ndarray], what: str) -> None:
    """Same keys, shapes and bits."""
    if sorted(before) != sorted(after):
        raise CheckFailed(f"{what}: parameter sets differ")
    for key in sorted(before):
        a, b = np.asarray(before[key]), np.asarray(after[key])
        if a.shape != b.shape or a.tobytes() != b.tobytes():
            raise CheckFailed(f"{what}: {key} differs")


def check_vtm_accuracy(accuracy: float, n_eval: int, batch_size: int) -> None:
    """In [0, 1] and a whole number of hits over floor(n / B) * B items."""
    items = (n_eval // batch_size) * batch_size
    if not 0.0 <= accuracy <= 1.0:
        raise CheckFailed(f"VTM accuracy {accuracy!r} outside [0, 1]")
    hits = accuracy * items
    if abs(hits - round(hits)) > 1e-9 * items:
        raise CheckFailed(f"VTM accuracy {accuracy!r} is not a whole number of hits over {items} items")


def gradcheck_count(param_sizes: dict[str, int], seeds: int, head_prefixes=("heads.",), fraction=0.01, max_random=200) -> int:
    """Entries gradcheck_stage1 checks: every head entry plus a capped
    fraction of the rest, per seed."""
    heads = sum(n for k, n in param_sizes.items() if k.startswith(tuple(head_prefixes)))
    rest = sum(n for k, n in param_sizes.items() if not k.startswith(tuple(head_prefixes)))
    picked = min(rest, min(max_random, max(1, int(rest * fraction))))
    return seeds * (heads + picked)


def check_gradcheck(checked: int, failures: int, expected: int) -> None:
    if failures:
        raise CheckFailed(f"gradcheck: {failures} failures")
    if checked != expected:
        raise CheckFailed(f"gradcheck checked {checked} entries, parameter shapes give {expected}")


def check_outputs(outputs: dict[str, np.ndarray], shapes: dict[str, tuple]) -> None:
    """Each named output has its expected shape and only finite values."""
    for name, shape in shapes.items():
        arr = outputs[name]
        if arr.shape != shape:
            raise CheckFailed(f"{name}: shape {arr.shape} != {shape}")
        if not np.isfinite(arr).all():
            raise CheckFailed(f"{name}: non-finite values")


def check_multiply_adds(counted: int, analytic: int, what: str) -> None:
    if counted != analytic:
        raise CheckFailed(f"{what}: {counted} multiply-adds counted, cost model gives {analytic}")
