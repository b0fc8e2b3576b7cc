"""Central finite-difference gradient verification.

The numeric side never touches the tape: it re-runs the forward with
perturbed entries, which keeps it independent of the backward rules it
checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .array import DiffArray, Tape, no_tape

DEFAULT_STEP = 1e-5


@dataclass
class GradMismatch:
    array_index: int
    flat_index: int
    analytic: float
    numeric: float


@dataclass
class GradCheckResult:
    ok: bool
    max_abs_diff: float
    checked: int
    mismatches: list[GradMismatch] = field(default_factory=list)


def analytic_gradients(f, arrays: list[DiffArray]) -> list[np.ndarray]:
    """Gradients of the scalar f(*arrays) via one tape replay."""
    for a in arrays:
        a.zero_grad()
    with Tape() as tape:
        loss = f(*arrays)
        tape.backward(loss)
    return [np.zeros_like(a.data) if a.grad is None else a.grad.copy() for a in arrays]


def numeric_gradient(f, arrays: list[DiffArray], which: int, h: float = DEFAULT_STEP, entries=None) -> np.ndarray:
    """Central differences of f w.r.t. one array, entry by entry.

    `entries` are the flat indices to perturb (all of them by default); the
    gradient of every other entry is left at 0.
    """
    target = arrays[which]
    grad = np.zeros_like(target.data)
    flat = target.data.reshape(-1)
    gflat = grad.reshape(-1)
    with no_tape():
        for i in range(flat.size) if entries is None else entries:
            keep = flat[i]
            flat[i] = keep + h
            up = f(*arrays).item()
            flat[i] = keep - h
            down = f(*arrays).item()
            flat[i] = keep
            gflat[i] = (up - down) / (2.0 * h)
    return grad


def check_gradients(
    f,
    arrays: list[DiffArray],
    rtol: float = 1e-3,
    atol: float = 1e-6,
    h: float = DEFAULT_STEP,
    entries: dict[int, list[int]] | None = None,
    numeric_loss=None,
) -> GradCheckResult:
    """Compare analytic and central-difference gradients entry by entry.

    `entries` maps an array index to the flat indices to check; by default
    every entry of every array that requires a gradient is checked.
    `numeric_loss(k)` is the loss whose central differences check array k;
    by default it is `f`. It must compute the same function of array k as f.
    """
    if entries is None:
        entries = {k: range(a.size) for k, a in enumerate(arrays) if a.requires_grad}
    analytic = analytic_gradients(f, arrays)
    max_diff = 0.0
    mismatches: list[GradMismatch] = []
    for k, flat in entries.items():
        flat = np.asarray(flat, dtype=np.intp)
        g = f if numeric_loss is None else numeric_loss(k)
        numeric = numeric_gradient(g, arrays, k, h=h, entries=flat).reshape(-1)[flat]
        exact = analytic[k].reshape(-1)[flat]
        diff = np.abs(exact - numeric)
        max_diff = max(max_diff, float(diff.max(initial=0.0)))
        bad = np.flatnonzero(diff > atol + rtol * np.abs(numeric))
        mismatches += [GradMismatch(k, int(flat[j]), float(exact[j]), float(numeric[j])) for j in bad]
    checked = sum(len(flat) for flat in entries.values())
    return GradCheckResult(ok=not mismatches, max_abs_diff=max_diff, checked=checked, mismatches=mismatches)
