"""Parameter-tree helpers shared by the encoders and the trainer.

Parameters are nested dicts of DiffArrays; dotted paths give every leaf a
stable name for the optimizer, checkpoints, and gradient checking.
"""

from __future__ import annotations

import numpy as np

from .engine import DiffArray, parameter
from .engine import ops as O

INIT_STD = 0.02


def normal(rng: np.random.Generator, shape, std: float = INIT_STD) -> DiffArray:
    return parameter(rng.normal(0.0, std, size=shape))


def zeros(shape) -> DiffArray:
    return parameter(np.zeros(shape))


def ones(shape) -> DiffArray:
    return parameter(np.ones(shape))


def linear_init(rng: np.random.Generator, d_in: int, d_out: int) -> dict:
    return {"w": normal(rng, (d_in, d_out)), "b": zeros((d_out,))}


def linear(x: DiffArray, p: dict, name: str = "") -> DiffArray:
    """Apply the layer of weight p["w" + name] and bias p["b" + name], as
    linear_init makes it; the bias is added into the product's own buffer,
    which matmul's backward does not read."""
    y = O.matmul(x, p["w" + name])
    return O.add(y, p["b" + name], out=y)


def layernorm_init(dim: int) -> dict:
    return {"g": ones((dim,)), "b": zeros((dim,))}


def flatten_params(tree: dict, prefix: str = "") -> dict[str, DiffArray]:
    """Dotted-path view of a nested parameter dict (insertion-ordered)."""
    flat: dict[str, DiffArray] = {}
    for key, value in tree.items():
        path = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, dict):
            flat.update(flatten_params(value, path))
        elif isinstance(value, DiffArray):
            flat[path] = value
        else:
            raise TypeError(f"unexpected leaf at {path}: {type(value)!r}")
    return flat

