"""Dense float64 arrays with a dynamic reverse-mode differentiation tape.

Values live in contiguous row-major numpy buffers, save the unrecorded
constants `ops.qkv_attention` builds over strided per-head views to hand to
`ops.matmul` (at least 3-d, so `matmul` never reshapes them). Every
differentiable operation records itself on the innermost active tape;
``Tape.backward`` replays the records once, in exact reverse order,
accumulating gradients additively into each array's ``grad`` buffer and
releasing each intermediate gradient once the op that produced it has used
it. With no tape active, ops run forward-only and allocate nothing for
gradients.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

__all__ = [
    "DiffArray",
    "EngineError",
    "ShapeError",
    "Tape",
    "active_tape",
    "backward",
    "constant",
    "no_tape",
    "parameter",
]


class EngineError(ValueError):
    """Invalid engine operation."""


class ShapeError(EngineError):
    """Incompatible operand shapes."""


_TAPE_STACK: list["Tape"] = []


def active_tape() -> "Tape | None":
    """The tape ops currently record onto, or None."""
    return _TAPE_STACK[-1] if _TAPE_STACK else None


@contextmanager
def no_tape():
    """Run a block with recording disabled (results are constants)."""
    saved = _TAPE_STACK[:]
    _TAPE_STACK.clear()
    try:
        yield
    finally:
        _TAPE_STACK.extend(saved)


class _TapeOp:
    __slots__ = ("inputs", "output", "backward_fn", "replays")

    def __init__(self, inputs, output, backward_fn):
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn
        self.replays = 0


class Tape:
    """Ordered record of executed ops.

    Topological by construction: an op is appended only after its inputs
    exist, so replaying the list in reverse visits consumers before
    producers. Not thread-safe; use one tape per training step.
    """

    def __init__(self):
        self.ops: list[_TapeOp] = []
        self.replayed_ops = 0

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.pop()
        if popped is not self:
            raise EngineError("tape stack corrupted")
        return False

    def __len__(self) -> int:
        return len(self.ops)

    def record(self, inputs, output, backward_fn) -> None:
        output.requires_grad = True
        self.ops.append(_TapeOp(tuple(inputs), output, backward_fn))

    def backward(self, loss: "DiffArray") -> None:
        """Reverse replay from a scalar loss; each op is visited exactly once.

        Once an op's backward has returned, its output's gradient is released
        (set to None), so an intermediate gradient lives only from the first
        backward that adds to it until its producer's backward has run. The
        loss and every leaf (parameters, inputs) keep theirs. `_accumulate`
        learns which returned gradients are fresh: neither the op's `g` nor
        returned twice by it. Each visited op's record drops its `inputs` and
        `backward_fn`, so what a backward kept (attention's probabilities,
        say) dies once it has run; `output` and `replays` stay.
        """
        if loss.size != 1:
            raise EngineError(f"backward needs a scalar loss, got shape {loss.shape}")
        loss._accumulate(np.ones_like(loss.data), fresh=True)
        self.replayed_ops = 0
        for op in reversed(self.ops):
            if op.replays:
                raise EngineError("tape op replayed more than once")
            op.replays += 1
            g, backward_fn, inputs = op.output.grad, op.backward_fn, op.inputs
            op.backward_fn = op.inputs = None
            if g is None:
                continue  # not reachable from this loss
            grads = backward_fn(g)
            del backward_fn  # and with it what the op kept for its backward
            for inp, gi in zip(inputs, grads):
                if gi is not None and inp.requires_grad:
                    inp._accumulate(gi, fresh=gi is not g and sum(x is gi for x in grads) == 1)
            if op.output is not loss:
                op.output.grad = None
            self.replayed_ops += 1


class DiffArray:
    """Dense float64 array with shape, values and an optional gradient slot."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data: np.ndarray = np.ascontiguousarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.size != 1:
            raise ShapeError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        """Drop the gradient, or zero it in place when it is a view of a
        buffer the array does not own (a `TrainState` segment), so that the
        binding survives."""
        if self.grad is not None and self.grad.base is not None:
            self.grad[...] = 0.0
        else:
            self.grad = None

    def _accumulate(self, g: np.ndarray, fresh: bool = False) -> None:
        """Add `g` into the gradient. A first gradient is kept as it is when
        nothing else can see its buffer: the backward returned it `fresh`
        (neither its own `g` nor twice) and it is a C-contiguous float64 array
        that owns its memory. Any other first gradient is copied, because ops
        such as `add` hand one buffer to several inputs and later
        accumulation writes in place."""
        if g.shape != self.data.shape:
            raise ShapeError(f"gradient shape {g.shape} != value shape {self.data.shape}")
        if self.grad is not None:
            self.grad += g
        elif fresh and g.dtype == np.float64 and g.flags.c_contiguous and g.flags.owndata and g.flags.writeable:
            self.grad = g
        else:
            self.grad = np.array(g, dtype=np.float64)

    def __repr__(self) -> str:
        flags = ", grad" if self.requires_grad else ""
        return f"DiffArray(shape={self.shape}{flags})"

    # Arithmetic operators are attached by longvid.engine.ops.


def parameter(data) -> DiffArray:
    """A trainable leaf (requires_grad=True)."""
    return DiffArray(data, requires_grad=True)


def constant(data) -> DiffArray:
    """A non-trainable leaf."""
    return DiffArray(data)


def backward(loss: DiffArray) -> None:
    """Run reverse-mode differentiation from a scalar loss on the active tape."""
    tape = active_tape()
    if tape is None:
        raise EngineError("no tape is active (backward must run inside a Tape block)")
    tape.backward(loss)
