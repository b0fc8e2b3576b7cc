"""Differentiable operations on DiffArrays.

Each op computes its forward value eagerly, and (when a tape is active and
some input requires a gradient) records a closure implementing its local
backward rule. Gradients accumulate additively across fan-out.

Integer inputs (token ids, gather indices) are plain numpy arrays, never
DiffArrays, and additive masks enter attention as constants; no gradient
flows through either.

Each op has one forward, taped or not, and builds no full-size temporary:
`gelu`, `layernorm` and `attention` write into one output they allocate and
walk it in pieces of about CHUNK elements, `add(..., out=)` writes into an
operand its caller owns, and `reshape` returns a view. `gelu` shares add's
`out` rule: `out`, if given, is the input, a result its caller's own op
just allocated. Off the tape gelu writes into it; when a tape records it
ignores `out`, since its backward reads the input. A backward keeps
only what is costly to remake: `gelu` and `layernorm` recompute their
elementwise values from the input, with the same operations on the same
operands in the same order, so the gradients are those of kept values.
Their backwards are pieced like their forwards: each writes into the
gradient it allocates, piece by piece, with one piece of scratch, and
`layernorm` keeps g·x̂ whole only to sum it for the gain's gradient.
`attention` keeps only its probabilities: it splits q, v and g into heads
as strided views, and makes kᵀ's contiguous per-head copy where a product
reads it, once in the forward and once more in the backward.

A backward returns new arrays it does not keep: `Tape.backward` keeps such
a first gradient without a copy, and adds later gradients into it in place.
Once it has replayed an op, it drops the op's backward, and with it what
the backward kept.
"""

from __future__ import annotations

import math

import numpy as np

from .array import DiffArray, ShapeError, active_tape

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_GELU_C = 0.044715

# Elements per piece of an elementwise chain: 256 KiB of float64,
# small enough to stay in a core's L2 cache.
CHUNK = 32 * 1024


# ---------------------------------------------------------------------------
# recording / broadcasting helpers
# ---------------------------------------------------------------------------


def as_diff(x) -> DiffArray:
    """Lift scalars and numpy arrays to constant DiffArrays."""
    if isinstance(x, DiffArray):
        return x
    return DiffArray(np.asarray(x, dtype=np.float64))


def _records(inputs) -> bool:
    """Whether an op on these inputs goes on the tape: one is active and some
    input needs a gradient."""
    return active_tape() is not None and any(i.requires_grad for i in inputs)


def record_op(output: DiffArray, inputs, backward_fn) -> DiffArray:
    """Record a custom op on the active tape (also the extension point used
    by tests to exercise the gradient-check harness with a wrong rule).

    `backward_fn(g)` returns one gradient or None per input. It must not
    write into `g`, and must not keep the arrays it returns: a new array it
    returns once may become that input's gradient buffer, which later
    gradients are added into in place."""
    if _records(inputs):
        active_tape().record(inputs, output, backward_fn)
    return output


def _pieces(rows: int, width: int) -> list[slice]:
    """Slices over `rows` rows of `width` elements, whole rows each, of
    about CHUNK elements (one row when a row is wider)."""
    step = max(1, CHUNK // max(1, width))
    return [slice(i, i + step) for i in range(0, rows, step)]


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcasted gradient back to the original operand shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return np.ascontiguousarray(g)


# ---------------------------------------------------------------------------
# multiply-add instrumentation (used by the cost model's oracle)
# ---------------------------------------------------------------------------


class MultiplyAddCounter:
    """Counts matmul multiply-adds executed while active."""

    def __init__(self):
        self.multiply_adds = 0

    def __enter__(self) -> "MultiplyAddCounter":
        _COUNTER_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _COUNTER_STACK.remove(self)
        return False


_COUNTER_STACK: list[MultiplyAddCounter] = []


def count_multiply_adds() -> MultiplyAddCounter:
    """Context manager: tally matmul multiply-adds of the enclosed forward."""
    return MultiplyAddCounter()


def _tally_matmul(out_shape: tuple[int, ...], inner: int) -> None:
    if _COUNTER_STACK:
        n = int(np.prod(out_shape)) * inner
        for c in _COUNTER_STACK:
            c.multiply_adds += n


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------


def add(a, b, out: DiffArray | None = None) -> DiffArray:
    """a + b. out, if given, is a or b, a result its caller's own op just
    allocated and that no recorded backward reads; the sum is written into
    its buffer and returned as a new array."""
    a, b = as_diff(a), as_diff(b)
    if out is None:
        out = DiffArray(a.data + b.data)
    else:
        out = DiffArray(np.add(a.data, b.data, out=out.data))

    def bwd(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return record_op(out, (a, b), bwd)


def sub(a, b) -> DiffArray:
    a, b = as_diff(a), as_diff(b)
    out = DiffArray(a.data - b.data)

    def bwd(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return record_op(out, (a, b), bwd)


def mul(a, b) -> DiffArray:
    a, b = as_diff(a), as_diff(b)
    out = DiffArray(a.data * b.data)

    def bwd(g):
        return _unbroadcast(g * b.data, a.data.shape), _unbroadcast(g * a.data, b.data.shape)

    return record_op(out, (a, b), bwd)


def scale(a: DiffArray, s: float) -> DiffArray:
    s = float(s)
    out = DiffArray(a.data * s)

    def bwd(g):
        return (g * s,)

    return record_op(out, (a,), bwd)


def matmul(a: DiffArray, b: DiffArray) -> DiffArray:
    """Matrix product; leading batch dimensions broadcast as in numpy.

    Against a 2-d right operand (a weight) the leading dims of `a` fold into
    the rows of one GEMM, forward and backward, so the weight gradient is a
    single (d_in, d_out) product rather than a batch of them summed down.
    The backward skips the product of an operand that needs no gradient.
    An operand may be a strided view: `attention` hands over ≥3-d per-head
    views (see `_operand`), which the batched branch reads as they are.
    """
    a, b = as_diff(a), as_diff(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} x {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} x {b.shape}")
    if b.ndim == 2:
        d_in, d_out = b.shape
        rows = a.data.reshape(-1, d_in)
        out_data = (rows @ b.data).reshape(a.shape[:-1] + (d_out,))

        def bwd(g):
            g_rows = g.reshape(-1, d_out)
            ga = (g_rows @ b.data.T).reshape(a.data.shape) if a.requires_grad else None
            return ga, (rows.T @ g_rows if b.requires_grad else None)

    else:
        out_data = np.matmul(a.data, b.data)

        def bwd(g):
            ga = _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.data.shape) if a.requires_grad else None
            gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.data.shape) if b.requires_grad else None
            return ga, gb

    _tally_matmul(out_data.shape, a.shape[-1])
    return record_op(DiffArray(out_data), (a, b), bwd)


# ---------------------------------------------------------------------------
# shape manipulation
# ---------------------------------------------------------------------------


def reshape(a: DiffArray, shape) -> DiffArray:
    """A view of a's buffer."""
    shape = tuple(int(s) for s in shape)
    out = DiffArray(a.data.reshape(shape))

    def bwd(g):
        return (g.reshape(a.data.shape),)

    return record_op(out, (a,), bwd)


def transpose(a: DiffArray, axes=None) -> DiffArray:
    if axes is None:
        axes = tuple(reversed(range(a.ndim)))
    axes = tuple(int(x) for x in axes)
    inv = tuple(np.argsort(axes))
    out = DiffArray(np.ascontiguousarray(a.data.transpose(axes)))

    def bwd(g):
        return (np.ascontiguousarray(g.transpose(inv)),)

    return record_op(out, (a,), bwd)


def concat(arrays, axis: int = 0) -> DiffArray:
    arrays = tuple(as_diff(a) for a in arrays)
    sizes = [a.shape[axis] for a in arrays]
    out = DiffArray(np.concatenate([a.data for a in arrays], axis=axis))
    offsets = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.ascontiguousarray(p) for p in np.split(g, offsets, axis=axis))

    return record_op(out, arrays, bwd)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def sum(a: DiffArray, axis=None, keepdims: bool = False) -> DiffArray:  # noqa: A001
    out = DiffArray(a.data.sum(axis=axis, keepdims=keepdims))

    def bwd(g):
        return (_spread(g, a.data.shape, axis, keepdims),)

    return record_op(out, (a,), bwd)


def mean(a: DiffArray, axis=None, keepdims: bool = False) -> DiffArray:
    count = a.size if axis is None else _axis_count(a.data.shape, axis)
    out = DiffArray(a.data.mean(axis=axis, keepdims=keepdims))

    def bwd(g):
        return (_spread(g, a.data.shape, axis, keepdims) / count,)

    return record_op(out, (a,), bwd)


def _axis_count(shape, axis) -> int:
    if isinstance(axis, int):
        axis = (axis,)
    n = 1
    for ax in axis:
        n *= shape[ax]
    return n


def _spread(g: np.ndarray, shape, axis, keepdims: bool) -> np.ndarray:
    """Broadcast a reduced gradient back over the reduced axes."""
    if axis is None:
        return np.full(shape, g if np.ndim(g) == 0 else g.reshape(()), dtype=np.float64)
    if not keepdims:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        axes = tuple(ax % len(shape) for ax in axes)
        for ax in sorted(axes):
            g = np.expand_dims(g, ax)
    return np.ascontiguousarray(np.broadcast_to(g, shape))


# ---------------------------------------------------------------------------
# nonlinearities and normalization
# ---------------------------------------------------------------------------


def softmax(x: DiffArray, axis: int = -1) -> DiffArray:
    """Numerically stable softmax (max subtraction) along one axis."""
    z = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=axis, keepdims=True)
    out = DiffArray(y)

    def bwd(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - dot),)

    return record_op(out, (x,), bwd)


def _operand(x: np.ndarray) -> DiffArray:
    """A constant over x as it is, strided or not, without DiffArray's
    contiguity copy: an operand of a product inside an op, never recorded
    and never returned. At least 3-d, so that `matmul` hands it to
    np.matmul as it is and never reshapes it, which would copy a view."""
    if x.ndim < 3:
        raise ShapeError(f"an unrecorded operand needs >=3 dims, got {x.shape}")
    c = DiffArray.__new__(DiffArray)
    c.data, c.grad, c.requires_grad = x, None, False
    return c


def attention(q: DiffArray, k: DiffArray, v: DiffArray, heads: int, bias: DiffArray | np.ndarray | None = None) -> DiffArray:
    """Multi-head softmax attention as one op.

    q, k and v are (..., n, dim) projections, split into `heads` heads of
    dh = dim/heads. Per head, softmax(q·kᵀ/√dh + bias) weights v, and the
    heads are joined back to (..., n, dim). bias, broadcastable to the
    (..., heads, n, n) scores, is a learned DiffArray or a constant mask,
    lifted by `as_diff`. Both products go through `matmul` off the tape, so
    they are counted like any other. q, v and the backward's g enter their
    products as strided per-head views; kᵀ is a contiguous per-head copy,
    made where a product reads it and dropped after, since its layout sets
    the last bits of q·kᵀ and of q's gradient. Off the tape, the forward
    walks the flattened leading axes in pieces of about CHUNK elements of q
    or of the scores, works in place on each piece's scores buffer and
    writes each piece's context into one output. The bias is broadcast to
    q's leading dims, one row per row of q (a view wherever the strides
    allow), and sliced with every piece. When a tape records, the op runs
    one piece over the whole leading shape. Besides its inputs, its backward
    keeps only the probabilities, and recomputes nothing.
    """
    dim = q.shape[-1]
    if heads < 1 or dim % heads:
        raise ShapeError(f"dim {dim} not divisible by heads {heads}")
    dh = dim // heads
    s = 1.0 / math.sqrt(dh)

    def heads_of(x: np.ndarray) -> np.ndarray:
        """(..., n, dim) -> a (..., heads, n, dh) view."""
        return x.reshape(*x.shape[:-1], heads, dh).swapaxes(-3, -2)

    def keys_t(x: np.ndarray) -> np.ndarray:
        """(..., n, dim) -> a contiguous (..., heads, dh, n) copy."""
        return np.ascontiguousarray(heads_of(x).swapaxes(-2, -1))

    def joined(x: np.ndarray) -> np.ndarray:
        """(..., heads, n, dh) -> (..., n, dim). Contiguous: a gradient's
        layout sets the order of later sums over it, and so their last bits."""
        x = np.ascontiguousarray(x.swapaxes(-3, -2))
        return x.reshape(*x.shape[:-2], dim)

    if bias is not None:
        bias = as_diff(bias)
    inputs = (q, k, v) if bias is None else (q, k, v, bias)
    b = None if bias is None else bias.data
    n = q.shape[-2]
    out = np.empty(q.shape)
    views = (q.data, k.data, v.data, out)
    pieces = [...]  # one piece over the whole leading shape
    if not _records(inputs):
        lead = q.shape[:-2]
        rows = math.prod(lead)
        views = tuple(x.reshape(rows, n, dim) for x in views)
        pieces = _pieces(rows, n * max(dim, heads * n))
        if b is not None:  # one bias row per row of q
            tail = (1, 1, 1, *b.shape)[-3:]
            b = np.broadcast_to(b, (*lead, *tail)).reshape(rows, *tail)
    qs, ks, vs, outs = views
    for p in pieces:
        probs = matmul(_operand(heads_of(qs[p])), _operand(keys_t(ks[p]))).data
        probs *= s
        if b is not None:
            probs += b[p]
        probs -= probs.max(axis=-1, keepdims=True)
        np.exp(probs, out=probs)
        probs /= probs.sum(axis=-1, keepdims=True)
        heads_of(outs[p])[...] = matmul(_operand(probs), _operand(heads_of(vs[p]))).data

    # recorded only after the one whole piece, whose probs it reads
    def bwd(g):
        g = heads_of(g)
        gp = np.matmul(g, heads_of(v.data).swapaxes(-1, -2))
        gv = joined(np.matmul(probs.swapaxes(-1, -2), g)) if v.requires_grad else None
        gp = probs * (gp - (gp * probs).sum(axis=-1, keepdims=True))
        gbias = _unbroadcast(gp, bias.shape) if bias is not None and bias.requires_grad else None
        gp = gp * s
        gq = joined(np.matmul(gp, keys_t(k.data).swapaxes(-1, -2))) if q.requires_grad else None
        gk = joined(np.matmul(heads_of(q.data).swapaxes(-1, -2), gp).swapaxes(-1, -2)) if k.requires_grad else None
        return (gq, gk, gv, gbias)[: len(inputs)]

    return record_op(DiffArray(out), inputs, bwd)


def gelu(x: DiffArray, out: DiffArray | None = None) -> DiffArray:
    """tanh-form GELU, piece by piece into one new array; the backward
    recomputes x² and the tanh from x, piece by piece into the gradient.

    out, if given, is x, as for `add`: a result its caller's own op just
    allocated. Off the tape the result is written into x's buffer, each
    piece's tanh term formed before its x is overwritten, and returned as a
    new array. When a tape records, out is ignored: the backward reads x."""
    if out is not None and out is not x:
        raise ShapeError("gelu's out must be its input x")
    xd = x.data
    out = xd if out is not None and not _records((x,)) else np.empty_like(xd)
    flat, oflat = xd.reshape(-1), out.reshape(-1)
    scratch = np.empty(min(flat.size, CHUNK))
    for s in _pieces(flat.size, 1):
        xs, o = flat[s], oflat[s]
        t = scratch[: xs.size]
        np.multiply(xs, xs, out=t)
        t *= _GELU_C
        t *= xs
        t += xs
        t *= _SQRT_2_OVER_PI
        np.tanh(t, out=t)
        t += 1.0
        np.multiply(xs, 0.5, out=o)
        o *= t

    def bwd(g):
        # g · (0.5(1 + t) + 0.5x(1 - t²)·du), t = tanh(√(2/π)(x + c·x³)) and
        # du = √(2/π)(1 + 3c·x²). Pieces of half a CHUNK, so that the two
        # scratch rows (t, then 1 - t² and du) fill one piece.
        dx = np.empty_like(xd)
        gflat, dflat = g.reshape(-1), dx.reshape(-1)
        scratch = np.empty((2, min(flat.size, CHUNK // 2)))
        for s in _pieces(flat.size, 2):
            xs, o = flat[s], dflat[s]
            t, u = scratch[:, : xs.size]
            np.multiply(xs, xs, out=t)
            t *= _GELU_C
            t *= xs
            t += xs
            t *= _SQRT_2_OVER_PI
            np.tanh(t, out=t)
            np.multiply(t, t, out=u)
            np.subtract(1.0, u, out=u)
            t += 1.0
            t *= 0.5
            np.multiply(xs, 0.5, out=o)
            o *= u
            np.multiply(xs, xs, out=u)
            u *= 3.0 * _GELU_C
            u += 1.0
            u *= _SQRT_2_OVER_PI
            o *= u
            o += t
            o *= gflat[s]
        return (dx,)

    return record_op(DiffArray(out), (x,), bwd)


def layernorm(x: DiffArray, gain: DiffArray, bias: DiffArray, eps: float = 1e-12) -> DiffArray:
    """Normalize the last axis to zero mean / unit variance, then affine.

    The tiny default eps keeps normalized rows within 1e-9 of unit variance
    at float64 while still guarding constant rows. The forward works whole
    rows at a time into one new array; the backward recomputes the
    normalized rows from x in the same pieces.
    """
    if eps <= 0:
        raise ShapeError("layernorm eps must be > 0")
    gain, bias = as_diff(gain), as_diff(bias)
    d = x.shape[-1]
    out = np.empty_like(x.data)
    rows, orows = x.data.reshape(-1, d), out.reshape(-1, d)
    g1, b1 = gain.data.reshape(-1), bias.data.reshape(-1)
    pieces = _pieces(len(rows), d)
    scratch = np.empty_like(rows[pieces[0]]) if pieces else None
    for s in pieces:
        xs, o = rows[s], orows[s]
        sq = scratch[: len(xs)]
        np.subtract(xs, xs.mean(axis=-1, keepdims=True), out=o)
        np.multiply(o, o, out=sq)
        inv = sq.mean(axis=-1, keepdims=True)
        inv += eps
        np.sqrt(inv, out=inv)
        np.divide(1.0, inv, out=inv)
        o *= inv
        o *= g1
        o += b1

    def bwd(g):
        # dx = inv·(dx̂ - mean(dx̂) - x̂·mean(dx̂·x̂)) with dx̂ = g·gain; g·x̂ is
        # kept whole for dgain, whose sums then run as over one product.
        dx, gxhat = np.empty_like(x.data), np.empty_like(x.data)
        grows, drows, gxrows = g.reshape(-1, d), dx.reshape(-1, d), gxhat.reshape(-1, d)
        scratch = np.empty_like(rows[pieces[0]]) if pieces else None
        for s in pieces:
            xs, gs, o, gx = rows[s], grows[s], drows[s], gxrows[s]
            dxh = scratch[: len(xs)]
            np.subtract(xs, xs.mean(axis=-1, keepdims=True), out=o)
            np.multiply(o, o, out=dxh)
            inv = dxh.mean(axis=-1, keepdims=True)
            inv += eps
            np.sqrt(inv, out=inv)
            np.divide(1.0, inv, out=inv)
            o *= inv
            np.multiply(gs, g1, out=dxh)
            np.multiply(dxh, o, out=gx)
            m = gx.mean(axis=-1, keepdims=True)
            np.multiply(gs, o, out=gx)
            o *= m
            dxh -= dxh.mean(axis=-1, keepdims=True)
            dxh -= o
            np.multiply(dxh, inv, out=o)
        lead = tuple(range(g.ndim - 1))
        return dx, gxhat.sum(axis=lead).reshape(gain.data.shape), g.sum(axis=lead).reshape(bias.data.shape)

    return record_op(DiffArray(out), (x, gain, bias), bwd)


def l2_normalize(x: DiffArray, eps: float = 1e-24) -> DiffArray:
    """Scale rows (last axis) to unit L2 norm."""
    n = np.sqrt((x.data * x.data).sum(axis=-1, keepdims=True) + eps)
    y = x.data / n
    out = DiffArray(y)

    def bwd(g):
        dot = (g * x.data).sum(axis=-1, keepdims=True)
        return (g / n - x.data * dot / n**3,)

    return record_op(out, (x,), bwd)


# ---------------------------------------------------------------------------
# indexing
# ---------------------------------------------------------------------------


def take(x: DiffArray, indices: np.ndarray, axis: int = 0) -> DiffArray:
    """Select positions along one axis, table lookups included; duplicates
    accumulate in backward. Every index must lie in [0, n): none wraps."""
    indices = np.asarray(indices, dtype=np.int64)
    n = x.shape[axis]
    if indices.size and (indices.min() < 0 or indices.max() >= n):
        raise ShapeError(f"take indices out of range [0, {n})")
    axis %= x.ndim
    out = DiffArray(np.take(x.data, indices, axis=axis))

    def bwd(g):
        dx = np.zeros_like(x.data)
        # the indices span indices.ndim axes of g, starting at `axis`
        gm = np.moveaxis(g, tuple(range(axis, axis + indices.ndim)), tuple(range(indices.ndim)))
        np.add.at(np.moveaxis(dx, axis, 0), indices, gm)
        return (dx,)

    return record_op(out, (x,), bwd)


# ---------------------------------------------------------------------------
# pooling
# ---------------------------------------------------------------------------


def maxpool2d(x: DiffArray, window: tuple[int, int], stride: tuple[int, int] | None = None) -> DiffArray:
    """Max over sliding spatial windows; layout (..., H, W, C), no padding.

    Ties route the gradient to the first window slot (row-major), so the
    backward is deterministic.
    """
    kh, kw = window
    sh, sw = stride if stride is not None else window
    if x.ndim < 3:
        raise ShapeError(f"maxpool2d needs (..., H, W, C), got {x.shape}")
    H, W = x.shape[-3], x.shape[-2]
    if kh > H or kw > W:
        raise ShapeError(f"pool window {window} exceeds spatial extent {(H, W)}")
    Ho = (H - kh) // sh + 1
    Wo = (W - kw) // sw + 1

    best = None
    slot = None
    for di in range(kh):
        for dj in range(kw):
            view = x.data[..., di : di + (Ho - 1) * sh + 1 : sh, dj : dj + (Wo - 1) * sw + 1 : sw, :]
            if best is None:
                best = view.copy()
                slot = np.zeros(best.shape, dtype=np.int64)
            else:
                better = view > best
                best = np.where(better, view, best)
                slot = np.where(better, di * kw + dj, slot)
    out = DiffArray(best)

    def bwd(g):
        dx = np.zeros_like(x.data)
        for di in range(kh):
            for dj in range(kw):
                piece = np.where(slot == di * kw + dj, g, 0.0)
                dx[..., di : di + (Ho - 1) * sh + 1 : sh, dj : dj + (Wo - 1) * sw + 1 : sw, :] += piece
        return (dx,)

    return record_op(out, (x,), bwd)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def cross_entropy_logits(logits: DiffArray, labels: np.ndarray) -> DiffArray:
    """Mean cross-entropy of integer labels under rows of logits.

    (n, classes) logits with (n,) labels give the scalar mean over the rows;
    (B, n, classes) logits with (B, n) labels give the (B,) means of each
    leading slice, each bitwise the 2-d call on that slice.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim not in (2, 3):
        raise ShapeError(f"cross_entropy_logits needs (n, classes) or (B, n, classes) logits, got {logits.shape}")
    n, v = logits.shape[-2:]
    if labels.shape != logits.shape[:-1]:
        raise ShapeError(f"labels shape {labels.shape} != {logits.shape[:-1]}")
    if n == 0:
        raise ShapeError("cross_entropy_logits needs at least one row")
    if labels.min() < 0 or labels.max() >= v:
        raise ShapeError(f"labels out of range [0, {v})")
    z = logits.data - logits.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    se = e.sum(axis=-1)
    logp = z - np.log(se)[..., None]
    picked = (*np.indices(labels.shape), labels)
    out = DiffArray(-logp[picked].mean(axis=-1))

    def bwd(g):
        dl = e / se[..., None]
        dl[picked] -= 1.0
        return (dl * (g.reshape(labels.shape[:-1] + (1, 1)) / n),)

    return record_op(out, (logits,), bwd)


# ---------------------------------------------------------------------------
# operator sugar on DiffArray
# ---------------------------------------------------------------------------


def _neg(self):
    return scale(self, -1.0)


DiffArray.__add__ = lambda self, other: add(self, other)
DiffArray.__radd__ = lambda self, other: add(other, self)
DiffArray.__sub__ = lambda self, other: sub(self, other)
DiffArray.__rsub__ = lambda self, other: sub(other, self)
DiffArray.__mul__ = lambda self, other: mul(self, other)
DiffArray.__rmul__ = lambda self, other: mul(other, self)
DiffArray.__neg__ = _neg
DiffArray.__matmul__ = lambda self, other: matmul(self, other)
DiffArray.sum = lambda self, axis=None, keepdims=False: sum(self, axis, keepdims)
DiffArray.mean = lambda self, axis=None, keepdims=False: mean(self, axis, keepdims)
DiffArray.reshape = lambda self, shape: reshape(self, shape)
DiffArray.transpose = lambda self, axes=None: transpose(self, axes)
