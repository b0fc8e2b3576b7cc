"""Differentiable operations on DiffArrays.

Each op computes its forward value eagerly, and (when a tape is active and
some input requires a gradient) records a closure implementing its local
backward rule. Gradients accumulate additively across fan-out.

Integer inputs (token ids, gather indices) are plain numpy arrays, never
DiffArrays, and additive masks enter attention as constants; no gradient
flows through either.

Off the tape each op builds no full-size temporary: `gelu`, `layernorm`
and `qkv_attention` write into one output they allocate and walk it in
pieces of about CHUNK elements (attention in groups of heads, too),
`add(..., out=)` writes into an operand its caller owns, and `reshape`
returns a view.

Two ops take a layer's input, so that a tape keeps no product that is one
GEMM away from a buffer it holds anyway. `qkv_attention` projects q, k and
v from x and runs the attention core, looking up a relative-position
table's bias itself; `feed_forward` is fc1, GELU and fc2's product. Each
has one forward, on the tape or off it: the composed ops' expressions,
with the products and GELU's value dropped once the output is formed.
When a tape records, `qkv_attention` keeps x, the leaves and the
probabilities, `feed_forward` x and the leaves. Their backwards form the
products again with the forward's expressions, and so its bits, and call
numpy directly, so only the forward's products are counted.

A backward keeps only what is costly to remake. `gelu`, `feed_forward` and
`layernorm` recompute their elementwise values from their input, with the
same operations on the same operands in the same order, so the gradients
are those of kept values. Their backwards are pieced like their forwards:
each writes into the gradient it allocates, piece by piece, with one piece
of scratch; `layernorm` keeps g·x̂ whole only to sum it for the gain's
gradient. The attention core keeps only its probabilities, and recomputes
none of them: it splits q, v and g into heads as strided views, and makes
kᵀ's contiguous per-head copy where a product reads it, once in the
forward and once more in the backward.

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
    An operand may be a strided view: `qkv_attention` hands over ≥3-d
    per-head views (see `_operand`), which the batched branch reads as they
    are.
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
    """Numerically stable softmax (max subtraction) along one axis. No model
    code calls it (`qkv_attention` takes its own softmax); the autodiff
    demo's read-out does."""
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


def _split(x: np.ndarray, heads: int) -> np.ndarray:
    """(..., n, dim) -> a (..., heads, n, dh) view."""
    return x.reshape(*x.shape[:-1], heads, x.shape[-1] // heads).swapaxes(-3, -2)


def _keys_t(x: np.ndarray) -> np.ndarray:
    """(..., heads, n, dh) -> a contiguous (..., heads, dh, n) copy."""
    return np.ascontiguousarray(x.swapaxes(-2, -1))


def _joined(x: np.ndarray) -> np.ndarray:
    """(..., heads, n, dh) -> (..., n, dim). Contiguous: a gradient's layout
    sets the order of later sums over it, and so their last bits."""
    x = np.ascontiguousarray(x.swapaxes(-3, -2))
    return x.reshape(*x.shape[:-2], x.shape[-2] * x.shape[-1])


def _scores_scale(dim: int, heads: int) -> float:
    """1/√dh, once the head rule holds."""
    if heads < 1 or dim % heads:
        raise ShapeError(f"dim {dim} not divisible by heads {heads}")
    return 1.0 / math.sqrt(dim // heads)


def _head_bias(b: np.ndarray | None, index: np.ndarray | None, hs: slice) -> np.ndarray | None:
    """The bias of the heads hs. With index, b is a (rows, heads) table, and
    this is `take`'s gather of index from its transpose: (hg, n, n). Else b
    broadcasts to the scores, and its head axis, if it has one, is sliced."""
    if b is None:
        return None
    if index is not None:
        return np.take(b.T[hs], index, axis=1)
    return b[..., hs, :, :] if b.ndim >= 3 and b.shape[-3] > 1 else b


def _attend(q: np.ndarray, k: np.ndarray, v: np.ndarray, heads: int, b: np.ndarray | None, index: np.ndarray | None, pieced: bool):
    """The softmax core's forward: the (..., n, dim) output, and the
    (..., heads, n, n) probabilities when it ran as one piece (else None).
    Pieced, it walks groups of heads whose one-row scores fill about a
    CHUNK, each group's bias (`_head_bias`) made once and broadcast to one
    row per row of q, a view wherever the strides allow; and in each group,
    pieces of rows of about CHUNK elements of the group's q or scores."""
    dim, n = q.shape[-1], q.shape[-2]
    s = _scores_scale(dim, heads)
    out = np.empty(q.shape)
    lead = q.shape[:-2]
    rows = math.prod(lead)
    views = (q, k, v, out)
    if pieced:
        views = tuple(x.reshape(rows, n, dim) for x in views)
    qs, ks, vs, outs = (_split(x, heads) for x in views)
    for hs in _pieces(heads, n * n) if pieced else [slice(None)]:
        gb = _head_bias(b, index, hs)
        pieces = [...]  # one piece over the whole leading shape
        if pieced:
            pieces = _pieces(rows, n * len(range(heads)[hs]) * max(dim // heads, n))
            if gb is not None:  # one bias row per row of q
                tail = (1, 1, 1, *gb.shape)[-3:]
                gb = np.broadcast_to(gb, (*lead, *tail)).reshape(rows, *tail)
        for p in pieces:
            qh, kh, vh = (x[p][..., hs, :, :] for x in (qs, ks, vs))
            probs = matmul(_operand(qh), _operand(_keys_t(kh))).data
            probs *= s
            if gb is not None:
                probs += gb[p]
            probs -= probs.max(axis=-1, keepdims=True)
            np.exp(probs, out=probs)
            probs /= probs.sum(axis=-1, keepdims=True)
            outs[p][..., hs, :, :] = matmul(_operand(probs), _operand(vh)).data
    return out, None if pieced else probs


def _attend_backward(g, probs, q, k, v, heads: int, bias_shape, needs):
    """The softmax core's backward from its probabilities and its q, k and
    v: (gq, gk, gv, gbias), each None where `needs` (of q, k and v) is false
    or, for the bias, where bias_shape is None."""
    s = _scores_scale(q.shape[-1], heads)
    g = _split(g, heads)
    gp = np.matmul(g, _split(v, heads).swapaxes(-1, -2))
    gv = _joined(np.matmul(probs.swapaxes(-1, -2), g)) if needs[2] else None
    gp = probs * (gp - (gp * probs).sum(axis=-1, keepdims=True))
    gbias = None if bias_shape is None else _unbroadcast(gp, bias_shape)
    gp = gp * s
    gq = _joined(np.matmul(gp, _keys_t(_split(k, heads)).swapaxes(-1, -2))) if needs[0] else None
    gk = _joined(np.matmul(_split(q, heads).swapaxes(-1, -2), gp).swapaxes(-1, -2)) if needs[1] else None
    return gq, gk, gv, gbias


def _table_grad(g: np.ndarray, index: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The (rows, heads) table's gradient from its gathered bias's, g:
    `take`'s backward into the table's transpose, then `transpose`'s."""
    dt = np.zeros(shape[::-1])
    np.add.at(np.moveaxis(dt, 1, 0), index, np.moveaxis(g, (1, 2), (0, 1)))
    return np.ascontiguousarray(dt.T)


def _weights(*arrays: DiffArray) -> None:
    if any(a.ndim != 2 for a in arrays):
        raise ShapeError(f"a layer op needs 2-d weights, got {', '.join(str(a.shape) for a in arrays)}")


def _affine(x: np.ndarray, w: DiffArray, b: DiffArray) -> np.ndarray:
    """x·w + b in a new buffer: the product through the counted `matmul` on
    constants, the bias added into it in place, as `params.linear` does."""
    y = matmul(DiffArray(x), DiffArray(w.data)).data
    y += b.data
    return y


def _reformed(x: np.ndarray, w: DiffArray, b: DiffArray) -> np.ndarray:
    """`_affine`'s value in a backward, with `matmul`'s expression for a 2-d
    weight and not counted: the bits of the forward's product."""
    y = (x.reshape(-1, w.shape[0]) @ w.data).reshape(*x.shape[:-1], w.shape[1])
    y += b.data
    return y


def qkv_attention(
    x: DiffArray,
    wq: DiffArray,
    bq: DiffArray,
    wk: DiffArray,
    bk: DiffArray,
    wv: DiffArray,
    bv: DiffArray,
    heads: int,
    bias: DiffArray | np.ndarray | None = None,
    index: np.ndarray | None = None,
) -> DiffArray:
    """Multi-head softmax attention of a layer input x (..., n, dim), as one
    op whose tape record keeps only x, the leaves and the probabilities.

    q = x·wq + bq, k = x·wk + bk and v = x·wv + bv split into `heads` heads
    of dh = dim/heads; per head, softmax(q·kᵀ/√dh + bias) weights v, and
    the heads are joined back. bias, broadcastable to the (..., heads, n, n)
    scores, is a learned DiffArray or a constant mask; with index (n, n),
    it is a (rows, heads) relative-position table, looked up inside the op
    by `take`'s gather from its transpose.

    Every product goes through the counted `matmul`, each projection's bias
    added in place; q, v and g enter the products as strided per-head
    views, and kᵀ as a contiguous per-head copy, since its layout sets the
    last bits of q·kᵀ and of q's gradient. Off the tape, `_attend` walks
    head groups and row pieces of about a CHUNK. When a tape records, the
    op runs as one piece, and the backward forms q, k and v again with the
    same expressions, runs the core's backward, then the projections' in
    the order a tape of the composed ops replays them: x's gradient is
    ((gv·wvᵀ) + gk·wkᵀ) + gq·wqᵀ in one buffer, each weight's xᵀ·g, each
    bias's g summed as `add`'s backward sums it, and a table's `take`'s
    backward, then `transpose`'s. Output and gradients are bitwise those
    of the composed ops.
    """
    _weights(wq, wk, wv)
    if bias is not None:
        bias = as_diff(bias)
    if index is not None:
        index = _indices(index, bias.shape[0], "qkv_attention")
    projections = ((wq, bq), (wk, bk), (wv, bv))
    inputs = (x, wq, bq, wk, bk, wv, bv) + (() if bias is None else (bias,))
    out, probs = _attend(*(_affine(x.data, w, b) for w, b in projections), heads, None if bias is None else bias.data, index, pieced=not _records(inputs))

    def bwd(g):
        needs = [x.requires_grad or w.requires_grad or b.requires_grad for w, b in projections]
        bias_shape = None
        if bias is not None and bias.requires_grad:
            bias_shape = bias.shape if index is None else (bias.shape[1], *index.shape)
        gq, gk, gv, gbias = _attend_backward(g, probs, *(_reformed(x.data, w, b) for w, b in projections), heads, bias_shape, needs)
        if gbias is not None and index is not None:
            gbias = _table_grad(gbias, index, bias.shape)
        rows = x.data.reshape(-1, x.shape[-1])
        leaves = []
        for (w, b), gy in zip(projections, (gq, gk, gv)):
            g_rows = None if gy is None else gy.reshape(-1, w.shape[1])
            leaves += [rows.T @ g_rows if w.requires_grad else None, _unbroadcast(gy, b.shape) if b.requires_grad else None]
        dx = None
        if x.requires_grad:  # summed as a tape of the composed ops adds them: v, k, q
            dx = np.empty_like(x.data)
            dx_rows = dx.reshape(rows.shape)
            np.matmul(gv.reshape(-1, wv.shape[1]), wv.data.T, out=dx_rows)
            dx_rows += gk.reshape(-1, wk.shape[1]) @ wk.data.T
            dx_rows += gq.reshape(-1, wq.shape[1]) @ wq.data.T
        return (dx, *leaves, gbias)[: len(inputs)]

    return record_op(DiffArray(out), inputs, bwd)


def _gelu_tanh(xs: np.ndarray, t: np.ndarray) -> None:
    """t = tanh(√(2/π)(x + c·x³)) over one piece xs."""
    np.multiply(xs, xs, out=t)
    t *= _GELU_C
    t *= xs
    t += xs
    t *= _SQRT_2_OVER_PI
    np.tanh(t, out=t)


def _gelu_into(flat: np.ndarray, oflat: np.ndarray) -> None:
    """0.5x(1 + t) of the flat array into oflat, which may be flat itself:
    each piece's tanh term is formed before its x is overwritten."""
    scratch = np.empty(min(flat.size, CHUNK))
    for s in _pieces(flat.size, 1):
        xs, o = flat[s], oflat[s]
        t = scratch[: xs.size]
        _gelu_tanh(xs, t)
        t += 1.0
        np.multiply(xs, 0.5, out=o)
        o *= t


def _gelu_slope(xs: np.ndarray, t: np.ndarray, u: np.ndarray, o: np.ndarray, value: np.ndarray | None = None) -> None:
    """GELU'(x) = 0.5(1 + t) + 0.5x(1 - t²)·du over one piece into o, with
    t = tanh(√(2/π)(x + c·x³)) and du = √(2/π)(1 + 3c·x²), through the
    scratch rows t and u. With `value`, GELU(x) goes into it from the same
    tanh, in the expressions of `_gelu_into`."""
    _gelu_tanh(xs, t)
    np.multiply(t, t, out=u)
    np.subtract(1.0, u, out=u)
    t += 1.0
    if value is not None:
        np.multiply(xs, 0.5, out=value)
        value *= t
    t *= 0.5
    np.multiply(xs, 0.5, out=o)
    o *= u
    np.multiply(xs, xs, out=u)
    u *= 3.0 * _GELU_C
    u += 1.0
    u *= _SQRT_2_OVER_PI
    o *= u
    o += t


def gelu(x: DiffArray) -> DiffArray:
    """tanh-form GELU, piece by piece into one new array; the backward
    recomputes x² and the tanh from x, piece by piece into the gradient."""
    xd = x.data
    out = np.empty_like(xd)
    flat = xd.reshape(-1)
    _gelu_into(flat, out.reshape(-1))

    def bwd(g):
        # pieces of half a CHUNK, so that the two scratch rows fill one piece
        dx = np.empty_like(xd)
        gflat, dflat = g.reshape(-1), dx.reshape(-1)
        scratch = np.empty((2, min(flat.size, CHUNK // 2)))
        for s in _pieces(flat.size, 2):
            xs, o = flat[s], dflat[s]
            t, u = scratch[:, : xs.size]
            _gelu_slope(xs, t, u, o)
            o *= gflat[s]
        return (dx,)

    return record_op(DiffArray(out), (x,), bwd)


def feed_forward(x: DiffArray, w1: DiffArray, b1: DiffArray, w2: DiffArray) -> DiffArray:
    """gelu(x·w1 + b1)·w2, a feed-forward layer but for its second bias, as
    one op whose tape record keeps only x and the leaves.

    Both products go through the counted `matmul`, b1 added into the first
    in place. GELU is written into fc1's product h, and h is dropped once
    `matmul` has formed the output, so the layer keeps no hidden-width
    buffer, on the tape or off it. The backward forms h again with the
    same expressions, so with the same bits, and forms g·w2ᵀ into h's
    gradient. It walks that gradient in pieces, taking each piece's tanh
    once to scale it by GELU'(h) and, when w2 needs a gradient, to write
    GELU(h) over h for the weight product GELU(h)ᵀ·g. Last comes fc1's
    backward: b1's gradient summed as `add`'s backward sums it, w1's xᵀ·gh
    and x's gh·w1ᵀ. These are the composed ops' expressions in their order,
    so output and gradients are bitwise theirs.
    """
    _weights(w1, w2)
    h = _affine(x.data, w1, b1)
    _gelu_into(h.reshape(-1), h.reshape(-1))
    out = matmul(DiffArray(h), DiffArray(w2.data))  # constants: counted, not recorded
    del h
    d_h, d_out = w2.shape

    def bwd(g):
        g_rows = g.reshape(-1, d_out)
        h = _reformed(x.data, w1, b1)
        flat = h.reshape(-1)
        gh = None
        if x.requires_grad or w1.requires_grad or b1.requires_grad:
            # pieces of a quarter of a CHUNK, so that the four scratch rows
            # (t, u, the slope and the piece of h that GELU overwrites) fill one
            gh = np.empty_like(h)
            np.matmul(g_rows, w2.data.T, out=gh.reshape(-1, d_h))
            gflat = gh.reshape(-1)
            scratch = np.empty((4, min(flat.size, CHUNK // 4)))
            for s in _pieces(flat.size, 4):
                t, u, slope, hs = scratch[:, : flat[s].size]
                hs[...] = flat[s]
                _gelu_slope(hs, t, u, slope, flat[s] if w2.requires_grad else None)
                gflat[s] *= slope
        elif w2.requires_grad:
            _gelu_into(flat, flat)
        dw2 = h.reshape(-1, d_h).T @ g_rows if w2.requires_grad else None
        del h
        if gh is None:
            return None, None, None, dw2
        gh_rows = gh.reshape(-1, d_h)
        rows = x.data.reshape(-1, x.shape[-1])
        dx = None
        if x.requires_grad:
            dx = np.empty_like(x.data)
            np.matmul(gh_rows, w1.data.T, out=dx.reshape(rows.shape))
        dw1 = rows.T @ gh_rows if w1.requires_grad else None
        return dx, dw1, _unbroadcast(gh, b1.shape) if b1.requires_grad else None, dw2

    return record_op(out, (x, w1, b1, w2), bwd)


def _normalize(xs: np.ndarray, o: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """x̂ = (x - mean)/√(var + 1e-12) of the rows xs into o, through the
    first len(xs) rows of scratch; returns the rows' 1/√(var + 1e-12)."""
    sq = scratch[: len(xs)]
    np.subtract(xs, xs.mean(axis=-1, keepdims=True), out=o)
    np.multiply(o, o, out=sq)
    inv = sq.mean(axis=-1, keepdims=True)
    inv += 1e-12
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    o *= inv
    return inv


def layernorm(x: DiffArray, gain: DiffArray, bias: DiffArray) -> DiffArray:
    """Normalize the last axis to zero mean / unit variance, then affine.

    The variance floor of 1e-12 keeps normalized rows within 1e-9 of unit
    variance at float64 while still guarding constant rows. The forward
    works whole rows at a time into one new array; the backward recomputes
    the normalized rows from x in the same pieces.
    """
    gain, bias = as_diff(gain), as_diff(bias)
    d = x.shape[-1]
    out = np.empty_like(x.data)
    rows, orows = x.data.reshape(-1, d), out.reshape(-1, d)
    g1, b1 = gain.data.reshape(-1), bias.data.reshape(-1)
    pieces = _pieces(len(rows), d)
    scratch = np.empty_like(rows[pieces[0]]) if pieces else None
    for s in pieces:
        o = orows[s]
        _normalize(rows[s], o, scratch)
        o *= g1
        o += b1

    def bwd(g):
        # dx = inv·(dx̂ - mean(dx̂) - x̂·mean(dx̂·x̂)) with dx̂ = g·gain; g·x̂ is
        # kept whole for dgain, whose sums then run as over one product.
        dx, gxhat = np.empty_like(x.data), np.empty_like(x.data)
        grows, drows, gxrows = g.reshape(-1, d), dx.reshape(-1, d), gxhat.reshape(-1, d)
        scratch = np.empty_like(rows[pieces[0]]) if pieces else None
        for s in pieces:
            gs, o, gx = grows[s], drows[s], gxrows[s]
            inv = _normalize(rows[s], o, scratch)
            dxh = scratch[: len(o)]
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


def l2_normalize(x: DiffArray) -> DiffArray:
    """Scale rows (last axis) to unit L2 norm. The squared norm's floor of
    1e-24 sends an all-zero row to zeros, with a finite gradient."""
    n = np.sqrt((x.data * x.data).sum(axis=-1, keepdims=True) + 1e-24)
    y = x.data / n
    out = DiffArray(y)

    def bwd(g):
        dot = (g * x.data).sum(axis=-1, keepdims=True)
        return (g / n - x.data * dot / n**3,)

    return record_op(out, (x,), bwd)


# ---------------------------------------------------------------------------
# indexing
# ---------------------------------------------------------------------------


def _indices(indices, n: int, op: str) -> np.ndarray:
    """indices as int64, each in [0, n): none wraps."""
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size and (indices.min() < 0 or indices.max() >= n):
        raise ShapeError(f"{op} indices out of range [0, {n})")
    return indices


def take(x: DiffArray, indices: np.ndarray, axis: int = 0) -> DiffArray:
    """Select positions along one axis, table lookups included; duplicates
    accumulate in backward. Every index must lie in [0, n): none wraps."""
    indices = _indices(indices, x.shape[axis], "take")
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
