"""Engine contracts: op semantics, finite-difference gradients, tape rules."""

import math
import tracemalloc
import weakref

import numpy as np
import pytest

from longvid.attention import _table_bias, relative_index_map
from longvid.engine import (
    DiffArray,
    EngineError,
    ShapeError,
    Tape,
    add,
    backward,
    check_gradients,
    concat,
    constant,
    count_multiply_adds,
    cross_entropy_logits,
    feed_forward,
    gelu,
    l2_normalize,
    layernorm,
    matmul,
    maxpool2d,
    mean,
    mul,
    numeric_gradient,
    parameter,
    qkv_attention,
    record_op,
    scale,
    softmax,
    sub,
    sum as asum,
    take,
    transpose,
)
from longvid.engine import ops
from longvid.engine.ops import _GELU_C, _SQRT_2_OVER_PI, CHUNK, _pieces, _records, _unbroadcast, as_diff

SEEDS = range(10)


def rand(rng, *shape):
    return parameter(rng.normal(size=shape))


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------


def test_matmul_identity():
    eye = constant(np.eye(2))
    b = constant([[5.0, 6.0], [7.0, 8.0]])
    assert np.array_equal(matmul(eye, b).data, b.data)


def test_matmul_hand_computed():
    out = matmul(constant([[1.0, 2.0]]), constant([[3.0], [4.0]]))
    assert out.data.tolist() == [[11.0]]


def test_matmul_shape_mismatch_reports_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
        matmul(constant(np.ones((2, 3))), constant(np.ones((2, 2))))


@pytest.mark.parametrize("seed", SEEDS)
def test_matmul_gradient(seed):
    rng = np.random.default_rng(seed)
    a, b = rand(rng, 4, 3), rand(rng, 3, 2)
    res = check_gradients(lambda a, b: asum(matmul(a, b)), [a, b])
    assert res.ok and res.max_abs_diff < 1e-6


@pytest.mark.parametrize("seed", range(3))
def test_matmul_batched_gradient(seed):
    rng = np.random.default_rng(seed)
    a, b = rand(rng, 2, 3, 4, 3), rand(rng, 3, 5)
    c = constant(rng.normal(size=(2, 3, 4, 5)))
    res = check_gradients(lambda a, b: asum(mul(matmul(a, b), c)), [a, b])
    assert res.ok


@pytest.mark.parametrize("a_shape", [(3, 4, 2, 2, 5), (3, 4, 5)])
def test_matmul_against_weight_matches_batched_reference(a_shape):
    rng = np.random.default_rng(7)
    a, w = rand(rng, *a_shape), rand(rng, 5, 6)
    c = rng.normal(size=a_shape[:-1] + (6,))
    with Tape() as t:
        with count_multiply_adds() as counter:
            out = matmul(a, w)
        t.backward(asum(mul(out, constant(c))))
    assert counter.multiply_adds == out.size * 5
    lead = tuple(range(len(a_shape) - 2))
    ref_out = np.matmul(a.data, w.data)
    ref_ga = np.matmul(c, w.data.T)
    ref_gw = np.matmul(np.swapaxes(a.data, -1, -2), c).sum(axis=lead)
    for got, ref in ((out.data, ref_out), (a.grad, ref_ga), (w.grad, ref_gw)):
        assert got.shape == ref.shape
        assert np.allclose(got, ref, rtol=1e-12, atol=0.0)


def test_matmul_against_weight_finite_differences():
    rng = np.random.default_rng(8)
    a, w = rand(rng, 3, 4, 2, 2, 5), rand(rng, 5, 6)
    c = constant(rng.normal(size=(3, 4, 2, 2, 6)))
    res = check_gradients(lambda a, w: asum(mul(matmul(a, w), c)), [a, w])
    assert res.ok and res.checked == a.size + w.size


@pytest.mark.parametrize("shapes", [((3, 4, 5), (5, 6)), ((3, 4, 5), (3, 5, 6))])
def test_matmul_backward_skips_the_constant_operand(shapes):
    # the input gradient of a constant is never formed, on either branch
    rng = np.random.default_rng(9)
    x, w = rng.normal(size=shapes[0]), rng.normal(size=shapes[1])
    g = rng.normal(size=np.matmul(x, w).shape)
    with Tape() as t:
        matmul(constant(x), parameter(w))
        matmul(parameter(x), constant(w))
    ga, gw = t.ops[0].backward_fn(g)
    assert ga is None and gw.shape == w.shape
    ga, gw = t.ops[1].backward_fn(g)
    assert gw is None and ga.shape == x.shape


# ---------------------------------------------------------------------------
# softmax
# ---------------------------------------------------------------------------


def test_softmax_symmetry():
    out = softmax(constant([0.0, 0.0, 0.0]), axis=-1)
    assert np.allclose(out.data, 1.0 / 3.0)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    out = softmax(constant(rng.normal(size=(7, 11)) * 30), axis=-1)
    assert np.abs(out.data.sum(axis=-1) - 1.0).max() < 1e-12


def test_softmax_overflow_stability():
    out = softmax(constant([1000.0, 0.0]), axis=-1)
    assert np.isfinite(out.data).all()
    assert out.data[0] == pytest.approx(1.0)
    assert out.data[1] == pytest.approx(0.0, abs=1e-300)


@pytest.mark.parametrize("seed", SEEDS)
def test_softmax_gradient(seed):
    rng = np.random.default_rng(seed)
    x = rand(rng, 2, 5)
    c = constant(rng.normal(size=(2, 5)))
    res = check_gradients(lambda x: asum(mul(softmax(x, -1), c)), [x])
    assert res.ok and res.max_abs_diff < 1e-6


# ---------------------------------------------------------------------------
# layernorm
# ---------------------------------------------------------------------------


def test_layernorm_constant_row_is_zero():
    out = layernorm(constant([[5.0, 5.0, 5.0]]), constant(np.ones(3)), constant(np.zeros(3)))
    assert np.allclose(out.data, 0.0)


def test_layernorm_standardizes():
    out = layernorm(constant([[1.0, 2.0, 3.0]]), constant(np.ones(3)), constant(np.zeros(3)))
    assert abs(out.data.mean()) < 1e-9
    assert abs(out.data.var() - 1.0) < 1e-9


@pytest.mark.parametrize("seed", SEEDS)
def test_layernorm_gradient(seed):
    rng = np.random.default_rng(seed)
    x, g, b = rand(rng, 3, 6), rand(rng, 6), rand(rng, 6)
    c = constant(rng.normal(size=(3, 6)))
    res = check_gradients(lambda x, g, b: asum(mul(layernorm(x, g, b), c)), [x, g, b], rtol=1e-3, atol=1e-5)
    assert res.ok and res.max_abs_diff < 1e-5


# ---------------------------------------------------------------------------
# backward / tape
# ---------------------------------------------------------------------------


def test_backward_sum_gives_ones():
    x = parameter(np.arange(12.0).reshape(3, 4))
    with Tape():
        backward(asum(x))
    assert np.array_equal(x.grad, np.ones((3, 4)))


def test_backward_quadratic():
    x = parameter(np.array([1.0, -2.0, 3.0]))
    with Tape():
        backward(asum(mul(x, x)))
    assert np.allclose(x.grad, 2 * x.data)


def test_backward_rejects_non_scalar():
    x = parameter(np.ones((2, 2)))
    with Tape() as t:
        y = mul(x, x)
        with pytest.raises(EngineError, match="scalar"):
            t.backward(y)


def test_backward_requires_tape():
    x = parameter(np.ones(3))
    loss = asum(x)  # no tape active
    with pytest.raises(EngineError):
        backward(loss)


def test_numeric_gradient_perturbs_only_the_given_entries():
    x = parameter(np.array([1.0, 2.0, 3.0]))
    evals = []

    def f(x):
        evals.append(x.data.copy())
        return asum(mul(x, x))

    g = numeric_gradient(f, [x], 0, entries=[2, 0])
    assert len(evals) == 4
    assert all(e[1] == 2.0 for e in evals)
    assert g[1] == 0.0
    assert g[0] == pytest.approx(2.0) and g[2] == pytest.approx(6.0)
    assert np.array_equal(x.data, [1.0, 2.0, 3.0])


def test_check_gradients_differences_the_per_array_numeric_loss():
    a, b = parameter(np.array([1.0, -2.0])), parameter(np.array([0.5, 3.0]))

    def f(a, b):
        return asum(mul(a, b))

    def wrong(a, b):
        return asum(mul(scale(a, 1.5), b))

    # array 1 is differenced through a loss that is not f: only its entries mismatch
    res = check_gradients(f, [a, b], numeric_loss=lambda k: f if k == 0 else wrong)
    assert not res.ok
    assert [(m.array_index, m.flat_index) for m in res.mismatches] == [(1, 0), (1, 1)]


def test_fanout_accumulates_additively():
    x = parameter(np.array([3.0]))
    with Tape():
        y = add(x, x)  # dy/dx = 2
        backward(asum(y))
    assert np.allclose(x.grad, 2.0)


def test_gradients_of_one_op_never_alias():
    rng = np.random.default_rng(0)
    x, y = rand(rng, 3, 4), rand(rng, 3, 4)
    with Tape():
        backward(asum(add(x, y)))
    assert x.grad is not y.grad
    y_before = y.grad.copy()
    x.grad += 5.0
    assert np.array_equal(y.grad, y_before)


def test_fanout_gradient_is_exactly_twice_single_use():
    rng = np.random.default_rng(1)
    c = constant(rng.normal(size=(3, 4)))
    x = rand(rng, 3, 4)
    with Tape():
        backward(asum(mul(x, c)))
    single = x.grad.copy()
    x.zero_grad()
    with Tape():
        backward(asum(mul(add(x, x), c)))
    assert np.array_equal(x.grad, 2.0 * single)


def test_tape_replays_each_op_exactly_once():
    rng = np.random.default_rng(0)
    x = rand(rng, 4, 4)
    with Tape() as t:
        y = asum(gelu(matmul(x, x)))
        t.backward(y)
    assert t.replayed_ops == len(t.ops)
    assert all(op.replays == 1 for op in t.ops)


def test_grad_buffers_only_where_required():
    x = parameter(np.ones(3))
    c = constant(np.ones(3))
    with Tape():
        y = mul(x, c)
        backward(asum(y))
    assert x.grad is not None
    assert c.grad is None


def test_backward_releases_intermediate_gradients_and_keeps_leaves_and_loss():
    rng = np.random.default_rng(0)
    x, w = rand(rng, 3, 4), rand(rng, 4, 2)
    c = constant(rng.normal(size=(3, 2)))
    with Tape() as tape:
        loss = asum(mul(gelu(matmul(x, w)), c))
        tape.backward(loss)
    assert [op.output.grad is None for op in tape.ops] == [True] * (len(tape.ops) - 1) + [False]
    assert tape.ops[-1].output is loss and loss.grad.tolist() == [1.0]
    assert x.grad is not None and w.grad is not None


def test_an_input_never_keeps_the_gradient_its_op_was_handed():
    x = parameter(np.array([3.0]))
    with Tape() as tape:
        loss = record_op(DiffArray(x.data.copy()), (x,), lambda g: (g,))
        tape.backward(loss)
    assert x.grad is not loss.grad and np.array_equal(x.grad, [1.0])


def test_a_fresh_first_gradient_is_kept_without_a_copy():
    x, y = parameter(np.ones((2, 3))), parameter(np.ones((2, 3)))
    returned = {}

    def bwd(g):
        returned["fresh"], returned["view"] = g * 2.0, (g * 3.0).reshape(3, 2).reshape(2, 3)
        return returned["fresh"], returned["view"]

    with Tape() as tape:
        tape.backward(asum(record_op(DiffArray(x.data + y.data), (x, y), bwd)))
    assert x.grad is returned["fresh"]
    assert y.grad is not returned["view"] and not np.shares_memory(y.grad, returned["view"])
    assert np.array_equal(y.grad, np.full((2, 3), 3.0))


def test_a_gradient_returned_twice_is_copied():
    x, y = parameter(np.ones(4)), parameter(np.ones(4))
    with Tape() as tape:
        twice = np.full(4, 2.0)
        tape.backward(asum(record_op(DiffArray(x.data + y.data), (x, y), lambda g: (twice, twice))))
    assert x.grad is not twice and y.grad is not twice and x.grad is not y.grad
    assert np.array_equal(x.grad, twice) and np.array_equal(y.grad, twice)


@pytest.mark.parametrize("seed", range(3))
def test_three_layer_network_full_gradient(seed):
    rng = np.random.default_rng(seed)
    w1, b1 = rand(rng, 5, 7), rand(rng, 7)
    w2, b2 = rand(rng, 7, 4), rand(rng, 4)
    w3 = rand(rng, 4, 1)
    x = constant(rng.normal(size=(3, 5)))

    def f(w1, b1, w2, b2, w3):
        h = gelu(add(matmul(x, w1), b1))
        h = gelu(add(matmul(h, w2), b2))
        return asum(matmul(h, w3))

    res = check_gradients(f, [w1, b1, w2, b2, w3], rtol=1e-3)
    assert res.ok


def test_determinism_bit_identical():
    def run():
        rng = np.random.default_rng(123)
        w = parameter(rng.normal(size=(6, 6)))
        x = constant(rng.normal(size=(4, 6)))
        with Tape():
            loss = asum(softmax(matmul(x, w), -1))
            backward(loss)
        return loss.data.copy(), w.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert l1.tobytes() == l2.tobytes()
    assert g1.tobytes() == g2.tobytes()


# ---------------------------------------------------------------------------
# remaining primitives, each with a finite-difference check
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_add_mul_scale_gradients(seed):
    rng = np.random.default_rng(seed)
    a, b = rand(rng, 3, 4), rand(rng, 4)  # broadcast on purpose
    res = check_gradients(lambda a, b: asum(scale(mul(add(a, b), sub(a, b)), 0.7)), [a, b])
    assert res.ok


@pytest.mark.parametrize("seed", SEEDS)
def test_concat_split_gradients(seed):
    rng = np.random.default_rng(seed)
    x = rand(rng, 5, 3)
    c = constant(rng.normal(size=(5, 3)))

    def f(x):
        parts = take(x, np.arange(2), axis=0), take(x, np.arange(2, 5), axis=0)
        back = concat([scale(parts[0], 2.0), parts[1]], axis=0)
        return asum(mul(back, c))

    res = check_gradients(f, [x])
    assert res.ok


@pytest.mark.parametrize("seed", SEEDS)
def test_reductions_gradients(seed):
    rng = np.random.default_rng(seed)
    x = rand(rng, 3, 4, 2)
    c = constant(rng.normal(size=(3, 2)))
    res = check_gradients(lambda x: asum(mul(mean(x, axis=1), c)), [x])
    assert res.ok
    res = check_gradients(lambda x: mean(x), [x])
    assert res.ok


@pytest.mark.parametrize("seed", SEEDS)
def test_embedding_gradient(seed):
    rng = np.random.default_rng(seed)
    table = rand(rng, 9, 4)
    ids = rng.integers(0, 9, size=(3, 5))
    c = constant(rng.normal(size=(3, 5, 4)))
    res = check_gradients(lambda t: asum(mul(take(t, ids), c)), [table])
    assert res.ok


def test_embedding_duplicate_ids_accumulate():
    table = parameter(np.zeros((4, 2)))
    ids = np.array([1, 1, 1])
    with Tape():
        backward(asum(take(table, ids)))
    assert np.allclose(table.grad[1], 3.0)
    assert np.allclose(table.grad[0], 0.0)


def test_embedding_rejects_out_of_range():
    with pytest.raises(ShapeError):
        take(constant(np.zeros((4, 2))), np.array([4]))


@pytest.mark.parametrize("seed", SEEDS)
def test_take_gradient(seed):
    rng = np.random.default_rng(seed)
    x = rand(rng, 6, 3)
    idx = rng.integers(0, 6, size=4)
    c = constant(rng.normal(size=(4, 3)))
    res = check_gradients(lambda x: asum(mul(take(x, idx, axis=0), c)), [x])
    assert res.ok


@pytest.mark.parametrize(
    "shape, idx_shape, axis",
    [((3, 5, 2), (4, 6), 1), ((4, 5), (4, 4), 1), ((2, 3, 5), (2, 2), -1)],
)
def test_take_gradient_multi_dim_indices(shape, idx_shape, axis):
    rng = np.random.default_rng(0)
    x = rand(rng, *shape)
    idx = rng.integers(0, shape[axis], size=idx_shape)
    c = constant(rng.normal(size=np.take(x.data, idx, axis=axis).shape))
    res = check_gradients(lambda x: asum(mul(take(x, idx, axis=axis), c)), [x])
    assert res.ok


def test_take_rejects_negative_index():
    with pytest.raises(ShapeError):
        take(constant(np.zeros((2, 4))), np.array([[0, -1]]), axis=1)


@pytest.mark.parametrize("seed", SEEDS)
def test_transpose_reshape_gradients(seed):
    rng = np.random.default_rng(seed)
    x = rand(rng, 2, 3, 4)
    c = constant(rng.normal(size=(4, 2, 3)))
    res = check_gradients(lambda x: asum(mul(transpose(x, (2, 0, 1)), c)), [x])
    assert res.ok
    c2 = constant(rng.normal(size=(6, 4)))
    res = check_gradients(lambda x: asum(mul(x.reshape((6, 4)), c2)), [x])
    assert res.ok


@pytest.mark.parametrize("seed", SEEDS)
def test_l2_normalize_gradient_and_unit_norm(seed):
    rng = np.random.default_rng(seed)
    x = rand(rng, 3, 5)
    c = constant(rng.normal(size=(3, 5)))
    out = l2_normalize(x)
    assert np.abs(np.linalg.norm(out.data, axis=-1) - 1.0).max() < 1e-9
    res = check_gradients(lambda x: asum(mul(l2_normalize(x), c)), [x])
    assert res.ok


def test_l2_normalize_of_a_zero_row_is_zeros_with_a_finite_gradient():
    x = parameter(np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 4.0]]))
    g = np.random.default_rng(0).normal(size=x.shape)
    with Tape() as tape:
        out = l2_normalize(x)
    (dx,) = tape.ops[-1].backward_fn(g)
    assert out.data[0].tolist() == [0.0, 0.0, 0.0]
    assert out.data[1].tolist() == pytest.approx([0.6, 0.0, 0.8], rel=1e-15)
    assert np.isfinite(dx).all()
    # at a zero row the norm is the floor's root and x·g is 0
    assert dx[0].tobytes() == (g[0] / np.sqrt(1e-24)).tobytes()


@pytest.mark.parametrize("seed", SEEDS)
def test_maxpool_gradient(seed):
    rng = np.random.default_rng(seed)
    x = rand(rng, 2, 5, 6, 3)
    c = constant(rng.normal(size=(2, 4, 4, 3)))
    res = check_gradients(lambda x: asum(mul(maxpool2d(x, (2, 3), (1, 1)), c)), [x])
    assert res.ok


def test_maxpool_values():
    x = constant(np.arange(16.0).reshape(1, 4, 4, 1))
    out = maxpool2d(x, (2, 2), (2, 2))
    assert out.data.reshape(2, 2).tolist() == [[5.0, 7.0], [13.0, 15.0]]


@pytest.mark.parametrize("seed", SEEDS)
def test_cross_entropy_gradient(seed):
    rng = np.random.default_rng(seed)
    logits = rand(rng, 4, 7)
    labels = rng.integers(0, 7, size=4)
    res = check_gradients(lambda l: cross_entropy_logits(l, labels), [logits])
    assert res.ok


@pytest.mark.parametrize("seed", SEEDS)
def test_batched_cross_entropy_gradient(seed):
    rng = np.random.default_rng(seed)
    logits = rand(rng, 3, 4, 7)
    labels = rng.integers(0, 7, size=(3, 4))
    weights = constant(rng.normal(size=3))
    res = check_gradients(lambda l: asum(mul(cross_entropy_logits(l, labels), weights)), [logits])
    assert res.ok


def test_batched_cross_entropy_slices_equal_the_2d_call():
    rng = np.random.default_rng(0)
    logits = rand(rng, 5, 4, 7)
    labels = rng.integers(0, 7, size=(5, 4))
    weights = rng.normal(size=5)
    with Tape() as tape:
        batched = cross_entropy_logits(logits, labels)
        tape.backward(asum(mul(batched, constant(weights))))
    assert batched.shape == (5,)
    for b in range(5):
        piece = parameter(logits.data[b].copy())
        with Tape() as tape:
            one = cross_entropy_logits(piece, labels[b])
            tape.backward(scale(one, weights[b]))
        assert one.data.tobytes() == batched.data[b : b + 1].tobytes()
        assert piece.grad.tobytes() == logits.grad[b].tobytes()


@pytest.mark.parametrize("shape", [(7,), (2, 3, 4, 7)])
def test_cross_entropy_shape_error_names_both_layouts(shape):
    with pytest.raises(ShapeError, match=r"\(n, classes\) or \(B, n, classes\)"):
        cross_entropy_logits(constant(np.zeros(shape)), np.zeros(shape[:-1], dtype=np.int64))


def test_cross_entropy_uniform_value():
    logits = constant(np.zeros((3, 256)))
    out = cross_entropy_logits(logits, np.array([0, 10, 255]))
    assert out.item() == pytest.approx(np.log(256.0), rel=1e-12)


@pytest.mark.parametrize("seed", SEEDS)
def test_gelu_gradient(seed):
    rng = np.random.default_rng(seed)
    x = rand(rng, 4, 3)
    res = check_gradients(lambda x: asum(gelu(x)), [x])
    assert res.ok


def test_diffarray_invariants():
    x = DiffArray(np.arange(6.0).reshape(2, 3))
    assert int(np.prod(x.shape)) == x.data.size
    assert x.grad is None
    x._accumulate(np.ones((2, 3)))
    assert x.grad.shape == x.data.shape


# ---------------------------------------------------------------------------
# the untaped forward: bitwise the recorded op, at piece boundaries
# ---------------------------------------------------------------------------


def assert_untaped_equals_taped(op, *arrays):
    """op on the arrays as parameters under a tape, and as constants with no
    tape: the same bytes, the same multiply-adds, and the inputs untouched."""
    before = [a.tobytes() for a in arrays]
    with count_multiply_adds() as taped_count, Tape() as tape:
        taped = op(*(parameter(a) for a in arrays))
    assert len(tape) == 1
    with count_multiply_adds() as untaped_count:
        untaped = op(*(constant(a) for a in arrays))
    assert untaped.data.tobytes() == taped.data.tobytes()
    assert untaped_count.multiply_adds == taped_count.multiply_adds
    assert [a.tobytes() for a in arrays] == before


GELU_SHAPES = [(7, 300), (CHUNK,), (CHUNK // 64, 64), (CHUNK + 1,), (3, CHUNK // 3 + 5)]


@pytest.mark.parametrize("shape", GELU_SHAPES)
def test_untaped_gelu_is_bitwise_the_taped_op(shape):
    x = np.random.default_rng(0).normal(scale=3.0, size=shape)
    assert_untaped_equals_taped(gelu, x)


# ---------------------------------------------------------------------------
# feed_forward: bitwise the composed linear, gelu and matmul
# ---------------------------------------------------------------------------


def composed_feed_forward(x, w1, b1, w2):
    """fc1 as `params.linear` applies it, then `gelu` and `matmul`."""
    h = matmul(x, w1)
    return matmul(gelu(add(h, b1, out=h)), w2)


# x's shape, the hidden width and the output width: hidden buffers of
# several pieces, one row and rows wider than a CHUNK
FEED_FORWARD_SHAPES = {
    "several-pieces": ((3, 16), CHUNK // 3 + 5, 7),
    "3-d": ((2, CHUNK // 96 + 1, 12), 48, 16),
    "one-row": ((1, 8), 40, 5),
    "rows-wider-than-a-chunk": ((2, 4), CHUNK + 3, 3),
}

# which of x, w1, b1 and w2 need a gradient
NEEDS = {"all": (1, 1, 1, 1), "x": (1, 0, 0, 0), "weights": (0, 1, 1, 1), "w2": (0, 0, 0, 1), "fc1": (0, 1, 1, 0)}


def feed_forward_arrays(rng, shape, d_h, d_out):
    d_in = shape[-1]
    return [rng.normal(size=shape), rng.normal(size=(d_in, d_h)) / 2, rng.normal(size=d_h), rng.normal(size=(d_h, d_out))]


@pytest.mark.parametrize("needs", NEEDS.values(), ids=NEEDS)
@pytest.mark.parametrize("shape, d_h, d_out", FEED_FORWARD_SHAPES.values(), ids=FEED_FORWARD_SHAPES)
def test_feed_forward_is_bitwise_the_composed_ops(shape, d_h, d_out, needs):
    """Output, multiply-adds and each gradient of a taped feed_forward
    against linear, gelu and matmul, with every subset of inputs in NEEDS
    needing a gradient; the op records once and leaves its inputs as they
    were, and each gradient it returns is a new C-contiguous buffer that
    `Tape.backward` keeps without a copy."""
    rng = np.random.default_rng(11)
    arrays = feed_forward_arrays(rng, shape, d_h, d_out)
    g = constant(rng.normal(size=(*shape[:-1], d_out)))
    results, recorded = [], []
    for op in (feed_forward, composed_feed_forward):
        inputs = [(parameter if need else constant)(a.copy()) for a, need in zip(arrays, needs)]
        with count_multiply_adds() as count, Tape() as tape:
            y = op(*inputs)
            recorded.append(len(tape))
            tape.backward(asum(mul(y, g)))
        assert [a.data.tobytes() for a in inputs] == [a.tobytes() for a in arrays]
        results.append([y.data.tobytes(), count.multiply_adds] + [a.grad.tobytes() for a in inputs if a.requires_grad])
    assert recorded[0] == 1
    assert results[0] == results[1]
    with Tape() as tape:
        feed_forward(*[(parameter if need else constant)(a) for a, need in zip(arrays, needs)])
    grads = tape.ops[-1].backward_fn(g.data)
    assert all(gi.flags.c_contiguous and gi.flags.owndata for gi in grads if gi is not None)


@pytest.mark.parametrize("seed", range(3))
def test_feed_forward_gradient(seed):
    rng = np.random.default_rng(seed)
    x, w1, b1, w2 = rand(rng, 4, 3), rand(rng, 3, 6), rand(rng, 6), rand(rng, 6, 5)
    c = constant(rng.normal(size=(4, 5)))
    res = check_gradients(lambda x, w1, b1, w2: asum(mul(feed_forward(x, w1, b1, w2), c)), [x, w1, b1, w2])
    assert res.ok


@pytest.mark.parametrize("shape, d_h, d_out", FEED_FORWARD_SHAPES.values(), ids=FEED_FORWARD_SHAPES)
def test_untaped_feed_forward_is_the_taped_op(shape, d_h, d_out):
    arrays = feed_forward_arrays(np.random.default_rng(12), shape, d_h, d_out)
    assert_untaped_equals_taped(feed_forward, *arrays)


def test_layer_ops_need_2d_weights():
    x, w = constant(np.ones((2, 3, 4))), constant(np.ones((4, 4)))
    with pytest.raises(ShapeError, match=r"needs 2-d weights, got \(4, 4\), \(2, 4, 5\)"):
        feed_forward(x, w, constant(np.zeros(4)), constant(np.ones((2, 4, 5))))
    with pytest.raises(ShapeError, match="needs 2-d weights"):
        qkv_attention(x, w, w, constant(np.ones((1, 4, 4))), w, w, w, 2)


@pytest.mark.parametrize(
    "shape",
    [(5, 16), (CHUNK // 64, 64), (CHUNK // 3 + 1, 3), (2, CHUNK // 96 + 1, 48), (3, CHUNK + 1)],
    ids=["below", "one-chunk", "chunk-plus-a-row", "3-d", "rows-wider-than-a-chunk"],
)
def test_untaped_layernorm_is_bitwise_the_taped_op(shape):
    rng = np.random.default_rng(1)
    d = shape[-1]
    x = rng.normal(loc=2.0, size=shape)
    assert_untaped_equals_taped(layernorm, x, rng.normal(size=d), rng.normal(size=d))


@pytest.mark.parametrize(
    "qshape, bias_shape, learned",
    [
        ((2, 700, 4, 8), (2, 4, 4), True),  # 1,400 windows of 4 tokens: two pieces
        ((150, 16, 8), (150, 1, 1, 16), False),  # 150 rows of 16 tokens: three pieces
        ((150, 16, 8), (150, 1, 16, 16), False),
        ((150, 16, 8), (1, 1, 16, 16), False),
        ((3, 5, 8), None, False),
        ((3, 16, 32, 8), (3, 16, 1, 1, 32), False),  # 48 sentences of 32 tokens, a key mask each: three pieces
    ],
)
def test_untaped_attention_is_bitwise_the_taped_op(qshape, bias_shape, learned):
    rng = np.random.default_rng(2)
    dim = qshape[-1]
    arrays = [rng.normal(size=qshape)] + [rng.normal(size=s) for s in [(dim, dim), (dim,)] * 3]
    if learned:
        assert_untaped_equals_taped(lambda *a: qkv_attention(*a[:7], 2, a[7]), *arrays, rng.normal(size=bias_shape))
        return
    mask = None
    if bias_shape is not None:
        mask = np.where(rng.random(bias_shape) < 0.3, -1e9, 0.0)
        mask[..., 0] = 0.0  # every query keeps one key
    assert_untaped_equals_taped(lambda *a: qkv_attention(*a, 2, mask), *arrays)


@pytest.mark.parametrize("heads", [0, -2])
def test_attention_rejects_a_head_count_below_one(heads):
    x, w, b = constant(np.zeros((2, 3, 4))), constant(np.zeros((4, 4))), constant(np.zeros(4))
    with pytest.raises(ShapeError) as e:
        qkv_attention(x, w, b, w, b, w, b, heads)
    assert str(e.value) == f"dim 4 not divisible by heads {heads}"


# ---------------------------------------------------------------------------
# the copying attention op: the reference the attention op is checked against
# ---------------------------------------------------------------------------


def copying_attention(q, k, v, heads, bias=None):
    """The attention op as it was before it split heads into views: per-head
    contiguous copies of q, kᵀ and v, kept by the backward."""
    dim = q.shape[-1]
    dh = dim // heads
    s = 1.0 / math.sqrt(dh)

    def heads_of(x, n_axis=-2):
        return np.ascontiguousarray(np.moveaxis(x.reshape(*x.shape[:-1], heads, dh), -3, n_axis))

    def joined(x, n_axis=-2):
        x = np.ascontiguousarray(np.moveaxis(x, n_axis, -3))
        return x.reshape(*x.shape[:-2], dim)

    if bias is not None:
        bias = as_diff(bias)
    inputs = (q, k, v) if bias is None else (q, k, v, bias)
    b = None if bias is None else bias.data
    n = q.shape[-2]
    out = np.empty(q.shape)
    views = (q.data, k.data, v.data, out)
    pieces = [...]
    if not _records(inputs):
        lead = q.shape[:-2]
        rows = math.prod(lead)
        views = tuple(x.reshape(rows, n, dim) for x in views)
        pieces = _pieces(rows, n * max(dim, heads * n))
        if b is not None:
            tail = (1, 1, 1, *b.shape)[-3:]
            b = np.broadcast_to(b, (*lead, *tail)).reshape(rows, *tail)
    qs, ks, vs, outs = views
    for p in pieces:
        qh, kt = heads_of(qs[p]), heads_of(ks[p], -1)
        probs = matmul(DiffArray(qh), DiffArray(kt)).data
        probs *= s
        if b is not None:
            probs += b[p]
        probs -= probs.max(axis=-1, keepdims=True)
        np.exp(probs, out=probs)
        probs /= probs.sum(axis=-1, keepdims=True)
        vh = heads_of(vs[p])
        context = matmul(DiffArray(probs), DiffArray(vh)).data
        outs[p].reshape(*context.shape[:-3], n, heads, dh)[...] = np.moveaxis(context, -3, -2)

    def bwd(g):
        g = heads_of(g)
        gp = np.matmul(g, np.swapaxes(vh, -1, -2))
        gv = joined(np.matmul(np.swapaxes(probs, -1, -2), g)) if v.requires_grad else None
        gp = probs * (gp - (gp * probs).sum(axis=-1, keepdims=True))
        gbias = _unbroadcast(gp, bias.shape) if bias is not None and bias.requires_grad else None
        gp = gp * s
        gq = joined(np.matmul(gp, np.swapaxes(kt, -1, -2))) if q.requires_grad else None
        gk = joined(np.matmul(np.swapaxes(qh, -1, -2), gp), -1) if k.requires_grad else None
        return (gq, gk, gv, gbias)[: len(inputs)]

    return record_op(DiffArray(out), inputs, bwd)


# ---------------------------------------------------------------------------
# qkv_attention: bitwise the composed projections and the copying op
# ---------------------------------------------------------------------------


def composed_qkv_attention(x, wq, bq, wk, bk, wv, bv, heads, bias=None, index=None):
    """Three `linear`s as `params.linear` applies them, then
    `copying_attention`; a table's bias is looked up first, in recorded ops,
    by `attention._table_bias`."""
    qkv = []
    for w, b in ((wq, bq), (wk, bk), (wv, bv)):
        y = matmul(x, w)
        qkv.append(add(y, b, out=y))
    return copying_attention(*qkv, heads, bias if index is None else _table_bias(as_diff(bias), index))


# the window of n tokens whose relative-position table a "table" bias is
TABLE_WINDOWS = {4: (2, 2, 1), 8: (2, 2, 2), 12: (3, 2, 2), 33: (3, 11, 1), 65: (5, 13, 1)}


def qkv_arrays(rng, lead, n, dim, heads, bias_kind):
    """x, the six leaves, the bias and its index: a relative (heads, n, n)
    bias, a (rows, heads) relative-position table with the index map of a
    window of n tokens, or an additive key mask over the leading shape."""
    arrays = [rng.normal(size=(*lead, n, dim))]
    for _ in range(3):
        arrays += [rng.normal(size=(dim, dim)) / math.sqrt(dim), rng.normal(size=dim)]
    if bias_kind == "relative":
        return arrays, rng.normal(size=(heads, n, n)), None
    if bias_kind == "table":
        window = TABLE_WINDOWS[n]
        return arrays, rng.normal(size=(math.prod(2 * w - 1 for w in window), heads)), relative_index_map(window)
    mask = np.where(rng.random((*lead, 1, 1, n)) < 0.3, -1e9, 0.0)
    mask[..., 0] = 0.0  # every query keeps one key
    return arrays, mask, None


def qkv_run(op, arrays, bias, index, heads, g, needs=(True,) * 8):
    """Output bytes, multiply-adds and the gradients of the arrays and of a
    relative bias or table (those that `needs`), after one taped backward
    of sum(op(...) * g); and the ops recorded before the loss. Key masks
    here are at least 4-d, relative biases 3-d and tables 2-d."""
    inputs = [(parameter if need else constant)(a.copy()) for a, need in zip(arrays, needs)]
    learned = bias.ndim < 4 and needs[7]
    b = parameter(bias.copy()) if learned else bias
    with count_multiply_adds() as count, Tape() as tape:
        y = op(*inputs, heads, b, index)
        recorded = len(tape)
        tape.backward(asum(mul(y, constant(g))))
    grads = [a.grad.tobytes() for a in inputs if a.requires_grad] + ([b.grad.tobytes()] if learned else [])
    assert [a.data.tobytes() for a in inputs] == [a.tobytes() for a in arrays]
    return [y.data.tobytes(), count.multiply_adds, *grads], recorded


def check_qkv_attention_against_composed(rng, lead, n, dim, heads, bias_kind):
    """Output, multiply-adds and the gradients of x, the six leaves and a
    learned bias or table, taped, against three linears and the copying op;
    the untaped op against the taped one. The op records once, and each
    gradient it returns is a new C-contiguous buffer that `Tape.backward`
    keeps without a copy."""
    arrays, bias, index = qkv_arrays(rng, lead, n, dim, heads, bias_kind)
    g = rng.normal(size=arrays[0].shape)
    (got, recorded), (want, _) = (qkv_run(op, arrays, bias, index, heads, g) for op in (qkv_attention, composed_qkv_attention))
    assert recorded == 1
    assert len(got) == (9 if bias_kind == "key-mask" else 10)
    assert got == want
    with count_multiply_adds() as count:
        untaped = qkv_attention(*(constant(a) for a in arrays), heads, bias, index)
    assert [untaped.data.tobytes(), count.multiply_adds] == got[:2]
    with Tape() as tape:
        qkv_attention(*(parameter(a) for a in arrays), heads, bias if bias_kind == "key-mask" else parameter(bias), index)
    assert all(gi.flags.c_contiguous and gi.flags.owndata for gi in tape.ops[-1].backward_fn(g) if gi is not None)


@pytest.mark.parametrize("chunk", [CHUNK, 1024], ids=["chunk", "small-chunk"])
@pytest.mark.parametrize("bias_kind", ["relative", "key-mask", "table"])
@pytest.mark.parametrize("n", [4, 8, 33, 65])
@pytest.mark.parametrize("lead", [(5,), (3, 2)], ids=["3-d", "4-d"])
def test_qkv_attention_is_bitwise_the_composed_ops(lead, n, bias_kind, chunk, monkeypatch):
    """At the small chunk, n = 33 and 65 attend in one-head groups off the
    tape, each group's bias gathered from the table by itself."""
    monkeypatch.setattr(ops, "CHUNK", chunk)
    check_qkv_attention_against_composed(np.random.default_rng(n), lead, n, 32, 4, bias_kind)


# (lead, n, dim, heads): the default dims at each key count, then shapes at
# which a strided kᵀ changed the last bits of q·kᵀ or of q's gradient
COPY_FREE_SHAPES = [((6, 5), n, 32, 4) for n in (4, 8, 16, 32, 33, 65)] + [
    ((512,), 30, 128, 4),
    ((64,), 60, 256, 8),
    ((4,), 50, 1024, 16),
    ((8,), 32, 32, 4),
]


@pytest.mark.parametrize("chunk", [CHUNK, 1024], ids=["chunk", "small-chunk"])
@pytest.mark.parametrize("bias_kind", ["relative", "key-mask"])
@pytest.mark.parametrize("lead, n, dim, heads", COPY_FREE_SHAPES, ids=lambda x: "x".join(map(str, x)) if isinstance(x, tuple) else str(x))
def test_attention_is_bitwise_the_copying_op(lead, n, dim, heads, bias_kind, chunk, monkeypatch):
    """The check of `test_qkv_attention_is_bitwise_the_composed_ops` at
    COPY_FREE_SHAPES."""
    monkeypatch.setattr(ops, "CHUNK", chunk)
    check_qkv_attention_against_composed(np.random.default_rng(n + dim), lead, n, dim, heads, bias_kind)


def test_qkv_attention_rejects_an_index_outside_the_table():
    x, w, b = constant(np.zeros((2, 4, 4))), constant(np.zeros((4, 4))), constant(np.zeros(4))
    for index in (np.full((4, 4), 7), np.full((4, 4), -1)):
        with pytest.raises(ShapeError, match=r"qkv_attention indices out of range \[0, 7\)"):
            qkv_attention(x, w, b, w, b, w, b, 2, constant(np.zeros((7, 2))), index)


# which of x, the six leaves and the relative bias or table need a gradient
QKV_NEEDS = {"x": (1,) + (0,) * 7, "weights": (0,) + (1,) * 6 + (0,), "bias": (0,) * 7 + (1,), "q-frozen": (1, 0, 0, 1, 1, 1, 1, 1)}


@pytest.mark.parametrize("needs", QKV_NEEDS.values(), ids=QKV_NEEDS)
def test_qkv_attention_skips_what_needs_no_gradient(needs):
    rng = np.random.default_rng(13)
    for bias_kind in ("relative", "table"):
        arrays, bias, index = qkv_arrays(rng, (3,), 12, 16, 2, bias_kind)
        g = rng.normal(size=arrays[0].shape)
        (got, recorded), (want, _) = (qkv_run(op, arrays, bias, index, 2, g, needs) for op in (qkv_attention, composed_qkv_attention))
        assert recorded == 1
        assert len(got) == 2 + sum(needs)
        assert got == want


def test_a_taped_qkv_attention_op_keeps_its_output_and_probabilities():
    """Bytes a taped attention op leaves allocated while its output and the
    tape live: the output and the (…, heads, n, n) probabilities, with slack
    for the Python objects and the record. Keeping q, k and v, or per-head
    copies of them, would add three output sizes."""
    rng = np.random.default_rng(7)
    x = parameter(rng.normal(size=(8, 16, 8, 32)))
    leaves = [parameter(rng.normal(size=s)) for s in [(32, 32), (32,)] * 3]
    with Tape() as tape:
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = qkv_attention(x, *leaves, 4)
            left = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
    probs = 8 * 16 * 4 * 8 * 8 * 8
    assert tape.ops[-1].output is out and len(tape) == 1
    assert left <= out.data.nbytes + probs + out.data.nbytes // 16


def test_backward_drops_each_replayed_record():
    rng = np.random.default_rng(8)
    x = rand(rng, 3, 4, 8)
    leaves = [rand(rng, *s) for s in [(8, 8), (8,)] * 3]
    held = np.ones(x.shape)
    with Tape() as tape:
        y = record_op(DiffArray(x.data * 2.0), (x,), lambda g, held=held: (g * held,))
        loss = asum(qkv_attention(y, *leaves, 2))
    bwd = tape.ops[1].backward_fn
    kept = [weakref.ref(held), weakref.ref(bwd.__closure__[bwd.__code__.co_freevars.index("probs")].cell_contents)]
    del held, bwd
    tape.backward(loss)
    assert all(ref() is None for ref in kept)
    assert all(op.backward_fn is None and op.inputs is None and op.replays == 1 for op in tape.ops)
    assert tape.ops[-1].output is loss and x.grad is not None
    with pytest.raises(EngineError, match="tape op replayed more than once"):
        tape.backward(loss)


# ---------------------------------------------------------------------------
# the tape keeps what a backward reads, and no elementwise temporaries
# ---------------------------------------------------------------------------


def _layernorm_op(x):
    gain, bias = parameter(np.ones(512)), parameter(np.zeros(512))
    return lambda: layernorm(x, gain, bias)


def _add_out_op(x):
    y, bias = scale(x, 2.0), parameter(np.zeros(512))
    return lambda: add(y, bias, out=y)


def _feed_forward_op(x):
    rng = np.random.default_rng(5)
    w1, b1, w2 = (parameter(rng.normal(size=s)) for s in [(512, 512), (512,), (512, 512)])
    return lambda: feed_forward(x, w1, b1, w2)


# each op's maker, and the output sizes the op may leave allocated
TAPED_OPS = {
    "gelu": (lambda x: lambda: gelu(x), 1),
    "layernorm": (_layernorm_op, 1),
    "reshape": (lambda x: lambda: x.reshape((512, 256)), 0),
    "add-out": (_add_out_op, 0),
    "feed-forward": (_feed_forward_op, 1),
}


@pytest.mark.parametrize("make, outputs", TAPED_OPS.values(), ids=TAPED_OPS)
def test_a_taped_op_leaves_at_most_its_output_allocated(make, outputs):
    """Bytes a taped op on a (256, 512) parameter leaves allocated while its
    output and the tape live, in output sizes: only a new output's, with
    slack for the Python objects and the tape's record."""
    x = parameter(np.random.default_rng(3).normal(size=(256, 512)))
    with Tape() as tape:
        op = make(x)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = op()
            left = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
    assert tape.ops[-1].output is out
    assert left <= outputs * x.data.nbytes + x.data.nbytes // 16


# each op's backward, and the whole-array buffers it may allocate besides the
# gradients it returns, in input sizes: layernorm's g·x̂, which it sums for
# dgain, and feed_forward's fc1 product, formed again and overwritten by
# GELU, and its gradient
BACKWARDS = {
    "gelu": (lambda x: lambda: gelu(x), 0),
    "layernorm": (_layernorm_op, 1),
    "feed-forward": (_feed_forward_op, 2),
}


@pytest.mark.parametrize("make, buffers", BACKWARDS.values(), ids=BACKWARDS)
def test_a_backward_allocates_its_gradients_and_one_piece(make, buffers):
    """Peak bytes the backward of an op on a (256, 512) parameter allocates:
    the gradients it returns, its whole-array buffers and one piece of CHUNK
    float64 scratch, with slack for the Python objects and per-row values."""
    x = parameter(np.random.default_rng(3).normal(size=(256, 512)))
    with Tape() as tape:
        make(x)()
    g = np.random.default_rng(4).normal(size=x.shape)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        grads = tape.ops[-1].backward_fn(g)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    returned = np.sum([gi.nbytes for gi in grads])
    assert peak <= returned + buffers * x.data.nbytes + CHUNK * 8 + x.data.nbytes // 16


# ---------------------------------------------------------------------------
# the pieced backwards: bitwise the whole-array expressions
# ---------------------------------------------------------------------------


def gelu_backward_reference(x, g):
    x2 = x * x
    t = np.tanh(_SQRT_2_OVER_PI * (x + _GELU_C * x2 * x))
    du = _SQRT_2_OVER_PI * (1.0 + 3.0 * _GELU_C * x2)
    return (g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du),)


def layernorm_backward_reference(x, gain, g, eps=1e-12):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    lead = tuple(range(g.ndim - 1))
    dgain = (g * xhat).sum(axis=lead)
    dbias = g.sum(axis=lead)
    dxhat = g * gain
    dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True) - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    return dx, dgain, dbias


PIECED_SHAPES = {
    "several-pieces": (3, CHUNK // 3 + 5),
    "3-d": (2, CHUNK // 96 + 1, 48),
    "zero-size": (0, 8),
    "one-row": (1, 40),
    "rows-wider-than-a-chunk": (2, CHUNK + 3),
}


def backward_of(op, g, *arrays):
    """The recorded backward of op on the arrays as parameters, applied to g."""
    with Tape() as tape:
        op(*(parameter(a) for a in arrays))
    return tape.ops[-1].backward_fn(g)


@pytest.mark.parametrize("shape", PIECED_SHAPES.values(), ids=PIECED_SHAPES)
def test_pieced_gelu_backward_is_bitwise_the_whole_array_expression(shape):
    rng = np.random.default_rng(5)
    x, g = rng.normal(scale=3.0, size=shape), rng.normal(size=shape)
    got, want = backward_of(gelu, g, x), gelu_backward_reference(x, g)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


@pytest.mark.parametrize("shape", PIECED_SHAPES.values(), ids=PIECED_SHAPES)
def test_pieced_layernorm_backward_is_bitwise_the_whole_array_expression(shape):
    rng = np.random.default_rng(6)
    d = shape[-1]
    x, g, gain = rng.normal(loc=2.0, size=shape), rng.normal(size=shape), rng.normal(size=d)
    got = backward_of(layernorm, g, x, gain, rng.normal(size=d))
    want = layernorm_backward_reference(x, gain, g)
    assert [(a.shape, a.tobytes()) for a in got] == [(a.shape, a.tobytes()) for a in want]
