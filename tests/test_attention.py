"""Window attention contracts: partitioning, locality, oracle equivalence,
receptive fields."""

import numpy as np
import pytest

from longvid.attention import (
    ScheduleError,
    StageSpec,
    WindowSchedule,
    WindowSpec,
    _table_bias,
    init_attention_params,
    masked_full_attention_reference,
    multi_head_attention,
    receptive_field,
    relative_index_map,
    window_merge,
    window_partition,
    windowed_mha,
)
from longvid.cli import EXIT_CONFIG, main
from longvid.costmodel import attention_flops
from longvid.engine import Tape, backward, check_gradients, constant, no_tape, parameter
from longvid.engine import ops as O


def make_params(rng, dim, heads, window):
    return init_attention_params(rng, dim, heads, window=window)


def token_grid(rng, t, h, w, c):
    return constant(rng.normal(size=(t, h, w, c)))


def grid_attention(tokens, spec, p, heads):
    """The chain the video trunk runs on a (B, T, H, W, C) grid, or an
    unbatched (T, H, W, C) one: window_partition, windowed_mha on the window
    layout, window_merge."""
    squeeze = tokens.ndim == 4
    if squeeze:
        tokens = O.reshape(tokens, (1, *tokens.shape))
    B, T, H, W, C = tokens.shape
    index = relative_index_map((spec.temporal, *spec.resolve_spatial(H, W)))
    out = window_merge(windowed_mha(window_partition(tokens, spec), p, heads, index), spec, T, H, W)
    return O.reshape(out, (T, H, W, C)) if squeeze else out


# ---------------------------------------------------------------------------
# partitioning
# ---------------------------------------------------------------------------


def test_partition_counts_paper_shape():
    rng = np.random.default_rng(0)
    grid = constant(rng.normal(size=(1, 32, 2, 2, 4)))
    windows = window_partition(grid, WindowSpec(temporal=8))
    assert windows.shape == (1, 4, 8 * 2 * 2, 4)
    assert np.array_equal(windows.data[0, 0], grid.data[0, :8].reshape(8 * 2 * 2, 4))


def test_partition_full_window_is_identity():
    rng = np.random.default_rng(1)
    grid = constant(rng.normal(size=(1, 4, 2, 3, 5)))
    windows = window_partition(grid, WindowSpec(temporal=4))
    assert windows.shape == (1, 1, 4 * 2 * 3, 5)
    assert np.array_equal(windows.data.reshape(grid.shape), grid.data)


def test_partition_numbered_tokens_and_reassembly():
    tokens = constant(np.arange(6.0).reshape(1, 6, 1, 1, 1))
    spec = WindowSpec(temporal=2)
    windows = window_partition(tokens, spec)
    assert windows.data.reshape(3, 2).tolist() == [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]
    rebuilt = window_merge(windows, spec, 6, 1, 1)
    assert np.array_equal(rebuilt.data, tokens.data)


def test_partition_spatial_windows_tile_the_grid():
    rng = np.random.default_rng(2)
    grid = constant(rng.normal(size=(1, 4, 4, 6, 3)))
    spec = WindowSpec(temporal=2, spatial=(2, 3))
    windows = window_partition(grid, spec)
    assert windows.shape == (1, (4 // 2) * (4 // 2) * (6 // 3), 2 * 2 * 3, 3)
    rebuilt = window_merge(windows, spec, 4, 4, 6)
    assert np.array_equal(rebuilt.data, grid.data)


def test_partition_rejects_non_divisible():
    rng = np.random.default_rng(3)
    grid = constant(rng.normal(size=(1, 6, 2, 2, 4)))
    with pytest.raises(ScheduleError):
        window_partition(grid, WindowSpec(temporal=4))


# ---------------------------------------------------------------------------
# windowed attention
# ---------------------------------------------------------------------------


def test_single_window_single_head_orthonormal_rows():
    # Orthonormal tokens through identity projections: the attention matrix
    # is softmax of the scaled identity, so outputs are analytic.
    d = 4
    tokens = constant(np.eye(d).reshape(d, 1, 1, d))
    p = {
        "wq": constant(np.eye(d)),
        "bq": constant(np.zeros(d)),
        "wk": constant(np.eye(d)),
        "bk": constant(np.zeros(d)),
        "wv": constant(np.eye(d)),
        "bv": constant(np.zeros(d)),
        "wo": constant(np.eye(d)),
        "bo": constant(np.zeros(d)),
        "rel_bias": constant(np.zeros((2 * d - 1, 1))),
    }
    out = grid_attention(tokens, WindowSpec(temporal=d), p, heads=1)
    scale = 1.0 / np.sqrt(d)
    row = np.exp(scale * np.eye(d))
    probs = row / row.sum(axis=1, keepdims=True)
    expected = probs @ np.eye(d)
    assert np.abs(out.data.reshape(d, d) - expected).max() < 1e-12


def numpy_attention(x, p, heads, bias=None, keys=None):
    """Softmax attention over the rows of x (n, d), one head at a time, in
    plain numpy. bias is (heads, n, n); keys indexes the rows that may be
    attended to (all when None)."""
    w = {name: value.data for name, value in p.items()}
    n, d = x.shape
    dh = d // heads
    keys = np.arange(n) if keys is None else keys
    q, k, v = (x @ w["w" + name] + w["b" + name] for name in "qkv")
    per_head = []
    for h in range(heads):
        cols = slice(h * dh, (h + 1) * dh)
        scores = q[:, cols] @ k[keys, cols].T / np.sqrt(dh)
        if bias is not None:
            scores = scores + bias[h][:, keys]
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        per_head.append(e / e.sum(axis=1, keepdims=True) @ v[keys, cols])
    return np.concatenate(per_head, axis=1) @ w["wo"] + w["bo"]


def random_attention_params(rng, dim, heads, window=None):
    # Weights of order one, so that a wrong term shows far above 1e-12.
    shapes = init_attention_params(rng, dim, heads, window=window)
    return {name: constant(rng.normal(scale=0.5, size=value.shape)) for name, value in shapes.items()}


@pytest.mark.parametrize("seed", range(3))
def test_full_attention_matches_numpy_with_key_mask(seed):
    rng = np.random.default_rng(seed)
    B, n, dim, heads = 2, 7, 12, 3
    p = random_attention_params(rng, dim, heads)
    x = rng.normal(size=(B, n, dim))
    allowed = rng.random((B, n)) < 0.6
    allowed[:, 0] = True
    add_mask = np.where(allowed[:, None, None, :], 0.0, -1e9)
    out = multi_head_attention(constant(x), p, heads, add_mask).data
    for b in range(B):
        expected = numpy_attention(x[b], p, heads, keys=np.flatnonzero(allowed[b]))
        assert np.abs(out[b] - expected).max() < 1e-12


@pytest.mark.parametrize("seed", range(3))
def test_windowed_attention_matches_numpy_with_relative_bias(seed):
    rng = np.random.default_rng(seed)
    T, H, W, dim, heads = 4, 4, 2, 12, 3
    wt, sh, sw = 2, 2, 2
    p = random_attention_params(rng, dim, heads, window=(wt, sh, sw))
    grid = rng.normal(size=(T, H, W, dim))
    # Table row of the offset (dt, dh, dw) between two tokens of a window.
    coords = [(t, i, j) for t in range(wt) for i in range(sh) for j in range(sw)]
    rows = np.array(
        [[((a[0] - b[0] + wt - 1) * (2 * sh - 1) + a[1] - b[1] + sh - 1) * (2 * sw - 1) + a[2] - b[2] + sw - 1 for b in coords] for a in coords]
    )
    bias = np.moveaxis(p["rel_bias"].data[rows], -1, 0)  # (heads, t, t)
    expected = np.empty_like(grid)
    for t0 in range(0, T, wt):
        for i0 in range(0, H, sh):
            for j0 in range(0, W, sw):
                block = (slice(t0, t0 + wt), slice(i0, i0 + sh), slice(j0, j0 + sw))
                x = grid[block].reshape(-1, dim)
                expected[block] = numpy_attention(x, p, heads, bias=bias).reshape(wt, sh, sw, dim)
    spec = WindowSpec(temporal=wt, spatial=(sh, sw))
    assert np.abs(grid_attention(constant(grid), spec, p, heads).data - expected).max() < 1e-12
    assert np.abs(masked_full_attention_reference(constant(grid), spec, p, heads).data - expected).max() < 1e-12


def check_attention_gradients(attend, x, p, seed):
    """Finite differences over x and every parameter of p, every entry, of
    the sum of attend(x, params) weighted by fixed random coefficients."""
    names = list(p)
    weights = constant(np.random.default_rng(seed + 100).normal(size=x.shape))

    def loss(x, *values):
        return O.sum(O.mul(attend(x, dict(zip(names, values))), weights))

    arrays = [parameter(x)] + [parameter(p[n].data.copy()) for n in names]
    res = check_gradients(loss, arrays, rtol=1e-5, atol=1e-8)
    assert res.checked == sum(a.size for a in arrays)
    assert res.ok, res.mismatches[:5]


@pytest.mark.parametrize("seed", range(2))
def test_windowed_attention_gradients_by_finite_differences(seed):
    # Spatial windows, two samples, relative bias: the bias table's gradient
    # is the one a sampled gradient check rarely reaches.
    rng = np.random.default_rng(seed)
    B, T, H, W, dim, heads = 2, 4, 2, 2, 6, 2
    spec = WindowSpec(temporal=2, spatial=(1, 2))
    p = random_attention_params(rng, dim, heads, window=(2, 1, 2))
    x = rng.normal(size=(B, T, H, W, dim))
    check_attention_gradients(lambda x, a: grid_attention(x, spec, a, heads), x, p, seed)


@pytest.mark.parametrize("seed", range(2))
def test_head_grouped_attention_gradients_by_finite_differences(seed, monkeypatch):
    # At a CHUNK of one window's scores the untaped numeric side attends in
    # one-head groups, while the taped analytic side runs one piece over
    # both heads: the grouped forward must be, bit for bit, the function
    # whose gradient the taped rule computes.
    monkeypatch.setattr(O, "CHUNK", 16)
    rng = np.random.default_rng(seed)
    B, T, H, W, dim, heads = 2, 4, 2, 2, 6, 2
    spec = WindowSpec(temporal=2, spatial=(1, 2))
    p = random_attention_params(rng, dim, heads, window=(2, 1, 2))
    x = rng.normal(size=(B, T, H, W, dim))
    assert len(O._pieces(heads, 4 * 4)) == heads
    with Tape():
        taped = grid_attention(parameter(x), spec, p, heads)
    untaped = grid_attention(constant(x), spec, p, heads)
    assert untaped.data.tobytes() == taped.data.tobytes()
    check_attention_gradients(lambda x, a: grid_attention(x, spec, a, heads), x, p, seed)


@pytest.mark.parametrize("seed", range(2))
def test_full_attention_gradients_by_finite_differences_with_key_mask(seed):
    rng = np.random.default_rng(seed)
    B, n, dim, heads = 2, 5, 6, 2
    p = random_attention_params(rng, dim, heads)
    x = rng.normal(size=(B, n, dim))
    allowed = np.ones((B, n), dtype=bool)
    allowed[0, [1, 3]] = False
    allowed[1, 4] = False
    add_mask = np.where(allowed[:, None, None, :], 0.0, -1e9)
    check_attention_gradients(lambda x, a: multi_head_attention(x, a, heads, add_mask), x, p, seed)


def test_attention_records_one_op_for_its_core():
    # One op projects q, k and v and attends, looking up a window's bias
    # itself; the output projection is a matmul and an add. Windowed
    # attention adds partition and merge.
    rng = np.random.default_rng(9)
    p = {name: parameter(value.data) for name, value in random_attention_params(rng, 8, 2, window=(2, 1, 2)).items()}
    with Tape() as tape:
        multi_head_attention(parameter(rng.normal(size=(2, 5, 8))), p, 2, np.zeros((2, 1, 1, 5)))
    assert len(tape) == 3
    with Tape() as tape:
        grid_attention(parameter(rng.normal(size=(2, 4, 2, 2, 8))), WindowSpec(temporal=2, spatial=(1, 2)), p, 2)
    assert len(tape) == 9


def test_window_bias_is_one_gather_bitwise_the_old_lookup():
    # The old lookup gathered (t, t, heads) from the table, then transposed;
    # one gather from the transposed table gives the same bits, value and
    # table gradient alike.
    rng = np.random.default_rng(10)
    spec = WindowSpec(temporal=4, spatial=(2, 3))
    p = make_params(rng, 12, 3, (4, 2, 3))
    weights = rng.normal(size=(3, 24, 24))
    lookups = {
        "one gather": lambda: _table_bias(p["rel_bias"], relative_index_map((4, 2, 3))),
        "gather, then transpose": lambda: O.transpose(O.take(p["rel_bias"], relative_index_map((4, 2, 3))), (2, 0, 1)),
    }
    results = {}
    for name, lookup in lookups.items():
        p["rel_bias"].grad = None
        with Tape():
            bias = lookup()
            backward(O.sum(O.mul(bias, weights)))
        results[name] = (bias.shape, bias.data.tobytes(), p["rel_bias"].grad.tobytes())
    assert results["one gather"] == results["gather, then transpose"]
    assert results["one gather"][0] == (3, 24, 24)


def test_cross_window_perturbation_is_exactly_zero():
    rng = np.random.default_rng(4)
    p = make_params(rng, 8, 2, (2, 2, 2))
    spec = WindowSpec(temporal=2)
    base = rng.normal(size=(4, 2, 2, 8))
    out0 = grid_attention(constant(base), spec, p, heads=2).data
    bumped = base.copy()
    bumped[0, 0, 0, :] += 10.0  # token in window 0
    out1 = grid_attention(constant(bumped), spec, p, heads=2).data
    assert np.array_equal(out0[2:], out1[2:])  # window 1 bit-identical
    assert not np.array_equal(out0[:2], out1[:2])


@pytest.mark.parametrize("seed", range(5))
def test_windowed_equals_masked_full_attention(seed):
    rng = np.random.default_rng(seed)
    p = make_params(rng, 12, 3, (2, 2, 2))
    spec = WindowSpec(temporal=2, spatial=(2, 2))
    grid = token_grid(rng, 6, 4, 2, 12)
    a = grid_attention(grid, spec, p, heads=3)
    ref = masked_full_attention_reference(grid, spec, p, heads=3)
    assert np.abs(a.data - ref.data).max() < 1e-9


def test_window_permutation_consistency():
    rng = np.random.default_rng(5)
    p = make_params(rng, 8, 2, (2, 1, 1))
    spec = WindowSpec(temporal=2)
    base = rng.normal(size=(6, 1, 1, 8))
    out = grid_attention(constant(base), spec, p, heads=2).data
    # Swap temporal windows 0 and 2 (blocks of 2 frames).
    perm = base.copy()
    perm[[0, 1, 4, 5]] = base[[4, 5, 0, 1]]
    out_perm = grid_attention(constant(perm), spec, p, heads=2).data
    expected = out.copy()
    expected[[0, 1, 4, 5]] = out[[4, 5, 0, 1]]
    assert np.array_equal(out_perm, expected)


def test_windowed_mha_rejects_head_mismatch():
    rng = np.random.default_rng(7)
    p = make_params(rng, 8, 2, (2, 1, 1))
    grid = token_grid(rng, 4, 1, 1, 8)
    with pytest.raises(Exception, match="divisible"):
        grid_attention(grid, WindowSpec(temporal=2), p, heads=3)


@pytest.mark.parametrize("pairs_seed", range(3))
def test_cross_window_jacobian_zero_by_gradient(pairs_seed):
    # Gradient of any window-1 output entry w.r.t. window-0 inputs is zero.
    rng = np.random.default_rng(pairs_seed)
    p = make_params(rng, 6, 2, (3, 1, 1))
    spec = WindowSpec(temporal=3)
    x = parameter(rng.normal(size=(6, 1, 1, 6)))
    for _ in range(20):
        t_out = int(rng.integers(3, 6))
        c = int(rng.integers(6))
        x.zero_grad()
        with Tape():
            out = grid_attention(x, spec, p, heads=2)
            entry = O.take(O.reshape(out, (6, 6)), np.array([t_out]), axis=0)
            backward(O.sum(O.take(O.transpose(entry), np.array([c]), axis=0)))
        assert np.allclose(x.grad[:3], 0.0)


# ---------------------------------------------------------------------------
# receptive fields
# ---------------------------------------------------------------------------


def _schedule(windows, layers=1):
    return WindowSchedule(tuple(StageSpec(layers, 8, 2, w) for w in windows))


def test_receptive_field_single_stage():
    assert receptive_field(_schedule([2]), 0, 2) == frozenset({0, 1})


def test_receptive_field_full_coverage():
    sched = _schedule([2, 4, 8, 16, 32])
    for frame in (0, 13, 31):
        assert receptive_field(sched, frame, 32) == frozenset(range(32))


def test_receptive_field_partial():
    assert receptive_field(_schedule([2, 4]), 0, 8) == frozenset({0, 1, 2, 3})
    assert receptive_field(_schedule([2, 4]), 5, 8) == frozenset({4, 5, 6, 7})


def test_receptive_field_monotone_and_exact_coverage():
    windows = [2, 4, 8, 16, 32]
    prev: frozenset[int] = frozenset()
    for depth in range(1, len(windows) + 1):
        rf = receptive_field(_schedule(windows[:depth]), 7, 32)
        assert prev <= rf
        prev = rf
        # Aligned nesting: coverage equals the largest window's block.
        assert rf == frozenset(range((7 // windows[depth - 1]) * windows[depth - 1], (7 // windows[depth - 1] + 1) * windows[depth - 1]))


def test_receptive_field_matches_perturbation_through_stacked_layers():
    # Two stacked windowed layers [2] then [4]: influence must match the
    # interval propagation exactly.
    rng = np.random.default_rng(8)
    p1 = make_params(rng, 6, 2, (2, 1, 1))
    p2 = make_params(rng, 6, 2, (4, 1, 1))
    sched = _schedule([2, 4])

    def forward(x):
        y = grid_attention(x, WindowSpec(temporal=2), p1, heads=2)
        return grid_attention(y, WindowSpec(temporal=4), p2, heads=2)

    base = rng.normal(size=(8, 1, 1, 6))
    out0 = forward(constant(base)).data
    for frame in range(8):
        bumped = base.copy()
        bumped[frame] += 1.0
        outb = forward(constant(bumped)).data
        changed = {t for t in range(8) if not np.array_equal(out0[t], outb[t])}
        influenced = {t for t in range(8) if frame in receptive_field(sched, t, 8)}
        assert changed == influenced


# ---------------------------------------------------------------------------
# schedule validation
# ---------------------------------------------------------------------------


def test_schedule_rejects_decreasing_windows():
    with pytest.raises(ScheduleError, match="non-decreasing"):
        _schedule([4, 2, 8]).validate(8, (1, 1))


def test_schedule_requires_final_full_window():
    with pytest.raises(ScheduleError, match="last temporal window"):
        _schedule([2, 4]).validate(8, (1, 1))


def test_schedule_rejects_non_dividing_window():
    with pytest.raises(ScheduleError, match="divide"):
        _schedule([5, 12]).validate(12, (1, 1))


def test_stage_rejects_bad_dims():
    with pytest.raises(ScheduleError):
        StageSpec(layers=1, dim=7, heads=2, temporal_window=2)


@pytest.mark.parametrize(
    "call",
    [
        lambda: WindowSpec(0).validate(8, 1, 1),
        lambda: WindowSpec(2, (0, 1)).validate(8, 2, 2),
        lambda: window_partition(constant(np.zeros((1, 8, 2, 2, 3))), WindowSpec(2, (0, 2))),
        lambda: attention_flops(8, 4, 16, 2, 2, 0),
        lambda: attention_flops(8, 4, 16, 2, 0),
    ],
    ids=["temporal", "spatial", "partition", "flops-spatial", "flops-temporal"],
)
def test_window_below_one_is_a_schedule_error(call):
    with pytest.raises(ScheduleError, match="must be positive"):
        call()


HEAD_RULE_CALLS = {
    "StageSpec": lambda: StageSpec(1, 7, 2, 2),
    "init_attention_params": lambda: init_attention_params(np.random.default_rng(0), 7, 2),
    "attention_flops": lambda: attention_flops(8, 4, 7, 2, 2),
}


@pytest.mark.parametrize("entry", [*HEAD_RULE_CALLS, "model.text.dim", "model.cross.dim"])
def test_head_rule_has_one_message(entry, capsys, tmp_path, monkeypatch):
    if entry in HEAD_RULE_CALLS:
        with pytest.raises(ScheduleError) as e:
            HEAD_RULE_CALLS[entry]()
        assert str(e.value) == "dim 7 not divisible by heads 2"
    else:
        monkeypatch.chdir(tmp_path)
        assert main(["train-stage1", "--dry-run", "--set", f"{entry}=30"]) == EXIT_CONFIG
        assert f"{entry}: dim 30 not divisible by heads 4" in capsys.readouterr().err
