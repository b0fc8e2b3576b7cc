"""Loss semantics: positives, oracles, closed forms, gradients, invariances."""

import itertools
import math

import numpy as np
import pytest

from longvid.engine import EngineError, Tape, check_gradients, constant, l2_normalize, parameter
from longvid.objectives import (
    MtcSampling,
    brute_force_pair_loss,
    brute_force_positive,
    global_contrastive_loss,
    mlm_loss,
    mtc_loss,
    mtc_pair_loss,
    mtc_plan,
    positive_labels,
    sample_rng,
    select_positive,
    stage1_loss,
    stage2_loss,
    vtm_loss,
)
from longvid.params import linear_init


def unit_rows(rng, *shape):
    x = rng.normal(size=shape)
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# positive selection
# ---------------------------------------------------------------------------


def test_positive_min_distance():
    assert select_positive(1, [0, 3]) == 0


def test_positive_tie_breaks_low_index():
    assert select_positive(2, [1, 3]) == 1


@pytest.mark.parametrize("m", range(2, 7))
def test_positive_matches_brute_force_on_all_enumerations(m):
    for size in range(1, m + 1):
        for cands in itertools.combinations(range(m), size):
            for anchor in range(m):
                assert select_positive(anchor, list(cands)) == brute_force_positive(anchor, list(cands))


@pytest.mark.parametrize("m", range(2, 7))
def test_positive_labels_match_brute_force_on_every_anchor_and_candidate_set(m):
    subsets = [np.array(s) for size in range(1, m + 1) for s in itertools.combinations(range(m), size)]
    for anchors in subsets:
        for cands in subsets:
            labels = positive_labels(anchors[None], cands[None])[0]
            assert [int(cands[j]) for j in labels] == [brute_force_positive(int(a), list(cands)) for a in anchors]


# ---------------------------------------------------------------------------
# pair loss
# ---------------------------------------------------------------------------


def _reproduce_draws(m, sampling, rng):
    anchor_idx = np.sort(rng.choice(m, size=sampling.anchors, replace=False))
    cand_idx = np.sort(rng.choice(m, size=sampling.candidates, replace=False))
    return anchor_idx, cand_idx


@pytest.mark.parametrize("seed", range(100))
def test_pair_loss_matches_scalar_recomputation(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 7))
    sampling = MtcSampling(int(rng.integers(1, m + 1)), int(rng.integers(1, m + 1)), int(rng.integers(0, 4)))
    v = unit_rows(rng, m, 6)
    t = unit_rows(rng, m, 6)
    negs = unit_rows(rng, sampling.cross_negatives, 6) if sampling.cross_negatives else None

    draw_rng = np.random.default_rng([seed, 55])
    loss = mtc_pair_loss(
        constant(v), constant(t), None if negs is None else constant(negs), sampling, 0.05, draw_rng
    )
    replay_rng = np.random.default_rng([seed, 55])
    anchor_idx, cand_idx = _reproduce_draws(m, sampling, replay_rng)
    expected = brute_force_pair_loss(v, t, negs, anchor_idx, cand_idx, 0.05)
    assert abs(loss.item() - expected) < 1e-10


def test_pair_loss_prefers_aligned_over_shuffled():
    rng = np.random.default_rng(3)
    base = unit_rows(rng, 4, 16)
    v = base
    t = base  # perfectly aligned
    sampling = MtcSampling(anchors=2, candidates=2, cross_negatives=0)
    aligned = mtc_pair_loss(constant(v), constant(t), None, sampling, 0.05, np.random.default_rng(7))
    shuffled = mtc_pair_loss(constant(v), constant(t[::-1].copy()), None, sampling, 0.05, np.random.default_rng(7))
    assert aligned.item() < shuffled.item()


def test_pair_loss_rejects_short_sequences():
    v = constant(unit_rows(np.random.default_rng(0), 1, 4))
    with pytest.raises(EngineError):
        mtc_pair_loss(v, v, None, MtcSampling(1, 1, 0), 0.05, np.random.default_rng(0))


@pytest.mark.parametrize("seed", range(10))
def test_pair_loss_gradient(seed):
    rng = np.random.default_rng(seed)
    v_raw = parameter(rng.normal(size=(4, 6)))
    t_raw = parameter(rng.normal(size=(4, 6)))
    sampling = MtcSampling(2, 2, 0)

    def f(v_raw, t_raw):
        return mtc_pair_loss(
            l2_normalize(v_raw), l2_normalize(t_raw), None, sampling, 0.5, np.random.default_rng([seed, 9])
        )

    assert check_gradients(f, [v_raw, t_raw], rtol=1e-3).ok


# ---------------------------------------------------------------------------
# batch loss
# ---------------------------------------------------------------------------


def test_batch_loss_single_sample_directions_agree():
    rng = np.random.default_rng(4)
    reps = unit_rows(rng, 1, 4, 8)
    sampling = MtcSampling(2, 2, 0)
    loss = mtc_loss(constant(reps), constant(reps), sampling, 0.05, seed_key=(1, 2))
    v2t = mtc_pair_loss(
        constant(reps[0]), constant(reps[0]), None, sampling, 0.05, sample_rng((1, 2), "v2t", 0)
    )
    t2v = mtc_pair_loss(
        constant(reps[0]), constant(reps[0]), None, sampling, 0.05, sample_rng((1, 2), "t2v", 0)
    )
    assert loss.item() == pytest.approx((v2t.item() + t2v.item()) / 2, rel=1e-12)


def test_batch_loss_warns_on_single_sample_with_negatives():
    rng = np.random.default_rng(5)
    reps = constant(unit_rows(rng, 1, 4, 8))
    with pytest.warns(UserWarning, match="negatives"):
        mtc_loss(reps, reps, MtcSampling(2, 2, 3), 0.05, seed_key=(0,))


def test_batch_loss_nonnegative():
    rng = np.random.default_rng(7)
    v = constant(unit_rows(rng, 3, 4, 8))
    t = constant(unit_rows(rng, 3, 4, 8))
    loss = mtc_loss(v, t, MtcSampling(2, 2, 3), 0.05, seed_key=(0,))
    assert loss.item() >= 0.0


@pytest.mark.parametrize("seed", range(10))
def test_batch_loss_gradient(seed):
    rng = np.random.default_rng(seed)
    v_raw = parameter(rng.normal(size=(2, 3, 5)))
    t_raw = parameter(rng.normal(size=(2, 3, 5)))
    sampling = MtcSampling(2, 2, 1)

    def f(v_raw, t_raw):
        return mtc_loss(l2_normalize(v_raw), l2_normalize(t_raw), sampling, 0.5, seed_key=(seed, 11))

    assert check_gradients(f, [v_raw, t_raw], rtol=1e-3).ok


def _pool_negatives(reps, b, count, rng):
    """Rows of every sample but b, picked from a listed (sample, position)
    pool: the draw the batch loss reproduces without listing the pool."""
    B, M, _ = reps.shape
    pool = [(c, m) for c in range(B) if c != b for m in range(M)]
    pick = rng.choice(len(pool), size=count, replace=len(pool) < count)
    return np.stack([reps[pool[j]] for j in pick])


@pytest.mark.parametrize("batch", [2, 3, 8])
@pytest.mark.parametrize("sampling", [MtcSampling(2, 2, 3), MtcSampling(3, 1, 14), MtcSampling(1, 4, 1)])
def test_batch_loss_matches_scalar_recomputation(batch, sampling):
    rng = np.random.default_rng(batch)
    v = unit_rows(rng, batch, 4, 6)
    t = unit_rows(rng, batch, 4, 6)
    loss = mtc_loss(constant(v), constant(t), sampling, 0.05, seed_key=(batch, 3))
    terms = []
    for direction, anchors, cands in (("v2t", v, t), ("t2v", t, v)):
        for b in range(batch):
            draws = sample_rng((batch, 3), direction, b)
            negs = _pool_negatives(cands, b, sampling.cross_negatives, draws)
            anchor_idx, cand_idx = _reproduce_draws(4, sampling, draws)
            terms.append(brute_force_pair_loss(anchors[b], cands[b], negs, anchor_idx, cand_idx, 0.05))
    assert abs(loss.item() - sum(terms) / len(terms)) < 1e-10


def test_batch_loss_records_the_same_ops_at_any_batch():
    counts = []
    for batch in (2, 8):
        rng = np.random.default_rng(batch)
        v = parameter(unit_rows(rng, batch, 4, 6))
        t = parameter(unit_rows(rng, batch, 4, 6))
        with Tape() as tape:
            mtc_loss(v, t, MtcSampling(2, 2, 3), 0.05, seed_key=(0,))
        counts.append(len(tape))
    assert counts[0] == counts[1]


def test_plan_arrays_are_read_only():
    plan = mtc_plan((0,), "v2t", (0, 1, 2), 4, MtcSampling(2, 3, 2))
    assert [rows.shape for rows in plan] == [(3, 2), (3, 3), (3, 2), (3, 2)]
    for rows in plan:
        with pytest.raises(ValueError):
            rows[0, 0] = 0


# ---------------------------------------------------------------------------
# global contrastive
# ---------------------------------------------------------------------------


def test_global_closed_form_orthonormal():
    v = constant(np.eye(2))
    expected = math.log(1 + math.exp(-1.0))
    loss = global_contrastive_loss(v, v, 1.0)
    assert loss.item() == pytest.approx(expected, rel=1e-12)


def test_global_batch_permutation_invariant():
    rng = np.random.default_rng(8)
    v = unit_rows(rng, 5, 8)
    t = unit_rows(rng, 5, 8)
    base = global_contrastive_loss(constant(v), constant(t), 0.1).item()
    perm = rng.permutation(5)
    permuted = global_contrastive_loss(constant(v[perm]), constant(t[perm]), 0.1).item()
    assert permuted == pytest.approx(base, rel=1e-12)


def test_global_small_temperature_limit():
    rng = np.random.default_rng(9)
    v = unit_rows(rng, 4, 16)
    loss = global_contrastive_loss(constant(v), constant(v), 0.01)
    assert loss.item() < 1e-6


def test_global_rejects_batch_of_one():
    v = constant(unit_rows(np.random.default_rng(0), 1, 4))
    with pytest.raises(EngineError):
        global_contrastive_loss(v, v, 0.05)


@pytest.mark.parametrize("seed", range(10))
def test_global_gradient(seed):
    rng = np.random.default_rng(seed)
    v_raw = parameter(rng.normal(size=(3, 6)))
    t_raw = parameter(rng.normal(size=(3, 6)))

    def f(v_raw, t_raw):
        return global_contrastive_loss(l2_normalize(v_raw), l2_normalize(t_raw), 0.5)

    assert check_gradients(f, [v_raw, t_raw], rtol=1e-3).ok


# ---------------------------------------------------------------------------
# masked-token loss
# ---------------------------------------------------------------------------


def _uniform_head(dim, vocab):
    return {"w": constant(np.zeros((dim, vocab))), "b": constant(np.zeros(vocab))}


def test_mlm_uniform_logits_value():
    rng = np.random.default_rng(10)
    feats = constant(rng.normal(size=(2, 5, 4)))
    positions = np.array([[0, 1], [1, 3]])
    labels = np.array([7, 200])
    loss = mlm_loss(feats, positions, labels, _uniform_head(4, 256))
    assert loss.item() == pytest.approx(math.log(256.0), rel=1e-12)


def test_mlm_confident_label_limit():
    feats = constant(np.ones((1, 2, 1)))
    head = {"w": constant(np.array([[1000.0, 0.0]])), "b": constant(np.zeros(2))}
    loss = mlm_loss(feats, np.array([[0, 0]]), np.array([0]), head)
    assert loss.item() < 1e-12


def test_mlm_zero_masked_positions_warns_and_is_zero():
    feats = constant(np.ones((1, 2, 3)))
    with pytest.warns(UserWarning, match="masked"):
        loss = mlm_loss(feats, np.zeros((0, 2), dtype=np.int64), np.zeros(0, dtype=np.int64), _uniform_head(3, 7))
    assert loss.item() == 0.0


def test_mlm_gradient_only_through_masked_positions():
    rng = np.random.default_rng(11)
    feats = parameter(rng.normal(size=(2, 4, 3)))
    head = {"w": parameter(rng.normal(size=(3, 9))), "b": parameter(np.zeros(9))}
    positions = np.array([[0, 2], [1, 0]])
    labels = np.array([4, 8])
    from longvid.engine import Tape, backward

    with Tape():
        backward(mlm_loss(feats, positions, labels, head))
    grad = feats.grad
    masked = {(0, 2), (1, 0)}
    for b in range(2):
        for n in range(4):
            if (b, n) in masked:
                assert np.abs(grad[b, n]).max() > 0
            else:
                assert np.allclose(grad[b, n], 0.0)


@pytest.mark.parametrize("seed", range(10))
def test_mlm_gradient(seed):
    rng = np.random.default_rng(seed)
    feats = parameter(rng.normal(size=(2, 3, 4)))
    head = {"w": parameter(rng.normal(size=(4, 6))), "b": parameter(rng.normal(size=6))}
    positions = np.array([[0, 1], [1, 2], [0, 0]])
    labels = np.array([2, 5, 0])
    res = check_gradients(lambda f, w, b: mlm_loss(f, positions, labels, {"w": w, "b": b}), [feats, head["w"], head["b"]], rtol=1e-3)
    assert res.ok


# ---------------------------------------------------------------------------
# matching loss
# ---------------------------------------------------------------------------


def test_vtm_uniform_value():
    feats = constant(np.zeros((4, 3)))
    loss = vtm_loss(feats, np.array([0, 1, 1, 0]), _uniform_head(3, 2))
    assert loss.item() == pytest.approx(math.log(2.0), rel=1e-12)


def test_vtm_confident_correct():
    feats = constant(np.array([[1.0], [-1.0]]))
    head = {"w": constant(np.array([[-50.0, 50.0]])), "b": constant(np.zeros(2))}
    loss = vtm_loss(feats, np.array([1, 0]), head)
    assert loss.item() < 0.01


def test_vtm_rejects_bad_labels():
    feats = constant(np.zeros((1, 2)))
    with pytest.raises(EngineError):
        vtm_loss(feats, np.array([2]), _uniform_head(2, 2))


@pytest.mark.parametrize("seed", range(10))
def test_vtm_gradient(seed):
    rng = np.random.default_rng(seed)
    feats = parameter(rng.normal(size=(4, 3)))
    head = linear_init(rng, 3, 2)
    labels = np.array([0, 1, 1, 0])
    res = check_gradients(lambda f, w, b: vtm_loss(f, labels, {"w": w, "b": b}), [feats, head["w"], head["b"]], rtol=1e-3)
    assert res.ok


# ---------------------------------------------------------------------------
# stage combinations
# ---------------------------------------------------------------------------


def test_stage1_weight_zero_is_global_only():
    g = constant(np.array(1.25))
    m = constant(np.array(9.0))
    assert stage1_loss(g, m, 0.0).item() == 1.25
    assert stage1_loss(g, None, 1.0).item() == 1.25


def test_stage_defaults_round_trip_from_config():
    from longvid.config import default_config

    cfg = default_config()
    assert cfg.losses.mtc_weight == 1.0
    assert cfg.losses.vtm_weight == 10.0
    assert cfg.losses.temperature == 0.05
    assert (cfg.losses.anchor_count, cfg.losses.candidate_count, cfg.losses.cross_negative_count) == (2, 2, 3)


def test_stage1_linearity_in_weight():
    g = constant(np.array(0.7))
    m = constant(np.array(0.3))
    lam = 0.8
    delta = stage1_loss(g, m, 2 * lam).item() - stage1_loss(g, m, lam).item()
    assert delta == pytest.approx(lam * 0.3, rel=1e-12)


def test_stage2_combination():
    mlm = constant(np.array(2.0))
    vtm = constant(np.array(0.5))
    assert stage2_loss(mlm, vtm, 10.0).item() == pytest.approx(7.0)


# ---------------------------------------------------------------------------
# shared invariances
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scale_const", [0.03, 1.0, 40.0])
def test_prenormalization_scale_invariance(scale_const):
    rng = np.random.default_rng(12)
    v_raw = rng.normal(size=(3, 4, 8))
    t_raw = rng.normal(size=(3, 4, 8))

    def all_losses(vr, tr):
        v = l2_normalize(constant(vr))
        t = l2_normalize(constant(tr))
        g = global_contrastive_loss(
            l2_normalize(constant(vr[:, 0])), l2_normalize(constant(tr[:, 0])), 0.05
        ).item()
        m = mtc_loss(v, t, MtcSampling(2, 2, 2), 0.05, seed_key=(5,)).item()
        return g, m

    base = all_losses(v_raw, t_raw)
    scaled = all_losses(scale_const * v_raw, scale_const * t_raw)
    assert scaled == pytest.approx(base, rel=1e-9)


def test_losses_finite_and_nonnegative_on_unit_inputs():
    rng = np.random.default_rng(13)
    v = constant(unit_rows(rng, 4, 4, 8))
    t = constant(unit_rows(rng, 4, 4, 8))
    losses = [
        global_contrastive_loss(constant(unit_rows(rng, 4, 8)), constant(unit_rows(rng, 4, 8)), 0.05),
        mtc_loss(v, t, MtcSampling(2, 2, 3), 0.05, seed_key=(1,)),
        vtm_loss(constant(rng.normal(size=(4, 6))), np.array([0, 1, 0, 1]), _uniform_head(6, 2)),
        mlm_loss(constant(rng.normal(size=(2, 3, 6))), np.array([[0, 1]]), np.array([3]), _uniform_head(6, 9)),
    ]
    for loss in losses:
        val = loss.item()
        assert np.isfinite(val) and val >= 0.0
