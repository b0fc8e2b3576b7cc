"""Trainer contracts: schedules, freezing, determinism, divergence handling,
retrieval metrics, and the gradient-check harness."""

import gc
import hashlib
import platform
import resource
import weakref
import zlib
from dataclasses import fields, replace

import numpy as np
import pytest

from longvid import pipeline
from longvid.config import ConfigError, default_config
from longvid.data import TruncatedFileError, generate, mask_tokens, stack_batch, vtm_pairs
from longvid.encoders import VideoEncoder
from longvid.engine import (
    DiffArray,
    Tape,
    active_tape,
    check_gradients,
    constant,
    no_tape,
    numeric_gradient,
    parameter,
    record_op,
)
from longvid.engine import ops as O
from longvid.objectives import mlm_loss, mtc_plan, stage2_loss, vtm_accuracy, vtm_loss
from longvid.pipeline import (
    STAGE2_FROZEN_PREFIXES,
    CorruptCheckpointError,
    DivergenceError,
    MissingCheckpointError,
    TrainState,
    batch_indices,
    build_stage1_model,
    build_stage2_model,
    digest_params,
    eval_retrieval,
    gradcheck_config,
    gradcheck_stage1,
    load_checkpoint,
    lr_at,
    ranks_from_similarity,
    retrieval_report,
    save_checkpoint,
    train_stage1,
    train_stage2,
    write_metrics_csv,
)


@pytest.fixture(scope="module")
def tiny_cfg():
    return gradcheck_config(default_config())


@pytest.fixture(scope="module")
def tiny_data(tiny_cfg):
    return generate(tiny_cfg.data, 0)


# ---------------------------------------------------------------------------
# learning-rate schedule
# ---------------------------------------------------------------------------


def test_lr_warmup_then_linear_decay():
    peak = 1e-3
    total, warmup = 100, 10
    assert lr_at(0, total, warmup, peak) == pytest.approx(peak / 10)
    assert lr_at(9, total, warmup, peak) == pytest.approx(peak)
    assert lr_at(10, total, warmup, peak) == pytest.approx(peak)
    mid = lr_at(55, total, warmup, peak)
    assert 0 < mid < peak
    assert lr_at(99, total, warmup, peak) < mid
    values = [lr_at(s, total, warmup, peak) for s in range(warmup, total)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_lr_no_warmup():
    assert lr_at(0, 50, 0, 1.0) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------


def test_batch_indices_deterministic_and_covering():
    a = [idx.tolist() for idx in batch_indices(10, 3, 7, seed=4)]
    b = [idx.tolist() for idx in batch_indices(10, 3, 7, seed=4)]
    assert a == b
    assert all(len(x) == 3 for x in a)
    first_epoch = {i for batch in a[:3] for i in batch}
    assert len(first_epoch) == 9  # tail dropped, no repeats within the epoch


def test_batch_indices_rejects_oversized_batch():
    with pytest.raises(Exception, match="batch size"):
        list(batch_indices(2, 3, 1, seed=0))


# ---------------------------------------------------------------------------
# stage-one training behavior
# ---------------------------------------------------------------------------


def test_weight_gating_identical_step0_global_loss(tiny_cfg, tiny_data):
    train, _ = tiny_data
    cfg_mtc = tiny_cfg
    cfg_glob = replace(tiny_cfg, losses=replace(tiny_cfg.losses, mtc_weight=0.0))
    _, _, rows_mtc = train_stage1(cfg_mtc, train, steps=3)
    _, _, rows_glob = train_stage1(cfg_glob, train, steps=3)
    assert rows_mtc[0]["loss_global"] == rows_glob[0]["loss_global"]
    assert rows_mtc[1]["loss_global"] != rows_glob[1]["loss_global"]
    assert rows_glob[0]["loss_mtc"] is None


def test_training_keeps_at_most_two_mtc_plans(tiny_cfg, tiny_data):
    train, _ = tiny_data
    mtc_plan.cache_clear()
    train_stage1(tiny_cfg, train, steps=5)
    info = mtc_plan.cache_info()
    # each step's key is new: one plan per direction and step, none reused
    assert (info.hits, info.misses, info.currsize) == (0, 10, 2)


def test_warmup_visible_in_metrics(tiny_cfg, tiny_data):
    train, _ = tiny_data
    # 4 samples, batch 2: one epoch = 2 steps of warmup.
    _, _, rows = train_stage1(tiny_cfg, train, steps=6)
    lrs = [r["lr"] for r in rows]
    assert lrs[0] < lrs[1] <= tiny_cfg.train.learning_rate
    assert lrs[1] == pytest.approx(tiny_cfg.train.learning_rate)
    assert all(a >= b for a, b in zip(lrs[1:], lrs[2:]))


def test_infinite_warmup_is_refused_before_the_first_step(tiny_cfg, tiny_data):
    # The config's own check counts data.train_samples rows; a split of another
    # size (a shard's count may differ) is checked again by the trainer.
    train, _ = tiny_data
    cfg = replace(tiny_cfg, train=replace(tiny_cfg.train, warmup_epochs=1e308))
    with pytest.raises(ConfigError, match=r"^train\.warmup_epochs: 1e\+308 epochs of 2 steps is not a finite step count$"):
        train_stage1(cfg, train, steps=1)


def test_training_determinism_bytes(tmp_path, tiny_cfg, tiny_data):
    train, _ = tiny_data
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        train_stage1(tiny_cfg, train, out_dir=out, steps=4)
        outs.append(
            (
                hashlib.sha256((out / "stage1_metrics.csv").read_bytes()).hexdigest(),
                hashlib.sha256((out / "stage1.ckpt").read_bytes()).hexdigest(),
            )
        )
    assert outs[0] == outs[1]


def test_divergence_aborts_with_lastgood(tmp_path, tiny_cfg, tiny_data):
    train, _ = tiny_data
    poisoned = list(train)
    bad = poisoned[0]
    patches = bad.patches.copy()
    patches[0, 0] = np.nan
    poisoned[0] = replace(bad, patches=patches)
    with pytest.raises(DivergenceError):
        train_stage1(tiny_cfg, poisoned, out_dir=tmp_path, steps=4)
    params, stage, _ = load_checkpoint(tmp_path / "stage1_lastgood.ckpt")
    assert stage == "stage1"
    assert all(np.isfinite(v).all() for v in params.values())


@pytest.mark.parametrize("stage", [1, 2])
def test_step_tape_is_freed_without_the_cycle_collector(monkeypatch, tiny_cfg, tiny_data, stage):
    # A tape that sits in a reference cycle lives until the cyclic collector
    # runs; with the collector off, the previous step's tape must already be
    # gone when the next step's forward starts.
    train, _ = tiny_data
    name = f"stage{stage}_batch_loss"
    forward = getattr(pipeline, name)
    tapes, earlier_alive = [], []

    def watched(*args, **kwargs):
        earlier_alive.append(sum(ref() is not None for ref in tapes))
        tapes.append(weakref.ref(active_tape()))
        return forward(*args, **kwargs)

    monkeypatch.setattr(pipeline, name, watched)
    stage1 = {k: v.data.copy() for k, v in build_stage1_model(tiny_cfg, 0).params().items()}
    gc.collect()
    gc.disable()
    try:
        if stage == 1:
            train_stage1(tiny_cfg, train, steps=4)
        else:
            train_stage2(tiny_cfg, stage1, train, steps=4)
    finally:
        gc.enable()
    assert earlier_alive == [0, 0, 0, 0]


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="heap trimming is glibc's")
def test_training_steps_reuse_the_freed_heap():
    # Each step frees its whole tape; faulting it back in costs about 10,000
    # minor faults per default stage-1 step when the heap top is trimmed.
    cfg = default_config()
    train, _ = generate(replace(cfg.data, train_samples=16, eval_samples=1), 0)
    for _ in range(2):  # the heap grows to its steady size
        train_stage1(cfg, train, steps=2)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    train_stage1(cfg, train, steps=8)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 8 * 100


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path, tiny_cfg):
    model = build_stage1_model(tiny_cfg, seed=3)
    params = model.params()
    save_checkpoint(tmp_path / "m.ckpt", params, "stage1", 17)
    loaded, stage, step = load_checkpoint(tmp_path / "m.ckpt")
    assert stage == "stage1" and step == 17
    assert set(loaded) == set(params)
    for k, v in params.items():
        assert np.array_equal(loaded[k], v.data)


def test_truncated_checkpoint_raises_named_error(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, {"text.w": np.arange(6.0).reshape(2, 3), "video.b": np.ones(4)}, "stage1", 3)
    whole = path.read_bytes()
    key_start = 4 + 18 + len("stage1") + 2  # magic, header, stage, key length
    cuts = {"magic": 2, "header": 11, "key": key_start + 3, "array body": len(whole) - 5, "last byte": len(whole) - 1}
    for cut in cuts.values():
        path.write_bytes(whole[:cut])
        with pytest.raises(TruncatedFileError, match="truncated"):
            load_checkpoint(path)


def test_bit_flipped_checkpoint_names_are_refused(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, {"text.w": np.arange(6.0).reshape(2, 3)}, "stage1", 3)
    whole = path.read_bytes()
    stage_start = 4 + 18  # magic, header
    key_start = stage_start + len("stage1") + 2  # stage, key length
    for offset, what in ((stage_start, "stage name"), (key_start, "parameter name")):
        flipped = bytearray(whole)
        flipped[offset] = 0xFF
        path.write_bytes(bytes(flipped))
        with pytest.raises(CorruptCheckpointError, match=f"m.ckpt.*{what}"):
            load_checkpoint(path)


def test_checkpoint_missing_raises(tmp_path):
    with pytest.raises(MissingCheckpointError, match="nowhere.ckpt"):
        load_checkpoint(tmp_path / "nowhere.ckpt")


def test_metrics_csv_deterministic(tmp_path):
    rows = [
        {"step": 0, "lr": 0.001, "loss_total": 1.5, "loss_global": 1.0, "loss_mtc": 0.5, "loss_mlm": None, "loss_vtm": None}
    ]
    write_metrics_csv(tmp_path / "a.csv", rows)
    write_metrics_csv(tmp_path / "b.csv", rows)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    text = (tmp_path / "a.csv").read_text()
    assert text.splitlines()[0] == "step,lr,loss_total,loss_global,loss_mtc,loss_mlm,loss_vtm"
    assert text.splitlines()[1].endswith(",,")  # stage-two columns empty


# ---------------------------------------------------------------------------
# stage two: freezing
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def stage1_ckpt(tiny_cfg, tiny_data):
    train, _ = tiny_data
    model, state, _ = train_stage1(tiny_cfg, train, steps=4)
    return {k: v.data.copy() for k, v in state.params.items()}


def test_stage2_frozen_digest_unchanged(tiny_cfg, tiny_data, stage1_ckpt):
    train, _ = tiny_data
    model, state, rows = train_stage2(tiny_cfg, stage1_ckpt, train, steps=5)
    before = digest_params(stage1_ckpt, STAGE2_FROZEN_PREFIXES)
    after = digest_params(state.params, STAGE2_FROZEN_PREFIXES)
    assert before == after
    assert rows[0]["loss_mlm"] is not None and rows[0]["loss_vtm"] is not None
    # trainable side must actually move
    assert digest_params(state.params, ("cross.",)) != digest_params(
        {k: v for k, v in stage1_ckpt.items() if k.startswith("cross.")} or {"cross.none": np.zeros(1)}, ("cross.",)
    )


def test_stage2_frozen_parameters_have_zero_gradient(tiny_cfg, tiny_data, stage1_ckpt):
    train, _ = tiny_data
    from longvid.pipeline import encode_frozen, stage2_batch_loss

    model = build_stage2_model(tiny_cfg, tiny_cfg.seed, stage1_ckpt)
    params = model.params()
    for p in params.values():
        p.zero_grad()
    with Tape() as tape:
        total, _, _ = stage2_batch_loss(model, tiny_cfg, train[:2], step=0, frozen=encode_frozen(model.stage1, train[:2]))
        tape.backward(total)
    for path, p in params.items():
        if any(path.startswith(pre) for pre in STAGE2_FROZEN_PREFIXES):
            assert p.grad is None, path
    assert any(p.grad is not None for path, p in params.items() if path.startswith("cross."))


def _stage2_reference_loss(model, cfg, batch, step, seed):
    """Stage 2's loss with four frozen forwards per step, each from the
    inputs: the masked text, the text, the video and the matching videos
    (another sample's patches swapped in)."""
    lo = cfg.losses
    tokens, pad, patches = stack_batch(batch)
    masked = mask_tokens(tokens, lo.mask_rate, np.random.default_rng([seed, pipeline._MASK_STREAM, step]), cfg.data.vocab_size)
    mixed, labels = vtm_pairs(patches, lo.vtm_replace_prob, np.random.default_rng([seed, pipeline._VTM_STREAM, step]))
    with no_tape():
        tout_masked = model.stage1.text.forward(masked.token_ids, pad)
        vout = model.stage1.video.forward(constant(patches))
        tout = model.stage1.text.forward(tokens, pad)
        vout_mixed = model.stage1.video.forward(constant(mixed))
    cross_m = model.cross.forward(tout_masked.tokens, tout_masked.key_mask, vout.feature_map)
    pos = masked.positions
    joint = np.stack([pos[:, 0], 1 + pos[:, 1] * cfg.data.max_tokens + pos[:, 2]], axis=1)
    l_mlm = mlm_loss(cross_m.tokens, joint, masked.labels, model.cross_heads.params["mlm"])
    cross_v = model.cross.forward(tout.tokens, tout.key_mask, vout_mixed.feature_map)
    l_vtm = vtm_loss(cross_v.cls_feat, labels, model.cross_heads.params["vtm"])
    return stage2_loss(l_mlm, l_vtm, lo.vtm_weight), {"loss_mlm": l_mlm, "loss_vtm": l_vtm}


def _vtm_reference_accuracy(model, cfg, eval_data, seed=9):
    rng = np.random.default_rng([seed, pipeline._VTM_STREAM, 10**6])
    B = cfg.train.batch_size
    hits = 0.0
    with no_tape():
        for start in range(0, len(eval_data) - B + 1, B):
            tokens, pad, patches = stack_batch(eval_data[start : start + B])
            mixed, labels = vtm_pairs(patches, cfg.losses.vtm_replace_prob, rng)
            tout = model.stage1.text.forward(tokens, pad)
            out = model.cross.forward(tout.tokens, tout.key_mask, model.stage1.video.forward(constant(mixed)).feature_map)
            hits += vtm_accuracy(out.cls_feat, labels, model.cross_heads.params["vtm"]) * B
    return hits / (len(eval_data) // B * B)


def test_stage2_matches_four_frozen_forwards_per_step(tiny_cfg, tiny_data, stage1_ckpt):
    # three epochs: every row of the one frozen encode is read three times
    train, eval_ = tiny_data
    model, _, rows = train_stage2(tiny_cfg, stage1_ckpt, train, steps=6)

    ref = build_stage2_model(tiny_cfg, tiny_cfg.seed, stage1_ckpt)
    state = TrainState.fresh(ref.params(), "stage2", frozen=STAGE2_FROZEN_PREFIXES)
    ref_rows = pipeline._train(
        tiny_cfg, state, len(train), 6, None,
        lambda idx, step: _stage2_reference_loss(ref, tiny_cfg, [train[i] for i in idx], step, tiny_cfg.seed),
    )
    assert len(rows) == len(ref_rows) == 6
    for got, want in zip(rows, ref_rows):
        for col in ("loss_total", "loss_mlm", "loss_vtm"):
            assert got[col] == pytest.approx(want[col], rel=1e-12, abs=0.0), (got["step"], col)

    held_out = eval_ + train
    assert pipeline.vtm_eval_accuracy(model, tiny_cfg, held_out) == _vtm_reference_accuracy(model, tiny_cfg, held_out)


@pytest.mark.parametrize("steps", [1, 6])
def test_stage2_video_encodes_each_train_sample_once(monkeypatch, tiny_cfg, tiny_data, stage1_ckpt, steps):
    train, _ = tiny_data
    forward = VideoEncoder.forward
    encoded = []

    def counted(self, patches):
        encoded.append(patches.shape[0])
        return forward(self, patches)

    monkeypatch.setattr(VideoEncoder, "forward", counted)
    train_stage2(tiny_cfg, stage1_ckpt, train, steps=steps)
    assert sum(encoded) == len(train)


def test_stage2_requires_complete_checkpoint(tiny_cfg):
    with pytest.raises(Exception, match="missing required parameter"):
        build_stage2_model(tiny_cfg, 0, {"text.tok_emb": np.zeros((19, 8))})


# ---------------------------------------------------------------------------
# retrieval
# ---------------------------------------------------------------------------


def test_self_retrieval_is_perfect():
    rng = np.random.default_rng(0)
    reps = rng.normal(size=(20, 8))
    reps /= np.linalg.norm(reps, axis=1, keepdims=True)
    report = retrieval_report(reps @ reps.T)
    assert report.r_at_1 == 1.0
    assert report.median_rank == 1.0


def test_untrained_model_near_chance(tiny_cfg):
    # Random reps: over 5 seeds, mean R@1 within 3x of chance on 100 items.
    rates = []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(100, 16))
        b = rng.normal(size=(100, 16))
        rates.append(retrieval_report(a @ b.T).r_at_1)
    assert np.mean(rates) <= 3 * 0.01


def test_rank_invariance_under_monotone_transform():
    rng = np.random.default_rng(1)
    sim = rng.normal(size=(30, 30))
    base = ranks_from_similarity(sim)
    assert np.array_equal(base, ranks_from_similarity(np.exp(sim)))
    assert np.array_equal(base, ranks_from_similarity(3.0 * sim + 7.0))


def test_report_invariants(tiny_cfg, tiny_data):
    train, eval_ = tiny_data
    model = build_stage1_model(tiny_cfg, 0)
    report = eval_retrieval(model, eval_ + train)
    assert report.r_at_1 <= report.r_at_5
    assert report.median_rank >= 1.0
    assert report.count == len(eval_ + train)


def test_eval_batch_size_independent(tiny_cfg, tiny_data):
    train, _ = tiny_data
    model = build_stage1_model(tiny_cfg, 1)
    from longvid.pipeline import encode_eval

    p1, v1 = encode_eval(model, train, batch_size=2)
    p2, v2 = encode_eval(model, train, batch_size=4)
    assert np.allclose(p1, p2, atol=1e-12)
    assert np.allclose(v1, v2, atol=1e-12)


def test_encode_frozen_rows_are_bitwise_independent_of_the_batch_size():
    from longvid.pipeline import encode_frozen

    cfg = default_config()
    _, eval_ = generate(replace(cfg.data, eval_samples=40), cfg.seed)
    model = build_stage1_model(cfg, cfg.seed)
    whole = encode_frozen(model, eval_, batch_size=len(eval_))
    for batch_size in (1, 3, 16):
        frozen = encode_frozen(model, eval_, batch_size=batch_size)
        for f in fields(whole):
            assert np.array_equal(getattr(frozen, f.name), getattr(whole, f.name)), (batch_size, f.name)


def test_eval_empty_split_rejected(tiny_cfg):
    model = build_stage1_model(tiny_cfg, 0)
    with pytest.raises(Exception, match="empty"):
        eval_retrieval(model, [])


# ---------------------------------------------------------------------------
# gradient-check harness
# ---------------------------------------------------------------------------


def test_gradcheck_harness_passes(tiny_cfg):
    report = gradcheck_stage1(tiny_cfg, seeds=(0,), max_random_entries=40)
    assert report.ok, report.render()
    assert report.checked > 200  # all head entries + sampled rest


def test_gradcheck_evaluates_the_stage1_loss_twice_per_entry(monkeypatch, tiny_cfg):
    forward = pipeline.stage1_batch_loss
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return forward(*args, **kwargs)

    monkeypatch.setattr(pipeline, "stage1_batch_loss", counted)
    report = gradcheck_stage1(tiny_cfg, seeds=(0, 1), max_random_entries=10)
    assert report.ok, report.render()
    # one taped evaluation per seed for the analytic side, two per entry
    assert len(calls) == 2 + 2 * report.checked


def test_gradcheck_detects_corrupted_backward():
    # Feed the same comparison logic a wrong backward rule via a custom op:
    # forward is x*x but the recorded gradient is 3x instead of 2x.
    def bad_square(x: DiffArray) -> DiffArray:
        out = DiffArray(x.data * x.data)
        return record_op(out, (x,), lambda g: (3.0 * x.data * g,))

    x = parameter(np.array([0.7, -1.3]))
    res = check_gradients(lambda x: O.sum(bad_square(x)), [x], rtol=1e-3, atol=1e-6)
    assert not res.ok
    assert len(res.mismatches) == 2


def test_gradcheck_owner_rule_differences_the_full_loss_bitwise(monkeypatch, tiny_cfg):
    seen = {}

    def capture(f, arrays, entries, numeric_loss):
        seen.update(f=f, arrays=arrays, numeric_loss=numeric_loss)
        return check_gradients(f, arrays, entries={})

    monkeypatch.setattr(pipeline, "check_gradients", capture)
    gradcheck_stage1(tiny_cfg, seeds=(0,))
    paths = list(build_stage1_model(tiny_cfg, 0).params())
    f, arrays, numeric_loss = seen["f"], seen["arrays"], seen["numeric_loss"]
    nonzero = set()
    for k, a in enumerate(arrays):
        entries = [a.size // 2]
        owner_rule = numeric_gradient(numeric_loss(k), arrays, k, entries=entries)
        assert np.array_equal(owner_rule, numeric_gradient(f, arrays, k, entries=entries)), paths[k]
        if owner_rule.any():
            nonzero.add(paths[k].split(".")[0])
    assert nonzero == {"text", "video", "heads"}


def test_replayed_encoder_refuses_other_inputs(tiny_cfg, tiny_data):
    model = build_stage1_model(tiny_cfg, 0)
    tokens, pad, patches = stack_batch(tiny_data[0][:2])
    text = pipeline.ReplayedEncoder(model.text, tokens, pad)
    video = pipeline.ReplayedEncoder(model.video, constant(patches))
    assert text.forward(tokens, pad) is text.output
    assert video.forward(constant(patches.copy())) is video.output
    other = tokens.copy()
    other[0, 0, 1] += 1
    for replay, inputs in ((text, (other, pad)), (text, (tokens, ~pad)), (video, (constant(patches + 1.0),)), (video, ())):
        with pytest.raises(ValueError, match="other than the ones it was built from"):
            replay.forward(*inputs)


@pytest.mark.parametrize(
    "op, owners", [("l2_normalize", {"heads", "text", "video"}), ("layernorm", {"text", "video"})]
)
def test_gradcheck_catches_a_wrong_rule_in_each_owner(monkeypatch, tiny_cfg, op, owners):
    # The op's recorded backward is scaled by 1.5. l2_normalize runs only in
    # the heads, so every gradient upstream of them is wrong too; layernorm
    # runs only inside the encoders, downstream of no head parameter.
    correct = getattr(O, op)

    def wrong(*args, **kwargs):
        out = correct(*args, **kwargs)
        tape = active_tape()
        if tape is not None and tape.ops and tape.ops[-1].output is out:
            rule = tape.ops[-1].backward_fn
            tape.ops[-1].backward_fn = lambda g: tuple(None if d is None else 1.5 * d for d in rule(g))
        return out

    monkeypatch.setattr(O, op, wrong)
    report = gradcheck_stage1(tiny_cfg, seeds=(0,), max_random_entries=40)
    assert {path.split(".")[0] for path, _ in report.failures} == owners


def test_trainstate_trainable_excludes_frozen(tiny_cfg, stage1_ckpt):
    model = build_stage2_model(tiny_cfg, 0, stage1_ckpt)
    state = TrainState.fresh(model.params(), "stage2", frozen=STAGE2_FROZEN_PREFIXES)
    assert all(not p.startswith(STAGE2_FROZEN_PREFIXES) for p in state.trainable_paths)
    assert any(p.startswith("cross.") for p in state.trainable_paths)
    assert any(p.startswith("cross_heads.") for p in state.trainable_paths)


def test_zero_grad_keeps_a_parameter_bound_to_the_state_vector():
    p = parameter(np.ones(3))
    state = TrainState.fresh({"w": p}, "stage1")
    for _ in range(2):  # the second zero_grad clears the first backward's gradient
        p.zero_grad()
        with Tape() as tape:
            tape.backward(O.sum(O.mul(p, p)))
        assert np.shares_memory(p.grad, state.grad)
        assert np.array_equal(state.grad, [2.0, 2.0, 2.0])


@pytest.mark.parametrize("stage", [1, 2])
def test_trainable_parameters_are_views_of_the_state_vectors(tiny_cfg, tiny_data, stage1_ckpt, stage):
    train, _ = tiny_data
    if stage == 1:
        _, state, _ = train_stage1(tiny_cfg, train, steps=1)
    else:
        _, state, _ = train_stage2(tiny_cfg, stage1_ckpt, train, steps=1)
    params = state.params
    frozen = STAGE2_FROZEN_PREFIXES if stage == 2 else ()
    assert state.trainable_paths == sorted(k for k in params if not k.startswith(frozen))

    def check_layout():
        for path, p in params.items():
            trainable = path in state.trainable_paths
            assert np.shares_memory(p.data, state.data) == trainable, path
            assert (p.grad is not None and np.shares_memory(p.grad, state.grad)) == trainable, path
        assert np.array_equal(np.concatenate([params[k].data.ravel() for k in state.trainable_paths]), state.data)

    check_layout()
    rng = np.random.default_rng(0)
    source = {path: rng.standard_normal(p.shape) for path, p in params.items()}
    pipeline.load_params(params, source)
    check_layout()
    assert all(np.array_equal(p.data, source[path]) for path, p in params.items())


def test_unreached_parameter_is_decayed_exactly(tiny_cfg, tiny_data):
    # With MTC off nothing reads the clip head, so its gradient is 0: AdamW's
    # moments stay 0 and each step only decays the weight.
    cfg = replace(tiny_cfg, losses=replace(tiny_cfg.losses, mtc_weight=0.0))
    train, _ = tiny_data
    w0 = build_stage1_model(cfg, cfg.seed).params()["heads.clip.w"].data.copy()
    model, _, rows = train_stage1(cfg, train, steps=5)
    tr = cfg.train
    w, m, v = w0.copy(), np.zeros_like(w0), np.zeros_like(w0)
    for t, row in enumerate(rows, start=1):
        mhat = m / (1 - tr.beta1**t)
        vhat = v / (1 - tr.beta2**t)
        w -= row["lr"] * (mhat / (np.sqrt(vhat) + tr.adam_eps) + tr.weight_decay * w)
    assert not np.array_equal(w, w0)
    assert np.array_equal(model.heads.params["clip"]["w"].data, w)


# ---------------------------------------------------------------------------
# the tape's aliasing audit
# ---------------------------------------------------------------------------

# Ops whose backward reads no input values, so an input may change between
# recording and the backward (an `add(out=)` buffer, a view's base).
_BACKWARD_READS_NO_INPUT = {"add", "reshape", "transpose"}


@pytest.fixture
def aliasing_audit(monkeypatch):
    """Tape.record takes a crc32 of each input of an op; just before that op's
    backward, every input that the backward may read must still match. The
    fixture's list gathers the name of each op whose backward ran."""
    audited = []
    record = Tape.record

    def audited_record(self, inputs, output, backward_fn):
        inputs = tuple(inputs)
        op = backward_fn.__qualname__.split(".")[0]
        crcs = [zlib.crc32(i.data.tobytes()) for i in inputs]

        def checked(g):
            if op not in _BACKWARD_READS_NO_INPUT:
                for k, (inp, crc) in enumerate(zip(inputs, crcs)):
                    assert zlib.crc32(inp.data.tobytes()) == crc, f"{op}: input {k} changed after recording"
            audited.append(op)
            return backward_fn(g)

        record(self, inputs, output, checked)

    monkeypatch.setattr(Tape, "record", audited_record)
    return audited


def test_aliasing_audit_sees_a_changed_input(aliasing_audit):
    x = parameter(np.array([0.5, -2.0]))
    with Tape() as tape:
        y = O.mul(x, x)
        x.data[0] = 3.0
        with pytest.raises(AssertionError, match="mul: input 0 changed after recording"):
            tape.backward(O.sum(y))


def test_no_backward_reads_an_input_changed_after_recording(aliasing_audit, tiny_cfg):
    # The default config, so that the pieced ops run in several pieces.
    cfg = default_config()
    train, _ = generate(replace(cfg.data, train_samples=16, eval_samples=1), 0)
    stage1 = train_stage1(cfg, train, steps=1)[0]
    after_stage1 = len(aliasing_audit)
    train_stage2(cfg, {k: p.data for k, p in stage1.params().items()}, train, steps=1)
    after_stage2 = len(aliasing_audit)
    assert gradcheck_stage1(tiny_cfg, seeds=(0,), max_random_entries=1).ok
    assert 0 < after_stage1 < after_stage2 < len(aliasing_audit)
    assert {"matmul", "qkv_attention", "feed_forward", "layernorm"} <= set(aliasing_audit)
