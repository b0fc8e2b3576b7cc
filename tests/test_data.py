"""Generator contracts: determinism, masking statistics, pairing, shards,
alignment probes."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from longvid.config import CLS_ID, MASK_ID, NUM_SPECIAL, PAD_ID, default_config
from longvid.data import (
    TruncatedFileError,
    clip_observation,
    generate,
    mask_tokens,
    nearest_topic_accuracy,
    read_shard,
    sentence_observation,
    stack_batch,
    vtm_pairs,
    write_shard,
)


@pytest.fixture(scope="module")
def cfg():
    return default_config().data


@pytest.fixture(scope="module")
def dataset(cfg):
    return generate(cfg, 0)


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


def test_default_shape_is_long_form(cfg, dataset):
    train, _ = dataset
    s = train[0]
    assert s.patches.shape == (4, 8, cfg.patch_rows, cfg.patch_cols, cfg.patch_dim)
    assert cfg.clips * cfg.frames_per_clip == 32
    assert s.tokens.shape == (4, cfg.max_tokens)
    assert (s.tokens[:, 0] == CLS_ID).all()


def test_split_disjoint_ids(dataset):
    train, eval_ = dataset
    assert not {s.sample_id for s in train} & {s.sample_id for s in eval_}


def test_no_sentence_sequence_shared_across_splits(dataset):
    train, eval_ = dataset
    train_sents = {tuple(s.tokens[m]) for s in train for m in range(s.tokens.shape[0])}
    eval_sents = {tuple(s.tokens[m]) for s in eval_ for m in range(s.tokens.shape[0])}
    assert not train_sents & eval_sents


def test_same_seed_byte_identical(cfg):
    a, _ = generate(cfg, 5)
    b, _ = generate(cfg, 5)
    for x, y in zip(a, b):
        assert x.patches.tobytes() == y.patches.tobytes()
        assert x.tokens.tobytes() == y.tokens.tobytes()


def test_different_seed_differs(cfg):
    a, _ = generate(cfg, 5)
    b, _ = generate(cfg, 6)
    assert not np.array_equal(a[0].patches, b[0].patches)


def test_degenerate_walk_collapses_topics(cfg):
    frozen = replace(cfg, walk_step=0.0)
    train, _ = generate(frozen, 0)
    for s in train[:10]:
        assert np.abs(s.topics - s.topics[0]).max() < 1e-12


def test_temporal_distance_correlates_with_topic_distance(cfg, dataset):
    train, _ = dataset
    time_d, topic_d = [], []
    for s in train:
        m = s.topics.shape[0]
        for i in range(m):
            for j in range(i + 1, m):
                time_d.append(j - i)
                topic_d.append(np.linalg.norm(s.topics[i] - s.topics[j]))
    corr = np.corrcoef(time_d, topic_d)[0, 1]
    assert corr > 0.3


# ---------------------------------------------------------------------------
# masking
# ---------------------------------------------------------------------------


def test_mask_rate_within_binomial_interval(cfg):
    # ~1e4 maskable tokens at rate 0.15: count within the stated interval.
    train, _ = generate(replace(cfg, train_samples=420), 1)
    tokens = np.stack([s.tokens for s in train])
    maskable = int((tokens >= NUM_SPECIAL).sum())
    assert maskable >= 10_000
    rate = 0.15
    batch = mask_tokens(tokens, rate, np.random.default_rng(2), cfg.vocab_size)
    expected = maskable * rate
    lo, hi = expected * (1350 / 1500), expected * (1650 / 1500)
    assert lo <= len(batch.positions) <= hi


def test_mask_never_selects_special_tokens(cfg, dataset):
    train, _ = dataset
    tokens = np.stack([s.tokens for s in train])
    batch = mask_tokens(tokens, 0.15, np.random.default_rng(3), cfg.vocab_size)
    originals = tokens[tuple(batch.positions.T)]
    assert (originals >= NUM_SPECIAL).all()
    for special in (PAD_ID, CLS_ID, MASK_ID):
        untouched = tokens == special
        assert np.array_equal(batch.token_ids[untouched], tokens[untouched])


def test_mask_replacement_proportions(cfg):
    train, _ = generate(replace(cfg, train_samples=1400), 4)
    tokens = np.stack([s.tokens for s in train])
    batch = mask_tokens(tokens, 0.15, np.random.default_rng(5), cfg.vocab_size)
    assert len(batch.positions) >= 1000
    replaced = batch.token_ids[tuple(batch.positions.T)]
    n = len(batch.positions)
    frac_mask = (replaced == MASK_ID).sum() / n
    frac_keep = (replaced == batch.labels).sum() / n
    assert 0.77 <= frac_mask <= 0.83
    # "unchanged" includes the rare random draw equal to the original
    assert 0.07 <= frac_keep <= 0.14
    assert np.array_equal(batch.labels, tokens[tuple(batch.positions.T)])


def test_mask_rejects_bad_rate(cfg, dataset):
    train, _ = dataset
    tokens = np.stack([s.tokens for s in train[:2]])
    with pytest.raises(ValueError):
        mask_tokens(tokens, 1.0, np.random.default_rng(0), cfg.vocab_size)


# ---------------------------------------------------------------------------
# matched/mismatched pairing
# ---------------------------------------------------------------------------


def test_vtm_prob_zero_all_matched(dataset):
    train, _ = dataset
    patches = np.stack([s.patches for s in train[:6]])
    out, labels = vtm_pairs(patches, 0.0, np.random.default_rng(0))
    assert (labels == 1).all()
    assert np.array_equal(out, patches)


def test_vtm_prob_one_two_samples_swap(dataset):
    train, _ = dataset
    patches = np.stack([s.patches for s in train[:2]])
    out, labels = vtm_pairs(patches, 1.0, np.random.default_rng(1))
    assert (labels == 0).all()
    assert np.array_equal(out[0], patches[1])
    assert np.array_equal(out[1], patches[0])


def test_vtm_balance_within_binomial_interval(dataset):
    train, _ = dataset
    patches = np.stack([s.patches for s in train[:8]])
    rng = np.random.default_rng(2)
    negatives = 0
    for _ in range(250):  # 2000 pairs
        _, labels = vtm_pairs(patches, 0.5, rng)
        negatives += int((labels == 0).sum())
    assert 940 <= negatives <= 1060


def test_vtm_replacement_comes_from_other_sample(dataset):
    train, _ = dataset
    patches = np.stack([s.patches for s in train[:5]])
    rng = np.random.default_rng(3)
    out, labels = vtm_pairs(patches, 1.0, rng)
    for i in range(5):
        assert labels[i] == 0
        assert not np.array_equal(out[i], patches[i])
        assert any(np.array_equal(out[i], patches[j]) for j in range(5) if j != i)


def test_vtm_rejects_batch_of_one(dataset):
    train, _ = dataset
    with pytest.raises(ValueError):
        vtm_pairs(np.stack([train[0].patches]), 0.5, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# shard io
# ---------------------------------------------------------------------------


def test_shard_round_trip(tmp_path, cfg, dataset):
    train, _ = dataset
    path = tmp_path / "train.shard"
    write_shard(path, train[:12], cfg)
    back, meta = read_shard(path)
    assert meta["count"] == 12
    assert meta["clips"] == cfg.clips and meta["vocab_size"] == cfg.vocab_size
    for a, b in zip(train[:12], back):
        assert a.sample_id == b.sample_id
        assert np.array_equal(a.patches, b.patches)
        assert np.array_equal(a.tokens, b.tokens)
        assert np.array_equal(a.topics, b.topics)
        assert np.array_equal(a.lengths, b.lengths)


def test_shard_bytes_deterministic(tmp_path, cfg, dataset):
    train, _ = dataset
    p1, p2 = tmp_path / "a.shard", tmp_path / "b.shard"
    write_shard(p1, train[:5], cfg)
    write_shard(p2, train[:5], cfg)
    assert hashlib.sha256(p1.read_bytes()).digest() == hashlib.sha256(p2.read_bytes()).digest()


def test_shard_rejects_wrong_magic(tmp_path):
    bad = tmp_path / "bad.shard"
    bad.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValueError, match="magic"):
        read_shard(bad)


def test_truncated_shard_raises_named_error(tmp_path):
    small = replace(
        default_config().data, train_samples=2, eval_samples=1, clips=2, frames_per_clip=2, patch_rows=2, patch_cols=2, patch_dim=4
    )
    train, _ = generate(small, 0)
    path = tmp_path / "t.shard"
    write_shard(path, train, small)
    whole = path.read_bytes()
    header = 4 + 4 + 9 * 4
    cuts = {"magic": 2, "header": 20, "sample id": header + 3, "topics": header + 8 + 5, "array body": len(whole) - 3}
    for cut in cuts.values():
        path.write_bytes(whole[:cut])
        with pytest.raises(TruncatedFileError, match="truncated"):
            read_shard(path)


def test_stack_batch_layout(dataset, cfg):
    train, _ = dataset
    tokens, pad, patches = stack_batch(train[:3])
    assert tokens.shape == (3, cfg.clips, cfg.max_tokens)
    assert patches.shape == (3, cfg.frames, cfg.patch_rows, cfg.patch_cols, cfg.patch_dim)
    assert (pad == (tokens != PAD_ID)).all()


# ---------------------------------------------------------------------------
# alignment probes
# ---------------------------------------------------------------------------


def test_clip_probe_accuracy(dataset, cfg):
    train, _ = dataset
    obs = np.concatenate([clip_observation(s) for s in train])
    tgt = np.concatenate([s.topics for s in train])
    assert nearest_topic_accuracy(obs, tgt, train) > 0.9


def test_sentence_probe_accuracy(dataset, cfg):
    train, _ = dataset
    obs = np.concatenate([sentence_observation(s, cfg.vocab_size) for s in train])
    tgt = np.concatenate([s.topics for s in train])
    assert nearest_topic_accuracy(obs, tgt, train) > 0.9
