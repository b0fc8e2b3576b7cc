"""Encoder contracts: sentence-local attention, clip/video representation
extraction, cross-modal joining, and the paper-shaped smoke test."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from longvid.config import (
    CLS_ID,
    NUM_SPECIAL,
    PAD_ID,
    build_config,
    default_config,
    merge_config_dict,
    paper_shaped_overlay,
)
from longvid.attention import multi_head_attention
from longvid.data import generate
from longvid.encoders import (
    PIECE_CHUNKS,
    ContrastiveHeads,
    CrossEncoder,
    TextEncoder,
    VideoEncoder,
    _block,
    _block_params,
    _ffn,
    encode_pair,
)
from longvid.engine import ShapeError, Tape, constant, no_tape, parameter
from longvid.engine import sum as asum
from longvid.engine import ops as O
from longvid.engine.ops import CHUNK, count_multiply_adds
from longvid.params import flatten_params


@pytest.fixture(scope="module")
def toy():
    cfg = default_config()
    rng = np.random.default_rng(0)
    return cfg, {
        "text": TextEncoder(cfg.model, cfg.data, rng),
        "video": VideoEncoder(cfg.model, cfg.data, rng),
        "cross": CrossEncoder(cfg.model, cfg.data, rng),
        "heads": ContrastiveHeads(cfg.model, cfg.data, rng),
    }


def make_tokens(cfg, rng, batch=2):
    d = cfg.data
    ids = rng.integers(NUM_SPECIAL, d.vocab_size, size=(batch, d.clips, d.max_tokens))
    ids[:, :, 0] = CLS_ID
    ids[:, :, -1] = PAD_ID  # exercise padding
    return ids, ids != PAD_ID


def make_patches(cfg, rng, batch=2):
    d = cfg.data
    return rng.normal(size=(batch, d.frames, d.patch_rows, d.patch_cols, d.patch_dim))


# ---------------------------------------------------------------------------
# text encoder
# ---------------------------------------------------------------------------


def test_text_paper_config_sequence_length():
    doc = merge_config_dict(paper_shaped_overlay())
    cfg = build_config(doc)
    assert 1 + cfg.data.clips * cfg.data.max_tokens == 201


def test_text_identical_sentences_identical_reps(toy):
    cfg, enc = toy
    rng = np.random.default_rng(1)
    ids, pad = make_tokens(cfg, rng, batch=1)
    ids[0] = ids[0, 0]  # repeat sentence 0 across all slots
    pad = ids != PAD_ID
    out = enc["text"].forward(ids, pad)
    reps = out.sentence_feats.data[0]
    for m in range(1, cfg.data.clips):
        assert np.allclose(reps[m], reps[0], atol=1e-12)


def test_text_sentence_isolation_in_part_one(toy):
    cfg, enc = toy
    rng = np.random.default_rng(2)
    ids, pad = make_tokens(cfg, rng, batch=1)
    out0 = enc["text"].forward(ids, pad).sentence_feats.data[0, 0]
    mutated = ids.copy()
    body = slice(1, cfg.data.max_tokens - 1)
    mutated[0, 1, body] = NUM_SPECIAL + (mutated[0, 1, body] - NUM_SPECIAL + 1) % cfg.data.content_vocab
    out1 = enc["text"].forward(mutated, mutated != PAD_ID).sentence_feats.data[0, 0]
    assert np.array_equal(out0, out1)


def test_text_paragraph_depends_on_every_sentence(toy):
    cfg, enc = toy
    rng = np.random.default_rng(3)
    ids, pad = make_tokens(cfg, rng, batch=1)
    base = enc["text"].forward(ids, pad).paragraph_feat.data
    for m in range(cfg.data.clips):
        mutated = ids.copy()
        mutated[0, m, 1] = NUM_SPECIAL + (mutated[0, m, 1] - NUM_SPECIAL + 1) % cfg.data.content_vocab
        changed = enc["text"].forward(mutated, mutated != PAD_ID).paragraph_feat.data
        assert not np.array_equal(base, changed)


def test_text_rejects_missing_cls(toy):
    cfg, enc = toy
    rng = np.random.default_rng(4)
    ids, pad = make_tokens(cfg, rng)
    ids[0, 0, 0] = NUM_SPECIAL
    with pytest.raises(ShapeError, match="CLS"):
        enc["text"].forward(ids, pad)


def test_text_rejects_overlong_ids(toy):
    cfg, enc = toy
    rng = np.random.default_rng(5)
    ids, pad = make_tokens(cfg, rng)
    ids[0, 0, 1] = cfg.data.vocab_size
    with pytest.raises(ShapeError, match="range"):
        enc["text"].forward(ids, pad)


def test_text_sentence_rep_count(toy):
    cfg, enc = toy
    rng = np.random.default_rng(6)
    ids, pad = make_tokens(cfg, rng, batch=3)
    out = enc["text"].forward(ids, pad)
    assert out.sentence_feats.shape == (3, cfg.data.clips, cfg.model.text.dim)
    assert out.tokens.shape == (3, 1 + cfg.data.clips * cfg.data.max_tokens, cfg.model.text.dim)


def dense_mask_text_forward(text: TextEncoder, ids: np.ndarray, pad: np.ndarray):
    """TextEncoder.forward with its sentence layers as full attention over
    each paragraph's flat M·L tokens under a block-diagonal and padding
    mask: the (B, M, d), (B, d) and (B, 1 + M·L, d) outputs."""
    B, M, L = ids.shape
    n, d, t, p = M * L, text.cfg.dim, text.cfg, text.params
    x = O.take(p["tok_emb"], ids.reshape(B, n))
    x = O.reshape(O.add(O.reshape(x, (B, M, L, d)), O.reshape(p["pos_emb"], (1, 1, L, d))), (B, n, d))
    sentence = np.arange(n) // L
    allowed = (sentence[:, None] == sentence[None, :]) & pad.reshape(B, 1, n)
    mask = np.where(allowed[:, None], 0.0, -1e9)  # (B, 1, n, n)
    for i in range(t.sentence_layers):
        x = _block(x, p["sentence_blocks"][str(i)], lambda h, a: multi_head_attention(h, a, t.heads, mask))
    sentence_feats = O.take(x, np.arange(M) * L, axis=1)

    x2 = O.reshape(O.add(O.reshape(x, (B, M, L, d)), O.reshape(p["seg_emb"], (1, M, 1, d))), (B, n, d))
    x2 = O.concat([O.mean(sentence_feats, axis=1, keepdims=True), x2], axis=1)
    keys = np.concatenate([np.ones((B, 1), dtype=bool), pad.reshape(B, n)], axis=1)
    mask2 = np.where(keys[:, None, None, :], 0.0, -1e9)
    for i in range(t.paragraph_layers):
        x2 = _block(x2, p["paragraph_blocks"][str(i)], lambda h, a: multi_head_attention(h, a, t.heads, mask2))
    x2 = O.layernorm(x2, p["ln_out"]["g"], p["ln_out"]["b"])
    return sentence_feats.data, O.take(x2, 0, axis=1).data, x2.data


@pytest.mark.parametrize("overlay", [{}, {"data": {"max_tokens": 50}}], ids=["default", "max_tokens=50"])
def test_sentence_layers_match_the_dense_block_mask(overlay):
    cfg = build_config(merge_config_dict(overlay))
    text = TextEncoder(cfg.model, cfg.data, np.random.default_rng(0))
    ids = np.stack([s.tokens for s in generate(cfg.data, 0)[0][:8]])
    pad = ids != PAD_ID
    assert not pad.all()  # some sentences are padded
    with no_tape():
        out = text.forward(ids, pad)
        expected = dense_mask_text_forward(text, ids, pad)
    for got, want in zip((out.sentence_feats, out.paragraph_feat, out.tokens), expected):
        assert got.shape == want.shape
        assert np.abs(got.data - want).max() <= 1e-12


def test_text_forward_multiply_adds_match_the_closed_form(toy):
    """The multiply-adds of one TextEncoder.forward, per sample: each sentence
    layer's projections, its M per-sentence L x L score and weighted-sum
    products and its FFN, then each paragraph layer's over N = 1 + M·L."""
    cfg, enc = toy
    t, M, L, B = cfg.model.text, cfg.data.clips, cfg.data.max_tokens, 8
    d, r = t.dim, t.ffn_ratio
    n, N = M * L, 1 + M * L
    sentence_layer = 4 * n * d**2 + 2 * M * L**2 * d + 2 * r * n * d**2
    paragraph_layer = 4 * N * d**2 + 2 * N**2 * d + 2 * r * N * d**2
    closed_form = B * (t.sentence_layers * sentence_layer + t.paragraph_layers * paragraph_layer)
    ids, pad = make_tokens(cfg, np.random.default_rng(14), batch=B)
    with no_tape(), count_multiply_adds() as counted:
        enc["text"].forward(ids, pad)
    assert counted.multiply_adds == closed_form == 14_156_800


# ---------------------------------------------------------------------------
# video encoder
# ---------------------------------------------------------------------------


def test_video_shapes_and_clip_count(toy):
    cfg, enc = toy
    rng = np.random.default_rng(7)
    out = enc["video"].forward(constant(make_patches(cfg, rng, batch=2)))
    assert out.clip_feats.shape == (2, cfg.data.clips, 32)
    assert out.video_feat.shape == (2, 32)
    assert out.feature_map.shape == (2, cfg.data.frames, 1, 1, 32)


def test_video_constant_input_equal_clip_reps(toy):
    cfg, enc = toy
    patches = np.ones((1, cfg.data.frames, cfg.data.patch_rows, cfg.data.patch_cols, cfg.data.patch_dim))
    out = enc["video"].forward(constant(patches))
    clips = out.clip_feats.data[0]
    for m in range(1, cfg.data.clips):
        assert np.allclose(clips[m], clips[0], atol=1e-9)


def test_video_clip_rep_locality(toy):
    # The clip stage (window == frames per clip, cumulative coverage == one
    # clip) must keep clip representations independent across clips.
    cfg, enc = toy
    rng = np.random.default_rng(8)
    patches = make_patches(cfg, rng, batch=1)
    base = enc["video"].forward(constant(patches)).clip_feats.data[0]
    bumped = patches.copy()
    n = cfg.data.frames_per_clip
    bumped[0, 2 * n : 3 * n] = 0.0  # zero out clip 2
    out = enc["video"].forward(constant(bumped)).clip_feats.data[0]
    assert not np.array_equal(out[2], base[2])
    assert np.array_equal(out[0], base[0])
    assert np.array_equal(out[1], base[1])


def test_video_rejects_wrong_frame_count(toy):
    cfg, enc = toy
    rng = np.random.default_rng(9)
    bad = rng.normal(size=(1, cfg.data.frames - 1, cfg.data.patch_rows, cfg.data.patch_cols, cfg.data.patch_dim))
    with pytest.raises(ShapeError):
        enc["video"].forward(constant(bad))


# ---------------------------------------------------------------------------
# cross-modal encoder
# ---------------------------------------------------------------------------


def test_cross_token_count_toy(toy):
    cfg, enc = toy
    rng = np.random.default_rng(10)
    ids, pad = make_tokens(cfg, rng, batch=2)
    tout = enc["text"].forward(ids, pad)
    vout = enc["video"].forward(constant(make_patches(cfg, rng, batch=2)))
    out = enc["cross"].forward(tout.tokens, tout.key_mask, vout.feature_map)
    expected = 1 + cfg.data.clips * cfg.data.max_tokens + cfg.data.frames * enc["cross"].video_tokens_per_frame
    assert out.tokens.shape[1] == expected


def test_cross_paper_token_count():
    doc = merge_config_dict(paper_shaped_overlay())
    cfg = build_config(doc)
    rng = np.random.default_rng(0)
    cross = CrossEncoder(cfg.model, cfg.data, rng)
    assert cross.video_tokens_per_frame == 6
    assert cross.total_tokens == 1 + 50 * 4 + 32 * 6


@pytest.mark.parametrize("seed", range(10))
def test_cross_sensitive_to_both_modalities(toy, seed):
    cfg, enc = toy
    rng = np.random.default_rng(100 + seed)
    ids, pad = make_tokens(cfg, rng, batch=2)
    patches = make_patches(cfg, rng, batch=2)
    tout = enc["text"].forward(ids, pad)
    vout = enc["video"].forward(constant(patches))
    base = enc["cross"].forward(tout.tokens, tout.key_mask, vout.feature_map).cls_feat.data

    ids2 = ids.copy()
    ids2[0, 0, 1] = NUM_SPECIAL + (ids2[0, 0, 1] - NUM_SPECIAL + 1) % cfg.data.content_vocab
    tout2 = enc["text"].forward(ids2, ids2 != PAD_ID)
    out_text = enc["cross"].forward(tout2.tokens, tout2.key_mask, vout.feature_map).cls_feat.data
    assert not np.array_equal(base[0], out_text[0])

    vout2 = enc["video"].forward(constant(patches + rng.normal(scale=0.5, size=patches.shape)))
    out_video = enc["cross"].forward(tout.tokens, tout.key_mask, vout2.feature_map).cls_feat.data
    assert not np.array_equal(base[0], out_video[0])


# ---------------------------------------------------------------------------
# projection heads
# ---------------------------------------------------------------------------


def test_all_projected_reps_unit_norm(toy):
    cfg, enc = toy
    rng = np.random.default_rng(12)
    ids, pad = make_tokens(cfg, rng, batch=3)
    pair = encode_pair(enc["text"], enc["video"], enc["heads"], ids, pad, constant(make_patches(cfg, rng, batch=3)))
    for reps in (pair.sentence_reps, pair.paragraph_rep, pair.clip_reps, pair.video_rep):
        norms = np.linalg.norm(reps.data, axis=-1)
        assert np.abs(norms - 1.0).max() < 1e-9


# ---------------------------------------------------------------------------
# the untaped forward writes only into buffers it allocated
# ---------------------------------------------------------------------------

UNTAPED_CONFIGS = {
    "default": {},
    # One stage whose window spans every frame and the whole grid: the window
    # transposes are no-ops, so partition and merge return views.
    "one-full-window": {
        "data": {"clips": 1},
        "model": {"video": {"stages": [{"layers": 2, "dim": 32, "heads": 4, "temporal_window": 8}]}},
        "losses": {"anchor_count": 1, "candidate_count": 1},
    },
}


# At CHUNK 64 the default config runs many pieces of windows and one-head
# attention groups in every video stage.
UNTAPED_CASES = [pytest.param(overlay, None, id=name) for name, overlay in UNTAPED_CONFIGS.items()] + [
    pytest.param(overlay, 64, id=f"{name}-chunk64") for name, overlay in UNTAPED_CONFIGS.items()
]


@pytest.mark.parametrize("overlay, chunk", UNTAPED_CASES)
def test_untaped_forward_is_the_taped_one_and_keeps_its_inputs(overlay, chunk, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(O, "CHUNK", chunk)
    cfg = build_config(merge_config_dict(overlay))
    rng = np.random.default_rng(7)
    text, video, cross = (E(cfg.model, cfg.data, rng) for E in (TextEncoder, VideoEncoder, CrossEncoder))
    ids, pad = make_tokens(cfg, rng)
    patches = make_patches(cfg, rng)
    params = [p.data for enc in (text, video, cross) for p in flatten_params(enc.params).values()]

    def digests(arrays):
        return [hashlib.sha256(a.tobytes()).hexdigest() for a in arrays]

    def forward():
        tout = text.forward(ids, pad)
        vout = video.forward(constant(patches))
        cross_inputs = [tout.tokens.data, tout.key_mask, vout.feature_map.data]
        before = digests(cross_inputs)
        out = cross.forward(tout.tokens, tout.key_mask, vout.feature_map)
        assert digests(cross_inputs) == before
        outs = (tout.sentence_feats, tout.paragraph_feat, tout.tokens, vout.clip_feats, vout.video_feat, vout.feature_map, out.tokens, out.cls_feat)
        return [o.data.tobytes() for o in outs]

    with Tape():
        taped = forward()
    before = digests([*params, ids, pad, patches])
    with no_tape():
        untaped = forward()
    assert untaped == taped
    assert digests([*params, ids, pad, patches]) == before


@pytest.mark.parametrize("layers, ops", [(1, 89), (2, 134)], ids=["one-block", "two-blocks"])
def test_a_taped_video_stage_gathers_and_merges_once(layers, ops):
    """A taped video forward on the default schedule with `layers` blocks in
    every stage. Each stage gathers its grid into window layout once and
    merges it back once, so a second block in each of the five stages adds
    only its own 9 ops."""
    stages = [
        {"layers": layers, "dim": s.dim, "heads": s.heads, "temporal_window": s.temporal_window, "merge": s.merge}
        for s in default_config().model.video.stages
    ]
    cfg = build_config(merge_config_dict({"model": {"video": {"stages": stages}}}))
    rng = np.random.default_rng(11)
    video = VideoEncoder(cfg.model, cfg.data, rng)
    with Tape() as tape:
        video.forward(constant(make_patches(cfg, rng)))
    assert len(tape) == ops


def test_an_untaped_feed_forward_layer_holds_one_hidden_buffer():
    """Peak bytes an untaped feed-forward layer on a (2048, 32) input with
    ffn_ratio 4 allocates: gelu writes into fc1's product, so one hidden
    buffer, the output and one piece of CHUNK float64 scratch, with slack
    for the Python objects."""
    rng = np.random.default_rng(8)
    p = _block_params(rng, 32, 4, 4)
    x = constant(rng.normal(size=(2048, 32)))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = _ffn(x, p)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    hidden = 4 * x.data.nbytes
    assert peak <= hidden + out.data.nbytes + CHUNK * 8 + x.data.nbytes // 16


def test_a_taped_feed_forward_layer_keeps_one_hidden_buffer():
    """Peak bytes of a taped feed-forward layer's forward and backward on a
    (2048, 32) parameter with ffn_ratio 4: the hidden buffer the tape keeps
    (fc1's product, which the backward recomputes GELU from), at most two
    hidden-width transients (GELU in the forward; in the backward x's
    gradient and the recomputed GELU, or that gradient and its copy), four
    arrays of the layer's width (its output and the gradients and copies of
    it and of x), one piece of CHUNK float64 scratch, and slack for the
    Python objects. A tape that also keeps GELU's output reaches four
    hidden buffers."""
    rng = np.random.default_rng(8)
    p = _block_params(rng, 32, 4, 4)
    x = parameter(rng.normal(size=(2048, 32)))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with Tape() as tape:
            tape.backward(asum(_ffn(x, p)))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    hidden = 4 * x.data.nbytes
    assert peak <= 3 * hidden + 4 * x.data.nbytes + CHUNK * 8 + x.data.nbytes // 16


def test_an_untaped_video_forward_holds_two_grids_a_piece_and_a_head_group(monkeypatch):
    """Peak bytes of an untaped video forward whose stage-0 grid (32 frames
    at 16 x 16, width 32) is large and whose last window holds 512 tokens
    over 8 heads, at a CHUNK of 1024: 32 pieces of windows at stage 0 and
    one-head groups at the last stage. The bound is two stage-0 grids (the
    stage's window copy and the grid it merges back to), one piece (its
    hidden buffer and as much again for its width-32 arrays) and seven
    (t, t) arrays of the last window, plus a quarter grid of slack. Seven
    is what the relative index map takes while it is built, and more than
    the map, one head group's bias and its probabilities. Holding a stage's
    copies layer by layer, or every head's bias and probabilities of the
    last window, exceeds it."""
    monkeypatch.setattr(O, "CHUNK", 1024)
    overlay = {
        "data": {"patch_rows": 16, "patch_cols": 16},
        "model": {
            "video": {
                "stages": [
                    {"layers": 2, "dim": 32, "heads": 4, "temporal_window": 2, "merge": 1, "spatial_window": [4, 4]},
                    {"layers": 1, "dim": 32, "heads": 4, "temporal_window": 8, "merge": 2, "spatial_window": [4, 4]},
                    {"layers": 1, "dim": 32, "heads": 8, "temporal_window": 32, "merge": 2},
                ]
            }
        },
    }
    cfg = build_config(merge_config_dict(overlay))
    rng = np.random.default_rng(9)
    video = VideoEncoder(cfg.model, cfg.data, rng)
    patches = constant(make_patches(cfg, rng, batch=1))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with no_tape():
            video.forward(patches)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    grid = 32 * 16 * 16 * 32 * 8
    piece = 2 * PIECE_CHUNKS * O.CHUNK * 8
    window = 512 * 512 * 8  # one (t, t) array of the last window
    assert max(1, O.CHUNK // 512**2) == 1
    assert peak <= 2 * grid + piece + 7 * window + grid // 4


# ---------------------------------------------------------------------------
# paper-shaped configuration
# ---------------------------------------------------------------------------


def test_paper_shaped_config_passes_shape_checks():
    doc = merge_config_dict(paper_shaped_overlay())
    cfg = build_config(doc)
    sched = cfg.model.video.schedule
    assert sched.temporal_windows == (2, 4, 8, 16, 32)
    layout = sched.layout(32, (24, 40), 192)
    assert [st.grid for st in layout] == [(24, 40), (12, 20), (6, 10), (6, 10), (3, 5)]
    assert [st.projects for st in layout] == [True, True, True, False, True]
    assert [st.window for st in layout] == [(w, 3, 5) for w in sched.temporal_windows]
    assert layout[-1].grid == (3, 5)
    assert [s.dim for s in sched.stages] == [128, 256, 512, 512, 1024]


@pytest.mark.slow
def test_paper_shaped_forward_smoke():
    doc = merge_config_dict(paper_shaped_overlay())
    cfg = build_config(doc)
    rng = np.random.default_rng(0)
    text = TextEncoder(cfg.model, cfg.data, rng)
    video = VideoEncoder(cfg.model, cfg.data, rng)
    cross = CrossEncoder(cfg.model, cfg.data, rng)

    ids = rng.integers(NUM_SPECIAL, cfg.data.vocab_size, size=(1, 4, 50))
    ids[:, :, 0] = CLS_ID
    patches = rng.normal(size=(1, 32, 24, 40, 192))
    with no_tape():
        tout = text.forward(ids, ids != PAD_ID)
        vout = video.forward(constant(patches))
        out = cross.forward(tout.tokens, tout.key_mask, vout.feature_map)
    assert tout.tokens.shape == (1, 201, 1024)
    assert vout.clip_feats.shape == (1, 4, 512)
    assert vout.video_feat.shape == (1, 1024)
    assert vout.feature_map.shape == (1, 32, 3, 5, 1024)
    assert out.tokens.shape == (1, 393, 1024)
    assert np.isfinite(out.tokens.data).all()
