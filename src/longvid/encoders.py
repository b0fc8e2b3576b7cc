"""The three encoders: two-part text, hierarchical-window video, cross-modal.

Text runs sentence-local attention first, on a (B, M, L, d) grid whose
sentence axis keeps it inside each sentence (per-sentence [CLS] outputs
become sentence representations), then paragraph-wide attention behind a
prepended global [CLS] built as the mean of the sentence [CLS] vectors;
masks carry only padding. Video stacks window-attention stages with
spatial patch merging in between; the stage whose temporal window equals
the per-clip frame count yields clip representations, the final stage the
video representation. The cross-modal encoder joins pooled video tokens to
the paragraph-level text tokens with full self-attention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import params as P
from .attention import (
    StageLayout,
    init_attention_params,
    multi_head_attention,
    relative_index_map,
    window_merge,
    window_partition,
    windowed_mha,
)
from .config import CLS_ID, DataConfig, ModelConfig
from .engine import DiffArray, ShapeError, active_tape
from .engine import ops as O

# Hidden-width elements of one piece of whole windows in an untaped video
# stage, in CHUNKs: 16 pieces at paper-shaped stage 0, one at the default
# config.
PIECE_CHUNKS = 32


# ---------------------------------------------------------------------------
# shared transformer pieces (pre-norm blocks)
# ---------------------------------------------------------------------------


def _ffn(x: DiffArray, p: dict) -> DiffArray:
    """fc2(gelu(fc1(x))): one `feed_forward` op, then fc2's bias added into
    its output. The layer holds one hidden-width buffer, fc1's product,
    while it runs, and a tape keeps none."""
    y = O.feed_forward(x, p["fc1"]["w"], p["fc1"]["b"], p["fc2"]["w"])
    return O.add(y, p["fc2"]["b"], out=y)


def _block_params(rng: np.random.Generator, dim: int, heads: int, ffn_ratio: int, window: tuple[int, int, int] | None = None) -> dict:
    return {
        "ln1": P.layernorm_init(dim),
        "attn": init_attention_params(rng, dim, heads, window=window),
        "ln2": P.layernorm_init(dim),
        "fc1": P.linear_init(rng, dim, ffn_ratio * dim),
        "fc2": P.linear_init(rng, ffn_ratio * dim, dim),
    }


def _block(x: DiffArray, p: dict, attend) -> DiffArray:
    """Pre-norm transformer block; attend(h, attn_params) is its attention.
    Each residual sum goes into its branch's output, a buffer the branch
    allocated and no recorded backward reads."""
    h = O.layernorm(x, p["ln1"]["g"], p["ln1"]["b"])
    a = attend(h, p["attn"])
    x = O.add(x, a, out=a)
    h = O.layernorm(x, p["ln2"]["g"], p["ln2"]["b"])
    f = _ffn(h, p)
    return O.add(x, f, out=f)


def _blocks_in_pieces(windows: DiffArray, st: StageLayout, blocks: list[dict], ffn_ratio: int) -> DiffArray:
    """Run each block of a stage, in turn, on its windows (..., t, C),
    attending through `windowed_mha`. A tape gets all windows in one piece.
    Off the tape, each block runs on pieces of whole windows, each of about
    PIECE_CHUNKS·CHUNK elements of hidden width, and writes each piece's
    output back into it, so the result is `windows` itself."""
    index = relative_index_map(st.window)

    def attend(h: DiffArray, a: dict) -> DiffArray:
        return windowed_mha(h, a, st.stage.heads, index)

    if active_tape() is not None:
        for p in blocks:
            windows = _block(windows, p, attend)
        return windows
    rows = windows.data.reshape(-1, *windows.shape[-2:])
    step = max(1, PIECE_CHUNKS * O.CHUNK // (rows[0].size * ffn_ratio))
    for p in blocks:
        for r in range(0, len(rows), step):
            piece = rows[r : r + step]
            piece[...] = _block(DiffArray(piece), p, attend).data
    return windows


def _key_mask_to_additive(allowed: np.ndarray) -> np.ndarray:
    # (..., n) boolean keys -> (..., 1, 1, n) additive mask
    return np.where(allowed[..., None, None, :], 0.0, -1e9)


# ---------------------------------------------------------------------------
# text encoder
# ---------------------------------------------------------------------------


@dataclass
class TextOutput:
    sentence_feats: DiffArray  # (B, M, d) per-sentence [CLS] after part 1
    paragraph_feat: DiffArray  # (B, d) global [CLS] after part 2
    tokens: DiffArray  # (B, 1 + M*L, d) part-2 outputs, global [CLS] first
    key_mask: np.ndarray  # (B, 1 + M*L) True where attendable


class TextEncoder:
    """Sentence-local layers, then paragraph-wide layers over all tokens."""

    def __init__(self, model_cfg: ModelConfig, data_cfg: DataConfig, rng: np.random.Generator):
        t = model_cfg.text
        self.cfg = t
        self.sentences = data_cfg.clips
        self.max_tokens = data_cfg.max_tokens
        d = t.dim
        self.params = {
            "tok_emb": P.normal(rng, (data_cfg.vocab_size, d)),
            "pos_emb": P.normal(rng, (self.max_tokens, d)),
            "seg_emb": P.normal(rng, (self.sentences, d)),
            "sentence_blocks": {
                str(i): _block_params(rng, d, t.heads, t.ffn_ratio) for i in range(t.sentence_layers)
            },
            "paragraph_blocks": {
                str(i): _block_params(rng, d, t.heads, t.ffn_ratio) for i in range(t.paragraph_layers)
            },
            "ln_out": P.layernorm_init(d),
        }

    def forward(self, token_ids: np.ndarray, pad_mask: np.ndarray) -> TextOutput:
        """token_ids: (B, M, L) ints; pad_mask True at real tokens."""
        B, M, L = token_ids.shape
        if M != self.sentences or L != self.max_tokens:
            raise ShapeError(f"expected (B, {self.sentences}, {self.max_tokens}) token ids, got {token_ids.shape}")
        if (token_ids[:, :, 0] != CLS_ID).any():
            raise ShapeError("every sentence must start with [CLS]")
        pad_mask = pad_mask.astype(bool)

        t = self.cfg
        p = self.params
        x = O.take(p["tok_emb"], token_ids)  # (B, M, L, d)
        x = O.add(x, O.reshape(p["pos_emb"], (1, 1, L, t.dim)))

        mask1 = _key_mask_to_additive(pad_mask)  # (B, M, 1, 1, L)
        for i in range(t.sentence_layers):
            x = _block(x, p["sentence_blocks"][str(i)], lambda h, a: multi_head_attention(h, a, t.heads, mask1))
        sentence_feats = O.take(x, 0, axis=2)  # (B, M, d) per-sentence [CLS]

        x2 = O.add(x, O.reshape(p["seg_emb"], (1, M, 1, t.dim)))
        x2 = O.reshape(x2, (B, M * L, t.dim))
        global_cls = O.mean(sentence_feats, axis=1, keepdims=True)  # (B, 1, d)
        x2 = O.concat([global_cls, x2], axis=1)  # (B, 1 + n, d)

        key_mask = np.concatenate([np.ones((B, 1), dtype=bool), pad_mask.reshape(B, M * L)], axis=1)
        mask2 = _key_mask_to_additive(key_mask)
        for i in range(t.paragraph_layers):
            x2 = _block(x2, p["paragraph_blocks"][str(i)], lambda h, a: multi_head_attention(h, a, t.heads, mask2))
        x2 = O.layernorm(x2, p["ln_out"]["g"], p["ln_out"]["b"])

        paragraph = O.take(x2, 0, axis=1)  # (B, d) global [CLS]
        return TextOutput(sentence_feats=sentence_feats, paragraph_feat=paragraph, tokens=x2, key_mask=key_mask)


# ---------------------------------------------------------------------------
# video encoder
# ---------------------------------------------------------------------------


@dataclass
class VideoOutput:
    clip_feats: DiffArray  # (B, M, d_clip)
    video_feat: DiffArray  # (B, d_final)
    feature_map: DiffArray  # (B, T, Hf, Wf, d_final)


def _mean_pool_2x2(x: DiffArray) -> DiffArray:
    B, T, H, W, C = x.shape
    r = O.reshape(x, (B, T, H // 2, 2, W // 2, 2, C))
    r = O.mean(r, axis=3)
    return O.mean(r, axis=4)


class VideoEncoder:
    """Staged windowed attention over a (B, T, H, W, patch_dim) grid."""

    def __init__(self, model_cfg: ModelConfig, data_cfg: DataConfig, rng: np.random.Generator):
        v = model_cfg.video
        self.schedule = v.schedule
        self.ffn_ratio = v.ffn_ratio
        self.clip_pool_steps = v.clip_pool_steps
        self.frames = data_cfg.frames
        self.frames_per_clip = data_cfg.frames_per_clip
        self.clips = data_cfg.clips
        self.grid = (data_cfg.patch_rows, data_cfg.patch_cols)
        self.patch_dim = data_cfg.patch_dim
        self.clip_stage = self.schedule.clip_stage(self.frames_per_clip)
        self.schedule.validate(self.frames, self.grid)
        self.layout = self.schedule.layout(self.frames, self.grid, self.patch_dim)

        stages: dict = {}
        for i, st in enumerate(self.layout):
            s = st.stage
            sp: dict = {}
            if st.projects:
                sp["merge"] = P.linear_init(rng, st.d_in * s.merge * s.merge, s.dim)
            if i == 0:
                # Spatial positions are absolute; temporal position enters
                # only through the per-window relative bias, which keeps the
                # trunk translation-equivariant across aligned clips.
                sp["space_emb"] = P.normal(rng, (st.grid[0] * st.grid[1], s.dim))
            sp["blocks"] = {str(j): _block_params(rng, s.dim, s.heads, self.ffn_ratio, window=st.window) for j in range(s.layers)}
            stages[str(i)] = sp
        self.params = {"stages": stages, "ln_out": P.layernorm_init(self.schedule.stages[-1].dim)}

    def _merge_tokens(self, x: DiffArray, merge: int) -> DiffArray:
        # (B, T, H, W, C) -> (B, T, H/m, W/m, m*m*C): concat m x m neighbors.
        B, T, H, W, C = x.shape
        r = O.reshape(x, (B, T, H // merge, merge, W // merge, merge, C))
        r = O.transpose(r, (0, 1, 2, 4, 3, 5, 6))
        return O.reshape(r, (B, T, H // merge, W // merge, merge * merge * C))

    def stage_grids(self, patches: DiffArray):
        """The trunk forward, stage by stage: yields each stage's output grid.

        Each stage gathers its grid once into (B, windows, t, C) window
        layout, runs its blocks on that layout (`_blocks_in_pieces`) and
        merges back to a grid once, at its exit. Every op of a block is
        row-local or window-local, so the values are those of attention run
        on the grid window by window, taped or not; a tape's gradient row
        sums run in window order."""
        B, T, H, W, C = patches.shape
        if T != self.frames or (H, W) != self.grid or C != self.patch_dim:
            raise ShapeError(
                f"expected (B, {self.frames}, {self.grid[0]}, {self.grid[1]}, {self.patch_dim}) patches, got {patches.shape}"
            )
        x = patches
        for i, st in enumerate(self.layout):
            s, sp = st.stage, self.params["stages"][str(i)]
            if s.merge > 1:
                x = self._merge_tokens(x, s.merge)
            if "merge" in sp:
                x = P.linear(x, sp["merge"])
            if i == 0:
                x = O.add(x, O.reshape(sp["space_emb"], (1, 1, *st.grid, s.dim)))
            blocks = [sp["blocks"][str(j)] for j in range(s.layers)]
            thw, windows = x.shape[1:4], window_partition(x, st.spec)
            # Off the tape the blocks write into the windows, so they are a
            # new copy, never a view of the grid, as they are at a window
            # spanning the grid.
            copy = active_tape() is None and np.may_share_memory(windows.data, x.data)
            x = DiffArray(windows.data.copy()) if copy else windows
            del windows
            x = window_merge(_blocks_in_pieces(x, st, blocks, self.ffn_ratio), st.spec, *thw)
            yield x

    def feature_maps(self, patches: DiffArray) -> list[DiffArray]:
        """Trunk forward only: the per-stage output grids."""
        return list(self.stage_grids(patches))

    def forward(self, patches: DiffArray) -> VideoOutput:
        # Only the clip-stage map and the last grid are kept: each other grid
        # is dropped, so that the next stage frees it once it has read it.
        grids = self.stage_grids(patches)
        for i in range(len(self.layout)):
            grid = next(grids)
            if i == self.clip_stage:
                clip_map = grid
            if i < len(self.layout) - 1:
                del grid
        final = O.layernorm(grid, self.params["ln_out"]["g"], self.params["ln_out"]["b"])
        for _ in range(self.clip_pool_steps):
            clip_map = _mean_pool_2x2(clip_map)
        B, T, Hc, Wc, Dc = clip_map.shape
        per_clip = O.reshape(clip_map, (B, self.clips, self.frames_per_clip * Hc * Wc, Dc))
        clip_feats = O.mean(per_clip, axis=2)  # (B, M, d_clip)

        B, T, Hf, Wf, Df = final.shape
        video_feat = O.mean(O.reshape(final, (B, T * Hf * Wf, Df)), axis=1)
        return VideoOutput(clip_feats=clip_feats, video_feat=video_feat, feature_map=final)


# ---------------------------------------------------------------------------
# cross-modal encoder
# ---------------------------------------------------------------------------


@dataclass
class CrossOutput:
    tokens: DiffArray  # (B, n, d)
    cls_feat: DiffArray  # (B, d)


class CrossEncoder:
    """Joint self-attention over [CLS] + text tokens + pooled video tokens."""

    def __init__(self, model_cfg: ModelConfig, data_cfg: DataConfig, rng: np.random.Generator):
        c = model_cfg.cross
        self.cfg = c
        self.frames = data_cfg.frames
        grid = (data_cfg.patch_rows, data_cfg.patch_cols)
        fh, fw = model_cfg.video.schedule.layout(self.frames, grid, data_cfg.patch_dim)[-1].grid
        ph = (fh - c.pool_window[0]) // c.pool_stride[0] + 1
        pw = (fw - c.pool_window[1]) // c.pool_stride[1] + 1
        self.video_tokens_per_frame = ph * pw
        self.text_tokens = 1 + data_cfg.clips * data_cfg.max_tokens
        self.total_tokens = self.text_tokens + self.frames * self.video_tokens_per_frame
        d_text = model_cfg.text.dim
        d_video = model_cfg.video.schedule.stages[-1].dim
        self.params = {
            "text_adapter": P.linear_init(rng, d_text, c.dim),
            "video_adapter": P.linear_init(rng, d_video, c.dim),
            "pos_emb": P.normal(rng, (self.total_tokens, c.dim)),
            "blocks": {str(i): _block_params(rng, c.dim, c.heads, c.ffn_ratio) for i in range(c.layers)},
            "ln_out": P.layernorm_init(c.dim),
        }

    def pool_video(self, feature_map: DiffArray) -> DiffArray:
        """(B, T, Hf, Wf, d) -> (B, T * tokens_per_frame, d) via spatial maxpool."""
        c = self.cfg
        pooled = O.maxpool2d(feature_map, c.pool_window, c.pool_stride)
        B, T, ph, pw, d = pooled.shape
        return O.reshape(pooled, (B, T * ph * pw, d))

    def forward(self, text_tokens: DiffArray, text_key_mask: np.ndarray, video_feature_map: DiffArray) -> CrossOutput:
        c = self.cfg
        B = text_tokens.shape[0]
        if text_tokens.shape[1] != self.text_tokens:
            raise ShapeError(f"expected {self.text_tokens} text tokens, got {text_tokens.shape[1]}")
        vtok = self.pool_video(video_feature_map)
        n_v = vtok.shape[1]
        x = O.concat([P.linear(text_tokens, self.params["text_adapter"]), P.linear(vtok, self.params["video_adapter"])], axis=1)
        x = O.add(x, O.reshape(self.params["pos_emb"], (1, self.total_tokens, c.dim)))

        key_mask = np.concatenate([text_key_mask.astype(bool), np.ones((B, n_v), dtype=bool)], axis=1)
        add_mask = _key_mask_to_additive(key_mask)
        for i in range(c.layers):
            x = _block(x, self.params["blocks"][str(i)], lambda h, a: multi_head_attention(h, a, c.heads, add_mask))
        x = O.layernorm(x, self.params["ln_out"]["g"], self.params["ln_out"]["b"])
        cls = O.reshape(O.take(x, np.array([0]), axis=1), (B, c.dim))
        return CrossOutput(tokens=x, cls_feat=cls)


# ---------------------------------------------------------------------------
# projection heads and the paired encoding
# ---------------------------------------------------------------------------


class ContrastiveHeads:
    """Linear projections to the shared contrastive space, then L2 norm.

    One text head serves sentence and paragraph features (equal dims); the
    video side needs separate clip/global heads because the clip stage and
    the final stage can differ in width.
    """

    def __init__(self, model_cfg: ModelConfig, data_cfg: DataConfig, rng: np.random.Generator):
        dc = model_cfg.contrastive_dim
        d_text = model_cfg.text.dim
        d_clip = model_cfg.video.schedule.stages[model_cfg.video.schedule.clip_stage(data_cfg.frames_per_clip)].dim
        d_video = model_cfg.video.schedule.stages[-1].dim
        self.params = {
            "text": P.linear_init(rng, d_text, dc),
            "clip": P.linear_init(rng, d_clip, dc),
            "video": P.linear_init(rng, d_video, dc),
        }

    def project(self, name: str, feats: DiffArray) -> DiffArray:
        """Project feats through the "text", "clip" or "video" head, then L2-normalize."""
        return O.l2_normalize(P.linear(feats, self.params[name]))


class CrossHeads:
    """Vocabulary head for masked-token prediction and the 2-class match head."""

    def __init__(self, cross_dim: int, vocab_size: int, rng: np.random.Generator):
        self.params = {
            "mlm": P.linear_init(rng, cross_dim, vocab_size),
            "vtm": P.linear_init(rng, cross_dim, 2),
        }


@dataclass
class EncodedPair:
    """Stage-one representations of a batch, all rows unit-norm."""

    sentence_reps: DiffArray  # (B, M, dc)
    paragraph_rep: DiffArray  # (B, dc)
    clip_reps: DiffArray  # (B, M, dc)
    video_rep: DiffArray  # (B, dc)


def encode_pair(
    text_enc: TextEncoder,
    video_enc: VideoEncoder,
    heads: ContrastiveHeads,
    token_ids: np.ndarray,
    pad_mask: np.ndarray,
    patches: DiffArray,
) -> EncodedPair:
    tout = text_enc.forward(token_ids, pad_mask)
    vout = video_enc.forward(patches)
    return EncodedPair(
        sentence_reps=heads.project("text", tout.sentence_feats),
        paragraph_rep=heads.project("text", tout.paragraph_feat),
        clip_reps=heads.project("clip", vout.clip_feats),
        video_rep=heads.project("video", vout.video_feat),
    )
