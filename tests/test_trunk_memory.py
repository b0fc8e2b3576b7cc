"""scripts/trunk_memory.py on the default config, off the tape and taped."""

import hashlib
import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest

from longvid.config import default_config
from longvid.encoders import VideoEncoder, _block_params, _ffn
from longvid.engine import DiffArray, Tape, constant, no_tape, parameter, qkv_attention, record_op
from longvid.engine import sum as asum
from longvid.params import flatten_params

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "trunk_memory.py"


@pytest.fixture
def trunk_memory():
    spec = importlib.util.spec_from_file_location("trunk_memory", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def default_video(seed):
    cfg = default_config()
    rng = np.random.default_rng(seed)
    video = VideoEncoder(cfg.model, cfg.data, rng)
    d = cfg.data
    return video, constant(rng.normal(size=(1, d.frames, d.patch_rows, d.patch_cols, d.patch_dim)))


def test_it_prints_each_stage_and_the_digests_of_the_forward(trunk_memory, capsys):
    assert trunk_memory.main(["--base", "default"]) == 0
    lines = capsys.readouterr().out.splitlines()

    video, patches = default_video(trunk_memory.SEED)
    d = default_config().data
    with no_tape():
        out = video.forward(patches)

    grids = [(1, d.frames, *st.grid, st.stage.dim) for st in video.layout]
    stages = [line for line in lines if line.startswith("stage ")]
    assert [line.split(", traced high-water ")[0] for line in stages] == [f"stage {i}: grid {g}" for i, g in enumerate(grids)]
    assert all(float(line.split("high-water ")[1].removesuffix(" MiB")) > 0 for line in stages)
    assert any(line.startswith("tail: traced high-water ") for line in lines)
    assert any(line.startswith("ru_maxrss: ") for line in lines)
    for name in ("clip_feats", "video_feat", "feature_map"):
        assert f"sha256 {name}: {hashlib.sha256(getattr(out, name).data.tobytes()).hexdigest()}" in lines


def test_an_override_reaches_the_config_and_a_bad_one_exits_2(trunk_memory, capsys):
    assert trunk_memory.main(["--base", "default", "--set", "data.patch_rows=8"]) == 0
    assert "stage 0: grid (1, 32, 4, 2, 32)" in capsys.readouterr().out
    with pytest.raises(SystemExit) as e:
        trunk_memory.main(["--base", "default", "--set", "model.nope=1"])
    assert e.value.code == 2
    assert "model.nope: unknown key" in capsys.readouterr().err


def test_taped_it_counts_each_stage_and_digests_the_gradients(trunk_memory, capsys):
    assert trunk_memory.main(["--base", "default", "--taped"]) == 0
    lines = capsys.readouterr().out.splitlines()

    video, patches = default_video(trunk_memory.SEED)
    with Tape() as tape:
        out = video.forward(patches)
        loss = asum(out.video_feat)
    tape.backward(loss)
    grads = hashlib.sha256(b"".join(p.grad.tobytes() for p in flatten_params(video.params).values()))

    rows = [re.search(r"(\d+) ops, op outputs ([\d.]+) MiB, op-private ([\d.]+) MiB$", line) for line in lines[1:]]
    rows = [[float(x) for x in row.groups()] for row in rows if row]
    assert len(rows) == len(video.layout) + 1  # the stages and the tail
    assert sum(ops for ops, _, _ in rows) == len(tape)
    assert all(outputs > 0 and private > 0 for _, outputs, private in rows[:-1])  # each stage's probabilities
    assert any(line.startswith("forward: traced ") for line in lines)
    assert any(line.startswith("backward: traced high-water ") for line in lines)
    assert f"sha256 grads: {grads.hexdigest()}" in lines
    for name in ("clip_feats", "video_feat", "feature_map"):
        assert f"sha256 {name}: {hashlib.sha256(getattr(out, name).data.tobytes()).hexdigest()}" in lines


def test_the_census_of_one_qkv_attention_op_is_its_output_and_probabilities(trunk_memory):
    """No q, k or v buffer: the backward forms them again from x."""
    rng = np.random.default_rng(3)
    lead, n, dim, heads = (2, 5), 16, 32, 4
    x = parameter(rng.normal(size=(*lead, n, dim)))
    leaves = [parameter(rng.normal(size=s)) for s in [(dim, dim), (dim,)] * 3]
    with Tape() as tape:
        qkv_attention(x, *leaves, heads)
    assert trunk_memory.tape_census(tape.ops, [len(tape)]) == [(2 * 5 * n * dim * 8, 2 * 5 * heads * n * n * 8)]


def test_the_census_of_a_taped_feed_forward_layer_is_its_output(trunk_memory):
    """fc2's product, into which fc2's bias is added; neither fc1's product,
    which the backward forms again, nor a GELU output is kept."""
    rng = np.random.default_rng(4)
    n, dim, ratio = 24, 32, 4
    p = _block_params(rng, dim, 4, ratio)
    x = parameter(rng.normal(size=(2, n, dim)))
    with Tape() as tape:
        _ffn(x, p)
    assert trunk_memory.tape_census(tape.ops, [len(tape)]) == [(2 * n * dim * 8, 0)]
    assert trunk_memory.output_bytes_by_kind(tape.ops) == {"feed_forward": 2 * n * dim * 8}


def test_a_default_step_keeps_no_projection_or_fc1_product(trunk_memory, capsys):
    """One op per attention layer's input side and one per feed-forward
    layer: a stage-1 step records 182 ops and a stage-2 step 66. Their
    forwards form 36 and 32 products of a q, k, v or fc1 weight, and none
    outlives the forward. The composed ops recorded 264 and 98 ops, and
    kept 36 and 16 of these products."""
    censuses = {stage: trunk_memory.step_census(stage) for stage in (1, 2)}
    got = {stage: (n, formed, held) for stage, (n, _, _, formed, held) in censuses.items()}
    assert got == {1: (182, 36, []), 2: (66, 32, [])}

    assert trunk_memory.main(["--base", "default", "--taped"]) == 0
    lines = capsys.readouterr().out.splitlines()
    for stage, (n, outputs, private, formed, _) in censuses.items():
        line = f"stage-{stage} step: tape of {n} ops; op outputs {outputs / 2**20:.3f} MiB; op-private {private / 2**20:.3f} MiB;"
        assert f"{line} products of wq/wk/wv/fc1.w formed: {formed}, held: 0" in lines


def test_the_bytes_by_kind_sum_to_the_census_of_a_taped_trunk(trunk_memory, capsys):
    video, patches = default_video(trunk_memory.SEED)
    with Tape() as tape:
        asum(video.forward(patches).video_feat)  # the script's loss
    census = trunk_memory.tape_census(tape.ops, [len(tape) // 2, len(tape)])
    kinds = trunk_memory.output_bytes_by_kind(tape.ops)
    assert {"matmul", "feed_forward", "layernorm", "qkv_attention"} <= set(kinds)
    assert sum(kinds.values()) == sum(outputs for outputs, _ in census)

    assert trunk_memory.main(["--base", "default", "--taped"]) == 0
    lines = capsys.readouterr().out.splitlines()
    stages = [float(m[1]) for m in (re.search(r" ops, op outputs ([\d.]+) MiB", line) for line in lines) if m]
    printed = {m[1]: float(m[2]) for m in (re.fullmatch(r"op outputs of (\w+): ([\d.]+) MiB", line) for line in lines) if m}
    assert printed.keys() == kinds.keys()
    assert sum(printed.values()) == pytest.approx(sum(stages), abs=1e-3 * (len(printed) + len(stages)))


def test_the_census_finds_arrays_a_wrapped_backward_holds(trunk_memory):
    """Through a nested closure and a dict, each buffer once, and not the
    op's input or a view of its output."""
    x = parameter(np.ones((4, 8)))
    out = DiffArray(np.zeros((4, 8)))
    kept, extra = np.ones((3, 8)), np.ones((5, 8))
    with Tape() as tape:

        def inner(g):
            return (g * kept[0, 0] * extra[0, 0] * x.data,)

        state = {"scratch": extra, "views": [kept[1:], out.data[:2]]}

        def wrapped(g):
            assert state
            return inner(g)

        record_op(out, (x,), wrapped)
    assert trunk_memory.tape_census(tape.ops, [len(tape)]) == [(out.data.nbytes, kept.nbytes + extra.nbytes)]
