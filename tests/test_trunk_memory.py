"""scripts/trunk_memory.py on the default config."""

import hashlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from longvid.config import default_config
from longvid.encoders import VideoEncoder
from longvid.engine import constant, no_tape

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "trunk_memory.py"


@pytest.fixture
def trunk_memory():
    spec = importlib.util.spec_from_file_location("trunk_memory", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_it_prints_each_stage_and_the_digests_of_the_forward(trunk_memory, capsys):
    assert trunk_memory.main(["--base", "default"]) == 0
    lines = capsys.readouterr().out.splitlines()

    cfg = default_config()
    rng = np.random.default_rng(trunk_memory.SEED)
    video = VideoEncoder(cfg.model, cfg.data, rng)
    d = cfg.data
    patches = constant(rng.normal(size=(1, d.frames, d.patch_rows, d.patch_cols, d.patch_dim)))
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
