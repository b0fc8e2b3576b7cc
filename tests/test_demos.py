"""The demos run end to end. demos/04 trains both stages for about 40 s and
is left out to keep the suite fast; run it by hand with
`PYTHONPATH=src python demos/04_two_stage_training.py`."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import longvid

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SOURCE_ROOT = str(Path(longvid.__file__).resolve().parent.parent)


@pytest.mark.parametrize(
    "demo",
    ["01_autodiff_engine.py", "02_windowed_attention.py", "03_temporal_contrastive.py", "05_attention_cost.py"],
)
def test_demo_exits_zero(demo, tmp_path):
    inherited = os.environ.get("PYTHONPATH")
    pythonpath = SOURCE_ROOT + (os.pathsep + inherited if inherited else "")
    proc = subprocess.run(
        [sys.executable, str(DEMOS / demo)],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == 0, proc.stderr
