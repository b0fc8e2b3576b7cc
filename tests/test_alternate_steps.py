"""scripts/alternate_steps.py on one tree loaded under both names."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "alternate_steps.py"


@pytest.fixture
def alternate_steps():
    spec = importlib.util.spec_from_file_location("alternate_steps", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    for name in [n for n in sys.modules if n.split(".")[0] in ("longvid_parent", "longvid_change")]:
        del sys.modules[name]


def test_both_sides_run_their_own_package_and_agree(alternate_steps, capsys):
    src = ROOT / "src"
    assert alternate_steps.main(["--parent", str(src), "--change", str(src), "--stage", "2", "--blocks", "2", "--steps", "1"]) == 0
    out = capsys.readouterr().out
    assert sys.modules["longvid_parent.engine.array"].Tape is not sys.modules["longvid_change.engine.array"].Tape
    assert "2 blocks of 1 steps per side" in out
    assert "metric rows equal in every block: yes" in out
    assert "trained parameters bitwise equal in every block: yes" in out


def test_equal_metric_rows_do_not_hide_unequal_parameters(alternate_steps, capsys, monkeypatch):
    # One step per block: its row is read before the update, so a change that
    # only nudges the updated parameters leaves every row equal.
    init = alternate_steps.Side.__init__

    def init_with_a_nudged_update(self, src, name, stage):
        init(self, src, name, stage)
        if name == "longvid_change":
            update = self.pipeline.adamw_step

            def nudged(state, *args):
                update(state, *args)
                state.data[0] += 1e-9

            self.pipeline.adamw_step = nudged

    monkeypatch.setattr(alternate_steps.Side, "__init__", init_with_a_nudged_update)
    src = ROOT / "src"
    assert alternate_steps.main(["--parent", str(src), "--change", str(src), "--stage", "1", "--blocks", "1", "--steps", "1"]) == 0
    out = capsys.readouterr().out
    assert "metric rows equal in every block: yes" in out
    assert "trained parameters bitwise equal in every block: no" in out


def test_eval_alternates_retrieval_and_compares_reports_and_arrays(alternate_steps, capsys):
    src = ROOT / "src"
    assert alternate_steps.main(["--parent", str(src), "--change", str(src), "--op", "eval", "--blocks", "2", "--steps", "1"]) == 0
    out = capsys.readouterr().out
    assert "eval: 2 blocks of 1 calls per side" in out
    assert "ms/call" in out
    assert "retrieval reports equal in every block: yes" in out
    assert "encode_eval arrays bitwise equal in every block: yes" in out


def test_eval_tells_apart_unequal_encode_eval_arrays(alternate_steps, capsys, monkeypatch):
    # A nudge too small to move any rank leaves the reports equal.
    init = alternate_steps.Side.__init__

    def init_with_nudged_arrays(self, src, name, stage):
        init(self, src, name, stage)
        if name == "longvid_change":
            encode = self.pipeline.encode_eval

            def nudged(*args):
                paras, vids = encode(*args)
                return paras + 1e-15, vids

            self.pipeline.encode_eval = nudged

    monkeypatch.setattr(alternate_steps.Side, "__init__", init_with_nudged_arrays)
    src = ROOT / "src"
    assert alternate_steps.main(["--parent", str(src), "--change", str(src), "--op", "eval", "--blocks", "1", "--steps", "1"]) == 0
    out = capsys.readouterr().out
    assert "retrieval reports equal in every block: yes" in out
    assert "encode_eval arrays bitwise equal in every block: no" in out
