"""The result line run.py prints for a workload child's report.

    python3 -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402


@pytest.mark.parametrize(
    "failed, error",
    [
        (1, "gradcheck_stage1: ValueError: buffer size must be a multiple of element size"),
        (0, "gradcheck: checked 728 entries, expected 729"),
    ],
)
def test_run_without_a_completed_round_prints_an_incorrect_result(monkeypatch, tmp_path, capsys, failed, error):
    report = {"setup_s": 0.5, "rounds": [], "attempted": 1, "failed": failed, "errors": [error], "peak_rss_mb": 100.0}
    children = []

    def fake_child(args, extra, deadline):
        children.append(extra)
        return {"setup_s": 0.5} if "--setup-only" in extra else report

    monkeypatch.setattr(run, "HERE", tmp_path)
    monkeypatch.setattr(run, "run_child", fake_child)
    monkeypatch.setattr(sys, "argv", ["run.py", "--workload", "verify", "--seed", "0", "--seconds", "1", "--trace", "0"])
    assert run.main() == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result == {"correct": False, "attempted": 1, "failed": failed, "metrics": {}}
    assert sum("--setup-only" not in extra for extra in children) == 1


def test_set_ups_run_before_and_after_the_workload(monkeypatch, tmp_path, capsys):
    report = {"setup_s": 0.5, "rounds": [{"grad": [[320, 4.0]], "eval": [[100, 0.25]]}], "attempted": 4, "failed": 0, "errors": [], "peak_rss_mb": 100.0}
    children = []

    def fake_child(args, extra, deadline):
        children.append("setup" if "--setup-only" in extra else "workload")
        return {"setup_s": 0.5} if "--setup-only" in extra else report

    monkeypatch.setattr(run, "HERE", tmp_path)
    monkeypatch.setattr(run, "run_child", fake_child)
    monkeypatch.setattr(sys, "argv", ["run.py", "--workload", "pretrain", "--seed", "0", "--seconds", "1", "--trace", "0"])
    assert run.main() == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["metrics"]["grad_items_per_s"]["value"] == 80.0
    assert children == ["setup"] * run.SETUP_SIDE_MAX + ["workload"] + ["setup"] * run.SETUP_SIDE_MAX


def test_final_operation_counts_toward_the_rates():
    report = {"rounds": [{"grad": [[729, 4.5]]}, {"grad": [[729, 3.0]]}, {"grad": [[729, 4.0]]}], "final": {"eval": [[1, 25.0]]}, "peak_rss_mb": 3781.0}
    metrics = run.end_to_end(report, [9.0, 11.0])
    assert metrics["grad_items_per_s"]["value"] == 729 / 4.0
    assert metrics["eval_items_per_s"]["value"] == 1 / 25.0
    assert metrics["setup_s"]["value"] == 10.0


def test_warm_up_training_call_is_not_counted_but_its_evaluations_are():
    warmup = {"grad": [[320, 60.0]], "eval": [[100, 0.1], [100, 0.1]]}
    report = {"warmup": warmup, "rounds": [{"grad": [[320, 4.0]], "eval": [[100, 0.5]]}] * 2, "peak_rss_mb": 1900.0}
    metrics = run.end_to_end(report, [0.5])
    assert metrics["grad_items_per_s"]["value"] == 80.0
    assert metrics["eval_items_per_s"]["value"] == pytest.approx(600.0)
