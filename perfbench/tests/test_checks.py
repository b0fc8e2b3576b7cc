"""The benchmark's output checks accept right outputs and reject wrong ones.

    python3 -m pytest -q perfbench/tests

Each wrong output differs from a right one by the smallest step that should
be caught: one term, one rank, one bit, one entry, one multiply-add.
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402


def stage1_rows(steps=20, weight=1.0):
    rows = []
    for step in range(steps):
        g, m = 3.0 - 0.05 * step, 2.0 - 0.03 * step
        lr = checks.expected_lr(step, steps, 256, 8, 1.0, 1e-3)
        rows.append({"step": step, "lr": lr, "loss_total": g + weight * m, "loss_global": g, "loss_mtc": m})
    return rows


def test_rows_that_sum_pass():
    checks.check_rows(stage1_rows(), "loss_total", "loss_global", "loss_mtc", 1.0)


def test_loss_row_whose_terms_do_not_sum_fails():
    rows = stage1_rows()
    rows[7]["loss_total"] += 1e-6
    with pytest.raises(CheckFailed, match="step 7"):
        checks.check_rows(rows, "loss_total", "loss_global", "loss_mtc", 1.0)


def test_weighted_rows_use_the_weight():
    rows = stage1_rows(weight=10.0)
    checks.check_rows(rows, "loss_total", "loss_global", "loss_mtc", 10.0)
    with pytest.raises(CheckFailed):
        checks.check_rows(rows, "loss_total", "loss_global", "loss_mtc", 1.0)


def test_non_finite_row_fails():
    rows = stage1_rows()
    rows[3]["loss_global"] = float("nan")
    with pytest.raises(CheckFailed, match="non-finite"):
        checks.check_rows(rows, "loss_total", "loss_global", "loss_mtc", 1.0)


def test_lr_schedule():
    # warmup of 32 steps over a 40-step run: rise, then linear decay
    lrs = [checks.expected_lr(s, 40, 256, 8, 1.0, 1e-3) for s in range(40)]
    assert lrs[0] == pytest.approx(1e-3 / 32) and lrs[31] == pytest.approx(1e-3)
    assert lrs[32] == pytest.approx(1e-3) and lrs[39] == pytest.approx(1e-3 / 8)
    rows = stage1_rows()
    checks.check_lr(rows, 20, 256, 8, 1.0, 1e-3)
    rows[5]["lr"] *= 1.001
    with pytest.raises(CheckFailed, match="step 5"):
        checks.check_lr(rows, 20, 256, 8, 1.0, 1e-3)


def test_loss_that_does_not_fall_fails():
    rows = stage1_rows()
    checks.check_loss_decreases(rows)
    for row in rows:
        row["loss_total"] = 5.0
    with pytest.raises(CheckFailed):
        checks.check_loss_decreases(rows)


def retrieval_case(n=12, seed=0):
    rng = np.random.default_rng(seed)
    paras = rng.normal(size=(n, 4))
    vids = paras + 0.8 * rng.normal(size=(n, 4))
    sim = paras @ vids.T
    ranks = (sim > np.diagonal(sim)[:, None]).sum(axis=1) + 1
    report = SimpleNamespace(
        r_at_1=float((ranks <= 1).mean()),
        r_at_5=float((ranks <= 5).mean()),
        median_rank=float(np.median(ranks)),
        count=n,
    )
    return report, paras, vids, ranks


def test_own_ranking_matches_counting():
    report, paras, vids, ranks = retrieval_case()
    assert (checks.ranks(paras, vids) == ranks).all()
    checks.check_retrieval(report, paras, vids, 12)


def test_ties_rank_best():
    paras = np.eye(3)
    vids = np.eye(3)
    vids[1] = vids[0]  # paragraph 0 ties videos 0 and 1
    assert list(checks.ranks(paras, vids)) == [1, 1, 1]


def test_rank_off_by_one_fails():
    report, paras, vids, ranks = retrieval_case()
    wrong = SimpleNamespace(**{**vars(report), "median_rank": report.median_rank + 1})
    with pytest.raises(CheckFailed, match="median_rank"):
        checks.check_retrieval(wrong, paras, vids, 12)


def test_recall_off_by_one_item_fails():
    report, paras, vids, ranks = retrieval_case()
    wrong = SimpleNamespace(**{**vars(report), "r_at_5": report.r_at_5 + 1 / 12})
    with pytest.raises(CheckFailed, match="r_at_5"):
        checks.check_retrieval(wrong, paras, vids, 12)


def test_retrieval_count_must_equal_eval_split():
    report, paras, vids, ranks = retrieval_case()
    with pytest.raises(CheckFailed, match="count"):
        checks.check_retrieval(report, paras, vids, 13)


def test_changed_checkpoint_byte_fails():
    a = bytes(range(64))
    checks.check_same_bytes(a, bytes(a), "checkpoints")
    with pytest.raises(CheckFailed):
        checks.check_same_bytes(a, a[:10] + bytes([a[10] ^ 1]) + a[11:], "checkpoints")


def test_one_changed_frozen_parameter_fails():
    rng = np.random.default_rng(1)
    before = {"text.w": rng.normal(size=(3, 4)), "video.w": rng.normal(size=(2, 2))}
    after = {k: v.copy() for k, v in before.items()}
    checks.check_arrays_equal(before, after, "frozen")
    after["video.w"][1, 0] = np.nextafter(after["video.w"][1, 0], np.inf)
    with pytest.raises(CheckFailed, match="video.w"):
        checks.check_arrays_equal(before, after, "frozen")


def test_missing_frozen_parameter_fails():
    before = {"text.w": np.zeros(2), "heads.w": np.zeros(2)}
    with pytest.raises(CheckFailed):
        checks.check_arrays_equal(before, {"text.w": np.zeros(2)}, "frozen")


def test_vtm_accuracy():
    checks.check_vtm_accuracy(47 / 96, 100, 8)
    with pytest.raises(CheckFailed, match="whole number"):
        checks.check_vtm_accuracy(47 / 100, 100, 8)  # averaged over 100, not 96 items
    with pytest.raises(CheckFailed, match="outside"):
        checks.check_vtm_accuracy(1.0 + 1 / 96, 100, 8)


def test_gradcheck_count_from_shapes():
    sizes = {"heads.a": 64, "heads.b": 8, "text.w": 5000, "video.w": 30000}
    # heads: 72 entries; rest 35000 -> 1% is 350, capped at 200
    assert checks.gradcheck_count(sizes, 3) == 3 * (72 + 200)
    assert checks.gradcheck_count({"heads.a": 4, "text.w": 50}, 2) == 2 * (4 + 1)


def test_gradcheck_count_short_by_one_fails():
    checks.check_gradcheck(729, 0, 729)
    with pytest.raises(CheckFailed, match="728"):
        checks.check_gradcheck(728, 0, 729)


def test_gradcheck_failures_fail():
    with pytest.raises(CheckFailed, match="failures"):
        checks.check_gradcheck(729, 1, 729)


def test_output_shapes_and_finiteness():
    shapes = {"a": (1, 3), "b": (2,)}
    good = {"a": np.zeros((1, 3)), "b": np.ones(2)}
    checks.check_outputs(good, shapes)
    with pytest.raises(CheckFailed, match="shape"):
        checks.check_outputs({**good, "a": np.zeros((1, 4))}, shapes)
    with pytest.raises(CheckFailed, match="non-finite"):
        checks.check_outputs({**good, "b": np.array([1.0, np.inf])}, shapes)


def test_multiply_add_total_off_by_one_fails():
    checks.check_multiply_adds(155_807_907_840, 155_807_907_840, "video")
    with pytest.raises(CheckFailed):
        checks.check_multiply_adds(155_807_907_841, 155_807_907_840, "video")
