"""The tracer's units, counts and cost-model check on a tiny stage-1 run.

    python3 -m pytest -q perfbench/tests

Installing the tracer rewires the longvid modules of this process, so these
tests run apart from the tier-1 suite.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import tracing  # noqa: E402
from longvid import costmodel, data, pipeline  # noqa: E402
from longvid.config import default_config  # noqa: E402

STEPS = 2


@pytest.fixture(scope="module")
def traced():
    tracer = tracing.Tracer()
    tracing.install(tracer)
    cfg = pipeline.gradcheck_config(default_config())
    train, _ = data.generate(cfg.data, cfg.seed)
    return tracer, cfg, train


def test_steps_are_units_with_counts(traced):
    tracer, cfg, train = traced
    pipeline.train_stage1(cfg, train, steps=STEPS)
    steps = [u["values"] for u in tracer.units if u["kind"] == "step"]
    assert len(steps) == STEPS
    for v in steps:
        assert v["engine.tape_ops"] > 0 and v["engine.matmul_calls"] > 0
        assert v["unit"] >= v["pipeline.forward"] + v["engine.backward"] + v["pipeline.adamw"]
    metrics = tracing.per_layer_metrics(tracer, "pretrain")
    assert {name for name, *_ in tracing.PER_LAYER} == set(metrics)
    assert metrics["engine.tape_ops_per_step"]["value"] == steps[0]["engine.tape_ops"]
    assert metrics["objectives.mlm_vtm_ms"]["value"] == 0.0
    assert tracer.video_checks == STEPS and not tracer.errors


def test_video_forward_off_by_one_multiply_add_is_caught(traced, monkeypatch):
    tracer, cfg, train = traced
    real = costmodel.schedule_cost

    class OffByOne:
        def __init__(self, report):
            self.total = report.total + 1

    monkeypatch.setattr(costmodel, "schedule_cost", lambda *a, **k: OffByOne(real(*a, **k)))
    pipeline.train_stage1(cfg, train, steps=1)
    assert tracer.errors and "multiply-adds" in tracer.errors[-1]


def test_benchmark_json_names_every_metric():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert per_layer == [(name, unit, better) for name, unit, better, *_ in tracing.PER_LAYER]
    report = {"rounds": [{"grad": [[160, 2.0]], "eval": [[100, 0.25], [100, 0.5]]}], "peak_rss_mb": 1900.0}
    metrics = run.end_to_end(report, [0.5, 0.4, 0.6])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: v["unit"] for k, v in metrics.items()}
    assert metrics["grad_items_per_s"]["value"] == 80.0 and metrics["eval_items_per_s"]["value"] == 300.0
    assert metrics["setup_s"]["value"] == 0.5
