"""scripts/bench_json.py on synthetic result files: seed pairing and the summaries."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_json.py"


@pytest.fixture(scope="module")
def bench_json():
    spec = importlib.util.spec_from_file_location("bench_json", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_run(directory: Path, workload: str, seed: int, trace: int, metrics: dict) -> None:
    directory.mkdir(exist_ok=True)
    doc = {"correct": True, "metrics": {name: {"value": value} for name, value in metrics.items()}}
    (directory / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(doc))


def test_per_layer_summary_spans_every_traced_pair(bench_json, tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    video = {"parent": [10.0, 12.0, 14.0], "change": [8.0, 9.0, 7.0]}
    for seed in range(3):
        write_run(parent, "verify", seed, 1, {"encoders.video_ms": video["parent"][seed], "encoders.cross_ms": 0.0, "engine.matmul_ms": 5.0})
        change_metrics = {"encoders.video_ms": video["change"][seed], "encoders.cross_ms": 0.0}
        if seed:
            change_metrics["engine.matmul_ms"] = 4.0 + seed
        write_run(change, "verify", seed, 1, change_metrics)
        write_run(parent, "verify", seed, 0, {"eval_items_per_s": 1.0 + seed})
        write_run(change, "verify", seed, 0, {"eval_items_per_s": 2.0 + seed})
    write_run(parent, "verify", 7, 1, {"encoders.video_ms": 99.0})  # no change side: unpaired
    out = tmp_path / "bench.json"

    assert bench_json.main(["--parent", str(parent), "--change", str(change), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())

    layers = doc["per_layer"]["verify"]
    assert sorted(layers) == ["seed0", "seed1", "seed2", "summary"]
    assert layers["seed0"]["engine.matmul_ms"] == {"parent": 5.0, "change": None}
    summary = layers["summary"]
    assert summary["encoders.video_ms"] == {"parent_median": 12.0, "change_median": 8.0, "median_ratio": 0.75, "pairs": 3}
    assert summary["encoders.cross_ms"] == {"parent_median": 0.0, "change_median": 0.0, "median_ratio": None, "pairs": 3}
    assert summary["engine.matmul_ms"] == {"parent_median": 5.0, "change_median": 5.5, "median_ratio": 1.1, "pairs": 2}

    e2e = doc["end_to_end"]["verify"]["summary"]["eval_items_per_s"]
    assert (e2e["parent_median"], e2e["change_median"], e2e["change_better"], e2e["pairs"]) == (2.0, 3.0, 3, 3)
    assert e2e["median_ratio"] == pytest.approx(1.5)
    assert "pretrain" not in doc["per_layer"] and "pretrain" not in doc["end_to_end"]


def test_the_change_directory_is_required(bench_json, tmp_path, capsys):
    # No default: perfbench/run.py never clears its results directory, so a
    # default would pair stale runs of the same seeds with new ones.
    write_run(tmp_path / "parent", "verify", 0, 0, {"eval_items_per_s": 1.0})
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as e:
        bench_json.main(["--parent", str(tmp_path / "parent"), "--out", str(out)])
    assert e.value.code == 2
    assert "--change" in capsys.readouterr().err
    assert not out.exists()
