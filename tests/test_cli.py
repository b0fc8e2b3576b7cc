"""Command-line contracts: subcommands, dry runs, config dumping/overrides,
deterministic artifacts, error reporting."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import longvid
from longvid.cli import EXIT_CONFIG, EXIT_OK, main
from longvid.config import CLS_ID, load_config
from longvid.data import read_shard, write_shard

FAST = [
    "--set", "data.train_samples=8",
    "--set", "data.eval_samples=4",
    "--set", "train.batch_size=4",
    "--set", "train.stage1_steps=3",
    "--set", "train.stage2_steps=3",
]

# The directory that holds the imported `longvid` package. Child processes run
# from other working directories, where a relative PYTHONPATH (such as `src`)
# does not resolve, so they get this absolute root first on their path and run
# the same copy of the code as this process, installed or not.
SOURCE_ROOT = str(Path(longvid.__file__).resolve().parent.parent)


def run_cli(args, cwd):
    inherited = os.environ.get("PYTHONPATH")
    pythonpath = SOURCE_ROOT + (os.pathsep + inherited if inherited else "")
    return subprocess.run(
        [sys.executable, "-m", "longvid", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": pythonpath},
    )


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


# ---------------------------------------------------------------------------
# validation and dumping
# ---------------------------------------------------------------------------


def test_unknown_key_rejected_with_path(workdir, capsys):
    cfg = workdir / "bad.yaml"
    cfg.write_text("losses:\n  temprature: 0.05\n")
    code = main(["train-stage1", "--config", str(cfg), "--dry-run"])
    assert code == EXIT_CONFIG
    assert "losses.temprature" in capsys.readouterr().err


def test_invalid_value_names_key_and_reason(workdir, capsys):
    cfg = workdir / "bad.yaml"
    cfg.write_text("losses:\n  temperature: -2\n")
    code = main(["train-stage1", "--config", str(cfg), "--dry-run"])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "losses.temperature" in err and "> 0" in err


def test_schedule_validation_reported(workdir, capsys):
    cfg = workdir / "bad.yaml"
    cfg.write_text("data:\n  frames_per_clip: 6\n")
    code = main(["gen-data", "--config", str(cfg), "--dry-run"])
    assert code == EXIT_CONFIG
    assert "model.video.stages" in capsys.readouterr().err


def test_dump_config_prints_every_default(workdir, capsys):
    code = main(["train-stage1", "--dump-config"])
    assert code == EXIT_OK
    doc = yaml.safe_load(capsys.readouterr().out)
    assert doc["losses"]["temperature"] == 0.05
    assert doc["losses"]["mtc_weight"] == 1.0
    assert doc["losses"]["vtm_weight"] == 10.0
    assert doc["train"]["weight_decay"] == 0.05
    assert [s["temporal_window"] for s in doc["model"]["video"]["stages"]] == [2, 4, 8, 16, 32]


def test_set_overrides_and_seed_flag(workdir, capsys):
    code = main(["gen-data", "--dump-config", "--seed", "9", "--set", "losses.mtc_weight=0.25"])
    assert code == EXIT_OK
    doc = yaml.safe_load(capsys.readouterr().out)
    assert doc["seed"] == 9
    assert doc["losses"]["mtc_weight"] == 0.25


def test_env_seed_used_when_flag_absent(workdir, capsys, monkeypatch):
    monkeypatch.setenv("HTWA_SEED", "77")
    assert main(["gen-data", "--dump-config"]) == EXIT_OK
    assert yaml.safe_load(capsys.readouterr().out)["seed"] == 77
    # flag beats env
    assert main(["gen-data", "--dump-config", "--seed", "5"]) == EXIT_OK
    assert yaml.safe_load(capsys.readouterr().out)["seed"] == 5


def test_scientific_notation_in_file_and_override(workdir, capsys):
    cfg = workdir / "sci.yaml"
    cfg.write_text("train:\n  learning_rate: 1e-3\n")
    assert load_config(cfg).train.learning_rate == 0.001
    assert load_config(None, overrides=["train.learning_rate=1e-3"]).train.learning_rate == 0.001
    assert load_config(None, overrides=["losses.temperature=5.0e-2"]).losses.temperature == 0.05
    assert main(["train-stage1", "--config", str(cfg), "--set", "train.beta2=9.99e-1", "--dry-run"]) == EXIT_OK
    # read as the number -20.0, so the range check, not the type check, refuses it
    assert main(["train-stage1", "--set", "train.weight_decay=-2E+1", "--dry-run"]) == EXIT_CONFIG
    assert "train.weight_decay: must be >= 0.0, got -20.0" in capsys.readouterr().err


def test_dumped_scientific_config_loads_back_equal(workdir, capsys):
    cfg = workdir / "sci.yaml"
    cfg.write_text("train:\n  learning_rate: 1e-3\n  adam_eps: 1.0e-9\n")
    assert main(["train-stage1", "--config", str(cfg), "--dump-config"]) == EXIT_OK
    dumped = workdir / "dumped.yaml"
    dumped.write_text(capsys.readouterr().out)
    assert load_config(dumped) == load_config(cfg)
    assert load_config(dumped).train.adam_eps == 1e-9


@pytest.mark.parametrize("value", ["nan", "inf", "1e-3x", "abc", ".nan", ".inf", "-.inf"])
def test_non_numbers_still_rejected(workdir, capsys, value):
    code = main(["train-stage1", "--set", f"train.learning_rate={value}", "--dry-run"])
    assert code == EXIT_CONFIG
    assert "train.learning_rate: expected a number" in capsys.readouterr().err


def test_integer_fields_refuse_scientific_notation(workdir, capsys):
    code = main(["train-stage1", "--set", "train.batch_size=1e1", "--dry-run"])
    assert code == EXIT_CONFIG
    assert "train.batch_size: expected an integer" in capsys.readouterr().err


ONE_CLIP = [
    "--set", "data.clips=1",
    "--set", "data.frames_per_clip=32",
    "--set", "losses.anchor_count=1",
    "--set", "losses.candidate_count=1",
]


@pytest.mark.parametrize("dry_run", [[], ["--dry-run"]], ids=["run", "dry-run"])
def test_one_clip_with_mtc_on_is_refused_before_the_plan(workdir, capsys, dry_run):
    before = set(workdir.rglob("*"))
    assert main(["train-stage1", *FAST, *ONE_CLIP, *dry_run]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: losses.mtc_weight: ") and "data.clips >= 2, got 1" in err
    assert len(err.strip().splitlines()) == 1
    assert set(workdir.rglob("*")) == before


def test_one_clip_trains_with_mtc_off(workdir, capsys):
    assert main(["train-stage1", *FAST, *ONE_CLIP, "--set", "losses.mtc_weight=0"]) == EXIT_OK
    assert (workdir / "runs/toy/stage1.ckpt").exists()


@pytest.mark.parametrize(
    "override, path",
    [
        ("data=5", "data"),
        ("model.video=3", "model.video"),
        ("model.video.stages=5", "model.video.stages"),
        ("model.video.stages=[]", "model.video.stages"),
        ("model.video.stages=[5]", "model.video.stages[0]"),
        (
            "model.video.stages=[{layers: 1, dim: 32, heads: 4, temporal_window: 32, merg: 2}]",
            "model.video.stages[0].merg",
        ),
        ("data.out_dir=", "data.out_dir"),
        ("train.batch_size=1", "train.batch_size"),  # in-batch negatives need a second pair
        ("train.beta1=1.0", "train.beta1"),
        ("train.beta2=2", "train.beta2"),
        ("train.warmup_epochs=1e308", "train.warmup_epochs"),  # 32 steps an epoch: an infinite step count
    ],
)
def test_overrides_get_the_file_checks(workdir, capsys, override, path):
    code = main(["train-stage1", "--set", override, "--dry-run"])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: ") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("content", [b"losses: [1, 2\n", b"seed: \xff\n", None], ids=["malformed", "not-utf8", "directory"])
def test_unreadable_config_file_exits_config(workdir, capsys, content):
    cfg = workdir / "bad.yaml"
    if content is None:
        cfg.mkdir()
    else:
        cfg.write_bytes(content)
    assert main(["train-stage1", "--config", str(cfg), "--dry-run"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {cfg}: ") and len(err.strip().splitlines()) == 1


# ---------------------------------------------------------------------------
# --steps and --out spell dotted config paths
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dry_run", [[], ["--dry-run"]], ids=["run", "dry-run"])
@pytest.mark.parametrize("steps", ["0", "-3"])
@pytest.mark.parametrize("command", ["train-stage1", "train-stage2"])
def test_step_flag_gets_the_schema_bound(workdir, capsys, command, steps, dry_run):
    key = f"{command[-6:].replace('-', '')}_steps"  # stage1_steps / stage2_steps
    before = set(workdir.rglob("*"))
    # the flag beats FAST's --set of the same path, and is checked like it
    assert main([command, *FAST, "--steps", steps, *dry_run]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: train.{key}: must be >= 1, got {steps}\n"
    assert set(workdir.rglob("*")) == before

    assert main([command, "--dump-config", "--steps", "5", "--out", "123"]) == EXIT_OK
    out = capsys.readouterr().out
    assert f"  {key}: 5\n" in out and "  out_dir: '123'\n" in out
    assert main([command, "--out", "123", "--dry-run"]) == EXIT_OK
    assert "123/stage1.ckpt" in capsys.readouterr().out


def test_out_flag_reaches_the_config_verbatim(workdir, capsys):
    assert main(["gen-data", "--out", "a: b", "--dump-config"]) == EXIT_OK
    assert yaml.safe_load(capsys.readouterr().out)["data"]["out_dir"] == "a: b"


def test_empty_out_means_the_working_directory_in_both_spellings(workdir, capsys):
    plans = []
    for spelling in (["--out", ""], ["--set", 'train.out_dir=""']):
        assert main(["train-stage1", *spelling, "--dry-run"]) == EXIT_OK
        plans.append(capsys.readouterr().out)
    assert plans[0] == plans[1] and "write stage1_metrics.csv and stage1.ckpt" in plans[0]
    assert main(["gen-data", *FAST, "--out", ""]) == EXIT_OK
    assert (workdir / "train.shard").exists() and (workdir / "eval.shard").exists()


def test_step_flag_and_set_write_the_same_bytes(workdir):
    sizes = FAST[: FAST.index("train.stage1_steps=3") - 1]  # FAST without its step budgets
    assert main(["train-stage1", *FAST, "--out", "by_set"]) == EXIT_OK
    assert main(["train-stage1", *sizes, "--steps", "3", "--out", "by_flag"]) == EXIT_OK
    for name in ("stage1_metrics.csv", "stage1.ckpt"):
        assert (workdir / "by_set" / name).read_bytes() == (workdir / "by_flag" / name).read_bytes()


# ---------------------------------------------------------------------------
# dry runs touch nothing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "command",
    [
        ["gen-data"],
        ["train-stage1"],
        ["train-stage2"],
        ["eval-retrieval"],
        ["gradcheck"],
        ["analyze-cost"],
    ],
)
def test_dry_run_creates_no_files(workdir, capsys, command):
    before = set(Path(workdir).rglob("*"))
    code = main([*command, "--dry-run", *FAST])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "plan" in out
    assert set(Path(workdir).rglob("*")) == before


# ---------------------------------------------------------------------------
# artifact flows
# ---------------------------------------------------------------------------


def test_gen_data_then_train_then_eval(workdir, capsys):
    assert main(["gen-data", *FAST]) == EXIT_OK
    assert (workdir / "data/toy/train.shard").exists()
    assert (workdir / "data/toy/eval.shard").exists()

    assert main(["train-stage1", *FAST]) == EXIT_OK
    assert (workdir / "runs/toy/stage1_metrics.csv").exists()
    assert (workdir / "runs/toy/stage1.ckpt").exists()
    header = (workdir / "runs/toy/stage1_metrics.csv").read_text().splitlines()[0]
    assert header == "step,lr,loss_total,loss_global,loss_mtc,loss_mlm,loss_vtm"

    assert main(["eval-retrieval", *FAST]) == EXIT_OK
    assert (workdir / "runs/toy/retrieval.csv").exists()

    assert main(["train-stage2", *FAST]) == EXIT_OK
    assert (workdir / "runs/toy/stage2_metrics.csv").exists()
    capsys.readouterr()


def test_train_stage2_without_checkpoint_names_path(workdir, capsys):
    code = main(["train-stage2", *FAST])
    assert code != EXIT_OK
    assert "stage1.ckpt" in capsys.readouterr().err


def test_truncated_checkpoint_exits_config(workdir, capsys):
    assert main(["train-stage1", *FAST]) == EXIT_OK
    ckpt = workdir / "runs/toy/stage1.ckpt"
    ckpt.write_bytes(ckpt.read_bytes()[:5000])
    capsys.readouterr()
    assert main(["eval-retrieval", *FAST]) == EXIT_CONFIG
    assert "truncated" in capsys.readouterr().err
    assert main(["train-stage2", *FAST]) == EXIT_CONFIG


def test_truncated_shard_exits_config(workdir, capsys):
    assert main(["gen-data", *FAST]) == EXIT_OK
    shard = workdir / "data/toy/train.shard"
    shard.write_bytes(shard.read_bytes()[:10000])
    capsys.readouterr()
    assert main(["train-stage1", *FAST]) == EXIT_CONFIG
    assert "truncated" in capsys.readouterr().err


def test_bit_flipped_checkpoint_exits_config(workdir, capsys):
    assert main(["train-stage1", *FAST]) == EXIT_OK
    ckpt = workdir / "runs/toy/stage1.ckpt"
    raw = bytearray(ckpt.read_bytes())
    raw[4 + 18 + len("stage1") + 2] = 0xFF  # first byte of the first key
    ckpt.write_bytes(bytes(raw))
    capsys.readouterr()
    assert main(["eval-retrieval", *FAST]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "stage1.ckpt" in err and "corrupt" in err and len(err.strip().splitlines()) == 1


def test_shard_from_another_config_exits_config(workdir, capsys):
    assert main(["gen-data", *FAST, "--set", "data.patch_dim=4"]) == EXIT_OK
    capsys.readouterr()
    assert main(["train-stage1", *FAST]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "train.shard" in err and "data.patch_dim=4" in err and "has 8" in err


def test_gradcheck_writes_report(workdir, capsys):
    code = main(["gradcheck", "--seeds", "0", *FAST])
    assert code == EXIT_OK
    report = (workdir / "runs/toy/gradcheck.txt").read_text()
    assert "PASS" in report
    capsys.readouterr()


def test_analyze_cost_row_count(workdir, capsys):
    code = main(["analyze-cost", "--schedule", "2,4,8,16,32", "--frames", "32"])
    assert code == EXIT_OK
    rows = (workdir / "runs/toy/cost.csv").read_text().splitlines()
    assert len(rows) == 1 + 5  # header + one row per stage
    out = capsys.readouterr().out
    assert "hierarchical total" in out


def test_analyze_cost_rejects_bad_schedule(workdir, capsys):
    code = main(["analyze-cost", "--schedule", "3,32", "--frames", "32"])
    assert code == EXIT_CONFIG
    assert "schedule" in capsys.readouterr().err


@pytest.mark.parametrize("dry_run", [[], ["--dry-run"]], ids=["run", "dry-run"])
@pytest.mark.parametrize("flag", [["--frames", "0"], ["--schedule", "0"]], ids=["frames", "schedule"])
def test_analyze_cost_refuses_zero_before_the_plan(workdir, capsys, flag, dry_run):
    assert main(["analyze-cost", *flag, *dry_run]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: --schedule/--frames: ") and len(err.strip().splitlines()) == 1
    assert list(workdir.rglob("*")) == []


@pytest.mark.parametrize("dry_run", [[], ["--dry-run"]], ids=["run", "dry-run"])
def test_gradcheck_seeds_get_the_seed_bound(workdir, capsys, dry_run):
    assert main(["gradcheck", "--seeds", "0,-1", *FAST, *dry_run]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: --seeds: seed: must be >= 0, got -1\n"
    assert list(workdir.rglob("*")) == []


@pytest.mark.parametrize("command", ["eval-retrieval", "train-stage2"])
def test_checkpoint_that_is_a_directory_exits_config(workdir, capsys, command):
    (workdir / "ckpt").mkdir()
    assert main([command, *FAST, "--checkpoint", str(workdir / "ckpt")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"config error: {workdir / 'ckpt'}: not a checkpoint file (not a regular file)\n"


@pytest.mark.parametrize("dry_run", [[], ["--dry-run"]], ids=["run", "dry-run"])
@pytest.mark.parametrize(
    "command, out, path",
    [("train-stage1", "afile", "train.out_dir"), ("gen-data", "afile/sub", "data.out_dir")],
    ids=["train-stage1", "gen-data"],
)
def test_out_in_place_of_a_file_exits_config_before_any_work(workdir, capsys, command, out, path, dry_run):
    (workdir / "afile").write_text("not a directory\n")
    assert main([command, *FAST, "--out", out, *dry_run]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {path}: afile is not a directory\n"
    assert [p.name for p in workdir.rglob("*")] == ["afile"]


def test_empty_checkpoint_is_not_the_default_checkpoint(workdir, capsys):
    assert main(["train-stage1", *FAST]) == EXIT_OK
    capsys.readouterr()
    assert main(["eval-retrieval", *FAST, "--checkpoint", ""]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: .: not a checkpoint file (not a regular file)\n"


def test_shard_that_is_a_directory_exits_config(workdir, capsys):
    (workdir / "data/toy/train.shard").mkdir(parents=True)
    assert main(["train-stage1", *FAST]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: data/toy/train.shard: not a data shard (not a regular file)\n"


@pytest.mark.parametrize("position, token", [(3, 10**6), (0, CLS_ID + 1)], ids=["token-id", "no-cls"])
def test_shard_the_text_encoder_cannot_read_exits_config_without_a_traceback(workdir, position, token):
    assert main(["gen-data", *FAST]) == EXIT_OK
    shard = workdir / "data/toy/train.shard"
    samples, _ = read_shard(shard)
    samples[0].tokens[0, position] = token
    write_shard(shard, samples, load_config(overrides=FAST[1::2]).data)
    r = run_cli(["train-stage1", *FAST], workdir)
    assert r.returncode == EXIT_CONFIG
    assert r.stderr.startswith("config error: data/toy/train.shard: corrupt data shard (sample 0 ")
    assert len(r.stderr.strip().splitlines()) == 1 and "Traceback" not in r.stderr


@pytest.mark.parametrize(
    "make, artifact, damage, command",
    [
        ("train-stage1", "runs/toy/stage1.ckpt", "trailing", "eval-retrieval"),
        ("train-stage1", "runs/toy/stage1.ckpt", "ndim=3", "eval-retrieval"),
        ("train-stage1", "runs/toy/stage1.ckpt", "ndim^64", "train-stage2"),
        ("gen-data", "data/toy/train.shard", "trailing", "train-stage1"),
    ],
)
def test_damaged_artifact_exits_config(workdir, capsys, make, artifact, damage, command):
    assert main([make, *FAST]) == EXIT_OK
    path = workdir / artifact
    raw = bytearray(path.read_bytes())
    if damage == "trailing":
        raw += b"\x00" * 5
    else:  # the first parameter's ndim byte, after magic, header, stage name, key length and key
        key_at = 4 + 18 + len("stage1") + 2
        ndim_at = key_at + int.from_bytes(raw[key_at - 2 : key_at], "little")
        raw[ndim_at] = 3 if damage == "ndim=3" else raw[ndim_at] ^ 64
    path.write_bytes(bytes(raw))
    capsys.readouterr()
    assert main([command, *FAST]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {artifact}: ") and len(err.strip().splitlines()) == 1


# ---------------------------------------------------------------------------
# determinism across processes
# ---------------------------------------------------------------------------


def _digests(root: Path, names) -> dict:
    return {n: hashlib.sha256((root / n).read_bytes()).hexdigest() for n in names}


def test_repeated_runs_byte_identical(tmp_path):
    digests = []
    for sub in ("one", "two"):
        cwd = tmp_path / sub
        cwd.mkdir()
        r = run_cli(["gen-data", *FAST, "--seed", "3"], cwd)
        assert r.returncode == 0, r.stderr
        r = run_cli(["train-stage1", *FAST, "--seed", "3"], cwd)
        assert r.returncode == 0, r.stderr
        r = run_cli(["train-stage2", *FAST, "--seed", "3"], cwd)
        assert r.returncode == 0, r.stderr
        r = run_cli(["eval-retrieval", *FAST, "--seed", "3"], cwd)
        assert r.returncode == 0, r.stderr
        digests.append(
            _digests(
                cwd,
                [
                    "data/toy/train.shard",
                    "data/toy/eval.shard",
                    "runs/toy/stage1_metrics.csv",
                    "runs/toy/stage1.ckpt",
                    "runs/toy/stage2_metrics.csv",
                    "runs/toy/stage2.ckpt",
                    "runs/toy/retrieval.csv",
                ],
            )
        )
    assert digests[0] == digests[1]


def test_different_seeds_differ(tmp_path):
    hashes = []
    for seed in ("3", "4"):
        cwd = tmp_path / f"s{seed}"
        cwd.mkdir()
        r = run_cli(["train-stage1", *FAST, "--seed", seed], cwd)
        assert r.returncode == 0, r.stderr
        hashes.append(hashlib.sha256((cwd / "runs/toy/stage1.ckpt").read_bytes()).hexdigest())
    assert hashes[0] != hashes[1]
