"""Artifact io contracts: the one reader refuses every malformed shard or
checkpoint with a named error, and every file reaches disk through the one
atomic writer."""

import ast
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import longvid
from longvid.config import CLS_ID, ConfigError, default_config
from longvid.data import CorruptFileError, generate, read_shard, write_shard
from longvid.pipeline import MissingCheckpointError, load_checkpoint, save_checkpoint


def small_shard(path: Path) -> Path:
    small = replace(
        default_config().data, train_samples=2, eval_samples=1, clips=2, frames_per_clip=2, patch_rows=2, patch_cols=2, patch_dim=4
    )
    train, _ = generate(small, 0)
    write_shard(path, train, small)
    return path


def small_checkpoint(path: Path) -> Path:
    save_checkpoint(path, {"text.w": np.arange(6.0).reshape(2, 3), "video.b": np.ones(4)}, "stage1", 3)
    return path


FORMATS = {
    "shard": (small_shard, read_shard, "data shard", FileNotFoundError),
    "checkpoint": (small_checkpoint, load_checkpoint, "checkpoint file", MissingCheckpointError),
}


# ---------------------------------------------------------------------------
# reader
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case", ["magic", "version", "directory", "missing"])
@pytest.mark.parametrize("fmt", list(FORMATS))
def test_reader_refuses_what_is_not_its_format(tmp_path, fmt, case):
    write, read, kind, missing = FORMATS[fmt]
    path = tmp_path / "a"
    expected = {
        "magic": (CorruptFileError, f"{path}: not a {kind} (magic b'NOPE')"),
        "version": (CorruptFileError, f"{path}: unsupported {kind} version 2 (this reader knows 1)"),
        "directory": (CorruptFileError, f"{path}: not a {kind} (not a regular file)"),
        "missing": (missing, f"{kind} not found: {path}"),
    }
    if case == "directory":
        path.mkdir()
    elif case != "missing":
        whole = write(path).read_bytes()
        path.write_bytes(b"NOPE" + whole[4:] if case == "magic" else whole[:4] + struct.pack("<I", 2) + whole[8:])
    error, message = expected[case]
    with pytest.raises(error) as caught:
        read(path)
    assert type(caught.value) is error and str(caught.value) == message


@pytest.mark.parametrize("fmt", list(FORMATS))
def test_trailing_bytes_are_refused(tmp_path, fmt):
    write, read, kind, _ = FORMATS[fmt]
    path = write(tmp_path / "a")
    read(path)
    size = path.stat().st_size
    with path.open("ab") as fh:
        fh.write(b"\x00" * 5)
    with pytest.raises(ConfigError, match=f"corrupt {kind} \\(5 trailing bytes after the last field, at offset {size}\\)"):
        read(path)


@pytest.mark.parametrize("fmt, size, flipped", [("checkpoint", 139, 139), ("shard", None, 128)])
def test_every_single_bit_flip_loads_or_raises_a_named_error(tmp_path, fmt, size, flipped):
    write, read, _, _ = FORMATS[fmt]
    path = write(tmp_path / "a")
    whole = path.read_bytes()
    assert size is None or len(whole) == size
    refused = set()
    for offset in range(flipped):
        for bit in range(8):
            raw = bytearray(whole)
            raw[offset] ^= 1 << bit
            path.write_bytes(bytes(raw))
            try:
                read(path)
            except ConfigError:
                refused.add(offset)
    assert set(range(8)) <= refused  # magic and version


@pytest.mark.parametrize(
    "position, token, fault",
    [(3, 10**6, "token id 1000000 is not below vocab_size 131"), (0, CLS_ID + 1, "sentence 1 does not start with [CLS]")],
    ids=["token-id", "no-cls"],
)
def test_shard_sample_the_text_encoder_cannot_read_is_corrupt(tmp_path, position, token, fault):
    path = tmp_path / "a"
    samples, meta = read_shard(small_shard(path))
    samples[0].tokens[1, position] = token  # in sentence 1
    write_shard(path, samples, replace(default_config().data, **{k: v for k, v in meta.items() if k not in ("count", "vocab_size")}))
    with pytest.raises(CorruptFileError) as caught:
        read_shard(path)
    assert str(caught.value) == f"{path}: corrupt data shard (sample 0 (id {samples[0].sample_id}): {fault})"


def test_checkpoint_with_an_ndim_past_numpys_limit_is_corrupt(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, {"w": np.zeros(0)}, "s", 0)
    raw = path.read_bytes()  # magic, header, stage "s", key length, key "w", ndim, one dim of 0
    assert raw[-5] == 1
    path.write_bytes(raw[:-5] + bytes([65]) + b"\x00" * 4 * 65)
    with pytest.raises(CorruptFileError, match="array shape"):
        load_checkpoint(path)


# ---------------------------------------------------------------------------
# writer
# ---------------------------------------------------------------------------


def test_failed_write_keeps_the_old_checkpoint_and_no_temporary_file(tmp_path):
    path = small_checkpoint(tmp_path / "m.ckpt")
    old = path.read_bytes()
    # The second array's first dim does not fit the format's u32, so packing its
    # header fails after the file header and the first array were written.
    with pytest.raises(struct.error):
        save_checkpoint(path, {"a": np.ones(3), "b": np.zeros((2**32, 0))}, "stage1", 4)
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]


def _writes(tree: ast.AST):
    """(function name, line) of each call that writes or creates a file."""

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            fn = node.func
            name = fn.id if isinstance(fn, ast.Name) else fn.attr if isinstance(fn, ast.Attribute) else None
            if name == "open":
                # builtin open(path, mode) or Path.open(mode)
                args = node.args[1:] if isinstance(fn, ast.Name) else node.args
                mode = next((k.value for k in node.keywords if k.arg == "mode"), args[0] if args else None)
                writes = mode is not None and not (isinstance(mode, ast.Constant) and set(str(mode.value)) <= set("rbt"))
            else:
                writes = name in ("write_bytes", "write_text", "mkdir", "touch")
            if writes:
                yield function, node.lineno
        for child in ast.iter_child_nodes(node):
            yield from visit(child, function)

    return visit(tree, None)


def test_files_are_written_only_by_write_artifact():
    package = Path(longvid.__file__).parent
    found = {}
    for source in sorted(package.rglob("*.py")):
        for function, line in _writes(ast.parse(source.read_text())):
            found.setdefault(function, []).append(f"{source.relative_to(package)}:{line}")
    assert set(found) == {"write_artifact"}, found


def test_write_finder_sees_each_kind_of_write():
    tree = ast.parse(
        "def f(p):\n    open(p, 'wb')\n    open(p, mode='a')\n    p.open('x')\n    p.write_text('')\n    p.mkdir()\n"
        "def g(p):\n    open(p)\n    open(p, 'rb')\n    p.open()\n    p.read_bytes()\n"
    )
    assert [line for _, line in _writes(tree)] == [2, 3, 4, 5, 6]
