"""Every function, class and method of src/longvid has a caller that is not a test.

A caller is src/longvid itself (the CLI included), perfbench/, scripts/ or
demos/. The census walks their syntax trees for every `Name`, every
`Attribute` and every string constant that is an identifier (perfbench wraps
functions by name), leaving out the `__all__` re-export lists. It fails on any
top-level function or class, or non-dunder method of a top-level class, of
src/longvid that none of them names and that ALLOWED does not list.

It is a floor, not an oracle. It matches by bare name, so a definition that
shares its name with something else passes unseen: `split` would, because
`str.split` has the same name. It does not look at parameters or dataclass
fields at all.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "longvid"
CALLER_DIRS = (SOURCE, ROOT / "perfbench", ROOT / "scripts", ROOT / "demos")

# name -> why it stays without a caller
ALLOWED = {
    "truncate_clips": "kept for the paper-ablation harness's short-video arm; only the .probe/ sweeps use it today",
    "clip_observation": "the data generator's own check in tests/test_data.py; the alignment oracle may reuse it",
    "sentence_observation": "the data generator's own check in tests/test_data.py; the alignment oracle may reuse it",
    "nearest_topic_accuracy": "the data generator's own check in tests/test_data.py; the alignment oracle may reuse it",
}


def _trees(directory: Path):
    for path in sorted(directory.rglob("*.py")):
        if "tests" not in path.relative_to(directory).parts:
            yield ast.parse(path.read_text(), filename=str(path))


def _defined(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("__"):
                    yield item.name


def _named(tree: ast.Module) -> set[str]:
    exports = {
        id(const)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for const in ast.walk(node.value)
    }
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            if id(node) not in exports:
                names.add(node.value)
    return names


def _uncalled() -> set[str]:
    named = set().union(*(_named(tree) for d in CALLER_DIRS for tree in _trees(d)))
    return {name for tree in _trees(SOURCE) for name in _defined(tree)} - named


def test_every_definition_has_a_caller_outside_the_tests():
    assert sorted(_uncalled() - set(ALLOWED)) == []


def test_allow_list_holds_only_uncalled_names():
    assert sorted(set(ALLOWED) - _uncalled()) == []
