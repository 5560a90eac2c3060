"""The package ships only what a run reaches: every function, class and
method defined in ``src/alzdetect`` is named somewhere in ``src/`` or
``perfbench/`` besides its own definition, so a helper that only the tests
call lives in ``tests/helpers.py`` instead."""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "alzdetect"

# defined for a reason no caller in the shipped code shows
EXCEPTIONS = {
    # ROADMAP keeps it for the null-signal acceptance gate
    "null_signal_config",
    # the one-config protocol the acceptance gates run; compare_variants and
    # ablate share its per-seed loop but split the corpus once for all rows
    "run_experiment",
    # cli._ArgumentParser's override, which argparse calls on a usage error
    "error",
}


def _definitions(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name


def _references(tree: ast.AST):
    """Every name a module uses: loaded names, attributes, imported names,
    and strings that are identifiers (``getattr``-style lookups)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            yield node.value


def _trees(*dirs: str):
    for d in dirs:
        for path in sorted((REPO / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_package_definition_has_a_caller_outside_the_tests():
    defined = {name for _, tree in _trees("src/alzdetect") for name in _definitions(tree)}
    used = {name for _, tree in _trees("src", "perfbench")
            for name in _references(tree)}
    candidates = {n for n in defined if not (n.startswith("__") and n.endswith("__"))}
    unused = sorted(candidates - used - EXCEPTIONS)
    assert not unused, f"defined in {PACKAGE} but named nowhere outside the tests: {unused}"
    assert EXCEPTIONS <= defined, "an exception names a definition that is gone"
