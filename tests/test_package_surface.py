"""The package ships only what a run reaches: every function, class and
method defined in ``src/alzdetect`` is named somewhere in ``src/`` or
``perfbench/`` besides its own definition, so a helper that only the tests
call lives in ``tests/helpers.py`` instead. Likewise every exception class
it defines is caught somewhere in ``src/``: an error no handler tells apart
is raised as the type its exit code already has."""

import ast
import importlib
import pkgutil
from pathlib import Path

import alzdetect

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


def _caught(tree: ast.AST):
    """The last dotted part of every type an ``except`` clause names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            kinds = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            for kind in kinds:
                yield kind.attr if isinstance(kind, ast.Attribute) else kind.id


def _exception_classes():
    for info in pkgutil.iter_modules(alzdetect.__path__):
        module = importlib.import_module(f"alzdetect.{info.name}")
        for name, obj in vars(module).items():
            if (isinstance(obj, type) and issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__):
                yield name


def test_every_package_exception_is_caught_in_the_package():
    defined = set(_exception_classes())
    caught = {name for _, tree in _trees("src") for name in _caught(tree)}
    assert defined, "no exception class found in the package"
    uncaught = sorted(defined - caught)
    assert not uncaught, f"exception classes no except clause in src/ names: {uncaught}"
