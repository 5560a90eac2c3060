"""The benchmark in perfbench/ finds the package's callables by name
(``getattr`` on modules and classes). A renamed or deleted callable would
only break its traced run, which these tests do not start, so check here
that every name it looks up still resolves, and that every checkpoint the
timing calibrates after is still called inside an operation."""

import functools
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module      # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer():
    return _load("tracer")


@pytest.fixture(scope="module")
def bench():
    return _load("bench")


def _unresolved(pairs):
    return [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr in pairs
            if not callable(getattr(owner, attr, None))]


def test_every_traced_boundary_resolves(tracer):
    assert _unresolved((owner, attr) for owner, attr, _ in tracer.BOUNDARIES) == []


def test_every_traced_op_is_a_boundary(tracer):
    wrapped = {name for _, _, name in tracer.BOUNDARIES}
    assert {"autodiff." + op for op in tracer.OPS} <= wrapped


def test_every_workload_checkpoint_resolves(bench):
    assert bench.WORKLOADS
    for workload in bench.WORKLOADS.values():
        assert _unresolved(workload.checkpoints) == [], workload.name


@pytest.mark.parametrize("name", ["train", "score", "ingest"])
def test_every_workload_checkpoint_is_called_in_one_operation(bench, monkeypatch, tmp_path, name):
    # a checkpoint the operation never calls would leave long operations
    # uncalibrated without failing anything else
    workload = bench.WORKLOADS[name]("toy", 0)
    workload.generate(tmp_path)
    state = workload.setup(tmp_path)
    calls = {}
    for owner, attr in workload.checkpoints:
        original = getattr(owner, attr)
        key = f"{getattr(owner, '__name__', owner)}.{attr}"
        calls[key] = 0

        @functools.wraps(original)
        def counted(*args, _original=original, _key=key, **kwargs):
            calls[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)
    workload.op(state, 0)
    assert [key for key, n in calls.items() if n == 0] == []
