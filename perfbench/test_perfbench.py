"""Self-test of the benchmark: every workload at toy scale, untraced and
traced, reports every metric BENCHMARK.json names, with its unit, and the
output checks reject wrong outputs.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench  # noqa: E402
from alzdetect.lexical_features import EncodedInstance  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_toy_run_reports_every_metric_with_its_unit(workload, trace):
    proc = run(ROOT, "--workload", workload, "--seed", "17", "--seconds", "0.5",
               "--trace", str(trace), "--scale", "toy")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in section}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        samples = next(line for line in proc.stdout.splitlines() if line.startswith("# samples "))
        assert json.loads(samples[len("# samples "):])["setups"] >= 5    # cold set-ups


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", ".results", "__pycache__"))
    proc = run(tmp_path, "--workload", "score", "--seed", "0", "--seconds", "1",
               "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_train_check_rejects_other_losses():
    w = bench.Train("toy", 0)
    ref = {"losses": [[0.7, 0.6], [0.5, 0.4]]}
    assert w.check([[0.7, 0.6], [0.5, 0.4]], ref, 0)
    assert not w.check([[0.7, 0.6], [0.5, 0.4 * (1 + 1e-6)]], ref, 0)
    assert not w.check([[0.7, 0.6]], ref, 0)          # an epoch missing


def test_score_check_compares_the_transcript_scored():
    w = bench.Score("toy", 0)
    ref = {"probabilities": [0.25, 0.75]}
    assert w.check(0.75, ref, 3)
    assert not w.check(0.25, ref, 3)
    assert not w.check(0.75 + 1e-6, ref, 1)


def test_ingest_digest_sees_every_array():
    rng = np.random.default_rng(0)

    def instance(**change):
        fields = dict(transcript_id="A0001-0", participant_id="A0001",
                      embeddings=rng.normal(size=(4, 3)), pos_onehot=np.eye(4, 37),
                      features=rng.normal(size=7), mask=np.array([1.0, 1.0, 0.0, 0.0]),
                      label=1)
        fields.update(change)
        return EncodedInstance(**fields)

    base = instance()
    ref = bench.digest([base])
    w = bench.Ingest("toy", 0)
    assert w.check([base], ref, 0)
    for change in ({"mask": np.array([1.0, 0.0, 0.0, 0.0])},
                   {"embeddings": base.embeddings + 1e-12},
                   {"features": base.features * (1 + 1e-6)},
                   {"label": 0}):
        fields = {f: getattr(base, f) for f in EncodedInstance.__dataclass_fields__}
        assert not w.check([EncodedInstance(**{**fields, **change})], ref, 0), change
