"""Record the references the benchmark checks outputs against.

    python3 perfbench/record_reference.py

Run at the commit whose outputs are the reference. It records every input
set of every workload at every scale, and writes the file once all are
recorded. Each input set is generated, set up, and run through one whole
round of operations: one fit on train, every transcript once on score, one
pass on ingest.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")     # as run.py sets it

import bench  # noqa: E402


def record(scale: str, name: str, input_set: int) -> dict:
    workload = bench.WORKLOADS[name](scale, input_set)
    root = HERE / ".work" / f"reference-{scale}-{name}-{input_set}"
    try:
        workload.generate(root)
        state = workload.setup(root)
        outs = [workload.op(state, i) for i in range(workload.round_size(state))]
        return workload.reference(outs)
    finally:
        shutil.rmtree(root, ignore_errors=True)


def main() -> int:
    refs: dict = {}
    for scale in sorted(bench.SCALES):
        for name in bench.WORKLOADS:
            for input_set in range(bench.INPUT_SETS):
                refs.setdefault(scale, {}).setdefault(name, {})[str(input_set)] = \
                    record(scale, name, input_set)
                print(f"{scale} {name} {input_set}", flush=True)
    bench.REFERENCE_FILE.write_text(json.dumps(refs, indent=1, sort_keys=True),
                                    encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
