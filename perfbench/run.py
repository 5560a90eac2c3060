"""Benchmark of alzdetect: three workloads, end-to-end metrics untraced,
per-layer metrics from a separate traced run.

    python3 perfbench/run.py --workload train|score|ingest|all --seed N \
        --seconds S --trace 0|1 [--scale full|toy]

Run from the root of a source checkout; the package is imported from
``src/``. The last line of standard output is the result as JSON. The exit
code is non-zero when any output misses its reference or any input-shape
count differs from an earlier run of the same workload and seed. See
README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = HERE / ".work"          # generated inputs, removed after each run
RESULTS_DIR = HERE / ".results"    # result records, traces, input-shape counts
WORKLOAD_NAMES = ("train", "score", "ingest")
MIN_SETUPS = 5                     # cold set-ups per run: this process's and fresh ones
SETUP_SECONDS = 6.0                # more fresh set-ups until this much time is spent
MAX_SETUPS = 15
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "toy"), default="full")
    p.add_argument("--generate-into", type=Path, help=argparse.SUPPRESS)
    p.add_argument("--setup-in", type=Path, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def environment(args, input_set: int) -> dict:
    import numpy as np
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": NPROC, "cpu": cpu, "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "workload": args.workload, "seed": args.seed, "input_set": input_set,
        "scale": args.scale, "seconds": args.seconds, "trace": args.trace,
        "note": "cores may be shared with other processes; CPU frequency is "
                "neither pinned nor traced machine-wide",
    }


def quantile(values: list[float], q: int) -> float:
    """q-th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Loop:
    """Closed loop: the next operation starts when the previous one ends."""

    def __init__(self, workload, state, reference, calibration):
        self.workload, self.state, self.reference = workload, state, reference
        self.calibration = calibration
        self.attempted = self.failed = 0
        self.errors: list[str] = []

    def run(self, seconds: float, ops, tracer=None, whole_rounds: bool = False) -> float:
        """Operations until ``seconds`` of wall time pass (at least one), timed
        into the Timings ``ops``. With ``whole_rounds``, whole rounds only, so
        per-request counts cover the input evenly. Returns the wall seconds."""
        w = self.workload
        whole = w.round_size(self.state) if whole_rounds else 1
        i, t0 = 0, time.perf_counter()
        while not i or (time.perf_counter() - t0 < seconds) or i % whole:
            out, ok = None, False
            gc.collect()                   # each operation starts from the same heap
            try:
                with ops.measure():
                    if tracer is None:
                        out = w.op(self.state, i)
                    else:
                        with tracer.span(w.name + ".op"):
                            out = w.op(self.state, i)
                ok = w.check(out, self.reference, i)
                if not ok:
                    self.errors.append(f"operation {i}: output misses the reference")
            except Exception:
                self.errors.append(f"operation {i}: " + traceback.format_exc(limit=3))
            del out
            self.attempted += 1
            self.failed += not ok
            i += 1
        loop_wall = time.perf_counter() - t0
        self.calibration.run(force=True)
        return loop_wall


def generate_inputs(args, input_set: int, root: Path):
    """Inputs are written by a child process, so the parent's peak RSS
    belongs to the workload alone."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(input_set), "--seconds", "0", "--scale", args.scale,
           "--generate-into", str(root)]
    subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)


def timed_setup(workload, root: Path, calibration, tracer=None):
    """The first set-up of this process, cold as at the start of a command.
    Returns the state and its Timings."""
    from clock import Timings
    setups = Timings(calibration)
    gc.collect()
    with setups.measure(calibrate_first=True):
        if tracer is None:
            state = workload.setup(root)
        else:
            with tracer.installed(), tracer.span("setup"):
                state = workload.setup(root)
    calibration.run(force=True)
    return state, setups


def fresh_setups(args, root: Path) -> list[dict]:
    """Cold set-ups, each in a fresh process on the inputs in ``root``, until
    MIN_SETUPS - 1 have run and SETUP_SECONDS have passed (at most
    MAX_SETUPS - 1). Each gives its reference and wall seconds."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--scale", args.scale,
           "--setup-in", str(root)]
    out, t0 = [], time.perf_counter()
    while len(out) < MIN_SETUPS - 1 or (time.perf_counter() - t0 < SETUP_SECONDS
                                        and len(out) < MAX_SETUPS - 1):
        proc = subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def source_fingerprint() -> str:
    h = hashlib.blake2b(digest_size=6)
    for path in sorted((ROOT / "src" / "alzdetect").rglob("*.py")):
        h.update(path.read_bytes())
    return h.hexdigest()


def check_counts(key: str, counts: dict) -> list[str]:
    """Compare with the counts an earlier run stored for the same workload,
    scale, seed and package source; store the union."""
    path = RESULTS_DIR / f"counts-{key}-{source_fingerprint()}.json"
    seen = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    diffs = [f"{k}: {seen[k]} before, {v} now" for k, v in counts.items()
             if k in seen and seen[k] != v]
    if not diffs:
        path.write_text(json.dumps({**seen, **counts}, indent=1, sort_keys=True),
                        encoding="utf-8")
    return diffs


def run_workload(args) -> int:
    import bench
    import tracer as tracing
    from clock import Calibration, Timings

    input_set = args.seed % bench.INPUT_SETS
    workload = bench.WORKLOADS[args.workload](args.scale, input_set)
    if args.generate_into is not None:
        args.generate_into.mkdir(parents=True, exist_ok=True)
        workload.generate(args.generate_into)
        return 0
    if args.setup_in is not None:
        _, setups = timed_setup(workload, args.setup_in, Calibration())
        print(json.dumps({"reference": setups.reference()[0], "wall": setups.wall()[0]}))
        return 0

    reference = bench.load_references(args.scale, args.workload, input_set)
    if reference is None:
        print(f"no reference for {args.scale}/{args.workload}/{input_set} in "
              f"{bench.REFERENCE_FILE}", file=sys.stderr)
        return 2
    env = environment(args, input_set)
    RESULTS_DIR.mkdir(exist_ok=True)
    root = WORK_DIR / f"{args.workload}-{args.scale}-{args.seed}-{os.getpid()}"
    try:
        generate_inputs(args, input_set, root)
        tracer = tracing.Tracer() if args.trace else None
        # setup_s is the median of cold set-ups: fresh processes first, while
        # this one holds no state, then this process's own
        cold = fresh_setups(args, root) if tracer is None else []
        calibration = Calibration()
        checkpoints = calibration.inside(workload.checkpoints if tracer is None else ())
        state, setups = timed_setup(workload, root, calibration, tracer)
        setup_ref = setups.reference() + [c["reference"] for c in cold]
        setup_wall = setups.wall() + [c["wall"] for c in cold]

        counts = bench.input_counts(workload, root, state)
        loop, ops = Loop(workload, state, reference, calibration), Timings(calibration)
        if tracer is None:
            with checkpoints:
                loop_wall = loop.run(args.seconds, ops)
        else:
            # whole untraced and traced rounds in turn, so both meet the same
            # host; the difference of their medians is the tracing overhead
            plain, first, t0 = Timings(calibration), len(tracer.spans), time.perf_counter()
            while not ops or time.perf_counter() - t0 < args.seconds:
                loop.run(0, plain, whole_rounds=True)
                with tracer.installed():
                    loop.run(0, ops, tracer=tracer, whole_rounds=True)
            rounds = round_slices(tracer.spans, first, workload.name + ".op",
                                  workload.round_size(state))
            per_round = [tracing.summarize(tracer.spans, lo, hi) for lo, hi in rounds]
            exact = [k for k in per_round[0]
                     if k.startswith("autodiff.calls.") or k == "autodiff.tape_entries_per_step"]
            for k in exact:
                counts[k] = per_round[0][k]
                if any(r[k] != counts[k] for r in per_round[1:]):
                    loop.errors.append(f"count {k} differs between rounds of one run")
            counts["tape_entries_min"], counts["tape_entries_max"] = tracing.tape_range(
                tracer.spans)
    finally:
        shutil.rmtree(root, ignore_errors=True)

    key = f"{args.scale}-{args.workload}-{args.seed}"
    count_diffs = check_counts(key, counts)
    loop.errors += [f"input-shape count changed: {d}" for d in count_diffs]
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    wall, samples_s = None, None
    if tracer is None:
        op_s = ops.reference()
        metrics = end_to_end(workload, state, setup_ref, op_s, sum(op_s), rss_mib)
        wall = end_to_end(workload, state, setup_wall, ops.wall(), loop_wall, rss_mib)
        samples_s = {"operation_reference": op_s, "operation_cpu": ops.cpu(),
                     "operation_wall": ops.wall(), "setup_reference": setup_ref,
                     "setup_wall": setup_wall}
        units = benchmark_units("end_to_end")
    else:
        metrics = tracing.summarize(tracer.spans)
        metrics["chat_corpus.warnings"] = counts["parser_warnings"]
        metrics["text_pipeline.tagdict_hit_ratio"] = counts["tagdict_hit_ratio"]
        metrics["lexical_features.oov_ratio"] = counts["oov_ratio"]
        metrics["lexical_features.truncated_ratio"] = counts["truncated_ratio"]
        metrics["trace.overhead_pct"] = (statistics.median(ops.reference())
                                         / statistics.median(plain.reference()) - 1.0) * 100.0
        units = benchmark_units("per_layer")
        tracer.write(RESULTS_DIR / f"trace-{key}.jsonl.gz")

    correct = loop.failed == 0 and not loop.errors
    samples = {"setups": len(setup_ref), "operations": len(ops),
               "beyond_p95": len(ops) - int(0.95 * len(ops) + 0.5)}
    report(env, counts, samples, metrics, wall, samples_s, calibration, units, loop, key)
    result = {"correct": correct, "attempted": loop.attempted, "failed": loop.failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0 if correct else 1


def round_slices(spans, first: int, root_name: str, size: int) -> list[tuple[int, int]]:
    """Span index ranges of successive whole rounds of root operations."""
    starts = [i for i in range(first, len(spans))
              if spans[i][0] == root_name and spans[i][3] == -1]
    bounds = starts[::size] + [len(spans)]
    return list(zip(bounds[:-1], bounds[1:]))


def end_to_end(workload, state, setups: list[float], times: list[float], loop: float,
               rss_mib: float) -> dict:
    items = workload.items(state)
    if workload.name == "score":
        throughput = len(times) / loop            # requests completed / time of the loop
    else:
        throughput = statistics.median(items / t for t in times)
    # one operation: a request on score, a one-epoch fit on train, a pass
    # over the corpus on ingest
    metrics = {
        "throughput_per_s": throughput,
        "latency_ms_p50": statistics.median(times) * 1e3,
        "latency_ms_p95": quantile(times, 95) * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_mib,
    }
    return metrics


def benchmark_units(section: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def report(env, counts, samples, metrics, wall, samples_s, calibration, units, loop, key):
    print("# env " + json.dumps(env, sort_keys=True))
    print("# counts " + json.dumps(counts, sort_keys=True))
    print("# samples " + json.dumps(samples))
    ratio = loop.failed / loop.attempted
    print(f"# failed_ratio {ratio:.6g} ratio ({loop.failed} of {loop.attempted})")
    for name, value in metrics.items():
        print(f"# {name:<44} {value:>14.6g} {units[name]}")
    if wall is not None:
        print("# wall-clock " + json.dumps({k: round(v, 4) for k, v in wall.items()}))
    kernel = calibration.kernel_s
    print(f"# calibration kernel {statistics.median(kernel) * 1e3:.3f} ms median, "
          f"{min(kernel) * 1e3:.3f}-{max(kernel) * 1e3:.3f} ms over {len(kernel)} runs")
    for err in loop.errors[:5]:
        print("error: " + err, file=sys.stderr)
    record = {"env": env, "counts": counts, "samples": samples, "failed_ratio": ratio,
              "metrics": metrics, "wall_clock_metrics": wall,
              "samples_s": samples_s, "calibration_kernel_s": calibration.kernel_s,
              "errors": loop.errors}
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = RESULTS_DIR / f"result-{key}-trace{env['trace']}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS belongs to one workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print(f"## {name}")
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        merged["correct"] &= proc.returncode == 0 and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "alzdetect").is_dir():
        print(f"error: {ROOT / 'src' / 'alzdetect'} not found; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # One BLAS thread: a second one spins while it waits, so on shared cores
    # it doubles the CPU the run needs and the noise other processes cause.
    # Fixed before numpy loads, and recorded in the result.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
