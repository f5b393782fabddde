"""liftmix benchmark: one workload per fresh process, or all of them in turn.

Run from the repository root:

    python3 perfbench/run.py --workload verify-suites --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 15 --runs 3

A single-workload run prints each metric with its unit, then, as its last
line, one JSON object with `correct`, `attempted`, `failed` and `metrics`:
the end-to-end metrics with `--trace 0`, the per-layer metrics (and the
tracing overhead) with `--trace 1`.  `failed / attempted` is the
`failed_ops` ratio.  Every run also writes a result file under
`perfbench/results/` with the environment, the pass seeds and the raw
per-pass samples.  `--workload all` runs each workload `--runs` times, each
in a fresh process and one at a time, and reports medians and quartiles
over the runs.
"""

from __future__ import annotations

import argparse
import ctypes
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from contextlib import nullcontext
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
RESULTS = os.path.join(HERE, "results")
SETUP_PROBES = 5
# A mixer-ladder pass takes about 20 s; two passes per run halve the
# variance of its median while a run stays under a minute.
MIN_PASSES = 2
CHILD_TIMEOUT_S = 900

UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


# ---------------------------------------------------------------------------
# environment record


def _blas_libraries() -> list[dict]:
    """OpenBLAS builds loaded in this process, with their thread counts."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads is not None and "threads" not in entry:
                    threads.restype = ctypes.c_int
                    entry["threads"] = threads()
                if config is not None and "config" not in entry:
                    config.restype = ctypes.c_char_p
                    entry["config"] = config().decode()
        found.append(entry)
    return found


def environment() -> dict:
    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_libraries(),
        "blas_threading": "library default (no thread variables set by the benchmark)",
        "thread_env": {k: v for k, v in os.environ.items()
                       if k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# one workload in this process


def setup_samples(workload: str, seed: int, count: int) -> list[float]:
    """Wall time of `count` fresh interpreters each importing liftmix and
    making the first pass's inputs."""
    probe = os.path.join(HERE, "setup_probe.py")
    samples = []
    for _ in range(count):
        with tempfile.TemporaryDirectory(dir=RESULTS) as workdir:
            t0 = perf_counter()
            subprocess.run([sys.executable, probe, workload, str(seed), workdir],
                           check=True, timeout=CHILD_TIMEOUT_S)
            samples.append(perf_counter() - t0)
    return samples


def run_passes(workload, refs, seeds, seconds=math.inf, recorder=None) -> dict:
    """One pass per seed from `seeds` until `seconds` have elapsed and at
    least MIN_PASSES passes ran, or until `seeds` runs out.  Only
    `workload.run` is timed; inputs are made before it and outputs checked
    after it."""
    samples, used, failures, counts = [], [], [], Counter()
    attempted = 0
    start = perf_counter()
    with tempfile.TemporaryDirectory(dir=RESULTS) as workdir:
        for k, seed in enumerate(seeds):
            with recorder.recording({"seed": seed}) if recorder else nullcontext():
                inp = workload.inputs(seed, workdir)
                t0 = perf_counter()
                ops = workload.run(inp)
                t1 = perf_counter()
            samples.append(t1 - t0)
            used.append(seed)
            counts.update(workload.counts(ops))
            attempted += len(ops)
            failures += [f"pass {k} (seed {seed}) {f}" for f in workload.check(inp, ops, refs)]
            if k + 1 >= MIN_PASSES and perf_counter() - start >= seconds:
                break
    return {"samples": samples, "seeds": used, "attempted": attempted,
            "failures": failures, "counts": counts}


def run_one(args) -> dict:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import liftmix.cli  # noqa: F401  loads numpy, scipy and their BLAS before `environment`
    import tracing
    from workloads import WORKLOADS, load_references, pass_seed

    workload = WORKLOADS[args.workload]()
    refs = load_references()
    seeds = (pass_seed(args.seed, k) for k in itertools.count())
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment()}
    if args.trace == 0:
        setup = setup_samples(args.workload, args.seed, SETUP_PROBES)
        res = run_passes(workload, refs, seeds, args.seconds)
        metrics = {
            "wall_s": statistics.median(res["samples"]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = UNITS
        record["setup_samples_s"] = setup
        notes = {
            "wall_s": f"median of {len(res['samples'])} passes",
            "setup_s": f"median of {len(setup)} fresh interpreters",
            "peak_rss_mb": "high-water RSS of this process",
        }
    else:
        untraced = run_passes(workload, refs, seeds, args.seconds)
        recorder = tracing.Recorder()
        with recorder.installed():
            res = run_passes(workload, refs, untraced["seeds"], recorder=recorder)
        passes = len(res["samples"])
        metrics = tracing.layer_metrics(recorder.spans, passes, res["counts"])
        # Pass 0 of the untraced run also pays the process's first-call
        # warm-up, so the overhead pairs passes 1.. on identical inputs.
        paired = [t - u for t, u in zip(res["samples"][1:], untraced["samples"][1:])]
        metrics.update({"trace.wall_s": statistics.median(res["samples"]),
                        "trace.untraced_wall_s": statistics.median(untraced["samples"]),
                        "trace.overhead_s": statistics.median(paired),
                        "trace.spans": (len(recorder.spans) - passes) / passes})
        units = {k: tracing.unit_of(k) for k in metrics}
        spans_file = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-spans.csv")
        recorder.write(spans_file)
        record.update(untraced_samples_s=untraced["samples"], spans_file=spans_file)
        res["attempted"] += untraced["attempted"]
        res["failures"] = untraced["failures"] + res["failures"]
        notes = {k: f"mean per traced pass over {passes} passes" for k in metrics}
        notes.update({"trace.wall_s": f"median of {passes} traced passes",
                      "trace.untraced_wall_s": f"median of {passes} untraced passes",
                      "trace.overhead_s": "median traced minus untraced, passes 1.."})
    record.update(pass_seeds=res["seeds"], samples_s=res["samples"], metrics=metrics,
                  attempted=res["attempted"], failures=res["failures"])
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    attempted, failed = res["attempted"], len(res["failures"])
    print(f"{args.workload} seed {args.seed}: {len(res['samples'])} passes, "
          f"{attempted} operations, {failed} failed; result file {os.path.relpath(path, ROOT)}")
    for name, value in metrics.items():
        print(f"  {name:34} {value:14.6f} {units[name]:6} {notes[name]}")
    print(f"  {'failed_ops':34} {failed / attempted:14.6f} {'ratio':6} {failed} of {attempted}")
    for failure in res["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


# ---------------------------------------------------------------------------
# all workloads, each in fresh processes


def run_all(args) -> dict:
    from workloads import WORKLOADS

    results: dict[str, list[dict]] = {}
    for name in WORKLOADS:
        results[name] = []
        for r in range(args.runs):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed + r), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            child = subprocess.run(cmd, capture_output=True, text=True,
                                   timeout=CHILD_TIMEOUT_S)
            sys.stderr.write(child.stderr)
            if child.returncode != 0:
                _fail(f"{name} run with seed {args.seed + r} exited with {child.returncode}")
            results[name].append(json.loads(child.stdout.strip().splitlines()[-1]))

    summary = {}
    print(f"{'workload':18} {'metric':34} {'median':>14} {'unit':6} "
          f"{'q1':>12} {'q3':>12} runs")
    for name, runs in results.items():
        summary[name] = {}
        for metric, first in runs[0]["metrics"].items():
            values = [run["metrics"][metric]["value"] for run in runs]
            q1, q3 = _quartiles(values)
            median = statistics.median(values)
            summary[name][metric] = {"median": median, "q1": q1, "q3": q3,
                                     "unit": first["unit"], "values": values}
            print(f"{name:18} {metric:34} {median:14.6f} {first['unit']:6} "
                  f"{q1:12.6f} {q3:12.6f} {len(values)}")
        attempted = sum(run["attempted"] for run in runs)
        failed = sum(run["failed"] for run in runs)
        print(f"{name:18} {'failed_ops':34} {failed / attempted:14.6f} {'ratio':6} "
              f"{failed} of {attempted} operations")
    path = os.path.join(RESULTS, f"all-seed{args.seed}-trace{args.trace}-runs{args.runs}.json")
    with open(path, "w") as fh:
        json.dump({"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                   "runs": args.runs, "environment": environment(),
                   "summary": summary}, fh, indent=1)
    print(f"summary file {os.path.relpath(path, ROOT)}")
    attempted = sum(run["attempted"] for runs in results.values() for run in runs)
    failed = sum(run["failed"] for runs in results.values() for run in runs)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {f"{w}/{m}": {"value": s["median"], "unit": s["unit"]}
                        for w, ms in summary.items() for m, s in ms.items()}}


def main(argv=None) -> int:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=15,
                   help="minimum measured time per run; every run makes at least one pass")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--runs", type=int, default=1,
                   help="with --workload all: fresh-process runs per workload, seeds seed..")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "liftmix", "__init__.py")):
        _fail("run from the root of a liftmix checkout: src/liftmix is missing")
    if args.runs < 1:
        _fail("--runs must be at least 1")
    os.makedirs(RESULTS, exist_ok=True)
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
