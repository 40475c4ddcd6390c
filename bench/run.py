"""Run one benchmark workload and print its result as the last line.

    python3 bench/run.py --workload train-default --seed 0 --seconds 10 --trace 0

Run from the repository root: the program is imported from ``src/``. With
``--trace 0`` the result holds the end-to-end metrics; with ``--trace 1``
wrappers time the calls into each itemcl module and the result holds the
per-layer metrics instead. A run record (machine, versions, raw timings
and, when traced, every span) is written under ``bench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

# One process, at most two threads: fix the BLAS pool before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(BENCH_DIR, "results")


def _import_program():
    """Import itemcl from this checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "itemcl", "__init__.py")):
        sys.exit(f"bench: no program source at {os.path.join(SRC, 'itemcl')}; run from the repository root")
    sys.path.insert(0, SRC)
    import itemcl

    if not os.path.abspath(itemcl.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: itemcl was imported from {itemcl.__file__}, not from {SRC}")


def _git_sha() -> str | None:
    """HEAD of the checkout, or None when the checkout is not a git
    repository. Git is not asked to look above the checkout, where it
    could find the HEAD of an enclosing repository instead."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)}
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_sha256() -> str:
    """Digest of the program's source files, which identifies checkouts
    that carry no git metadata."""
    digest = hashlib.sha256()
    package = os.path.join(SRC, "itemcl")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def machine_record(np, scipy) -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "machine": platform.machine(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    import numpy as np
    import scipy

    import pipeline
    import tracing

    if args.workload not in pipeline.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(pipeline.WORKLOADS)}")
    workload = pipeline.WORKLOADS[args.workload]

    tracer = tracing.Tracer()
    if args.trace:
        tracer.install(tracing.TARGETS)
    started = time.perf_counter()
    try:
        result = pipeline.run(workload, args.seed, args.seconds, tracer)
    finally:
        tracer.uninstall()
    wall_s = time.perf_counter() - started

    problems = list(result.problems) + tracer.violations
    if args.trace:
        metrics = {**tracing.layer_metrics(tracer), **result.quality}
        if tracer.checked_rows == 0 and not tracer.missing:
            problems.append("traced run: no negative sample was checked")
        units = {**tracing.PER_LAYER, **pipeline.QUALITY}
    else:
        metrics = result.metrics
        units = pipeline.END_TO_END
    for problem in problems:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    for error in tracer.hook_errors:
        print(f"bench: trace hook error (metric dropped):\n{error}", file=sys.stderr)
    if tracer.missing:
        print(f"bench: not wrapped (no longer in itemcl): {', '.join(tracer.missing)}", file=sys.stderr)

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": wall_s,
        "machine": machine_record(np, scipy),
        "end_to_end": result.metrics,
        "quality": result.quality,
        "per_layer": metrics if args.trace else None,
        "details": result.details,
        "problems": problems,
        "sampler_rows_checked": tracer.checked_rows,
        "hook_s": tracer.hook_s,
        "not_wrapped": tracer.missing,
    }
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{workload.name}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    if args.trace:
        with open(stem + ".spans.jsonl", "w", encoding="utf-8") as handle:
            for span in tracer.dump():
                handle.write(json.dumps(span) + "\n")

    print(json.dumps({k: v for k, v in record.items() if k in ("workload", "seed", "wall_s", "machine")}))
    print(json.dumps({
        "correct": not problems,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": units.get(name, "")} for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
