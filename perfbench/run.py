"""diffdag benchmark: one workload per invocation, closed loop, one op at a time.

    python3 perfbench/run.py --workload sweep-dantzig --seed 0 --seconds 25 --trace 0

Run from the repository root. With ``--trace 0`` the last stdout line is a
JSON object with the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics of a traced pass, and the spans and per-op side table are
written to ``perfbench/out/``. Lines before it are a readable report.
Exits 1 when an output check fails and 2 when the package is missing.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 3


def environment(seed: int) -> dict:
    import numpy
    import scipy

    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line})
    blas = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            if get_threads and get_config:
                get_config.restype = ctypes.c_char_p
                blas[Path(path).name] = {"config": get_config().decode(), "threads": get_threads()}
                break
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "ram_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
    }


def import_seconds(samples: int) -> list[float]:
    """Import time of the package, each sample in a fresh interpreter."""
    code = (
        "import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
        "import diffdag; print(time.perf_counter() - t)"
    )
    return [
        float(subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                             check=True, capture_output=True, text=True).stdout)
        for _ in range(samples)
    ]


class CheckFailed(Exception):
    pass


def measure(workload, ops: list, seconds: float, tracer=None) -> tuple[list, float, list]:
    """Run the pool in whole passes, closed loop, until ``seconds`` is used.

    Another pass starts only if it is expected to end within ``seconds``;
    at least one pass runs. Returns the outcomes per pass, the timed wall
    time and each op's wall time.
    """
    passes, op_s = [], []
    t0 = time.perf_counter()
    while True:
        outcomes = []
        for k, op in enumerate(ops):
            t = time.perf_counter()
            if tracer is None:
                outcomes.append(workload.run(op))
            else:
                outcomes.append(tracer.run_op(k, lambda: workload.run(op)))
            op_s.append(time.perf_counter() - t)
        passes.append(outcomes)
        elapsed = time.perf_counter() - t0
        if tracer is not None or elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes, elapsed, op_s


def check(workload, passes: list) -> None:
    """Output checks shared by the traced and untraced runs."""
    from workloads import directed_f

    first = passes[0]
    for n, outcomes in enumerate(passes[1:], start=2):
        for a, b in zip(first, outcomes):
            if a.record != b.record:
                raise CheckFailed(f"op {a.key}: pass {n} record differs from pass 1")
    for o in first:
        if o.reported_f is not None and abs(o.reported_f - directed_f(o.truth, o.estimate)) > 1e-12:
            raise CheckFailed(f"op {o.key}: reported F {o.reported_f} disagrees with the edge sets")
        if workload.exact_required and o.estimate.edges != o.truth.edges:
            raise CheckFailed(f"op {o.key}: population estimate is not exact")


def quality(outcomes: list) -> dict:
    from workloads import directed_f

    n = len(outcomes)
    return {
        "f_score_mean": sum(directed_f(o.truth, o.estimate) for o in outcomes) / n,
        "exact_recovery_rate": sum(o.estimate.edges == o.truth.edges for o in outcomes) / n,
        "success_rate": sum(o.failure is None for o in outcomes) / n,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "diffdag" / "__init__.py").is_file():
        print(f"diffdag sources not found under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import diffdag  # noqa: F401  (import time is part of setup)
    from tracing import Tracer, summarize
    from workloads import WORKLOADS, warm_up

    import_s = time.perf_counter() - T_START
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    env = environment(args.seed)
    print(f"# {workload.name}: {workload.why}")
    print("# env " + json.dumps(env, sort_keys=True))

    repeats = SETUP_REPEATS if args.trace == 0 else 1
    imports = [import_s] + import_seconds(repeats - 1)
    builds = []
    for _ in range(repeats):
        t = time.perf_counter()
        ops = workload.build()
        builds.append(time.perf_counter() - t)
    t = time.perf_counter()
    warm_up(workload.name, args.seed)
    warm_s = time.perf_counter() - t
    setup_s = statistics.median(imports) + statistics.median(builds) + warm_s

    # a traced invocation compares one untraced pass with one traced pass
    passes, timed, op_s = measure(workload, ops, args.seconds if args.trace == 0 else 0.0)
    ops_per_s = sum(len(p) for p in passes) / timed
    print(f"# setup: import {['%.3f' % t for t in imports]} s, build {['%.3f' % b for b in builds]} s, "
          f"warm-up {warm_s:.3f} s")
    print(f"# timed: {len(passes)} pass(es) of {len(ops)} ops in {timed:.3f} s; "
          f"op time median {statistics.median(op_s):.4f} s, max {max(op_s):.4f} s over {len(op_s)} ops")

    try:
        if args.trace == 0:
            check(workload, passes)
            values = {
                "setup_s": (setup_s, "s"),
                "ops_per_s": (ops_per_s, "1/s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            values.update({k: (v, "ratio") for k, v in quality(passes[0]).items()})
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
        else:
            with Tracer() as tracer:
                tracer.run_op("setup", workload.build)
                traced, traced_s, _ = measure(workload, ops, 0.0, tracer)
            passes += traced
            check(workload, passes)
            metrics, side = summarize(tracer)
            metrics["trace.overhead_frac"] = {"value": ops_per_s / (len(ops) / traced_s) - 1.0, "unit": "ratio"}
            keys = {k: o.key for k, o in enumerate(traced[0])}
            for row in side:
                row["key"] = keys.get(row["op"], row["op"])
            OUT.mkdir(exist_ok=True)
            out = OUT / f"{workload.name}-seed{args.seed}-trace.json"
            with open(out, "w", encoding="utf-8") as fh:
                json.dump({"env": env, "absent": tracer.absent, "metrics": metrics, "ops": side,
                           "spans": tracer.spans}, fh)
            print(f"# trace: {len(tracer.spans)} spans written to {out.relative_to(ROOT)}")
            print(f"# absent: {tracer.absent}")
            print("# slowest ops: key | s | lp calls | prune estimates | failure")
            for row in side[:10]:
                print(f"#   {row['key']} | {row['s']:.3f} | {row['lp_calls']} | {row['prune_estimates']} | {row['failure']}")
        correct = True
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct, metrics = False, {}

    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    attempted = sum(len(p) for p in passes)
    failed = sum(not o.returned for p in passes for o in p)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
