"""Checks of the benchmark itself: run with ``python -m pytest perfbench``.

The exact-count test traces every workload's full pool twice and takes
about two minutes on a 2-core machine.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from run import measure  # noqa: E402
from tracing import LAYER_METRICS, TARGETS, Tracer, summarize  # noqa: E402
from workloads import POPULATION, WORKLOADS  # noqa: E402

import diffdag.pipeline  # noqa: E402
from diffdag.sem import CovariancePair, SemPairGenConfig, generate_sem_pair  # noqa: E402

# Counts a later change may cite: they must repeat exactly at a fixed seed.
EXACT_COUNTS = (
    "estimators.lp.calls",
    "estimators.lp.vars",
    "pipeline.prune.estimates",
    "oracles.check_assumptions.calls",
    "oracles.check_assumptions.subsets",
)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["per_layer"]} == set(LAYER_METRICS) | {"trace.overhead_frac"}
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


def test_missing_function_is_reported_absent_and_originals_restored():
    targets = [t for t in TARGETS if t[0] != "pipeline.order"]
    targets.append(("pipeline.order", "pipeline", "no_such_function", None))
    sem1, sem2, _ = generate_sem_pair(SemPairGenConfig(p=5, seed=3))
    cov = CovariancePair.from_sems(sem1, sem2)
    original = diffdag.pipeline.estimate_dantzig
    with Tracer(targets) as tracer:
        assert diffdag.pipeline.estimate_dantzig is not original
        tracer.run_op(0, lambda: diffdag.pipeline.run_pipeline(cov, POPULATION))
    assert diffdag.pipeline.estimate_dantzig is original
    assert tracer.absent == ["pipeline.order (pipeline.no_such_function)"]
    metrics, side = summarize(tracer)
    assert "pipeline.order.s" not in metrics and "pipeline.order.estimates" not in metrics
    assert metrics["pipeline.prune.s"]["value"] >= 0.0
    assert [row["op"] for row in side] == [0]


def _traced_counts(name):
    workload = WORKLOADS[name]
    ops = workload.build()
    with Tracer() as tracer:
        tracer.run_op("setup", workload.build)
        measure(workload, ops, 0.0, tracer)
    metrics, _ = summarize(tracer)
    return {k: metrics[k]["value"] for k in EXACT_COUNTS}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_exact_counts_repeat(name):
    assert _traced_counts(name) == _traced_counts(name)
