"""The benchmark's fixed pools give the records and counts they always gave.

One pass over each pool of ``perfbench/workloads.py`` (only read from here)
must reproduce a pinned digest of its per-op records, its count of
constrained-l1 solves (``dantzig_selector`` calls), its count of estimates
made inside ``prune`` and the most of those one op makes, which must stay
below ``pipeline.PRUNE_BUDGET`` so that no op fails on it. Counting wrappers
stand in for perfbench's tracer; the counts are the ones its traced runs
report. A change that moves a pin updates it and says in CHANGES.md which
records moved and why.
"""

import hashlib
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

from diffdag import estimators, pipeline

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

# workload -> (sha256 of repr of the per-op records, LPs, prune estimates,
# most prune estimates in one op)
PINS = {
    "sweep-dantzig": ("9593fdda5164ccf52c6df7922d117415a1aa09bad4c43a4d49a197676d25737b", 148, 113, 33),
    "pipeline-large": ("50680661a201babbfcb8b08596c2fa929f20475b89301818ae9384802fd27489", 45, 39, 24),
    "sweep-population": ("0f99f72624e1ef8cd7ad66ddb01804aaa8c62eada3e6a99d9567628e5ec6053c", 0, 165, 128),
}


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def _counting(real, counts, key, inside=None):
    """``real`` counting its calls under ``key``; with ``inside``, only while prune runs."""

    def wrapper(*args, **kwargs):
        if inside is None or inside:
            counts[key] += 1
        return real(*args, **kwargs)

    return wrapper


def _in_prune(real, inside):
    def wrapper(*args, **kwargs):
        inside.append(True)
        try:
            return real(*args, **kwargs)
        finally:
            inside.pop()

    return wrapper


@pytest.mark.parametrize("name", sorted(PINS))
def test_one_pass_over_the_pool_is_pinned(name, workloads, monkeypatch):
    workload = workloads.WORKLOADS[name]
    ops = workload.build()
    counts: Counter = Counter()
    inside: list = []
    monkeypatch.setattr(estimators, "dantzig_selector", _counting(estimators.dantzig_selector, counts, "lp"))
    monkeypatch.setattr(pipeline, "prune", _in_prune(pipeline.prune, inside))
    for attr in ("estimate_dantzig", "solve_population"):
        monkeypatch.setattr(pipeline, attr, _counting(getattr(pipeline, attr), counts, "prune", inside))
    records, most = [], 0
    for op in ops:
        before = counts["prune"]
        records.append(workload.run(op).record)
        most = max(most, counts["prune"] - before)
    digest = hashlib.sha256(repr(records).encode()).hexdigest()
    assert (digest, counts["lp"], counts["prune"], most) == PINS[name]
    assert most < pipeline.PRUNE_BUDGET
