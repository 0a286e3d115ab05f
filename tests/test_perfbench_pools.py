"""The benchmark's fixed pools give the records and counts they always gave.

One pass over each pool of ``perfbench/workloads.py`` (only read from here)
must reproduce a pinned digest of its per-op records, its count of
constrained-l1 solves (``dantzig_selector`` calls) and its count of estimates
made inside ``prune``. Counting wrappers stand in for perfbench's tracer; the
counts are the ones its traced runs report. A change that moves a pin updates
it and says in CHANGES.md which records moved and why.
"""

import hashlib
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

from diffdag import estimators, pipeline

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

# workload -> (sha256 of repr of the per-op records, LPs, prune estimates)
PINS = {
    "sweep-dantzig": ("dbaa12b35f2d330e3d0bd4e3094b92250a0948ab7b9083cdb87f76b920620a0d", 1849, 1813),
    "pipeline-large": ("50680661a201babbfcb8b08596c2fa929f20475b89301818ae9384802fd27489", 69, 63),
    "sweep-population": ("0f99f72624e1ef8cd7ad66ddb01804aaa8c62eada3e6a99d9567628e5ec6053c", 0, 165),
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
    records = [workload.run(op).record for op in ops]
    digest = hashlib.sha256(repr(records).encode()).hexdigest()
    assert (digest, counts["lp"], counts["prune"]) == PINS[name]
