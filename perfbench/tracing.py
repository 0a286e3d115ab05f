"""Spans around calls into diffdag's public functions, recorded from outside.

The program is not instrumented. ``Tracer`` replaces each traced function by
a timing wrapper in every ``diffdag`` module namespace that binds it:
``from .x import y`` copies the binding, so patching only the defining module
would miss calls made through the copy (``pipeline.estimate_dantzig``,
``experiments.generate_sem_pair``). Spans stay in memory; the caller writes
them out when the run ends.

A span is ``(name, op, parent, start, end, error, info)``. ``parent`` is the
index of the enclosing span, ``op`` the id of the benchmark operation that
caused it. Self time is a span's duration minus that of its direct children;
calls are sequential, so children never overlap.
"""

from __future__ import annotations

import sys
import time
import warnings
from collections import defaultdict


def _lp_info(args, kwargs, result):
    sigma1 = args[0] if args else kwargs["sigma1"]
    return {"p": len(sigma1)}


def _check_info(args, kwargs, result):
    return {
        "subsets": getattr(result, "subsets_checked", 0),
        "budget_hit": getattr(result, "failed_condition", None) == "subset-budget",
    }


def _prune_info(args, kwargs, result):
    delta = args[0] if args else kwargs["delta"]
    return {"edges_in": len(delta.edges), "edges_out": len(result.edges)}


# (span name, defining module, attribute, info extractor). A dotted attribute
# names a classmethod. The prune wrapper also counts PartialPruneWarnings.
TARGETS = (
    ("sem.generate", "sem", "generate_sem_pair", None),
    ("sem.sample", "sem", "sample", None),
    ("sem.covariance", "sem", "CovariancePair.from_data", None),
    ("sem.covariance", "sem", "CovariancePair.from_sems", None),
    ("oracles.check_assumptions", "oracles", "check_assumptions", _check_info),
    ("estimators.lp", "estimators", "dantzig_selector", _lp_info),
    ("estimators.estimate", "estimators", "estimate_dantzig", None),
    ("estimators.population", "estimators", "solve_population", None),
    ("pipeline.run", "pipeline", "run_pipeline", None),
    ("pipeline.order", "pipeline", "compute_order", None),
    ("pipeline.orient", "pipeline", "orient_edges", None),
    ("pipeline.prune", "pipeline", "prune", _prune_info),
    ("experiments.trial", "experiments", "run_trial", None),
)

OP_SPAN = "bench.op"
_ESTIMATES = ("estimators.estimate", "estimators.population")
_STAGES = ("pipeline.run", "pipeline.order", "pipeline.prune")


class Tracer:
    """Installs timing wrappers on enter and restores the originals on exit."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[list] = []
        self.absent: list[str] = []
        self.op = None
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def __enter__(self) -> "Tracer":
        namespaces = [m for n, m in sys.modules.items() if n == "diffdag" or n.startswith("diffdag.")]
        for name, module, attr, info in self.targets:
            owner = sys.modules.get(f"diffdag.{module}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            raw = vars(owner).get(leaf) if owner is not None else None
            if raw is None:
                self.absent.append(f"{name} ({module}.{attr})")
                continue
            if isinstance(raw, classmethod):
                self._restore.append((owner, leaf, raw))
                setattr(owner, leaf, classmethod(self._wrap(name, raw.__func__, info)))
                continue
            wrapper = self._wrap(name, raw, info)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is raw:
                        self._restore.append((ns, key, raw))
                        setattr(ns, key, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, key, raw in reversed(self._restore):
            setattr(owner, key, raw)
        self._restore.clear()

    def _open(self, name: str) -> list:
        span = [name, self.op, self._stack[-1] if self._stack else None, time.perf_counter(), None, None, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[4] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, info):
        tracer = self
        count_warnings = name == "pipeline.prune"

        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                if count_warnings:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        result = fn(*args, **kwargs)
                else:
                    result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                tracer._close(span)
            extra = info(args, kwargs, result) if info else {}
            if count_warnings:
                extra["cap_warnings"] = sum(
                    type(w.message).__name__ == "PartialPruneWarning" for w in caught
                )
            span[6] = extra
            return result

        traced.__wrapped__ = fn
        return traced

    def run_op(self, op_id, fn):
        """Run one benchmark operation under a root span tagged ``op_id``."""
        self.op = op_id
        span = self._open(OP_SPAN)
        try:
            return fn()
        except BaseException as exc:
            span[5] = type(exc).__name__
            raise
        finally:
            self._close(span)
            self.op = None


# Per-layer metrics: name -> (unit, span names it reads).
LAYER_METRICS = {
    "sem.generate.calls": ("count", ("sem.generate",)),
    "sem.generate.self_s": ("s", ("sem.generate",)),
    "sem.generate.accept_ratio": ("ratio", ("sem.generate", "oracles.check_assumptions")),
    "sem.sample.s": ("s", ("sem.sample",)),
    "sem.covariance.s": ("s", ("sem.covariance",)),
    "oracles.check_assumptions.calls": ("count", ("oracles.check_assumptions",)),
    "oracles.check_assumptions.s": ("s", ("oracles.check_assumptions",)),
    "oracles.check_assumptions.subsets": ("count", ("oracles.check_assumptions",)),
    "oracles.check_assumptions.budget_hits": ("count", ("oracles.check_assumptions",)),
    "estimators.lp.calls": ("count", ("estimators.lp",)),
    "estimators.lp.s": ("s", ("estimators.lp",)),
    "estimators.lp.vars": ("count", ("estimators.lp",)),
    "estimators.lp.p_max": ("count", ("estimators.lp",)),
    "estimators.lp.dense_mb_max": ("MB", ("estimators.lp",)),
    "estimators.estimate.self_s": ("s", ("estimators.estimate",)),
    "estimators.population.calls": ("count", ("estimators.population",)),
    "estimators.population.s": ("s", ("estimators.population",)),
    "pipeline.run.self_s": ("s", ("pipeline.run",)),
    "pipeline.order.s": ("s", ("pipeline.order",)),
    "pipeline.order.estimates": ("count", ("pipeline.order",) + _ESTIMATES),
    "pipeline.orient.s": ("s", ("pipeline.orient",)),
    "pipeline.prune.s": ("s", ("pipeline.prune",)),
    "pipeline.prune.self_s": ("s", ("pipeline.prune",)),
    "pipeline.prune.estimates": ("count", ("pipeline.prune",) + _ESTIMATES),
    "pipeline.prune.estimates_max": ("count", ("pipeline.prune",) + _ESTIMATES),
    "pipeline.prune.edges_in": ("count", ("pipeline.prune",)),
    "pipeline.prune.edges_removed": ("count", ("pipeline.prune",)),
    "pipeline.prune.cap_warnings": ("count", ("pipeline.prune",)),
    "experiments.trial.s": ("s", ("experiments.trial",)),
    "experiments.trial.self_s": ("s", ("experiments.trial",)),
}


def _stage(spans, index):
    """Name of the nearest enclosing pipeline stage of span ``index``."""
    parent = spans[index][2]
    while parent is not None:
        if spans[parent][0] in _STAGES:
            return spans[parent][0]
        parent = spans[parent][2]
    return None


def summarize(tracer: Tracer) -> tuple[dict, list[dict]]:
    """Per-layer metrics and the per-operation side table.

    Metrics whose traced function does not exist are left out; their names
    are listed in ``tracer.absent``.
    """
    spans = tracer.spans
    dur = [s[4] - s[3] for s in spans]
    child = [0.0] * len(spans)
    for k, s in enumerate(spans):
        if s[2] is not None:
            child[s[2]] += dur[k]
    total = defaultdict(float)
    self_total = defaultdict(float)
    calls = defaultdict(int)
    for k, s in enumerate(spans):
        total[s[0]] += dur[k]
        self_total[s[0]] += dur[k] - child[k]
        calls[s[0]] += 1

    lp = [s[6]["p"] for s in spans if s[0] == "estimators.lp" and s[6]]
    checks = [s[6] for s in spans if s[0] == "oracles.check_assumptions" and s[6]]
    prunes = [s[6] for s in spans if s[0] == "pipeline.prune" and s[6]]
    gen_checks = sum(
        1 for s in spans
        if s[0] == "oracles.check_assumptions" and s[2] is not None and spans[s[2]][0] == "sem.generate"
    )
    accepted = sum(1 for s in spans if s[0] == "sem.generate" and s[5] is None)
    estimates_by_stage = defaultdict(int)
    prune_estimates_per_op = defaultdict(int)
    for k, s in enumerate(spans):
        if s[0] in _ESTIMATES:
            stage = _stage(spans, k)
            estimates_by_stage[stage] += 1
            if stage == "pipeline.prune":
                prune_estimates_per_op[s[1]] += 1

    values = {
        "sem.generate.calls": calls["sem.generate"],
        "sem.generate.self_s": self_total["sem.generate"],
        "sem.generate.accept_ratio": accepted / gen_checks if gen_checks else 0.0,
        "sem.sample.s": total["sem.sample"],
        "sem.covariance.s": total["sem.covariance"],
        "oracles.check_assumptions.calls": calls["oracles.check_assumptions"],
        "oracles.check_assumptions.s": total["oracles.check_assumptions"],
        "oracles.check_assumptions.subsets": sum(c["subsets"] for c in checks),
        "oracles.check_assumptions.budget_hits": sum(c["budget_hit"] for c in checks),
        "estimators.lp.calls": calls["estimators.lp"],
        "estimators.lp.s": total["estimators.lp"],
        "estimators.lp.vars": sum(2 * p * p for p in lp),
        "estimators.lp.p_max": max(lp, default=0),
        # computed, not measured: A_ub of the dense Kronecker form holds
        # (2p^2)^2 float64 entries, 32 p^4 bytes
        "estimators.lp.dense_mb_max": 32 * max(lp, default=0) ** 4 / 1e6,
        "estimators.estimate.self_s": self_total["estimators.estimate"],
        "estimators.population.calls": calls["estimators.population"],
        "estimators.population.s": total["estimators.population"],
        "pipeline.run.self_s": self_total["pipeline.run"],
        "pipeline.order.s": total["pipeline.order"],
        "pipeline.order.estimates": estimates_by_stage["pipeline.order"],
        "pipeline.orient.s": total["pipeline.orient"],
        "pipeline.prune.s": total["pipeline.prune"],
        "pipeline.prune.self_s": self_total["pipeline.prune"],
        "pipeline.prune.estimates": estimates_by_stage["pipeline.prune"],
        "pipeline.prune.estimates_max": max(prune_estimates_per_op.values(), default=0),
        "pipeline.prune.edges_in": sum(p["edges_in"] for p in prunes),
        "pipeline.prune.edges_removed": sum(p["edges_in"] - p["edges_out"] for p in prunes),
        "pipeline.prune.cap_warnings": sum(p["cap_warnings"] for p in prunes),
        "experiments.trial.s": total["experiments.trial"],
        "experiments.trial.self_s": self_total["experiments.trial"],
    }
    missing = {a.split(" ")[0] for a in tracer.absent}
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, (unit, needs) in LAYER_METRICS.items()
        if not missing.intersection(needs)
    }

    table: dict = {}
    for k, s in enumerate(spans):
        if s[1] is None:
            continue
        row = table.setdefault(s[1], {"op": s[1], "s": 0.0, "lp_calls": 0, "prune_estimates": 0, "failure": None})
        if s[0] == OP_SPAN:
            row["s"] = dur[k]
        elif s[0] == "estimators.lp":
            row["lp_calls"] += 1
        elif s[0] == "pipeline.run" and s[5] is not None:
            row["failure"] = s[5]
        if s[0] in _ESTIMATES and _stage(spans, k) == "pipeline.prune":
            row["prune_estimates"] += 1
    side = sorted(table.values(), key=lambda r: -r["s"])
    return metrics, side
