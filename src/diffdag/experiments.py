"""Synthetic benchmark sweeps: generate pairs, sample, recover, score.

A sweep walks a grid of vertex counts and sample-size constants, runs
repeated trials with per-trial derived seeds, and scores each recovered edge
set against the generator's ground truth. Records are deterministic given the
base seed, and no runtime is measured. ``write_sweep`` writes a sweep's four
files (``records.csv``, ``summary.json``, ``plot.tsv`` and ``table.txt``),
byte-stable across runs: a ``records.csv`` row is built from ``CSV_COLUMNS``,
and every file is written through ``sem._write_lines`` or ``sem._write_json``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (
    EstimatorConvergenceError,
    InfeasibleEstimateError,
    OrderStallError,
    PruneBudgetError,
    VertexMismatchError,
)
from .estimators import EstimatorConfig
from .pipeline import PipelineConfig, run_pipeline
from .sem import CovariancePair, DagEdgeSet, SemPairGenConfig, generate_sem_pair, sample
from .sem import _Config, _integer, _write_json, _write_lines

_METRICS = ("hamming", "norm_hamming", "precision", "recall", "f_score")

CSV_COLUMNS = "p,c,n,rep,seed,d_prime,hamming,norm_hamming,precision,recall,f_score,failed,failure"


class ScoreResult(NamedTuple):
    precision: float
    recall: float
    f_score: float
    hamming: int


def score(true_edges: DagEdgeSet, estimated: DagEdgeSet) -> ScoreResult:
    """Directed precision, recall, F-score and Hamming distance.

    Conventions: an empty estimate scores precision 1 against an empty truth
    and 0 otherwise; recall is 1 when the truth is empty; F is 0 when both
    precision and recall vanish.
    """
    if true_edges.vertices != estimated.vertices:
        raise VertexMismatchError("edge sets are over different vertex sets")
    tp = len(estimated.edges & true_edges.edges)
    if estimated.edges:
        prec = tp / len(estimated.edges)
    else:
        prec = 1.0 if not true_edges.edges else 0.0
    rec = tp / len(true_edges.edges) if true_edges.edges else 1.0
    f = 0.0 if prec + rec == 0.0 else 2.0 * prec * rec / (prec + rec)
    return ScoreResult(prec, rec, f, len(estimated.edges ^ true_edges.edges))


def sample_budget(p: int, c: int, d_prime: int) -> int:
    """floor(c * d_prime^2 * ln p), clamped below at p + 1.

    The schedule has no 1/epsilon^2 factor: the estimate's sup-norm error
    shrinks as sqrt(ln p / n), so separating zero from a change of size
    2 * epsilon needs n of order ln p / epsilon^2, which small c does not
    reach. Small-c cells are therefore trend points (how the error falls as
    c grows), not recovery guarantees. The p + 1 clamp is a floor that keeps
    the empirical covariances usable when the difference DAG is tiny or
    empty, not a recovery budget.
    """
    p, c, d_prime = _integer("p", p, 2), _integer("c", c, 1), _integer("d_prime", d_prime, 0)
    return max(int(math.floor(c * d_prime**2 * math.log(p))), p + 1)


@dataclass(frozen=True)
class ExperimentRecord:
    """One benchmark trial, including the edge sets it was scored on.

    ``failure`` names the exception class that stopped the pipeline, one of
    four: ``OrderStallError``, ``InfeasibleEstimateError``,
    ``EstimatorConvergenceError`` or ``PruneBudgetError`` (prune needed more
    than ``pipeline.PRUNE_BUDGET`` distinct estimates). It is empty when the
    pipeline returned. A failed trial is scored as an empty estimate, which
    matches an empty truth at Hamming distance 0. Code that counts exact
    recoveries must also check ``failed``.
    """

    p: int
    c: int | None
    n: int
    rep: int
    seed: int
    d_prime: int
    true_edges: DagEdgeSet
    estimated_edges: DagEdgeSet
    hamming: int
    norm_hamming: float
    precision: float
    recall: float
    f_score: float
    failure: str

    @property
    def failed(self) -> bool:
        return self.failure != ""


@dataclass(frozen=True)
class SweepConfig(_Config):
    """Grid and machinery of one synthetic study.

    ``gen`` and ``pipeline`` are sections (``sem._Config``). ``gen`` acts as
    a template; its vertex count and seed are overridden per trial.
    ``fixed_n`` replaces the c-schedule with one sample count (the
    head-to-head comparison setting), so with it ``c_values`` other than the
    default are rejected rather than ignored. A pipeline configured with the
    population estimator short-circuits sampling and uses exact covariances.
    """

    p_values: tuple = (5, 10, 15)
    c_values: tuple = (5, 10, 15, 20)
    repetitions: int = 30
    fixed_n: int | None = None
    gen: SemPairGenConfig = SemPairGenConfig(p=10)
    pipeline: PipelineConfig = PipelineConfig(
        estimator="dantzig", est_cfg=EstimatorConfig(lambda_auto=True)
    )
    seed_base: int = 0

    def __post_init__(self):
        super().__post_init__()
        # a SEM pair needs two vertices, and the sample budget c >= 1
        for name, least in (("p_values", 2), ("c_values", 1)):
            values = tuple(_integer(f"{name} entry", v, least) for v in getattr(self, name))
            object.__setattr__(self, name, values)
        if not self.p_values:
            raise ValueError("p_values must be nonempty")
        _integer("repetitions", self.repetitions, least=1)
        _integer("seed_base", self.seed_base, least=0)
        if self.fixed_n is None and not self.c_values:
            raise ValueError("need c_values or fixed_n")
        if self.fixed_n is not None and _integer("fixed_n", self.fixed_n) < max(self.p_values):
            raise ValueError(
                f"fixed_n={self.fixed_n} is below the largest p={max(self.p_values)}; "
                "every trial needs at least p samples per model"
            )
        if self.fixed_n is not None and self.c_values != SweepConfig.c_values:
            raise ValueError(f"a fixed_n sweep reads no c_values, got {self.c_values!r}")


def _trial_seed(seed_base: int, p: int, c_key: int, rep: int) -> int:
    ss = np.random.SeedSequence((seed_base, p, c_key, rep))
    return int(ss.generate_state(1, np.uint64)[0])


def run_trial(cfg: SweepConfig, p: int, c: int | None, rep: int) -> ExperimentRecord:
    """One generate-sample-recover-score trial; deterministic given its key.

    The four pipeline failures of ``ExperimentRecord.failure`` are recorded,
    with an empty estimate; any other exception propagates.
    """
    seed = _trial_seed(cfg.seed_base, p, c if c is not None else 0, rep)
    gen_cfg = replace(cfg.gen, p=p, seed=seed)
    sem1, sem2, true_delta = generate_sem_pair(gen_cfg)
    d_prime = true_delta.max_degree()
    n = cfg.fixed_n if cfg.fixed_n is not None else sample_budget(p, c, d_prime)
    population = cfg.pipeline.estimator == "population"
    if population:
        cov = CovariancePair.from_sems(sem1, sem2)
    else:
        x1 = sample(sem1, n, np.random.default_rng((seed, 1)))
        x2 = sample(sem2, n, np.random.default_rng((seed, 2)))
        cov = CovariancePair.from_data(x1, x2, sem1.labels)
    failure = ""
    try:
        result = run_pipeline(cov, cfg.pipeline)
        estimated = result.delta.with_vertices(true_delta.vertices)
    except (
        OrderStallError, InfeasibleEstimateError, EstimatorConvergenceError, PruneBudgetError
    ) as exc:
        failure = type(exc).__name__
        estimated = DagEdgeSet(vertices=true_delta.vertices, edges=frozenset())
    sc = score(true_delta, estimated)
    norm = sc.hamming / max(1, len(true_delta.edges) + len(estimated.edges))
    return ExperimentRecord(
        p=p,
        c=c,
        n=n,
        rep=rep,
        seed=seed,
        d_prime=d_prime,
        true_edges=true_delta,
        estimated_edges=estimated,
        norm_hamming=norm,
        failure=failure,
        **sc._asdict(),
    )


def run_sweep(cfg: SweepConfig) -> list[ExperimentRecord]:
    """All trials of the grid in canonical (p, c, rep) order.

    Trials are independent (per-trial seeds are derived, not shared), so the
    loop parallelizes trivially; this runner keeps them sequential and the
    output order canonical. Pipeline failures (a stalled order, an infeasible
    or unconverged estimate, a spent prune budget) are recorded as empty
    estimates with the exception class name in ``failure``, and the sweep
    goes on; against an empty truth such a record scores Hamming 0, so a
    count of recoveries must also check ``failed``. Generator exhaustion
    aborts the sweep, since it signals an unsatisfiable configuration.
    """
    if cfg.fixed_n is not None:
        cells = [(p, None) for p in cfg.p_values]
    else:
        cells = [(p, c) for p in cfg.p_values for c in cfg.c_values]
    return [
        run_trial(cfg, p, c, rep)
        for p, c in cells
        for rep in range(cfg.repetitions)
    ]


@dataclass(frozen=True)
class CellSummary:
    """Mean and sample standard deviation of each metric for one grid cell."""

    p: int
    c: int | None
    n: int | None
    count: int
    failures: int
    means: dict
    sds: dict


def aggregate(records: list[ExperimentRecord]) -> list[CellSummary]:
    """Per-cell means and sample standard deviations (sd 0 for single trials)."""
    if not records:
        raise ValueError("no records to aggregate")
    groups: dict = {}
    for rec in records:
        key = (rec.p, rec.c if rec.c is not None else rec.n)
        groups.setdefault(key, []).append(rec)
    out = []
    for key in sorted(groups):
        recs = groups[key]
        means = {}
        sds = {}
        for metric in _METRICS:
            vals = np.array([getattr(r, metric) for r in recs], dtype=float)
            means[metric] = float(vals.mean())
            sds[metric] = float(vals.std(ddof=1)) if len(vals) > 1 else 0.0
        out.append(
            CellSummary(
                p=recs[0].p,
                c=recs[0].c,
                n=recs[0].n if recs[0].c is None else None,
                count=len(recs),
                failures=sum(r.failed for r in recs),
                means=means,
                sds=sds,
            )
        )
    return out


def _csv_cell(value) -> str:
    """A ``records.csv`` cell: empty for None, 0/1 for a bool, ``repr`` for a
    float and ``str`` for anything else."""
    if value is None:
        return ""
    if isinstance(value, bool):  # before int: a bool is an int
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def write_sweep(records: list[ExperimentRecord], out_dir) -> list[CellSummary]:
    """Write the four files of ``diffdag sweep`` into ``out_dir`` and return
    the cell summaries.

    ``records.csv`` has one row per trial and one column per name in
    ``CSV_COLUMNS``; its trailing failure column holds the exception class
    name of a failed trial and is empty otherwise. ``summary.json`` holds the
    cells, ``plot.tsv`` each cell's mean normalized Hamming distance, and
    ``table.txt`` the mean (sd) of precision, recall and F-score per cell.
    Repeated runs with the same seeds write byte-identical files.
    """
    out = Path(out_dir)
    summaries = aggregate(records)
    columns = CSV_COLUMNS.split(",")
    rows = [",".join(_csv_cell(getattr(r, col)) for col in columns) for r in records]
    _write_lines([CSV_COLUMNS, *rows], out / "records.csv")
    _write_json({"cells": [asdict(s) for s in summaries]}, out / "summary.json")

    def mean_sd(summary: CellSummary, metric: str) -> str:
        return f"{summary.means[metric]:.2f} ({summary.sds[metric]:.2f})"

    plot = ["p\tc_or_n\tmean_norm_hamming"]
    table = ["p\tc_or_n\tprecision\trecall\tf_score"]
    for s in summaries:
        key = f"{s.p}\t{s.c if s.c is not None else s.n}"
        plot.append(f"{key}\t{s.means['norm_hamming']!r}")
        table.append(
            f"{key}\t{mean_sd(s, 'precision')}\t{mean_sd(s, 'recall')}\t{mean_sd(s, 'f_score')}"
        )
    _write_lines(plot, out / "plot.tsv")
    _write_lines(table, out / "table.txt")
    return summaries
