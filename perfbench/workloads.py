"""The three benchmark workloads: inputs, one operation, and its checked outcome.

Each workload has a fixed pool of operations, built from ``POOL_SEED``, the
``SweepConfig`` default seed base, and run in ``run_sweep``'s canonical
order. The run's seed draws only the warm-up trial; WORKLOADS.md says why
the pool does not move with the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# The program's functions are called through their modules so that the
# tracer's wrappers see these calls too.
from diffdag import experiments, pipeline, sem
from diffdag.errors import EstimatorConvergenceError, InfeasibleEstimateError, OrderStallError
from diffdag.estimators import EstimatorConfig
from diffdag.experiments import SweepConfig
from diffdag.pipeline import PipelineConfig
from diffdag.sem import CovariancePair, DagEdgeSet, SemPairGenConfig

# The failure classes run_trial records as a failed trial; any other
# exception fails the benchmark run.
COUNTED = (OrderStallError, InfeasibleEstimateError, EstimatorConvergenceError)

POOL_SEED = 0
DANTZIG = PipelineConfig(estimator="dantzig", est_cfg=EstimatorConfig(lambda_auto=True, epsilon=0.125))
POPULATION = PipelineConfig(estimator="population")
LARGE_N = 2000


@dataclass(frozen=True)
class Outcome:
    """What one operation produced.

    ``record`` holds only deterministic fields, so it must be identical
    every time the same operation runs. ``failure`` names the counted failure
    (run_trial records only that one happened), or is None when the pipeline
    returned an estimate. A sweep trial that records a failure still returns
    its record; ``returned`` is False only when the operation itself raised.
    """

    key: str
    record: tuple
    truth: DagEdgeSet
    estimate: DagEdgeSet
    failure: str | None
    returned: bool = True
    reported_f: float | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[], list]
    run: Callable[[object], Outcome]
    exact_required: bool = False


def _sweep_ops(cfgs: list[SweepConfig]) -> list:
    # the canonical (p, c, rep) order of run_sweep
    return [
        (cfg, p, c, rep)
        for cfg in cfgs
        for p in cfg.p_values
        for c in cfg.c_values
        for rep in range(cfg.repetitions)
    ]


def _run_trial(op) -> Outcome:
    cfg, p, c, rep = op
    rec = experiments.run_trial(cfg, p, c, rep)
    record = (rec.p, rec.c, rec.n, rec.rep, rec.seed, tuple(rec.estimated_edges.sorted_edges()), rec.failed)
    return Outcome(
        key=f"p={p} c={c} rep={rep} n={rec.n}",
        record=record,
        truth=rec.true_edges,
        estimate=rec.estimated_edges,
        failure="failed" if rec.failed else None,
        reported_f=rec.f_score,
    )


def _dantzig_sweep() -> list:
    # gen is built at each sweep's own p: a p=10 template carried to p=25 by
    # run_trial keeps sqrt(10) neighbours and 0.5/10 change probability
    return _sweep_ops([
        SweepConfig(
            p_values=(p,),
            c_values=(5, 10, 15, 20),
            repetitions=2,
            gen=SemPairGenConfig(p=p),
            pipeline=DANTZIG,
            seed_base=POOL_SEED,
        )
        for p in (5, 10, 15)
    ])


def _population_sweep() -> list:
    return _sweep_ops([
        SweepConfig(
            p_values=(25,),
            c_values=(20,),
            repetitions=8,
            gen=SemPairGenConfig(p=25),
            pipeline=POPULATION,
            seed_base=POOL_SEED,
        )
    ])


@dataclass(frozen=True)
class LargeInput:
    p: int
    seed: int
    cov: CovariancePair
    truth: DagEdgeSet


def _large_inputs() -> list:
    """One sampled pair each at p = 20, 25, 30 with n1 = n2 = 2000.

    Seeds and sample streams are the ones run_trial derives for a fixed-n
    trial at rep 0, so each input is the data of that sweep trial.
    """
    inputs = []
    for p in (20, 25, 30):
        seed = int(np.random.SeedSequence((POOL_SEED, p, 0, 0)).generate_state(1, np.uint64)[0])
        sem1, sem2, truth = sem.generate_sem_pair(SemPairGenConfig(p=p, seed=seed))
        x1 = sem.sample(sem1, LARGE_N, np.random.default_rng((seed, 1)))
        x2 = sem.sample(sem2, LARGE_N, np.random.default_rng((seed, 2)))
        inputs.append(LargeInput(p, seed, CovariancePair.from_data(x1, x2, sem1.labels), truth))
    return inputs


def _run_large(inp: LargeInput) -> Outcome:
    try:
        estimate = pipeline.run_pipeline(inp.cov, DANTZIG).delta.with_vertices(inp.truth.vertices)
        failure = None
    except COUNTED as exc:
        estimate = DagEdgeSet(vertices=inp.truth.vertices, edges=frozenset())
        failure = type(exc).__name__
    return Outcome(
        key=f"p={inp.p} n={LARGE_N} seed={inp.seed}",
        record=(inp.p, LARGE_N, inp.seed, tuple(estimate.sorted_edges()), failure),
        truth=inp.truth,
        estimate=estimate,
        failure=failure,
        returned=failure is None,
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep-dantzig",
            "C07 grid shape at 2 reps: many small Dantzig LPs called from prune",
            _dantzig_sweep,
            _run_trial,
        ),
        Workload(
            "pipeline-large",
            "one sampled pair each at p=20/25/30, n=2000: the dense p^4 Kronecker LP sets time and memory",
            _large_inputs,
            _run_large,
        ),
        Workload(
            "sweep-population",
            "population sweep at p=25: no LP, the generator and check_assumptions do the work",
            _population_sweep,
            _run_trial,
            exact_required=True,
        ),
    )
}


def warm_up(name: str, seed: int) -> None:
    """One p = 5 trial with the workload's estimator, drawn from ``seed``."""
    cfg = SweepConfig(p_values=(5,), c_values=(20,), repetitions=1, gen=SemPairGenConfig(p=5),
                      pipeline=POPULATION if name == "sweep-population" else DANTZIG,
                      seed_base=seed)
    experiments.run_trial(cfg, 5, 20, 0)


def directed_f(truth: DagEdgeSet, estimate: DagEdgeSet) -> float:
    """Directed F-score with run_trial's conventions for empty sets."""
    tp = len(truth.edges & estimate.edges)
    prec = tp / len(estimate.edges) if estimate.edges else float(not truth.edges)
    rec = tp / len(truth.edges) if truth.edges else 1.0
    return 0.0 if prec + rec == 0.0 else 2.0 * prec * rec / (prec + rec)
