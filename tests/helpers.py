"""Shared builders for randomized test instances."""

from __future__ import annotations

import numpy as np

from diffdag import EstimatorConfig, PipelineConfig, Sem, SemPairGenConfig, SweepConfig

# The C07 trend grid: 360 Dantzig trials. Its records.csv is the one whose
# sha256 the BENCH files cite; tools/bench_record.py's C07_GRID builds it too.
C07_SWEEP = SweepConfig(
    p_values=(5, 10, 15),
    c_values=(5, 10, 15, 20),
    repetitions=30,
    gen=SemPairGenConfig(p=10),
    pipeline=PipelineConfig(
        estimator="dantzig",
        est_cfg=EstimatorConfig(lambda_auto=True, epsilon=0.125),
    ),
    seed_base=0,
)


def random_sem(rng: np.random.Generator, p: int, edge_prob: float = 0.4) -> Sem:
    """A random DAG SEM under a random topological order."""
    order = rng.permutation(p)
    b = np.zeros((p, p))
    for a in range(p):
        for c in range(a + 1, p):
            if rng.random() < edge_prob:
                mag = rng.uniform(0.3, 0.9)
                b[order[c], order[a]] = -mag if rng.random() < 0.5 else mag
    noise = rng.uniform(0.8, 1.2, size=p)
    return Sem(b, noise)


def perturb_sem(rng: np.random.Generator, sem: Sem, n_changes: int = 2) -> Sem:
    """A second SEM sharing noise and topological order, with edge changes.

    Changes respect the first model's canonical topological order: existing
    edges may be deleted or reweighted and order-consistent absent slots may
    gain an edge.
    """
    b2 = np.array(sem.b)
    order = [sem.index(lab) for lab in sem.topological_order()]
    slots = [
        (order[c], order[a]) for a in range(sem.p) for c in range(a + 1, sem.p)
    ]
    chosen = rng.choice(len(slots), size=min(n_changes, len(slots)), replace=False)
    for k in chosen:
        child, parent = slots[k]
        if b2[child, parent] != 0.0 and rng.random() < 0.5:
            b2[child, parent] = 0.0
        else:
            mag = rng.uniform(0.3, 0.9)
            b2[child, parent] = -mag if rng.random() < 0.5 else mag
    return Sem(b2, sem.noise_vars, sem.labels)


def chain_sem(weights: list[float], noise: list[float] | None = None) -> Sem:
    """Chain 0 <- 1 <- ... <- k with the given edge weights."""
    p = len(weights) + 1
    b = np.zeros((p, p))
    for i, w in enumerate(weights):
        b[i, i + 1] = w
    return Sem(b, noise if noise is not None else np.ones(p))
