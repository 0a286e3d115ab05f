"""Shared builders for randomized test instances, a SEM's canonical
topological order, and the paper's closed forms.

``marginalize_sem`` (the vertex-removal formulas) and ``delta_omega_entry``
(the parent and common-children expansion of the precision difference) are
formulas of the paper that the package itself never runs. They live here,
next to the tests that check them against the Schur complement and against
``precision(sem1) - precision(sem2)`` (tests/test_oracles.py, acceptance
criteria C03 and C04).
"""

from __future__ import annotations

import numpy as np

from diffdag import (
    EstimatorConfig,
    PipelineConfig,
    Sem,
    SemPairGenConfig,
    SweepConfig,
    covariance,
    generate_sem_pair,
)
from diffdag.errors import InvalidModelError
from diffdag.oracles import _require_shared

# The C07 trend grid: 360 Dantzig trials. Its records.csv is the one whose
# sha256 the BENCH files cite; tools/bench_record.py imports it from here.
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


def _scan_topo_positions(support: np.ndarray) -> list[int]:
    """The lexicographically minimal topological order of the row indices of
    ``support`` (``support[i, j]`` True when j is a parent of i): the smallest
    ready index, found by scanning every row each step. A cycle raises the
    ``InvalidModelError`` that ``Sem`` raises."""
    p = support.shape[0]
    parents = [set(np.flatnonzero(support[i]).tolist()) for i in range(p)]
    placed, placed_set = [], set()
    while len(placed) < p:
        ready = [i for i in range(p) if i not in placed_set and parents[i] <= placed_set]
        if not ready:
            raise InvalidModelError("edge support contains a directed cycle")
        placed.append(min(ready))
        placed_set.add(placed[-1])
    return placed


def topological_order(sem: Sem) -> tuple:
    """The canonical (lexicographically minimal) topological order of ``sem``,
    as labels: parents appear before their children."""
    return tuple(sem.labels[i] for i in _scan_topo_positions(sem.b != 0.0))


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
    order = [sem.index(lab) for lab in topological_order(sem)]
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


def mixed_label_pair() -> tuple[Sem, Sem, frozenset]:
    """A generated p = 5 pair relabeled ("a", 1, 2, 3, 4), and its difference
    edges. A string and an int cannot be compared, and this pair mixes them in
    its labels, its two difference edges, its layers and prune's drop-sets."""
    labels = ("a", 1, 2, 3, 4)
    sem1, sem2, truth = generate_sem_pair(SemPairGenConfig(p=5, seed=3))
    edges = frozenset((labels[i], labels[j]) for i, j in truth.edges)
    return Sem(sem1.b, sem1.noise_vars, labels), Sem(sem2.b, sem2.noise_vars, labels), edges


def chain_sem(weights: list[float], noise: list[float] | None = None) -> Sem:
    """Chain 0 <- 1 <- ... <- k with the given edge weights."""
    p = len(weights) + 1
    b = np.zeros((p, p))
    for i, w in enumerate(weights):
        b[i, i + 1] = w
    return Sem(b, noise if noise is not None else np.ones(p))


def marginalize_sem(sem: Sem, removed) -> Sem:
    """The SEM over the retained vertices after integrating out ``removed``.

    For each retained vertex j, with Anc_j the vertices weakly preceding j in
    the canonical topological order and U_j = Anc_j intersect removed:

        var_j'  = var_j^2 / (var_j - B[j, U_j] W^-1 B[j, U_j]^T)
        B'[j,k] = (var_j' / var_j) * (B[j, k] - B[j, U_j] W^-1 W_k)

    where W = Omega^{Anc_j}[U_j, U_j] and W_k = Omega^{Anc_j}[U_j, k] come
    from the precision matrix of the marginal over Anc_j, and B'[j, k] = 0
    for k outside Anc_j. Removing vertices that are terminal leaves the
    retained rows and variances untouched.
    """
    removed = frozenset(removed)
    unknown = removed - set(sem.labels)
    if unknown:
        raise KeyError(f"unknown vertex labels {sorted(unknown, key=repr)!r}")
    retained = [lab for lab in sem.labels if lab not in removed]
    if not retained:
        raise ValueError("cannot remove every vertex")
    if not removed:
        return sem

    topo = topological_order(sem)
    pos = {lab: k for k, lab in enumerate(topo)}
    cov = covariance(sem)
    q = len(retained)
    new_idx = {lab: k for k, lab in enumerate(retained)}
    b_new = np.zeros((q, q))
    nv_new = np.zeros(q)

    for j in retained:
        jj = sem.index(j)
        var_j = float(sem.noise_vars[jj])
        anc = topo[: pos[j] + 1]
        u_j = [lab for lab in anc if lab in removed]
        b_ju = sem.b[jj, [sem.index(lab) for lab in u_j]] if u_j else np.zeros(0)
        if not u_j or not np.any(b_ju):
            # no removed ancestor feeds j: the correction vanishes exactly,
            # covering terminal-vertex removal bit for bit
            nv_new[new_idx[j]] = var_j
            for k in anc:
                if k != j and k in new_idx:
                    b_new[new_idx[j], new_idx[k]] = sem.b[jj, sem.index(k)]
            continue
        anc_idx = [sem.index(lab) for lab in anc]
        om_anc = np.linalg.inv(cov[np.ix_(anc_idx, anc_idx)])
        a_pos = {lab: t for t, lab in enumerate(anc)}
        u_pos = [a_pos[lab] for lab in u_j]
        w = om_anc[np.ix_(u_pos, u_pos)]  # a principal block of a precision matrix
        corr = np.linalg.solve(w, b_ju)
        var_new = var_j**2 / (var_j - float(b_ju @ corr))
        nv_new[new_idx[j]] = var_new
        for k in anc:
            if k == j or k not in new_idx:
                continue
            om_uk = om_anc[u_pos, a_pos[k]]
            b_new[new_idx[j], new_idx[k]] = (var_new / var_j) * (
                sem.b[jj, sem.index(k)] - float(b_ju @ np.linalg.solve(w, om_uk))
            )
    return Sem(b_new, nv_new, tuple(retained))


def delta_omega_entry(sem1: Sem, sem2: Sem, i, j) -> float:
    """Closed-form (i, j) entry of precision(sem1) - precision(sem2).

    Requires shared noise variances. The value is the direct edge-difference
    contribution plus the common-children sums of each model; on the diagonal
    only the children terms survive.
    """
    _require_shared(sem1, sem2)
    nv = sem1.noise_vars
    ii, jj = sem1.index(i), sem1.index(j)
    b1, b2 = sem1.b, sem2.b
    val = 0.0
    if ii != jj:
        val += (b2[ii, jj] - b1[ii, jj]) / nv[ii]
        val += (b2[jj, ii] - b1[jj, ii]) / nv[jj]
    for k in range(sem1.p):
        if b1[k, ii] != 0.0 and b1[k, jj] != 0.0:
            val += b1[k, ii] * b1[k, jj] / nv[k]
        if b2[k, ii] != 0.0 and b2[k, jj] != 0.0:
            val -= b2[k, ii] * b2[k, jj] / nv[k]
    return float(val)
