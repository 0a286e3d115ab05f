"""Closed-form cross-checks, independent of the matrix estimation paths.

Vertex removal follows the explicit edge-weight and noise-variance update
formulas (verified elsewhere against Schur complements), precision-difference
entries come from the parent and common-children expansion of
(I-B)^T D^-1 (I-B), and the assumption checker works from partial
correlations of restricted covariance matrices. These routines exist to
validate the estimators and the recovery pipeline; they favor clarity over
speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import DiffDagError
from .sem import ZERO_TOL, Sem, covariance, difference_edge_set, precision


@dataclass(frozen=True)
class MarginalSem:
    """A SEM over a retained vertex set, plus the labels that were removed."""

    sem: Sem
    removed: frozenset

    def __post_init__(self):
        object.__setattr__(self, "removed", frozenset(self.removed))
        if self.removed & set(self.sem.labels):
            raise ValueError("removed labels must be disjoint from the retained SEM")


def marginalize_sem(sem: Sem, removed) -> MarginalSem:
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
        return MarginalSem(sem, removed)

    topo = sem.topological_order()
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
        w = sla.cho_factor(om_anc[np.ix_(u_pos, u_pos)])
        corr = sla.cho_solve(w, b_ju)
        var_new = var_j**2 / (var_j - float(b_ju @ corr))
        nv_new[new_idx[j]] = var_new
        for k in anc:
            if k == j or k not in new_idx:
                continue
            om_uk = om_anc[u_pos, a_pos[k]]
            b_new[new_idx[j], new_idx[k]] = (var_new / var_j) * (
                sem.b[jj, sem.index(k)] - float(b_ju @ sla.cho_solve(w, om_uk))
            )
    return MarginalSem(Sem(b_new, nv_new, tuple(retained)), removed)


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


def is_terminal_invariant(sem1: Sem, sem2: Sem, i) -> bool:
    """Whether column i of the edge-weight matrices is unchanged.

    A vertex with unchanged outgoing edges is terminal in the difference DAG
    and has a zero diagonal entry in the precision difference; that identity
    is re-verified through the matrix product as a self-check.
    """
    _require_shared(sem1, sem2)
    ii = sem1.index(i)
    invariant = bool(np.array_equal(sem1.b[:, ii], sem2.b[:, ii]))
    if invariant:
        dd = float((precision(sem1) - precision(sem2))[ii, ii])
        if abs(dd) > ZERO_TOL:
            raise DiffDagError(
                f"column-invariant vertex {i!r} has nonzero precision-difference "
                f"diagonal {dd:g}; shared noise variances were violated"
            )
    return invariant


def _require_shared(sem1: Sem, sem2: Sem) -> None:
    if sem1.labels != sem2.labels:
        raise ValueError("SEMs must share labels")
    if not np.array_equal(sem1.noise_vars, sem2.noise_vars):
        raise ValueError("SEMs must share noise variances")


def partial_correlation(cov: np.ndarray, labels: tuple, i, j, given) -> float:
    """Partial correlation of X_i and X_j given X_S, from the covariance.

    Computed as -W_ij / sqrt(W_ii * W_jj) where W is the inverse of the
    covariance restricted to {i, j} union S.
    """
    index = {lab: k for k, lab in enumerate(labels)}
    keep = [lab for lab in labels if lab == i or lab == j or lab in set(given)]
    idx = [index[lab] for lab in keep]
    w = np.linalg.inv(cov[np.ix_(idx, idx)])
    kpos = {lab: t for t, lab in enumerate(keep)}
    si, sj = kpos[i], kpos[j]
    return float(-w[si, sj] / math.sqrt(w[si, si] * w[sj, sj]))


@dataclass(frozen=True)
class AssumptionReport:
    """Outcome of the generator-side checks on a SEM pair.

    ``failed_condition`` is None on success, otherwise the first violated
    clause: "invariant-vertex-consistency" (vertices with zero
    precision-difference rows must have unchanged edges and matching
    common-children sums) or "separation" (every difference edge must keep a
    2*eps partial-correlation gap, and its parent a 2*eps conditional-precision
    diagonal gap, over all order-prefix subsets). "subset-budget" marks an
    inconclusive check that enumerated too many subsets.
    """

    passed: bool
    failed_condition: str | None = None
    detail: str | None = None
    invariant: frozenset = frozenset()
    delta_edges: frozenset = frozenset()
    subsets_checked: int = 0

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "failed_condition": self.failed_condition,
            "detail": self.detail,
            "invariant": sorted(self.invariant),
            "delta_edges": [list(e) for e in sorted(self.delta_edges)],
            "subsets_checked": self.subsets_checked,
        }


def _ancestor_closed_subsets(vertices: list, parents: dict, cap: int) -> list[frozenset] | None:
    """All subsets closed under taking parents, or None past the cap.

    These are exactly the prefix sets of parents-first topological orders.
    """
    downsets = {frozenset()}
    frontier = [frozenset()]
    while frontier:
        base = frontier.pop()
        for v in vertices:
            if v in base or not parents[v] <= base:
                continue
            ext = base | {v}
            if ext not in downsets:
                downsets.add(ext)
                frontier.append(ext)
                if len(downsets) > cap:
                    return None
    return sorted(downsets, key=lambda s: (len(s), sorted(map(repr, s))))


def check_assumptions(
    sem1: Sem, sem2: Sem, epsilon: float, max_subsets: int = 100_000
) -> AssumptionReport:
    """Report whether a SEM pair supports exact difference-DAG recovery.

    Two clauses are verified. First, every vertex whose precision-difference
    row vanishes must have unchanged incoming and outgoing edges, and each
    pair of such vertices must have matching per-common-child weight products
    divided by the child noise variance. Second, for every difference edge
    (i, j) and every ancestor-closed subset S of the difference DAG containing
    both endpoints, the two models must differ by at least 2*epsilon both in
    the partial correlation of X_i, X_j given the rest of S and in the
    diagonal precision entry of the parent j over S.
    """
    _require_shared(sem1, sem2)
    delta = difference_edge_set(sem1, sem2)
    dom = precision(sem1) - precision(sem2)
    p = sem1.p
    labels = sem1.labels
    row_zero = np.abs(dom).max(axis=1) <= ZERO_TOL
    invariant = frozenset(labels[k] for k in np.flatnonzero(row_zero))

    def fail(cond: str, detail: str, checked: int = 0) -> AssumptionReport:
        return AssumptionReport(False, cond, detail, invariant, delta.edges, checked)

    # clause one: invariant vertices must have genuinely unchanged edges
    for lab in sorted(invariant, key=repr):
        k = sem1.index(lab)
        if not np.array_equal(sem1.b[k, :], sem2.b[k, :]):
            return fail(
                "invariant-vertex-consistency",
                f"vertex {lab!r} has a zero difference row but changed incoming edges",
            )
        if not np.array_equal(sem1.b[:, k], sem2.b[:, k]):
            return fail(
                "invariant-vertex-consistency",
                f"vertex {lab!r} has a zero difference row but changed outgoing edges",
            )
    inv_sorted = sorted(invariant, key=repr)
    for a_pos, lab_i in enumerate(inv_sorted):
        ki = sem1.index(lab_i)
        for lab_j in inv_sorted[a_pos:]:
            kj = sem1.index(lab_j)
            for kl in range(p):
                t1 = sem1.b[kl, ki] * sem1.b[kl, kj] / sem1.noise_vars[kl]
                t2 = sem2.b[kl, ki] * sem2.b[kl, kj] / sem2.noise_vars[kl]
                if abs(t1 - t2) > 1e-12:
                    return fail(
                        "invariant-vertex-consistency",
                        f"common-child term at child {labels[kl]!r} differs for "
                        f"invariant pair ({lab_i!r}, {lab_j!r})",
                    )

    if not delta.edges:
        return AssumptionReport(True, None, None, invariant, delta.edges, 0)

    # clause two: separations over ancestor-closed subsets of the difference DAG
    v_labels = [lab for lab in labels if lab not in invariant]
    parents = {lab: delta.parents(lab) & set(v_labels) for lab in v_labels}
    downsets = _ancestor_closed_subsets(v_labels, parents, max_subsets)
    if downsets is None:
        return fail(
            "subset-budget",
            f"more than {max_subsets} ancestor-closed subsets; check inconclusive",
            max_subsets,
        )
    cov1 = covariance(sem1)
    cov2 = covariance(sem2)
    index = {lab: k for k, lab in enumerate(labels)}
    om_cache: dict[frozenset, tuple] = {}
    checked = 0
    for (i, j) in sorted(delta.edges, key=lambda e: (repr(e[0]), repr(e[1]))):
        for s in downsets:
            if i not in s or j not in s:
                continue
            checked += 1
            if s not in om_cache:
                keep = [lab for lab in labels if lab in s]
                idx = [index[lab] for lab in keep]
                om_cache[s] = (
                    np.linalg.inv(cov1[np.ix_(idx, idx)]),
                    np.linalg.inv(cov2[np.ix_(idx, idx)]),
                    {lab: t for t, lab in enumerate(keep)},
                )
            om1, om2, kpos = om_cache[s]
            si, sj = kpos[i], kpos[j]
            rho1 = -om1[si, sj] / math.sqrt(om1[si, si] * om1[sj, sj])
            rho2 = -om2[si, sj] / math.sqrt(om2[si, si] * om2[sj, sj])
            if abs(rho1 - rho2) < 2.0 * epsilon:
                return fail(
                    "separation",
                    f"edge ({i!r}, {j!r}): partial-correlation gap "
                    f"{abs(rho1 - rho2):.4g} < {2 * epsilon:g} over subset {sorted(s, key=repr)}",
                    checked,
                )
            if abs(om1[sj, sj] - om2[sj, sj]) < 2.0 * epsilon:
                return fail(
                    "separation",
                    f"edge ({i!r}, {j!r}): parent diagonal gap "
                    f"{abs(om1[sj, sj] - om2[sj, sj]):.4g} < {2 * epsilon:g} "
                    f"over subset {sorted(s, key=repr)}",
                    checked,
                )
    return AssumptionReport(True, None, None, invariant, delta.edges, checked)


def minimax_sample_bound(p: int, d: int) -> float:
    """Sample-count threshold below which no method can recover the
    difference DAG with error probability under one half, for difference
    DAGs with at most d parents per node: (d/2) ln(p/(2d)) - (2/p) ln 2.
    """
    if int(p) != p or int(d) != d:
        raise ValueError("p and d must be integers")
    if d < 1:
        raise ValueError("d must be at least 1")
    if p < 2 * d:
        raise ValueError(f"require p >= 2d, got p={p}, d={d}")
    return (d / 2.0) * math.log(p / (2.0 * d)) - (2.0 / p) * math.log(2.0)
