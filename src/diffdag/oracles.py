"""The paper's recovery assumptions and its sample-count lower bound.

``check_assumptions`` certifies that a SEM pair supports exact recovery of its
difference DAG: invariant vertices keep their edges, and every difference edge
stays separated by 2*eps in partial correlation and in its parent's
conditional precision over the ancestor-closed subsets that hold it. It reads
the difference DAG from one entrywise comparison B1 != B2: the invariant
clause from its rows and columns, the subset walk's parent masks from its
rows, and its ancestor masks from the rows of its closure under
``sem._ancestry``, the one ancestry relation. The generator calls it on every
candidate pair, so it enumerates those subsets lazily as 64-bit masks (so at
most 64 non-invariant vertices), one size level of each edge in turn, so that
a rejected pair fails on its smallest subsets, and reads their gaps from a
Cholesky tail in stacks. It counts the (edge, subset) pairs as it walks them
and gives up, inconclusive, before a level would take the count past
``SUBSET_BUDGET``. ``minimax_sample_bound`` is the Omega(d log(p/d)) threshold
below which no method recovers the difference DAG reliably.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .sem import ZERO_TOL, Sem, covariance, precision
from .sem import _ancestry, _integer, _output_order, _real

# The most (edge, subset) pairs check_assumptions walks; a level that would
# take it past them makes the check inconclusive.
SUBSET_BUDGET = 100_000


def _require_shared(sem1: Sem, sem2: Sem) -> None:
    if sem1.labels != sem2.labels:
        raise ValueError("SEMs must share labels")
    if not np.array_equal(sem1.noise_vars, sem2.noise_vars):
        raise ValueError("SEMs must share noise variances")


def _cholesky_tail(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each covariance matrix in ``stack``, the partial correlation of
    the last two variables given the others and the last one's precision
    diagonal: b / hypot(b, c) and 1 / c^2, where (b, c) ends the Cholesky
    factor's last row and factors the 2x2 Schur complement of the others.
    """
    tail = np.linalg.cholesky(stack)[..., -1, -2:]
    b, c = tail[..., 0], tail[..., 1]
    return b / np.hypot(b, c), 1.0 / (c * c)


@dataclass(frozen=True)
class AssumptionReport:
    """Outcome of the generator-side checks on a SEM pair.

    ``failed_condition`` is None on success, otherwise the first violated
    clause: "invariant-vertex-consistency" (vertices with zero
    precision-difference rows must have unchanged edges) or "separation"
    (every difference edge must keep a 2*eps partial-correlation gap, and its
    parent a 2*eps conditional-precision diagonal gap, over all
    ancestor-closed subsets that hold it). "subset-budget" marks an
    inconclusive check: the walk found no violation before its next level
    would pass ``SUBSET_BUDGET`` (edge, subset) pairs. ``detail`` names the
    first violated gap in ``check_assumptions``' walk, and
    ``subsets_checked`` counts the (edge, subset) pairs examined: up to and
    including that gap, all of them on success, or those walked before the
    budget stopped the walk.
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
            "invariant": _output_order(self.invariant),
            "delta_edges": [list(e) for e in _output_order(self.delta_edges)],
            "subsets_checked": self.subsets_checked,
        }


# Subsets factored per stacked np.linalg.cholesky call: bounds the memory a wide
# level takes and the work wasted when its first subsets already fail.
_CHUNK = 256


def _downsets_above(base: int, parents: dict) -> Iterator[np.ndarray]:
    """The ancestor-closed supersets of the ancestor-closed ``base``.

    Yields one descending ``np.uint64`` mask array per size, smallest first.
    ``parents`` maps each vertex bit, at most bit 63, to its parents' mask.
    """
    free = [(b, pb) for b, pb in parents.items() if not b & base]
    fb, fpb = np.array(free, dtype=np.uint64).reshape(-1, 2).T
    level = np.array([base], dtype=np.uint64)
    while level.size:
        yield level
        # b joins m when b is outside m and all of b's parents are inside
        ok = (level[:, None] & (fb | fpb)) == fpb
        level = np.unique((level[:, None] | fb)[ok])[::-1]


def check_assumptions(sem1: Sem, sem2: Sem, epsilon: float) -> AssumptionReport:
    """Report whether a SEM pair supports exact difference-DAG recovery.

    Two clauses are verified. First, every vertex whose precision-difference
    row vanishes must have unchanged incoming and outgoing edges; with shared
    noise variances, unchanged outgoing edges also give each pair of such
    vertices equal per-common-child weight products. Second, for every
    difference edge (i, j) and every ancestor-closed subset S of the
    difference DAG over the non-invariant vertices that contains both
    endpoints, the two models must differ by at least 2*epsilon both in the
    partial correlation of X_i, X_j given the rest of S and in the diagonal
    precision entry of the parent j over S. ``epsilon`` must be finite and
    non-negative; at 0 every gap passes.

    Budget: the second clause counts the (edge, subset) pairs it walks.
    Before it examines a level, if the pairs examined so far plus the
    level's would pass ``SUBSET_BUDGET`` (100 000), the report fails with
    "subset-budget", an inconclusive verdict, and ``subsets_checked`` equal
    to the pairs examined so far. So a violation in an earlier level is
    still found, however many subsets the difference DAG has. More than 64
    non-invariant vertices raise ``ValueError`` (64-bit masks) before the
    walk starts, whatever the number of subsets. A difference B1 != B2 that
    holds a directed cycle raises ``InvalidModelError`` from ``sem._ancestry``
    before either clause.

    Order: edges are ranked by (repr(i), repr(j)). Each edge walks only the
    subsets that contain the ancestors of i, j among them, in levels by
    size; within a level, subsets go by the sorted reprs of their members
    compared as lists. The walk is level-major across edges: it takes every
    edge's smallest level in edge rank, then every edge's next level, and so
    on, an edge dropping out when its levels run out. The order cannot
    change a verdict, only which violation is found first. The first
    violated gap ends the check; ``subsets_checked`` counts the (edge,
    subset) pairs examined up to and including it, and ``detail`` names it.
    """
    _real("epsilon", epsilon)
    _require_shared(sem1, sem2)
    labels = sem1.labels
    changed = sem1.b != sem2.b
    reach = _ancestry(changed)
    delta_edges = frozenset((labels[i], labels[j]) for i, j in zip(*np.nonzero(changed)))
    dom = precision(sem1) - precision(sem2)
    row_zero = np.abs(dom).max(axis=1) <= ZERO_TOL
    invariant = frozenset(labels[k] for k in np.flatnonzero(row_zero))

    def fail(cond: str, detail: str, checked: int = 0) -> AssumptionReport:
        return AssumptionReport(False, cond, detail, invariant, delta_edges, checked)

    # clause one: invariant vertices must have genuinely unchanged edges
    moved = {"incoming": changed.any(axis=1), "outgoing": changed.any(axis=0)}
    for lab in sorted(invariant, key=repr):
        for side, edges_moved in moved.items():
            if edges_moved[sem1.index(lab)]:
                return fail(
                    "invariant-vertex-consistency",
                    f"vertex {lab!r} has a zero difference row but changed {side} edges",
                )
    if not delta_edges:
        return AssumptionReport(True, None, None, invariant, delta_edges, 0)

    # clause two: separations over ancestor-closed subsets of the difference
    # DAG. A vertex set is a bitmask in which the vertex of repr rank r has
    # bit n-1-r, so among sets of one size descending masks are the
    # canonical order.
    ranked = sorted((lab for lab in labels if lab not in invariant), key=repr)
    n = len(ranked)
    bit = {lab: 1 << (n - 1 - r) for r, lab in enumerate(ranked)}
    # clause one passed, so every endpoint of a changed entry has a bit
    def mask(row: np.ndarray) -> int:
        return sum(bit[labels[q]] for q in np.flatnonzero(row))

    parents = {bit[lab]: mask(changed[sem1.index(lab)]) for lab in ranked}
    anc = {lab: mask(reach[sem1.index(lab)]) for lab in ranked}
    if n > 64:
        raise ValueError(f"the subset walk takes at most 64 non-invariant vertices, not {n}")
    covs = np.stack([covariance(sem1), covariance(sem2)])
    flat, p = covs.reshape(2, -1), covs.shape[-1]
    walks: deque = deque()
    for (i, j) in sorted(delta_edges, key=lambda e: (repr(e[0]), repr(e[1]))):
        # each submatrix holds S minus {i, j} in label order, then i, then j
        order = [lab for lab in labels if lab in bit and lab != i and lab != j] + [i, j]
        rows = np.array([sem1.index(lab) for lab in order])
        shifts = np.array([bit[lab].bit_length() - 1 for lab in order], dtype=np.uint64)
        # j is a parent of i, so anc(i) holds anc(j)
        walks.append((i, j, rows, shifts, _downsets_above(anc[i], parents)))
    checked = 0
    # level-major: a rejected pair's first violation tends to sit at the
    # smallest subsets of some edge, so each turn takes one edge's next level
    while walks:
        i, j, rows, shifts, levels = walk = walks.popleft()
        level = next(levels, None)
        if level is not None:
            if checked + len(level) > SUBSET_BUDGET:
                return fail(
                    "subset-budget",
                    f"more than {SUBSET_BUDGET} (edge, subset) pairs to walk; check inconclusive",
                    checked,
                )
            walks.append(walk)
            for start in range(0, len(level), _CHUNK):
                masks = level[start : start + _CHUNK]
                member = ((masks[:, None] >> shifts) & 1).astype(bool)
                idx = rows[np.nonzero(member)[1].reshape(len(masks), -1)]
                # one take over flat positions: the values of 3-d fancy indexing, faster
                stack = np.take(flat, idx[:, :, None] * p + idx[:, None, :], axis=1)
                rho, diag = _cholesky_tail(stack)
                rho_gap, diag_gap = np.abs(rho[0] - rho[1]), np.abs(diag[0] - diag[1])
                bad = np.flatnonzero((rho_gap < 2.0 * epsilon) | (diag_gap < 2.0 * epsilon))
                if not bad.size:
                    checked += len(masks)
                    continue
                k = int(bad[0])
                checked += k + 1
                s = [lab for lab in ranked if int(masks[k]) & bit[lab]]
                name, gap = "partial-correlation", rho_gap[k]
                if gap >= 2.0 * epsilon:
                    name, gap = "parent diagonal", diag_gap[k]
                return fail(
                    "separation",
                    f"edge ({i!r}, {j!r}): {name} gap {float(gap):.4g} < {2 * epsilon:g} "
                    f"over subset {s}",
                    checked,
                )
    return AssumptionReport(True, None, None, invariant, delta_edges, checked)


def minimax_sample_bound(p: int, d: int) -> float:
    """Sample-count threshold below which no method can recover the
    difference DAG with error probability under one half, for difference
    DAGs with at most d parents per node: (d/2) ln(p/(2d)) - (2/p) ln 2.
    """
    p, d = _integer("p", p), _integer("d", d, least=1)
    if p < 2 * d:
        raise ValueError(f"require p >= 2d, got p={p}, d={d}")
    return (d / 2.0) * math.log(p / (2.0 * d)) - (2.0 / p) * math.log(2.0)
