"""Estimation of the difference between two SEM precision matrices.

The population identity Sigma1 (Omega1 - Omega2) Sigma2 = Sigma2 - Sigma1
means the difference solves a linear system without ever forming either dense
precision matrix. The finite-sample estimator is a Dantzig-selector-type
program over p x p matrices D: minimize ||D||_1 subject to

    max |S1 D S2 - (S2 - S1)| <= lambda_n   (entrywise).

It is solved as a sparse linear program over 3 p^2 variables
[beta+, beta-, m]: D = beta+ - beta- with beta+- >= 0, and m = vec(S1 D)
free, vec being column-major. With b = vec(S2 - S1), its 2 p^2 rows are one
ranged row per entry, then the equality rows:

    b - lambda_n <= (S2' kron I) m <= b + lambda_n,
    m - (I kron S1)(beta+ - beta-) = 0.

They hold 3 p^3 + p^2 nonzeros, where the same program written over the
Kronecker lift S2 kron S1 is a dense (2 p^2) x (2 p^2) matrix. The reshaped
solution is symmetrized and hard-thresholded, since only entries clearly away
from zero should count as support.

Dual simplex starts from a crash basis rather than HiGHS's slack basis: the
m columns and the ranged rows are basic, beta+- and the equality rows
nonbasic at their lower bounds. Ordered as (ranged rows, equality rows) by
(m, ranged slacks), its basis matrix is [[S2' kron I, I], [I, 0]]; it is
block triangular with identity blocks, so the basis is valid. Every basic
variable costs 0, so the duals are 0 and each beta reduced cost is its cost
1 >= 0: the basis is dual feasible, and dual simplex starts in phase 2
without the p^2 pivots that would bring the free m columns into a slack
basis. HiGHS skips presolve when it is given a basis.

The pipeline solves this program over many vertex subsets R of one pair:
once per peeled layer, and once per candidate set of common children in
prune. Those are all the same model with other bounds. Whenever D is zero
outside R x R, (S1 D S2)_RR = S1_RR D_RR S2_RR, so the program over
(S1_RR, S2_RR) is the full program with beta+- fixed at 0 outside R x R and
the ranged rows outside R x R freed to (-inf, inf); the equality rows outside
R x R only define entries of m that no live row reads. The program is
therefore kept as one HiGHS model per pair, through scipy's bundled HiGHS
binding, and re-solved warm after those bound changes. A restricted
``CovariancePair`` remembers the pair it came from, and ``dantzig_selector``
solves it through that pair's model, which it builds on the first solve that
reaches HiGHS. The pipeline restricts ``cov_v``, the pair without its
invariant vertices, so peeling and prune share one model over ``cov_v``. A
model over the full pair would give the same optima, but its blocks hold p^3
rather than p_v^3 nonzeros, and every solve would carry the invariant
vertices' rows and columns only to free and fix them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.optimize._highspy._core import (
    HighsBasis,
    HighsBasisStatus,
    HighsLp,
    HighsModelStatus,
    HighsStatus,
    MatrixFormat,
    _Highs,
)
from scipy.optimize._highspy._core.simplex_constants import SimplexStrategy

from .errors import (
    EstimatorConvergenceError,
    InfeasibleEstimateError,
    InvalidCovarianceError,
)
from .sem import CovariancePair, _Labeled, _symmetrize

# HiGHS's primal feasibility tolerance, which also sets the slack of the
# residual check, and its simplex/IPM iteration limit.
SOLVER_TOL = 1e-7
MAX_ITER = 50_000


@dataclass(frozen=True, eq=False)
class DeltaPrecision(_Labeled):
    """A symmetric matrix of precision differences with its label index.

    ``threshold_applied`` records the hard threshold used to zero small
    entries (0 when none was applied); after thresholding no entry may sit
    in (0, threshold].
    """

    matrix: np.ndarray
    labels: tuple = ()
    threshold_applied: float = 0.0

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"matrix must be square, got {m.shape}")
        p = m.shape[0]
        scale = max(1.0, float(np.abs(m).max()) if m.size else 0.0)
        if m.size and float(np.abs(m - m.T).max()) > 1e-10 * scale:
            raise ValueError("matrix must be symmetric")
        self._set_labels(p, ValueError)
        if self.threshold_applied < 0.0:
            raise ValueError("threshold_applied must be nonnegative")
        if self.threshold_applied > 0.0:
            absm = np.abs(m)
            bad = (absm > 0.0) & (absm <= self.threshold_applied)
            if bad.any():
                raise ValueError("entries at or below the threshold must be exactly zero")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def p(self) -> int:
        return self.matrix.shape[0]

    def entry(self, i, j) -> float:
        return float(self.matrix[self.index(i), self.index(j)])

    def zero_rows(self) -> frozenset:
        """Labels whose entire row is exactly zero."""
        mask = np.abs(self.matrix).max(axis=1) == 0.0 if self.p else np.array([])
        return frozenset(self.labels[i] for i in np.flatnonzero(mask))

    def nonzero_partners(self, label) -> list:
        i = self.index(label)
        return [self.labels[j] for j in np.flatnonzero(self.matrix[i, :]) if j != i]

    def support_size(self) -> int:
        return int(np.count_nonzero(self.matrix))

    def restrict(self, labels) -> "DeltaPrecision":
        keep, idx = self._select(labels)
        return DeltaPrecision(self.matrix[np.ix_(idx, idx)], keep, self.threshold_applied)

    def to_json(self) -> dict:
        return {
            "labels": list(self.labels),
            "matrix": [[float(v) for v in row] for row in self.matrix],
            "threshold": self.threshold_applied,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "DeltaPrecision":
        return cls(
            matrix=np.array(obj["matrix"], dtype=float),
            labels=tuple(obj.get("labels") or ()),
            threshold_applied=float(obj.get("threshold", 0.0)),
        )


@dataclass(frozen=True)
class EstimatorConfig:
    """Knobs of the constrained-l1 estimator.

    ``lambda_n`` is the constraint radius and ``epsilon`` the hard threshold
    on the estimate; both must be finite. With ``lambda_auto`` the radius is
    set instead to ``sqrt(log(2 p / 0.05) / min(n1, n2))``.
    """

    lambda_n: float = 0.0
    epsilon: float = 0.125
    lambda_auto: bool = False

    def __post_init__(self):
        if not 0.0 <= self.lambda_n < math.inf:
            raise ValueError(f"lambda_n must be finite and nonnegative, got {self.lambda_n!r}")
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and positive, got {self.epsilon!r}")

    @classmethod
    def from_json(cls, obj: dict) -> "EstimatorConfig":
        return cls(**obj)


def resolve_lambda(cov: CovariancePair, cfg: EstimatorConfig) -> EstimatorConfig:
    """``cfg`` with a fixed radius: the auto rule, if set, applied at cov's p.

    The auto radius is ``sqrt(log(2 p / delta) / n)`` with
    n = min(n1, n2) and confidence level delta = 0.05. Resolving once and
    reusing the result keeps one radius across the submatrix estimates of a
    pipeline run.
    """
    if not cfg.lambda_auto:
        return cfg
    n = min(cov.n1, cov.n2)
    if n < 1:
        raise ValueError("auto lambda needs positive sample counts")
    lam = math.sqrt(math.log(2.0 * cov.p / 0.05) / n)
    return replace(cfg, lambda_n=lam, lambda_auto=False)


def _exact_solve(s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """The unique X with s1 X s2 = s2 - s1, through Cholesky factors.

    Raises ``np.linalg.LinAlgError`` when either matrix is not positive
    definite.
    """
    c1 = sla.cho_factor(s1)
    c2 = sla.cho_factor(s2)
    return sla.cho_solve(c2, sla.cho_solve(c1, s2 - s1).T).T


def solve_population(cov: CovariancePair) -> DeltaPrecision:
    """Exact precision difference from positive-definite covariances.

    Solves Sigma1 X Sigma2 = Sigma2 - Sigma1, whose unique solution is
    Omega1 - Omega2. The result is not thresholded.
    """
    try:
        dm = _exact_solve(cov.sigma1, cov.sigma2)
    except np.linalg.LinAlgError:
        raise InvalidCovarianceError(
            "population solve requires positive-definite covariance matrices"
        ) from None
    return DeltaPrecision(_symmetrize(dm), cov.labels, 0.0)


class _FactoredProgram:
    """The program of the module docstring for one pair, in one HiGHS model.

    The model is built once and solves the program of any principal
    submatrix pair (S1_RR, S2_RR) by the bound changes the module docstring
    describes. The first solve starts from the module docstring's crash
    basis, which is valid and dual feasible under any of those bounds: they
    only fix nonbasic beta columns at 0 and free basic ranged rows. Each
    later solve starts from the last one's basis, and a solve that ends
    without an optimum drops it for the crash basis again.
    """

    def __init__(self, s1: np.ndarray, s2: np.ndarray, lambda_n: float):
        # Entry (i, j) sits at i + p j. The matrix is built from coordinates:
        # scipy's sparse kron and stacking cost more than a whole small solve.
        p = s1.shape[0]
        n = p * p
        i, j, k = np.indices((p, p, p)).reshape(3, -1)
        row = i + p * j
        # (S2' kron I) vec(M) = vec(M S2): row (i, j) holds S2[k, j] at column (i, k)
        col2, val2 = i + p * k + 2 * n, s2[k, j]
        # (I kron S1) vec(D) = vec(S1 D): row (i, j) holds S1[i, k] at column (k, j)
        col1, val1 = k + p * j, s1[i, k]
        diag = np.arange(n)
        a = sp.csc_array(
            (
                np.concatenate([val2, -val1, val1, np.ones(n)]),
                (
                    np.concatenate([row, row + n, row + n, diag + n]),
                    np.concatenate([col2, col1, col1 + n, diag + 2 * n]),
                ),
            ),
            shape=(2 * n, 3 * n),
        )
        b = (s2 - s1).flatten(order="F")
        self._lower = b - lambda_n
        self._upper = b + lambda_n
        self._live = np.ones(n, dtype=bool)
        self.p = p

        lp = HighsLp()
        lp.num_col_ = lp.a_matrix_.num_col_ = 3 * n
        lp.num_row_ = lp.a_matrix_.num_row_ = 2 * n
        lp.a_matrix_.format_ = MatrixFormat.kColwise
        lp.a_matrix_.start_ = a.indptr
        lp.a_matrix_.index_ = a.indices
        lp.a_matrix_.value_ = a.data
        lp.col_cost_ = np.concatenate([np.ones(2 * n), np.zeros(n)])
        lp.col_lower_ = np.concatenate([np.zeros(2 * n), np.full(n, -np.inf)])
        lp.col_upper_ = np.full(3 * n, np.inf)
        lp.row_lower_ = np.concatenate([self._lower, np.zeros(n)])
        lp.row_upper_ = np.concatenate([self._upper, np.zeros(n)])
        self._highs = _Highs()
        for name, value in (
            ("output_flag", False),
            ("simplex_strategy", SimplexStrategy.kSimplexStrategyDual),
            ("simplex_iteration_limit", MAX_ITER),
            ("ipm_iteration_limit", MAX_ITER),
            ("primal_feasibility_tolerance", SOLVER_TOL),
        ):
            self._highs.setOptionValue(name, value)
        if self._highs.passModel(lp) == HighsStatus.kError:
            raise ValueError("HiGHS rejected the constrained-l1 program")
        # the module docstring's crash basis: m and the ranged rows basic
        self._crash = HighsBasis()
        self._crash.valid = True
        self._crash.col_status = [HighsBasisStatus.kLower] * (2 * n) + [HighsBasisStatus.kBasic] * n
        self._crash.row_status = [HighsBasisStatus.kBasic] * n + [HighsBasisStatus.kLower] * n
        self._highs.setBasis(self._crash)

    def solve(self, index: np.ndarray) -> tuple[HighsModelStatus, np.ndarray | None]:
        """HiGHS's model status and, if optimal, the raw minimizer over R = index."""
        p = self.p
        n = p * p
        inside = np.zeros(p, dtype=bool)
        inside[index] = True
        live = np.outer(inside, inside).flatten(order="F")
        changed = np.flatnonzero(live != self._live)
        if changed.size:
            cols = np.concatenate([changed, changed + n]).astype(np.int32)
            upper = np.where(np.tile(live[changed], 2), np.inf, 0.0)
            self._highs.changeColsBounds(cols.size, cols, np.zeros(cols.size), upper)
            # the binding has changeRowBounds but no changeRowsBounds
            for r in changed.tolist():
                bounds = (self._lower[r], self._upper[r]) if live[r] else (-np.inf, np.inf)
                self._highs.changeRowBounds(r, *bounds)
            self._live = live
        self._highs.run()
        status = self._highs.getModelStatus()
        if status != HighsModelStatus.kOptimal:
            self._highs.setBasis(self._crash)
            return status, None
        x = np.asarray(self._highs.getSolution().col_value)
        raw = (x[:n] - x[n : 2 * n]).reshape((p, p), order="F")
        return status, raw[np.ix_(index, index)]


def dantzig_selector(
    sigma1: np.ndarray,
    sigma2: np.ndarray,
    lambda_n: float,
    *,
    within: tuple[CovariancePair, np.ndarray] | None = None,
) -> np.ndarray:
    """Raw minimizer of the constrained-l1 program, reshaped to p x p.

    Returns the solution before any symmetrization or thresholding. When zero
    is feasible it is returned outright (it has the smallest possible l1
    norm); when lambda_n is 0 and both matrices admit a Cholesky factor the
    feasible set is the singleton exact solution, which is computed directly.

    Otherwise the program is solved in HiGHS. ``within`` is
    ``(source, index)``, a restricted pair's ``_source``: a larger
    ``CovariancePair`` of which (sigma1, sigma2) is the principal submatrix
    at ``index``. The program over the source at this lambda_n is built on
    first use, kept on the source, and re-solved warm after the bound changes
    of the module docstring, which solve it exactly over (sigma1, sigma2).
    Without it a program over (sigma1, sigma2) is built and solved once.
    Either way the status mapping and the residual check apply to
    (sigma1, sigma2).
    """
    s1 = np.asarray(sigma1, dtype=float)
    s2 = np.asarray(sigma2, dtype=float)
    p = s1.shape[0]
    if not (np.isfinite(s1).all() and np.isfinite(s2).all()):
        raise ValueError("sigma1 and sigma2 must be finite")
    if lambda_n >= float(np.abs(s2 - s1).max()):
        return np.zeros((p, p))
    if lambda_n == 0.0:
        try:
            return _exact_solve(s1, s2)
        except np.linalg.LinAlgError:
            pass  # rank-deficient: fall through to the LP

    if within is None:
        program, index = _FactoredProgram(s1, s2, lambda_n), np.arange(p)
    else:
        source, index = within
        if lambda_n not in source._programs:
            source._programs[lambda_n] = _FactoredProgram(source.sigma1, source.sigma2, lambda_n)
        program = source._programs[lambda_n]
    status, delta = program.solve(index)
    if status in (HighsModelStatus.kInfeasible, HighsModelStatus.kModelError):
        raise InfeasibleEstimateError(
            f"constrained l1 program infeasible at lambda_n={lambda_n:g}; "
            "increase lambda_n (the empirical system is inconsistent)"
        )
    if delta is None:
        raise EstimatorConvergenceError(
            f"LP solver stopped early ({status.name}) at lambda_n={lambda_n:g}",
            best_residual=None,
        )
    residual = float(np.abs(s1 @ delta @ s2 - (s2 - s1)).max())
    if residual > lambda_n + 100.0 * SOLVER_TOL:
        raise EstimatorConvergenceError(
            f"LP solution violates the residual bound ({residual:g} > {lambda_n:g} + tol)",
            best_residual=residual,
        )
    return delta


def threshold(dp: DeltaPrecision, epsilon: float) -> DeltaPrecision:
    """Zero all entries with magnitude at or below epsilon (inclusive)."""
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and positive, got {epsilon!r}")
    m = dp.matrix.copy()
    m[np.abs(m) <= epsilon] = 0.0
    return DeltaPrecision(m, dp.labels, epsilon)


def estimate_dantzig(cov: CovariancePair, cfg: EstimatorConfig) -> DeltaPrecision:
    """Constrained-l1 estimate, symmetrized and hard-thresholded at epsilon."""
    lam = resolve_lambda(cov, cfg).lambda_n
    raw = dantzig_selector(cov.sigma1, cov.sigma2, lam, within=cov._source)
    return threshold(DeltaPrecision(_symmetrize(raw), cov.labels), cfg.epsilon)
