"""Estimation of the difference between two SEM precision matrices.

The population identity Sigma1 (Omega1 - Omega2) Sigma2 = Sigma2 - Sigma1
means the difference solves a linear system without ever forming either dense
precision matrix. The finite-sample estimator is a Dantzig-selector-type
program over p x p matrices D: minimize ||D||_1 subject to

    max |S1 D S2 - (S2 - S1)| <= lambda_n   (entrywise).

It is solved as a sparse linear program in the factored form: D is split
into nonnegative parts beta+ and beta-, and M = S1 D is a free auxiliary
variable, so

    vec(M) - (I kron S1)(beta+ - beta-) = 0,
    vec(S2 - S1) - lambda_n <= (S2' kron I) vec(M) <= vec(S2 - S1) + lambda_n.

Each block has p^3 nonzeros (2 p^3 for the equality rows), where the same
program written over the Kronecker lift S2 kron S1 is a dense
(2 p^2) x (2 p^2) matrix. The reshaped solution is symmetrized and
hard-thresholded, since only entries clearly away from zero should count as
support.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.optimize import linprog

from .errors import (
    DiffDagError,
    EstimatorConvergenceError,
    InfeasibleEstimateError,
    InvalidCovarianceError,
)
from .sem import CovariancePair, _symmetrize


@dataclass(frozen=True, eq=False)
class DeltaPrecision:
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
        labels = tuple(self.labels) if len(self.labels) else tuple(range(p))
        if len(labels) != p or len(set(labels)) != p:
            raise ValueError("labels must be unique and match the dimension")
        if self.threshold_applied < 0.0:
            raise ValueError("threshold_applied must be nonnegative")
        if self.threshold_applied > 0.0:
            absm = np.abs(m)
            bad = (absm > 0.0) & (absm <= self.threshold_applied)
            if bad.any():
                raise ValueError("entries at or below the threshold must be exactly zero")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_index", {lab: k for k, lab in enumerate(labels)})

    @property
    def p(self) -> int:
        return self.matrix.shape[0]

    def index(self, label) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(f"unknown vertex label {label!r}") from None

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
        wanted = set(labels)
        keep = [lab for lab in self.labels if lab in wanted]
        missing = wanted - set(keep)
        if missing:
            raise KeyError(f"unknown vertex labels {sorted(missing, key=repr)!r}")
        idx = [self.index(lab) for lab in keep]
        return DeltaPrecision(
            self.matrix[np.ix_(idx, idx)], tuple(keep), self.threshold_applied
        )

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

    With ``lambda_auto`` the constraint radius is set to
    ``lambda_scale * sqrt(log(2 p / lambda_delta) / min(n1, n2))``; the scale
    is exposed because the theory pins it only up to an instance-dependent
    constant.
    """

    lambda_n: float = 0.0
    epsilon: float = 0.125
    lambda_auto: bool = False
    lambda_scale: float = 1.0
    lambda_delta: float = 0.05
    solver_tol: float = 1e-7
    max_iter: int = 50_000

    def __post_init__(self):
        if self.lambda_n < 0.0:
            raise ValueError("lambda_n must be nonnegative")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        if self.solver_tol <= 0.0:
            raise ValueError("solver_tol must be positive")
        if self.lambda_scale <= 0.0:
            raise ValueError("lambda_scale must be positive")
        if not 0.0 < self.lambda_delta < 1.0:
            raise ValueError("lambda_delta must lie strictly between 0 and 1")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")

    @classmethod
    def from_json(cls, obj: dict) -> "EstimatorConfig":
        return cls(**obj)


def resolve_lambda(cov: CovariancePair, cfg: EstimatorConfig) -> EstimatorConfig:
    """``cfg`` with a fixed radius: the auto rule, if set, applied at cov's p.

    The auto radius is ``lambda_scale * sqrt(log(2 p / lambda_delta) / n)``
    with n = min(n1, n2). Resolving once and reusing the result keeps one
    radius across the submatrix estimates of a pipeline run.
    """
    if not cfg.lambda_auto:
        return cfg
    n = min(cov.n1, cov.n2)
    if n < 1:
        raise ValueError("auto lambda needs positive sample counts")
    lam = cfg.lambda_scale * math.sqrt(math.log(2.0 * cov.p / cfg.lambda_delta) / n)
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


def dantzig_selector(
    sigma1: np.ndarray,
    sigma2: np.ndarray,
    lambda_n: float,
    solver_tol: float = 1e-7,
    max_iter: int = 50_000,
) -> np.ndarray:
    """Raw minimizer of the constrained-l1 program, reshaped to p x p.

    Returns the solution before any symmetrization or thresholding. When zero
    is feasible it is returned outright (it has the smallest possible l1
    norm); when lambda_n is 0 and both matrices admit a Cholesky factor the
    feasible set is the singleton exact solution, which is computed directly.
    """
    s1 = np.asarray(sigma1, dtype=float)
    s2 = np.asarray(sigma2, dtype=float)
    p = s1.shape[0]
    b = (s2 - s1).flatten(order="F")
    if lambda_n >= float(np.abs(b).max()):
        return np.zeros((p, p))
    if lambda_n == 0.0:
        try:
            return _exact_solve(s1, s2)
        except np.linalg.LinAlgError:
            pass  # rank-deficient: fall through to the LP

    # Variables [beta+, beta-, m], m = vec(S1 D) free. vec is column-major,
    # so entry (i, j) sits at i + p j. The blocks are built from coordinates:
    # scipy's sparse kron and stacking cost more than the whole solve at the
    # small p that prune asks for.
    n = p * p
    i, j, k = np.indices((p, p, p)).reshape(3, -1)
    row = i + p * j
    # (I kron S1) vec(D) = vec(S1 D): row (i, j) holds S1[i, k] at column (k, j)
    col1, val1 = k + p * j, s1[i, k]
    # (S2' kron I) vec(M) = vec(M S2): row (i, j) holds S2[k, j] at column (i, k)
    col2, val2 = i + p * k, s2[k, j]
    diag = np.arange(n)
    a_eq = sp.csr_array(
        (
            np.concatenate([-val1, val1, np.ones(n)]),
            (np.concatenate([row, row, diag]), np.concatenate([col1, col1 + n, diag + 2 * n])),
        ),
        shape=(n, 3 * n),
    )
    a_ub = sp.csr_array(
        (np.concatenate([val2, -val2]), (np.concatenate([row, row + n]), np.tile(col2 + 2 * n, 2))),
        shape=(2 * n, 3 * n),
    )
    b_ub = np.concatenate([b + lambda_n, lambda_n - b])
    cost = np.concatenate([np.ones(2 * n), np.zeros(n)])
    bounds = np.array([(0.0, np.inf)] * (2 * n) + [(-np.inf, np.inf)] * n)
    res = linprog(
        cost,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=np.zeros(n),
        bounds=bounds,
        method="highs",
        options={"maxiter": max_iter, "primal_feasibility_tolerance": max(solver_tol, 1e-10)},
    )
    if res.status == 2:
        raise InfeasibleEstimateError(
            f"constrained l1 program infeasible at lambda_n={lambda_n:g}; "
            "increase lambda_n (the empirical system is inconsistent)"
        )
    delta = residual = None
    if res.x is not None:
        delta = (res.x[:n] - res.x[n : 2 * n]).reshape((p, p), order="F")
        residual = float(np.abs(s1 @ delta @ s2 - (s2 - s1)).max())
    if res.status in (1, 4) or delta is None:
        raise EstimatorConvergenceError(
            f"LP solver stopped early (status {res.status}) at lambda_n={lambda_n:g}",
            best_residual=residual,
        )
    if res.status != 0:
        raise DiffDagError(f"unexpected LP status {res.status}")
    if residual > lambda_n + 100.0 * solver_tol:
        raise EstimatorConvergenceError(
            f"LP solution violates the residual bound ({residual:g} > {lambda_n:g} + tol)",
            best_residual=residual,
        )
    return delta


def threshold(dp: DeltaPrecision, epsilon: float) -> DeltaPrecision:
    """Zero all entries with magnitude at or below epsilon (inclusive)."""
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    m = dp.matrix.copy()
    m[np.abs(m) <= epsilon] = 0.0
    return DeltaPrecision(m, dp.labels, epsilon)


def estimate_dantzig(cov: CovariancePair, cfg: EstimatorConfig) -> DeltaPrecision:
    """Constrained-l1 estimate, symmetrized and hard-thresholded at epsilon."""
    lam = resolve_lambda(cov, cfg).lambda_n
    raw = dantzig_selector(cov.sigma1, cov.sigma2, lam, cfg.solver_tol, cfg.max_iter)
    return threshold(DeltaPrecision(_symmetrize(raw), cov.labels), cfg.epsilon)


@dataclass(frozen=True)
class IncoherenceReport:
    """Advisory constants governing when the constrained-l1 program is sharp.

    ``k_o_max`` is the largest off-diagonal magnitude of the Kronecker lift
    Sigma2 kron Sigma1, i.e. the maximum of |Sigma1_ij * Sigma2_kl| over index
    quadruples other than (i==j and k==l). ``k_d_min`` is the smallest
    matching-diagonal product. The reported inequality compares k_o_max
    against lambda_min(Sigma1) * lambda_min(Sigma2) / (2 * nnz(delta)).
    """

    k_o_max: float
    k_d_min: float
    lambda_min_1: float
    lambda_min_2: float
    delta_l0: int
    bound: float
    inequality_holds: bool

    def to_dict(self) -> dict:
        return {
            "k_o_max": self.k_o_max,
            "k_d_min": self.k_d_min,
            "lambda_min_1": self.lambda_min_1,
            "lambda_min_2": self.lambda_min_2,
            "delta_l0": self.delta_l0,
            "bound": self.bound if math.isfinite(self.bound) else None,
            "inequality_holds": self.inequality_holds,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def incoherence_diagnostics(cov: CovariancePair, dp: DeltaPrecision) -> IncoherenceReport:
    """Advisory incoherence constants for a covariance pair and an estimate."""
    a1 = np.abs(cov.sigma1)
    a2 = np.abs(cov.sigma2)
    p = cov.p
    off = ~np.eye(p, dtype=bool)
    off1 = float(a1[off].max()) if p > 1 else 0.0
    off2 = float(a2[off].max()) if p > 1 else 0.0
    k_o_max = max(off1 * float(a2.max()), float(np.diag(a1).max()) * off2)
    k_d_min = float((np.diag(cov.sigma1) * np.diag(cov.sigma2)).min())
    lam1 = float(np.linalg.eigvalsh(cov.sigma1).min())
    lam2 = float(np.linalg.eigvalsh(cov.sigma2).min())
    nnz = dp.support_size()
    bound = math.inf if nnz == 0 else lam1 * lam2 / (2.0 * nnz)
    return IncoherenceReport(
        k_o_max=k_o_max,
        k_d_min=k_d_min,
        lambda_min_1=lam1,
        lambda_min_2=lam2,
        delta_l0=nnz,
        bound=bound,
        inequality_holds=bool(k_o_max <= bound),
    )
