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
Kronecker lift S2 kron S1 is a dense (2 p^2) x (2 p^2) matrix.

The reshaped solution D is not symmetric. ``estimate_dantzig`` keeps, for
each pair, whichever of D_ij and D_ji is smaller in magnitude (their average
on a tie), the rule of CLIME (Cai, Liu & Luo 2011) and of the direct
differential-network estimator (Zhao, Cai & Li 2014); averaging would put a
pair with one zero entry in the support whenever the other exceeds 2 epsilon.
It then hard-thresholds at epsilon, since only entries clearly away from zero
should count as support. Neither rule gives a point feasible for the program:
over the 1849 solves that one pass of the ``sweep-dantzig`` benchmark pool
makes under averaging, the residual of the symmetrized D exceeds lambda_n by
up to 52.8 lambda_n with this rule and 20.6 lambda_n averaged. The theory
bounds the estimate's sup-norm error, not its residual, so the thresholded
estimate is an estimate of Omega1 - Omega2, not a solution of the program.

Dual simplex starts from a crash basis rather than HiGHS's slack basis: the
m columns and the ranged rows are basic, beta+- and the equality rows
nonbasic at their lower bounds. Ordered as (ranged rows, equality rows) by
(m, ranged slacks), its basis matrix is [[S2' kron I, I], [I, 0]]; it is
block triangular with identity blocks, so the basis is valid, and HiGHS is
told so (a basis that is not alien), which spares it a factorization to
check it. Every basic variable costs 0, so the duals are 0 and each beta
reduced cost is its cost 1 >= 0: the basis is dual feasible, and dual
simplex starts in phase 2 without the p^2 pivots that would bring the free
m columns into a slack basis. HiGHS skips presolve when it is given a basis.

The pipeline solves this program over many vertex subsets R of one pair:
once per peeled layer, and once per candidate set of common children in
prune. Each estimate passes the program over exactly the (S1_RR, S2_RR) it
is given to its thread's one HiGHS instance (scipy's bundled binding), where
it replaces the last model, and solves it once from the crash basis, so no
estimate depends on the ones before it. Where zero is feasible,
|S2 - S1| <= lambda_n, that basis (beta = 0, m = 0) is already optimal, and
HiGHS returns D = 0 exactly in 0 iterations. Per estimate only the matrix
values and row bounds are built; the rest depends only on |R| and is built
once per size. The instance and that cache pay even at the 148 solves of a
``sweep-dantzig`` pass (about 0.19 s on a 2-core host): a new instance per
solve, which costs 50-74 us to build and as much to destroy, made a pass
about 10 % slower, the structure built per estimate 5-10 %, and both 17 %.

The population solve needs numpy alone, and so does the rest of the package.
The program is solved by the HiGHS extension bundled with scipy, which
``_highs`` loads on the first ``dantzig_selector`` call: that one file, in
5-9 ms, and no scipy module besides. The package never imports
``scipy.optimize``, which would cost about 0.4 s and 37 MB per process on a
2-core host. The generator, ``check_assumptions``, the population pipeline
and the CLI commands that solve no program never load HiGHS either, and
``import diffdag`` takes about 0.16 s and 29 MB of peak RSS.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    EstimatorConvergenceError,
    InfeasibleEstimateError,
    InvalidCovarianceError,
)
from .sem import CovariancePair, _Config, _Labeled, _matrix, _real, _symmetrize

# HiGHS's primal feasibility tolerance, which also sets the slack of the
# residual check, and its simplex/IPM iteration limit.
SOLVER_TOL = 1e-7
MAX_ITER = 50_000
_THREAD = threading.local()  # .highs: the thread's one HiGHS instance
_CORE = "scipy.optimize._highspy._core"
_LOADING = threading.Lock()  # one thread loads the binding, the rest wait


def _highs():
    """scipy's bundled HiGHS binding (its private ``_core`` module).

    The one place that loads it. Only the extension file is loaded, in
    milliseconds: scipy's package directory is found without running scipy,
    and ``scipy.optimize`` is never imported. The module is registered under
    scipy's own name before it runs, so a later ``import scipy.optimize``
    reuses it instead of loading a second pybind11 copy, which would fail;
    one already imported is returned as it is. (scipy's import statements
    then find it, but the package attribute ``_highspy._core`` stays unset.)
    """
    with _LOADING:
        if _CORE in sys.modules:
            return sys.modules[_CORE]
        scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
        where = os.path.join(scipy_dir, "optimize", "_highspy")
        spec = importlib.machinery.PathFinder.find_spec(_CORE, [where])
        if spec is None:
            raise ImportError(f"scipy's HiGHS binding {_CORE} not found in {where}")
        core = sys.modules[_CORE] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(core)
        return core


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
        m = _matrix("matrix", self.matrix, ValueError, 1e-10)
        self._set_labels(m.shape[0], ValueError)
        if _real("threshold_applied", self.threshold_applied) > 0.0:
            absm = np.abs(m)
            bad = (absm > 0.0) & (absm <= self.threshold_applied)
            if bad.any():
                raise ValueError("entries at or below the threshold must be exactly zero")
        object.__setattr__(self, "matrix", m)

    def entry(self, i, j) -> float:
        return float(self.matrix[self.index(i), self.index(j)])

    def zero_rows(self) -> frozenset:
        """Labels whose entire row is exactly zero."""
        return frozenset(self.labels[i] for i in np.flatnonzero(~self.matrix.any(axis=1)))

    def nonzero_partners(self, label) -> list:
        i = self.index(label)
        return [self.labels[j] for j in np.flatnonzero(self.matrix[i, :]) if j != i]

    def support_size(self) -> int:
        return int(np.count_nonzero(self.matrix))

    def restrict(self, labels) -> "DeltaPrecision":
        keep, idx = self._select(labels)
        return self._derive(keep, matrix=self.matrix[np.ix_(idx, idx)])

    def to_json(self) -> dict:
        return {
            "labels": list(self.labels),
            "matrix": [[float(v) for v in row] for row in self.matrix],
            "threshold": self.threshold_applied,
        }


@dataclass(frozen=True)
class EstimatorConfig(_Config):
    """Knobs of the constrained-l1 estimator, read from JSON by ``from_json``.

    ``lambda_n`` is the constraint radius and ``epsilon`` the hard threshold
    on the estimate; both must be finite. With ``lambda_auto`` the radius is
    set instead to ``sqrt(log(2 p / 0.05) / min(n1, n2))``, so a positive
    ``lambda_n`` alongside it is rejected rather than dropped.
    """

    lambda_n: float = 0.0
    epsilon: float = 0.125
    lambda_auto: bool = False

    def __post_init__(self):
        _real("lambda_n", self.lambda_n)
        _real("epsilon", self.epsilon, positive=True)
        if not isinstance(self.lambda_auto, bool):
            raise ValueError(f"lambda_auto must be true or false, got {self.lambda_auto!r}")
        if self.lambda_auto and self.lambda_n > 0.0:
            raise ValueError(f"lambda_n={self.lambda_n!r} and lambda_auto both set the radius; set one")


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
        raise ValueError(f"auto lambda needs positive sample counts, got n1={cov.n1} and n2={cov.n2}")
    lam = math.sqrt(math.log(2.0 * cov.p / 0.05) / n)
    return replace(cfg, lambda_n=lam, lambda_auto=False)


def _exact_solve(s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """The unique X with s1 X s2 = s2 - s1, for symmetric s1 and s2.

    Raises ``np.linalg.LinAlgError`` when either matrix is not positive
    definite (it has no Cholesky factor).
    """
    np.linalg.cholesky(s1)
    np.linalg.cholesky(s2)
    return np.linalg.solve(s2, np.linalg.solve(s1, s2 - s1).T).T


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


@functools.lru_cache(maxsize=None)
def _structure(p: int) -> tuple:
    """The size-p program less its data, read-only: HiGHS's column-wise
    (start, index), the column costs, bounds and integrality, and the crash basis.

    Entry (i, j) sits at i + p j. Beta+- column (k, j) has equality rows
    n + i + p j; m column (i, k) has ranged rows i + p j, then equality row n + i + p k.
    """
    n = p * p
    ar = np.arange(p)
    # beta columns run over axes (j, k, i), m columns over (k, i, row)
    beta_rows = np.broadcast_to(n + ar + p * ar[:, None, None], (p, p, p)).ravel()
    m_rows = np.empty((p, p, p + 1), dtype=np.int32)
    m_rows[:, :, :p] = ar[:, None] + p * ar
    m_rows[:, :, p] = n + ar + p * ar[:, None]
    arrays = (
        np.concatenate([p * np.arange(2 * n), 2 * n * p + (p + 1) * np.arange(n + 1)]).astype(np.int32),
        np.concatenate([beta_rows, beta_rows, m_rows.ravel()]).astype(np.int32),
        np.concatenate([np.ones(2 * n), np.zeros(n)]),
        np.concatenate([np.zeros(2 * n), np.full(n, -np.inf)]),
        np.full(3 * n, np.inf),
        np.zeros(3 * n, dtype=np.int32),  # every column continuous
    )
    for a in arrays:
        a.setflags(write=False)
    core = _highs()
    crash = core.HighsBasis()  # the module docstring's; known valid, so not alien
    crash.valid, crash.alien = True, False
    basic, lower = core.HighsBasisStatus.kBasic, core.HighsBasisStatus.kLower
    crash.col_status = [lower] * (2 * n) + [basic] * n
    crash.row_status = [basic] * n + [lower] * n
    return *arrays, crash


def _program(s1: np.ndarray, s2: np.ndarray, lambda_n: float):
    """The program of the module docstring at its crash basis, in this thread's HiGHS.

    Only the matrix values and row bounds are built here: beta+- column (k, j)
    holds -+S1[:, k], and m column (i, k) holds S2[k, :], then a 1. The model
    replaces the thread's last one, and the options are set on every call, so
    MAX_ITER and SOLVER_TOL are read then.
    """
    p = s1.shape[0]
    n = p * p
    start, index, cost, col_lower, col_upper, integrality, crash = _structure(p)
    value = np.empty(3 * p**3 + n)
    value[: 2 * p**3].reshape(2, p, p, p)[:] = np.stack([-s1.T, s1.T])[:, None]
    m = value[2 * p**3 :].reshape(p, p, p + 1)
    m[:, :, :p] = s2[:, None, :]
    m[:, :, p] = 1.0
    b = (s2 - s1).flatten(order="F")
    core = _highs()
    if not hasattr(_THREAD, "highs"):
        _THREAD.highs = core._Highs()
    highs = _THREAD.highs
    for name, option in (
        ("output_flag", False),
        ("simplex_strategy", core.simplex_constants.SimplexStrategy.kSimplexStrategyDual),
        ("simplex_iteration_limit", MAX_ITER),
        ("ipm_iteration_limit", MAX_ITER),
        ("primal_feasibility_tolerance", SOLVER_TOL),
    ):
        highs.setOptionValue(name, option)
    status = highs.passModel(
        3 * n, 2 * n, value.size, core.MatrixFormat.kColwise, core.ObjSense.kMinimize, 0.0,
        cost, col_lower, col_upper, np.concatenate([b - lambda_n, np.zeros(n)]),
        np.concatenate([b + lambda_n, np.zeros(n)]), start, index, value, integrality,
    )
    if status == core.HighsStatus.kError:
        raise ValueError("HiGHS rejected the constrained-l1 program")
    highs.setBasis(crash)
    return highs


def dantzig_selector(sigma1: np.ndarray, sigma2: np.ndarray, lambda_n: float) -> np.ndarray:
    """Raw minimizer of the constrained-l1 program, reshaped to p x p.

    Returns the solution before any symmetrization or thresholding. When
    lambda_n is 0 and both matrices admit a Cholesky factor the feasible set
    is the singleton exact solution, which is computed directly.

    Otherwise the program over exactly (sigma1, sigma2) is built in the
    calling thread's HiGHS instance and solved once, from the crash basis.
    Where zero is feasible, |S2 - S1| <= lambda_n entrywise, that basis is
    already optimal, and HiGHS returns D = 0 exactly in 0 iterations.
    HiGHS's model status names a failure, and the residual check bounds
    each entry of |S1 D S2 - (S2 - S1)| by lambda_n plus 100 SOLVER_TOL
    times the larger of 1 and the entry's magnitude, |S1| |D| |S2| + |S2 - S1|.
    A bad radius, a matrix that ``sem._matrix`` rejects or two shapes that
    differ raise ``ValueError`` before HiGHS is called.

    The first call that builds a program loads scipy's HiGHS extension
    alone, in milliseconds (``_highs``); ``scipy.optimize`` is not imported,
    and a call that the exact solve answers loads nothing.
    """
    _real("lambda_n", lambda_n)
    s1, s2 = _matrix("sigma1", sigma1, ValueError), _matrix("sigma2", sigma2, ValueError)
    if s1.shape != s2.shape or not s1.size:
        raise ValueError("sigma1 and sigma2 must be non-empty and of one shape, "
                         f"got {s1.shape} and {s2.shape}")
    if lambda_n == 0.0:
        try:
            return _exact_solve(s1, s2)
        except np.linalg.LinAlgError:
            pass  # rank-deficient: fall through to the LP

    highs = _program(s1, s2, lambda_n)
    highs.run()
    status = highs.getModelStatus()
    model_status = _highs().HighsModelStatus
    if status in (model_status.kInfeasible, model_status.kModelError):
        raise InfeasibleEstimateError(
            f"constrained l1 program infeasible at lambda_n={lambda_n:g}; "
            "increase lambda_n (the empirical system is inconsistent)"
        )
    if status != model_status.kOptimal:
        raise EstimatorConvergenceError(f"LP solver stopped early ({status.name}) at lambda_n={lambda_n:g}")
    x = np.asarray(highs.getSolution().col_value)
    n = s1.size
    delta = (x[:n] - x[n : 2 * n]).reshape(s1.shape, order="F")
    # HiGHS meets SOLVER_TOL in its scaled model, so an entry's slack grows
    # with its magnitude; below magnitude 1 it stays 100 SOLVER_TOL
    residual = np.abs(s1 @ delta @ s2 - (s2 - s1))
    magnitude = np.abs(s1) @ np.abs(delta) @ np.abs(s2) + np.abs(s2 - s1)
    excess = residual - lambda_n - 100.0 * SOLVER_TOL * np.maximum(magnitude, 1.0)
    if not excess.max() <= 0.0:  # NaN fails too
        raise EstimatorConvergenceError(
            f"LP solution violates the residual bound "
            f"({residual.flat[excess.argmax()]:g} > {lambda_n:g} + tol)"
        )
    return delta


def threshold(dp: DeltaPrecision, epsilon: float) -> DeltaPrecision:
    """Zero all entries with magnitude at or below epsilon (inclusive)."""
    _real("epsilon", epsilon, positive=True)
    m = dp.matrix.copy()
    m[np.abs(m) <= epsilon] = 0.0
    return dp._derive(dp.labels, matrix=m, threshold_applied=epsilon)


def _smaller_magnitude(raw: np.ndarray) -> np.ndarray:
    """Symmetric: entry (i, j) is whichever of raw[i, j] and raw[j, i] has the
    smaller magnitude. On a tie it is their average, which is the common value
    when the signs agree and 0 when they differ, so the result does not depend
    on the order of the vertices."""
    a, at = np.abs(raw), np.abs(raw.T)
    return np.where(a < at, raw, np.where(a > at, raw.T, (raw + raw.T) / 2.0))


def estimate_dantzig(cov: CovariancePair, cfg: EstimatorConfig) -> DeltaPrecision:
    """Constrained-l1 estimate, symmetrized by the smaller-magnitude entry of
    each pair (``_smaller_magnitude``) and hard-thresholded at epsilon.

    The symmetrized estimate is in general not feasible for the program (see
    the module docstring), so it is not the program's solution.
    """
    lam = resolve_lambda(cov, cfg).lambda_n
    raw = dantzig_selector(cov.sigma1, cov.sigma2, lam)
    return threshold(DeltaPrecision(_smaller_magnitude(raw), cov.labels), cfg.epsilon)
