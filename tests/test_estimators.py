"""Population solver, constrained-l1 program and thresholding.

Oracles: direct matrix inversion for the population difference, inverses of
restricted covariances (Schur complements) for submatrices, the dense
Kronecker-lift LP for the factored constrained-l1 program, a pair built
fresh from the same submatrices for each restriction, and the program's
matrix built from coordinates through scipy.sparse for its array build.
"""

import importlib.machinery
import itertools
import json
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog
from scipy.optimize._highspy._core import HighsBasisStatus, HighsModelStatus, MatrixFormat

import diffdag as dd
from diffdag import (
    CovariancePair,
    DeltaPrecision,
    EstimatorConfig,
    EstimatorConvergenceError,
    InfeasibleEstimateError,
    PipelineConfig,
    estimate,
    estimate_dantzig,
    precision,
    solve_population,
    threshold,
)
from diffdag import estimators
from diffdag.estimators import dantzig_selector, resolve_lambda
from diffdag.experiments import _trial_seed
from helpers import perturb_sem, random_sem, topological_order

POP = PipelineConfig(estimator="population")


def _population_pair(seed, p=6, n_changes=2):
    rng = np.random.default_rng(seed)
    sem1 = random_sem(rng, p)
    sem2 = perturb_sem(rng, sem1, n_changes)
    return sem1, sem2, CovariancePair.from_sems(sem1, sem2)


class TestDeltaPrecisionType:
    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            DeltaPrecision(np.array([[0.0, 1.0], [0.5, 0.0]]))

    @pytest.mark.parametrize(
        "matrix",
        [[[np.nan, 0.0], [0.0, 1.0]], [[0.0, np.nan], [0.0, 1.0]], [[np.inf, 0.0], [0.0, 1.0]],
         [[0.0, -np.inf], [-np.inf, 0.0]]],
        ids=["nan", "asymmetric-nan", "inf", "-inf"],
    )
    def test_non_finite_entries_rejected_naming_the_matrix(self, matrix):
        # a NaN passes a symmetry check, and threshold would count it as support
        with pytest.raises(ValueError, match="matrix has non-finite entries"):
            DeltaPrecision(np.array(matrix))

    def test_entries_inside_threshold_rejected(self):
        m = np.array([[0.0, 0.05], [0.05, 0.0]])
        with pytest.raises(ValueError):
            DeltaPrecision(m, threshold_applied=0.1)

    @pytest.mark.parametrize("value, problem", [
        (float("nan"), "finite and non-negative, got nan"),
        (float("inf"), "finite and non-negative, got inf"),
        (True, "a real number, got True"),
    ], ids=["nan", "inf", "bool"])
    def test_non_finite_threshold_rejected(self, value, problem):
        # to_json would write NaN or Infinity, or true
        with pytest.raises(ValueError, match=f"threshold_applied must be {problem}"):
            DeltaPrecision(np.zeros((1, 1)), threshold_applied=value)

    def test_json_round_trip(self):
        dp = DeltaPrecision(np.array([[0.5, 0.0], [0.0, -0.3]]), (2, 7), 0.1)
        payload = {"labels": [2, 7], "matrix": [[0.5, 0.0], [0.0, -0.3]], "threshold": 0.1}
        assert dp.to_json() == json.loads(json.dumps(dp.to_json())) == payload


class TestSolvePopulation:
    def test_equal_covariances_give_zero(self):
        sem = random_sem(np.random.default_rng(0), 5)
        cov = CovariancePair.from_sems(sem, sem)
        dp = solve_population(cov)
        assert np.abs(dp.matrix).max() < 1e-12

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_direct_inversion(self, seed):
        sem1, sem2, cov = _population_pair(seed, p=8)
        oracle = np.linalg.inv(cov.sigma1) - np.linalg.inv(cov.sigma2)
        assert np.abs(solve_population(cov).matrix - oracle).max() < 1e-8

    @pytest.mark.parametrize("seed", range(10))
    def test_plug_back_residual(self, seed):
        _, _, cov = _population_pair(seed, p=7)
        dm = solve_population(cov).matrix
        resid = cov.sigma1 @ dm @ cov.sigma2 - (cov.sigma2 - cov.sigma1)
        assert np.abs(resid).max() < 1e-8

    def test_root_noise_scaling_localizes(self):
        # same B, noise scaled at a root vertex: the difference is confined to
        # that vertex's diagonal entry (a root has no parents to leak into)
        sem1 = random_sem(np.random.default_rng(13), 6)
        root = topological_order(sem1)[0]
        r = sem1.index(root)
        nv2 = np.array(sem1.noise_vars)
        nv2[r] *= 2.0
        sem2 = dd.Sem(sem1.b, nv2, sem1.labels)
        dm = solve_population(CovariancePair.from_sems(sem1, sem2)).matrix
        oracle = precision(sem1) - precision(sem2)
        np.testing.assert_allclose(dm, oracle, atol=1e-8)
        mask = np.zeros((6, 6), dtype=bool)
        mask[r, r] = True
        assert np.abs(dm[~mask]).max() < 1e-10
        assert abs(dm[r, r]) > 1e-3

    def test_not_positive_definite_raises(self):
        near_singular = np.eye(3)
        near_singular[2, 2] = 0.0
        with pytest.raises(dd.InvalidCovarianceError):
            solve_population(CovariancePair(near_singular, np.eye(3), n1=5, n2=5))


class TestSymmetrization:
    # estimate_dantzig keeps the smaller-magnitude entry of each pair;
    # solve_population, whose solves are symmetric to rounding, averages
    RAW = np.array([[0.0, 0.3], [0.0, 0.0]])

    @pytest.mark.parametrize("raw, off", [
        ([[0.0, 0.3], [0.0, 0.0]], 0.0),
        ([[0.0, -0.2], [0.4, 0.0]], -0.2),
        ([[0.0, 0.3], [0.3, 0.0]], 0.3),
        ([[0.0, 0.3], [-0.3, 0.0]], 0.0),
    ], ids=["one-zero", "smaller-kept-with-its-sign", "tie-same-sign", "tie-opposite-signs"])
    def test_smaller_magnitude_rule(self, raw, off):
        got = estimators._smaller_magnitude(np.array(raw))
        np.testing.assert_array_equal(got, [[0.0, off], [off, 0.0]])
        DeltaPrecision(got)  # symmetric, so a valid difference matrix

    def test_permuting_the_labels_permutes_the_result(self):
        rng = np.random.default_rng(3)
        raw = rng.standard_normal((6, 6))
        raw[1, 4], raw[4, 1] = 0.5, -0.5  # one tie of each kind
        raw[2, 3] = raw[3, 2] = -0.7
        perm = rng.permutation(6)
        got = estimators._smaller_magnitude(raw)
        moved = estimators._smaller_magnitude(raw[np.ix_(perm, perm)])
        np.testing.assert_array_equal(moved, got[np.ix_(perm, perm)])
        np.testing.assert_array_equal(got, got.T)

    def test_estimate_drops_a_pair_with_one_zero_entry(self, monkeypatch):
        # averaging would keep 0.15 > epsilon at (0, 1)
        monkeypatch.setattr(estimators, "dantzig_selector", lambda *args: self.RAW.copy())
        cov = CovariancePair(np.eye(2), 2.0 * np.eye(2), n1=50, n2=50)
        dp = estimate_dantzig(cov, EstimatorConfig(lambda_n=0.1, epsilon=0.125))
        assert dp.support_size() == 0

    def test_population_solve_still_averages(self, monkeypatch):
        monkeypatch.setattr(estimators, "_exact_solve", lambda s1, s2: self.RAW.copy())
        dp = solve_population(CovariancePair(np.eye(2), 2.0 * np.eye(2), n1=50, n2=50))
        np.testing.assert_array_equal(dp.matrix, [[0.0, 0.15], [0.15, 0.0]])


class TestDantzig:
    def test_population_lambda_zero_equals_exact_solution(self):
        _, _, cov = _population_pair(3, p=6)
        cfg = EstimatorConfig(lambda_n=0.0, epsilon=1e-9)
        dp = estimate_dantzig(cov, cfg)
        exact = solve_population(cov).matrix
        assert np.abs(dp.matrix - exact).max() < 1e-6

    def test_large_lambda_gives_exact_zero(self):
        _, _, cov = _population_pair(4, p=5)
        lam = float(np.abs(cov.sigma1 - cov.sigma2).max())
        dp = estimate_dantzig(cov, EstimatorConfig(lambda_n=lam))
        assert np.array_equal(dp.matrix, np.zeros((5, 5)))

    @pytest.mark.parametrize("seed", range(8))
    def test_feasibility_and_l1_optimality(self, seed):
        # population-derived instance: the true difference is feasible at any
        # lambda, so the solver's l1 value may not exceed the truth's
        sem1, sem2, cov = _population_pair(seed, p=5)
        truth = precision(sem1) - precision(sem2)
        lam = 0.05
        tol = 1e-7
        raw = dantzig_selector(cov.sigma1, cov.sigma2, lam)
        kron = np.kron(cov.sigma2, cov.sigma1)
        b = (cov.sigma2 - cov.sigma1).flatten(order="F")
        resid = np.abs(kron @ raw.flatten(order="F") - b).max()
        assert resid <= lam + tol
        assert np.abs(raw).sum() <= np.abs(truth).sum() + tol

    def test_l1_monotone_in_lambda(self):
        _, _, cov = _population_pair(11, p=5)
        norms = []
        for lam in (0.0, 0.05, 0.1, 0.2, 0.5, 1.0):
            raw = dantzig_selector(cov.sigma1, cov.sigma2, lam)
            norms.append(np.abs(raw).sum())
        assert all(b <= a + 1e-7 for a, b in zip(norms, norms[1:]))

    def test_infeasible_rank_deficient_system(self):
        s1 = np.diag([1.0, 0.0])
        s2 = np.diag([0.0, 1.0])
        with pytest.raises(InfeasibleEstimateError):
            dantzig_selector(s1, s2, 0.0)

    def test_iteration_cap_raises_convergence_error(self, monkeypatch):
        rng = np.random.default_rng(0)
        cov = CovariancePair.from_data(
            rng.standard_normal((40, 8)), rng.standard_normal((40, 8))
        )
        monkeypatch.setattr(estimators, "MAX_ITER", 1)
        with pytest.raises(EstimatorConvergenceError, match="kIterationLimit"):
            dantzig_selector(cov.sigma1, cov.sigma2, 0.01)

    @pytest.mark.parametrize("field", ["lambda_n", "epsilon"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_config_rejected_naming_the_value(self, field, value):
        with pytest.raises(ValueError, match=rf"{field} must be finite .*, got {value!r}"):
            EstimatorConfig(**{field: value})

    @pytest.mark.parametrize("field", ["lambda_n", "epsilon"])
    def test_bool_config_rejected_naming_the_field(self, field):
        # True would stand for 1.0
        with pytest.raises(ValueError, match=f"{field} must be a real number, got True"):
            EstimatorConfig(**{field: True})

    def test_numpy_reals_accepted(self):
        cfg = EstimatorConfig(lambda_n=np.float32(0.25), epsilon=np.float64(0.5))
        assert (cfg.lambda_n, cfg.epsilon) == (0.25, 0.5)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError, match="lambda_n must be finite and non-negative, got -0.5"):
            EstimatorConfig(lambda_n=-0.5)

    def test_fixed_radius_with_auto_radius_rejected(self):
        # the auto rule would drop the fixed radius without a word
        with pytest.raises(ValueError, match="lambda_n=0.5 and lambda_auto both set the radius"):
            EstimatorConfig(lambda_n=0.5, lambda_auto=True)
        assert EstimatorConfig(lambda_n=0.0, lambda_auto=True).lambda_auto

    def test_auto_radius_is_the_unscaled_rule(self):
        rng = np.random.default_rng(4)
        cov = CovariancePair.from_data(rng.standard_normal((50, 6)), rng.standard_normal((60, 6)))
        lam = resolve_lambda(cov, EstimatorConfig(lambda_auto=True)).lambda_n
        assert lam == math.sqrt(math.log(2 * 6 / 0.05) / 50)

    def test_lambda_auto_requires_samples(self):
        _, _, cov = _population_pair(1, p=4)
        with pytest.raises(ValueError):
            estimate_dantzig(cov, EstimatorConfig(lambda_auto=True))

    def test_lambda_auto_names_the_sample_counts(self):
        # one population matrix and one sampled: min(n1, n2) is 0
        _, _, pop = _population_pair(1, p=4)
        cov = CovariancePair(pop.sigma1, pop.sigma2, 0, 5)
        with pytest.raises(ValueError, match="auto lambda needs positive sample counts, got n1=0 and n2=5"):
            estimate_dantzig(cov, EstimatorConfig(lambda_auto=True))

    @pytest.mark.parametrize("seed", range(50))
    def test_support_recovery_at_generous_samples(self, seed, recovery_counter):
        # tallied across all 50 seeds; asserted once in the fixture finalizer
        sem1, sem2, _ = dd.generate_sem_pair(dd.SemPairGenConfig(p=5, seed=seed))
        x1 = dd.sample(sem1, 5000, np.random.default_rng((seed, 1)))
        x2 = dd.sample(sem2, 5000, np.random.default_rng((seed, 2)))
        cov = CovariancePair.from_data(x1, x2, sem1.labels)
        dp = estimate_dantzig(cov, EstimatorConfig(lambda_auto=True))
        truth = precision(sem1) - precision(sem2)
        recovery_counter.append(
            bool(((np.abs(truth) > 1e-10) == (dp.matrix != 0)).all())
        )


def _dense_kronecker_lp(s1, s2, lambda_n, solver_tol=1e-7, max_iter=50_000):
    """Reference: the constrained-l1 program over the dense Kronecker lift.

    Minimizes ||beta||_1 subject to |(S2 kron S1) beta - vec(S2 - S1)| <= lambda
    with beta = beta+ - beta-, the (2 p^2) x (2 p^2) form the factored LP
    replaces. Returns the p x p minimizer or raises like dantzig_selector.
    """
    p = s1.shape[0]
    n = p * p
    b = (s2 - s1).flatten(order="F")
    if lambda_n >= float(np.abs(b).max()):
        return np.zeros((p, p))
    kron = np.kron(s2, s1)
    res = linprog(
        np.ones(2 * n),
        A_ub=np.block([[kron, -kron], [-kron, kron]]),
        b_ub=np.concatenate([b + lambda_n, lambda_n - b]),
        bounds=(0.0, None),
        method="highs",
        options={"maxiter": max_iter, "primal_feasibility_tolerance": max(solver_tol, 1e-10)},
    )
    if res.status == 2:
        raise InfeasibleEstimateError("dense reference infeasible")
    if res.status != 0:
        raise EstimatorConvergenceError(f"dense reference stopped (status {res.status})")
    return (res.x[:n] - res.x[n:]).reshape((p, p), order="F")


def _outcome(solve, s1, s2, lam):
    try:
        return solve(s1, s2, lam)
    except (InfeasibleEstimateError, EstimatorConvergenceError) as exc:
        return type(exc)


def _support(raw):
    """Support of the estimate ``estimate_dantzig`` makes of raw, at the default epsilon 0.125."""
    return np.abs(estimators._smaller_magnitude(raw)) > 0.125


def _reference_cases():
    """(id, s1, s2, lambda) for population and sampled pairs at p = 3, 5, 8, 12."""
    cases = []
    for p in (3, 5, 8, 12):
        rng = np.random.default_rng(500 + p)
        sem1 = random_sem(rng, p, edge_prob=0.3)
        sem2 = perturb_sem(rng, sem1, 2)
        pop = CovariancePair.from_sems(sem1, sem2)
        top = float(np.abs(pop.sigma2 - pop.sigma1).max())
        cases.append((f"p{p}-population-lam0.05", pop.sigma1, pop.sigma2, 0.05))
        cases.append((f"p{p}-population-below-max", pop.sigma1, pop.sigma2, 0.99 * top))
        for n in (p + 1, 2000):
            x1 = dd.sample(sem1, n, np.random.default_rng((p, n, 1)))
            x2 = dd.sample(sem2, n, np.random.default_rng((p, n, 2)))
            cov = CovariancePair.from_data(x1, x2)
            lam = resolve_lambda(cov, EstimatorConfig(lambda_auto=True)).lambda_n
            top = float(np.abs(cov.sigma2 - cov.sigma1).max())
            cases.append((f"p{p}-n{n}-auto", cov.sigma1, cov.sigma2, lam))
            cases.append((f"p{p}-n{n}-below-max", cov.sigma1, cov.sigma2, 0.99 * top))
        # singular S1 at lambda 0: no Cholesky shortcut, and S1 D = I - S1 has
        # no solution, so both forms must report infeasibility
        singular = np.diag(np.r_[np.ones(p - 1), 0.0])
        cases.append((f"p{p}-singular-lam0", singular, np.eye(p), 0.0))
    return cases


_CASES = _reference_cases()


@pytest.mark.parametrize("case", _CASES, ids=[c[0] for c in _CASES])
def test_factored_lp_matches_dense_kronecker_reference(case):
    _, s1, s2, lam = case
    tol = 1e-7
    got = _outcome(dantzig_selector, s1, s2, lam)
    ref = _outcome(_dense_kronecker_lp, s1, s2, lam)
    if isinstance(ref, type):
        assert got is ref
        return
    assert isinstance(got, np.ndarray)
    l1_ref = np.abs(ref).sum()
    assert abs(np.abs(got).sum() - l1_ref) <= 1e-9 * max(l1_ref, 1e-12)
    b = (s2 - s1).flatten(order="F")
    resid = np.abs(np.kron(s2, s1) @ got.flatten(order="F") - b).max()
    assert resid <= lam + tol
    np.testing.assert_array_equal(_support(got), _support(ref))


def test_lp_memory_stays_below_the_dense_lift():
    # the dense LP block [[K, -K], [-K, K]] over K = S2 kron S1 is 32 p^4
    # bytes (26 MB at p = 30) before the solver copies it; the factored
    # blocks hold O(p^3) entries
    rng = np.random.default_rng(30)
    sem1 = random_sem(rng, 30, edge_prob=0.1)
    sem2 = perturb_sem(rng, sem1, 3)
    cov = CovariancePair.from_data(
        dd.sample(sem1, 2000, np.random.default_rng(1)),
        dd.sample(sem2, 2000, np.random.default_rng(2)),
    )
    lam = resolve_lambda(cov, EstimatorConfig(lambda_auto=True)).lambda_n
    tracemalloc.start()
    try:
        dantzig_selector(cov.sigma1, cov.sigma2, lam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MB inside dantzig_selector"


def test_non_finite_matrices_rejected_before_the_solver():
    s2 = 2.0 * np.eye(3)
    s2[0, 1] = s2[1, 0] = np.nan
    with pytest.raises(ValueError, match=re.escape("sigma2 has non-finite entries (NaN or inf)")):
        dantzig_selector(np.eye(3), s2, 0.1)


def _no_program(*args):
    raise AssertionError("a HiGHS program was built")


@pytest.mark.parametrize("lam", [-0.1, float("nan"), float("inf")], ids=["negative", "nan", "inf"])
def test_bad_radius_rejected_before_the_solver(lam, monkeypatch):
    monkeypatch.setattr(estimators, "_program", _no_program)
    with pytest.raises(ValueError, match=rf"lambda_n must be finite and non-negative, got {lam!r}"):
        dantzig_selector(np.eye(3), 2.0 * np.eye(3), lam)


def test_bool_radius_rejected_before_the_solver(monkeypatch):
    monkeypatch.setattr(estimators, "_program", _no_program)
    with pytest.raises(ValueError, match="lambda_n must be a real number, got True"):
        dantzig_selector(np.eye(3), 2.0 * np.eye(3), True)


@pytest.mark.parametrize(
    ("shape1", "shape2", "message"),
    [
        ((4, 4), (3, 3), "sigma1 and sigma2 must be non-empty and of one shape, got (4, 4) and (3, 3)"),
        ((0, 0), (0, 0), "sigma1 and sigma2 must be non-empty and of one shape, got (0, 0) and (0, 0)"),
        ((3, 4), (3, 4), "sigma1 must be square, got (3, 4)"),
        ((3,), (3,), "sigma1 must be square, got (3,)"),
        ((3, 3), (3, 4), "sigma2 must be square, got (3, 4)"),
    ],
    ids=["mismatched", "empty", "non-square", "one-dimensional", "second-non-square"],
)
def test_bad_shapes_rejected_before_the_solver(shape1, shape2, message, monkeypatch):
    # sem._matrix checks each matrix; dantzig_selector only that they match
    monkeypatch.setattr(estimators, "_program", _no_program)
    with pytest.raises(ValueError, match=re.escape(message)):
        dantzig_selector(np.ones(shape1), 2.0 * np.ones(shape2), 0.1)


@pytest.mark.parametrize("p", [20, 25, 30])
def test_badly_scaled_pairs_solve(p):
    # the n = 2000 pair of the fixed-n trial at (p, rep 0), as perfbench's
    # pipeline-large draws it, with variable 0 scaled by 1000 and variable 3
    # by 1/1000 (covariances D S D). HiGHS meets its tolerance in its scaled
    # model; a flat slack of 100 SOLVER_TOL rejects the p = 25 and 30 solves
    seed = _trial_seed(0, p, 0, 0)
    sem1, sem2, _ = dd.generate_sem_pair(dd.SemPairGenConfig(p=p, seed=seed))
    cov = CovariancePair.from_data(dd.sample(sem1, 2000, np.random.default_rng((seed, 1))),
                                   dd.sample(sem2, 2000, np.random.default_rng((seed, 2))))
    d = np.ones(p)
    d[0], d[3] = 1e3, 1e-3
    s1, s2 = cov.sigma1 * np.outer(d, d), cov.sigma2 * np.outer(d, d)
    lam = resolve_lambda(cov, EstimatorConfig(lambda_auto=True)).lambda_n
    raw = dantzig_selector(s1, s2, lam)
    assert np.abs(s1 @ raw @ s2 - (s2 - s1)).max() <= 1.001 * lam


class _Reports:
    """A program that reports an optimum at ``x`` without solving."""

    def __init__(self, x):
        self.x = x

    def run(self):
        pass

    def getModelStatus(self):
        return HighsModelStatus.kOptimal

    def getSolution(self):
        return SimpleNamespace(col_value=self.x)


@pytest.mark.parametrize(("past", "raises"), [(-0.01, False), (0.01, True)], ids=["inside", "past"])
def test_residual_bound_on_a_unit_scale_entry(past, raises, monkeypatch):
    # the solver reports a D whose residual is zero but at (0, 0), which sits
    # 1 % of lambda inside or past that entry's bound, lambda + 100 SOLVER_TOL
    s1 = 0.25 * np.array([[1.0, 0.2], [0.2, 1.0]])
    s2 = 0.25 * np.array([[1.5, 0.1], [0.1, 1.0]])
    lam = 0.01
    e = np.zeros((2, 2))
    e[0, 0] = lam + 100.0 * estimators.SOLVER_TOL + past * lam
    delta = np.linalg.solve(s1, s2 - s1 + e) @ np.linalg.inv(s2)
    magnitude = np.abs(s1) @ np.abs(delta) @ np.abs(s2) + np.abs(s2 - s1)
    assert magnitude[0, 0] < 1.0  # a unit-scale entry: the slack is not widened
    x = np.concatenate([np.maximum(delta, 0.0).ravel(order="F"),
                        np.maximum(-delta, 0.0).ravel(order="F"), np.zeros(4)])
    monkeypatch.setattr(estimators, "_program", lambda *args: _Reports(x))
    if raises:
        with pytest.raises(EstimatorConvergenceError, match="violates the residual bound"):
            dantzig_selector(s1, s2, lam)
    else:
        np.testing.assert_allclose(dantzig_selector(s1, s2, lam), delta)


def test_highs_binding_has_everything_the_program_uses():
    # scipy's HiGHS binding is private; this pins the names the program and
    # these tests rely on, so a scipy that moves them fails here
    core = estimators._highs()
    assert core.HighsModelStatus is HighsModelStatus and core.HighsBasisStatus is HighsBasisStatus
    HighsBasis, HighsStatus, _Highs = core.HighsBasis, core.HighsStatus, core._Highs
    MatrixFormat, ObjSense = core.MatrixFormat, core.ObjSense
    assert hasattr(core.simplex_constants.SimplexStrategy, "kSimplexStrategyDual")
    for method in (
        "setOptionValue", "passModel", "setBasis", "getBasis", "run", "getModelStatus",
        "getSolution", "getInfo", "getLp", "clearSolver",
    ):
        assert callable(getattr(_Highs, method, None)), method
    highs = _Highs()
    for option in (
        "output_flag", "simplex_strategy", "simplex_iteration_limit",
        "ipm_iteration_limit", "primal_feasibility_tolerance",
    ):
        assert highs.getOptionValue(option)[0] == HighsStatus.kOk, option
    for field in ("valid", "alien", "col_status", "row_status"):
        assert hasattr(HighsBasis(), field), field
    for status in ("kBasic", "kLower"):
        assert hasattr(HighsBasisStatus, status), status
    # the array overload: sizes, format, sense, offset, column and row
    # bounds, the column-wise matrix and the integrality; here min x
    # subject to 1 <= 2 x <= 3
    one, two = np.ones(1), np.array([2.0])
    status = highs.passModel(
        1, 1, 1, MatrixFormat.kColwise, ObjSense.kMinimize, 0.0, one, np.zeros(1),
        np.full(1, np.inf), one, 3 * one, np.array([0, 1], dtype=np.int32),
        np.zeros(1, dtype=np.int32), two, np.zeros(1, dtype=np.int32),
    )
    assert status == HighsStatus.kOk
    assert (highs.getNumCol(), highs.getNumRow(), highs.getNumNz()) == (1, 1, 1)
    highs.run()
    assert highs.getModelStatus() == HighsModelStatus.kOptimal
    assert list(highs.getSolution().col_value) == [0.5]


def test_a_missing_highs_binding_names_the_directory_searched(monkeypatch):
    monkeypatch.delitem(sys.modules, "scipy.optimize._highspy._core")
    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec", lambda *args: None)
    where = re.escape(os.path.join("scipy", "optimize", "_highspy"))
    with pytest.raises(ImportError, match=f"_highspy._core not found in .*{where}$"):
        estimators._highs()


_SCIPY_ONLY_FOR_THE_PROGRAM = """
import sys
sys.path.insert(0, sys.argv[1])
import numpy as np
import diffdag as dd
from diffdag import cli
from diffdag.estimators import dantzig_selector

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

sem1, sem2, _ = dd.generate_sem_pair(dd.SemPairGenConfig(p=6, seed=1))
assert dd.check_assumptions(sem1, sem2, 0.125).passed
cov = dd.CovariancePair.from_sems(sem1, sem2)
dd.run_pipeline(cov, dd.PipelineConfig(estimator="population"))
assert cli.main(["bound", "--p", "10", "--d", "2"]) == 0
assert not scipy_modules(), scipy_modules()
# at radius 0 the exact solve answers, and no program is built
assert np.array_equal(dantzig_selector(np.eye(3), 2.0 * np.eye(3), 0.0), 0.5 * np.eye(3))
assert not scipy_modules(), scipy_modules()
# zero is feasible at this radius: the program is solved from the crash
# basis in 0 iterations
assert not dantzig_selector(np.eye(3), 2.0 * np.eye(3), 1.0).any()
assert "scipy.optimize._highspy._core" in sys.modules, scipy_modules()
"""

# argv: the package's parent directory, then an output path. Runs a
# constrained-l1 pipeline and writes one estimate_dantzig matrix, after
# importing scipy.optimize first when FIRST says so
_HIGHS_LOAD = """
import sys
sys.path.insert(0, sys.argv[1])
import diffdag as dd
from diffdag import estimators

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

if FIRST:
    import scipy.optimize
    assert estimators._highs() is sys.modules["scipy.optimize._highspy._core"]
sem1, sem2, _ = dd.generate_sem_pair(dd.SemPairGenConfig(p=6, seed=29))
cov = dd.CovariancePair.from_data(dd.sample(sem1, 1000, seed=1), dd.sample(sem2, 1000, seed=2))
cfg = dd.EstimatorConfig(lambda_auto=True)
dd.run_pipeline(cov, dd.PipelineConfig(estimator="dantzig", est_cfg=cfg))
estimators.estimate_dantzig(cov, cfg).matrix.tofile(sys.argv[2])
if not FIRST:
    loaded = scipy_modules()
    assert "scipy.optimize._highspy._core" in loaded, loaded
    for name in ("scipy", "scipy.optimize", "scipy.linalg", "scipy.sparse"):
        assert name not in loaded, loaded
    # scipy's own import reuses the loaded binding: no second pybind11 copy
    import scipy.optimize
    import scipy.optimize._highspy._core as core
    assert core is estimators._highs()
    x = scipy.optimize.linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0], method="highs").x
    assert list(x) == [1.0, 0.0], x
"""


def test_scipy_loads_only_with_the_first_dantzig_selector_call(tmp_path):
    src = str(Path(estimators.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", _SCIPY_ONLY_FOR_THE_PROGRAM, src],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    # loaded alone, the binding is scipy's module under scipy's name; loaded
    # after scipy.optimize, it is the module scipy loaded; both solve alike
    written = []
    for first in (False, True):
        out = tmp_path / f"first-{first}.bin"
        run = subprocess.run(
            [sys.executable, "-c", f"FIRST = {first}\n{_HIGHS_LOAD}", src, str(out)],
            capture_output=True, text=True, timeout=120,
        )
        assert run.returncode == 0, run.stderr
        written.append(out.read_bytes())
    assert written[0] == written[1] and np.frombuffer(written[0]).reshape(6, 6).any()


# argv: the package's parent directory. Eight threads make the process's
# first _highs calls at once, and building the module waits 50 ms, so
# without the lock each thread would build it (overlapping first loads of
# the extension can return a module that lacks its names)
_HIGHS_THREADS = """
import importlib.util, sys, threading, time
sys.path.insert(0, sys.argv[1])
from diffdag import estimators

build, builds = importlib.util.module_from_spec, []

def slow_build(spec):
    builds.append(spec.name)
    time.sleep(0.05)
    return build(spec)

importlib.util.module_from_spec = slow_build
barrier, loaded = threading.Barrier(8), []

def load():
    barrier.wait()
    loaded.append(estimators._highs())

threads = [threading.Thread(target=load) for _ in range(8)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(60)
assert not any(thread.is_alive() for thread in threads)
assert len(loaded) == 8 and len(builds) == 1, (loaded, builds)
assert all(core is sys.modules["scipy.optimize._highspy._core"] for core in loaded)
assert loaded[0].HighsModelStatus.kOptimal is not None
"""


def test_threads_that_load_the_highs_binding_at_once_share_one_module():
    src = str(Path(estimators.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", _HIGHS_THREADS, src],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


DANTZIG = PipelineConfig(estimator="dantzig", est_cfg=EstimatorConfig(lambda_auto=True))


@pytest.fixture
def raw_solves(monkeypatch):
    """Every raw minimizer dantzig_selector returns during the test, in order."""
    seen = []
    real = estimators.dantzig_selector

    def spy(*args, **kwargs):
        seen.append(real(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(estimators, "dantzig_selector", spy)
    return seen


def _sampled_pair(p, n, zero_vertex=None):
    rng = np.random.default_rng(700 + p)
    sem1 = random_sem(rng, p, edge_prob=0.3)
    sem2 = perturb_sem(rng, sem1, 2)
    x1 = dd.sample(sem1, n, np.random.default_rng((p, n, 1)))
    x2 = dd.sample(sem2, n, np.random.default_rng((p, n, 2)))
    if zero_vertex is not None:
        x1[:, zero_vertex] = 0.0
    return CovariancePair.from_data(x1, x2)


def _raw_or_error(cov, cfg, raw_solves):
    """The raw minimizer of cov's estimate, or the error class it raised."""
    try:
        estimate(cov, cfg)
    except (InfeasibleEstimateError, EstimatorConvergenceError) as exc:
        return type(exc)
    return raw_solves[-1]


@pytest.mark.parametrize(
    ("p", "n_rule", "zero_vertex"),
    [(p, n_rule, None) for p in (5, 8, 12) for n_rule in ("p+1", "2000")] + [(8, "2000", 0)],
)
def test_estimates_do_not_depend_on_earlier_solves(p, n_rule, zero_vertex, raw_solves):
    # prune's drop-sets of size 0-2, forward and then reversed: each
    # restriction gives bit for bit the raw minimizer, or the error class, of
    # a pair built fresh from the same submatrices. With zero_vertex, vertex 0
    # is constant in the first sample, so S1's row 0 vanishes and every
    # restriction keeping vertex 0 is infeasible.
    cov = _sampled_pair(p, p + 1 if n_rule == "p+1" else 2000, zero_vertex)
    cfg = replace(DANTZIG, est_cfg=resolve_lambda(cov, DANTZIG.est_cfg))
    drops = [d for size in range(3) for d in itertools.combinations(range(p), size)]
    first = {}
    for drop in drops + drops[::-1]:
        idx = np.array([k for k in range(p) if k not in drop])
        sub = cov.restrict(cov.labels[k] for k in idx)
        fresh = CovariancePair(
            cov.sigma1[np.ix_(idx, idx)], cov.sigma2[np.ix_(idx, idx)], cov.n1, cov.n2, sub.labels
        )
        got, ref = (_raw_or_error(c, cfg, raw_solves) for c in (sub, fresh))
        first.setdefault(drop, got)
        for other in (ref, first[drop]):
            if isinstance(other, type):
                assert got is other, drop
            else:
                np.testing.assert_array_equal(got, other, err_msg=str(drop))
    if zero_vertex is not None:
        assert first[()] is InfeasibleEstimateError
        assert isinstance(first[(0,)], np.ndarray)


def test_no_failed_solve_leaves_state_for_the_next(monkeypatch):
    # a solve stopped by the iteration cap, an infeasible solve and a
    # rejected radius, each followed by a solve that must equal the first
    cov = _sampled_pair(8, 2000)
    lam = resolve_lambda(cov, DANTZIG.est_cfg).lambda_n
    first = dantzig_selector(cov.sigma1, cov.sigma2, lam)
    rng = np.random.default_rng(0)
    capped = CovariancePair.from_data(rng.standard_normal((40, 8)), rng.standard_normal((40, 8)))
    empty = _sampled_pair(8, 2000, zero_vertex=0)

    def cap():
        with monkeypatch.context() as m, pytest.raises(EstimatorConvergenceError, match="kIterationLimit"):
            m.setattr(estimators, "MAX_ITER", 1)
            dantzig_selector(capped.sigma1, capped.sigma2, 0.01)

    def infeasible():
        with pytest.raises(InfeasibleEstimateError):
            dantzig_selector(empty.sigma1, empty.sigma2, resolve_lambda(empty, DANTZIG.est_cfg).lambda_n)

    def rejected():
        with pytest.raises(ValueError, match="lambda_n"):
            dantzig_selector(cov.sigma1, cov.sigma2, -0.1)

    for fail in (cap, infeasible, rejected):
        fail()
        np.testing.assert_array_equal(dantzig_selector(cov.sigma1, cov.sigma2, lam), first, err_msg=fail.__name__)


def test_consecutive_estimates_reuse_the_thread_s_highs(monkeypatch):
    cov = _sampled_pair(6, 2000)
    cfg = replace(DANTZIG, est_cfg=resolve_lambda(cov, DANTZIG.est_cfg))
    built = []
    real = estimators._program
    monkeypatch.setattr(estimators, "_program", lambda *args: built.append(real(*args)) or built[-1])
    for labels in (cov.labels, cov.labels[1:]):
        estimate(cov.restrict(labels), cfg)
    other = threading.Thread(target=estimate, args=(cov, cfg))
    other.start()
    other.join(timeout=60)
    assert not other.is_alive()
    assert len(built) == 3
    assert built[0] is built[1]
    assert built[2] is not built[0]


def _reference_arrays(s1, s2):
    """The program's matrix built from coordinates through scipy.sparse, as
    column-wise (start, index, value) without explicit zeros, which HiGHS
    drops from the matrix it is passed."""
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
    a.eliminate_zeros()
    return a.indptr, a.indices, a.data


@pytest.mark.parametrize("p", [1, 2, 5, 8])
@pytest.mark.parametrize("zero_vertex", [None, 0])
def test_array_build_matches_the_coordinate_build(p, zero_vertex):
    # the model HiGHS holds: zero_vertex leaves explicit zeros in S1, which
    # HiGHS drops; the ranged rows run b -+ lambda, the equality rows 0
    cov = _sampled_pair(p, 2000, zero_vertex)
    lam = resolve_lambda(cov, DANTZIG.est_cfg).lambda_n
    lp = estimators._program(cov.sigma1, cov.sigma2, lam).getLp()
    a = lp.a_matrix_
    assert a.format_ == MatrixFormat.kColwise
    got = (a.start_, a.index_, a.value_)
    for name, g, ref in zip(("start", "index", "value"), got, _reference_arrays(cov.sigma1, cov.sigma2)):
        np.testing.assert_array_equal(g, ref, err_msg=name)
    n = p * p
    b = (cov.sigma2 - cov.sigma1).flatten(order="F")
    np.testing.assert_array_equal(lp.row_lower_, np.concatenate([b - lam, np.zeros(n)]))
    np.testing.assert_array_equal(lp.row_upper_, np.concatenate([b + lam, np.zeros(n)]))
    np.testing.assert_array_equal(lp.col_cost_, np.repeat([1.0, 0.0], [2 * n, n]))
    np.testing.assert_array_equal(lp.col_lower_, np.repeat([0.0, -np.inf], [2 * n, n]))
    np.testing.assert_array_equal(lp.col_upper_, np.full(3 * n, np.inf))
    assert all(x.dtype == np.int32 for x in estimators._structure(p)[:2])


@pytest.mark.parametrize("case", ["at the largest entry", "above it", "equal matrices", "zero row"])
def test_the_crash_basis_is_optimal_where_zero_is_feasible(case):
    # beta = 0 and m = 0 hold every ranged row when |S2 - S1| <= lambda_n, so
    # the crash basis is optimal: HiGHS returns zero, sign bits included,
    # without a pivot
    cov = _sampled_pair(8, 2000, zero_vertex=0 if case == "zero row" else None)
    s1, s2 = cov.sigma1, cov.sigma1 if case == "equal matrices" else cov.sigma2
    largest = float(np.abs(s2 - s1).max())
    lam = {
        "at the largest entry": largest,
        "above it": 2.0 * largest,
        "equal matrices": resolve_lambda(cov, DANTZIG.est_cfg).lambda_n,
        "zero row": largest,
    }[case]
    raw = dantzig_selector(s1, s2, lam)
    assert raw.dtype == np.float64 and raw.tobytes() == np.zeros((8, 8)).tobytes()
    highs = estimators._program(s1, s2, lam)
    highs.run()
    assert highs.getModelStatus() == HighsModelStatus.kOptimal
    assert highs.getInfo().simplex_iteration_count == 0


def _raw(highs, p):
    x = np.asarray(highs.getSolution().col_value)
    return (x[: p * p] - x[p * p : 2 * p * p]).reshape((p, p), order="F")


def test_a_new_program_holds_the_crash_basis():
    # m columns and ranged rows basic; beta+-, equality rows at their lower bounds
    p = 5
    n = p * p
    cov = _sampled_pair(p, 2000)
    lam = resolve_lambda(cov, DANTZIG.est_cfg).lambda_n
    basis = estimators._program(cov.sigma1, cov.sigma2, lam).getBasis()
    assert basis.valid
    assert basis.col_status == [HighsBasisStatus.kLower] * (2 * n) + [HighsBasisStatus.kBasic] * n
    assert basis.row_status == [HighsBasisStatus.kBasic] * n + [HighsBasisStatus.kLower] * n


@pytest.mark.parametrize("p", [5, 10, 20])
@pytest.mark.parametrize("n_rule", ["p+1", "2000"])
def test_the_crash_start_matches_a_cold_start_in_fewer_iterations(p, n_rule):
    # a new program's first solve starts from the crash basis; clearSolver
    # drops every basis, so the re-solve starts cold, with HiGHS's presolve
    # and slack basis
    cov = _sampled_pair(p, p + 1 if n_rule == "p+1" else 2000)
    lam = resolve_lambda(cov, DANTZIG.est_cfg).lambda_n
    highs = estimators._program(cov.sigma1, cov.sigma2, lam)
    runs = []
    for _ in range(2):
        highs.run()
        runs.append((highs.getModelStatus(), _raw(highs, p), highs.getInfo().simplex_iteration_count))
        highs.clearSolver()
    (crash_status, crash, crash_iters), (cold_status, cold, cold_iters) = runs
    assert crash_status == cold_status == HighsModelStatus.kOptimal
    l1_cold = np.abs(cold).sum()
    assert abs(np.abs(crash).sum() - l1_cold) <= 1e-9 * l1_cold
    supports = [threshold(DeltaPrecision(estimators._smaller_magnitude(raw), cov.labels), 0.125).matrix != 0
                for raw in (crash, cold)]
    np.testing.assert_array_equal(*supports)
    assert crash_iters < cold_iters


@pytest.mark.parametrize("p", [5, 8])
def test_program_has_one_ranged_row_per_entry(p):
    # 2 p^2 rows: one ranged row per entry of S1 D S2 and one equality row
    # per entry of m; p^3 nonzeros in the ranged block, 2 p^3 + p^2 in the
    # equality block
    cov = _sampled_pair(p, 2000)
    lam = resolve_lambda(cov, EstimatorConfig(lambda_auto=True)).lambda_n
    highs = estimators._program(cov.sigma1, cov.sigma2, lam)
    assert highs.getNumCol() == 3 * p**2
    assert highs.getNumRow() == 2 * p**2
    assert highs.getNumNz() == 3 * p**3 + p**2


@pytest.fixture(scope="module")
def recovery_counter(request):
    hits: list[bool] = []
    yield hits

    def check():
        assert len(hits) == 50
        rate = sum(hits) / len(hits)
        assert rate >= 0.9, f"support recovery rate {rate:.2f} below 0.9"

    request.addfinalizer(check)


class TestEstimateSubmatrix:
    def test_full_subset_equals_full_estimate(self):
        _, _, cov = _population_pair(5, p=6)
        full = estimate(cov, POP)
        sub = estimate(cov.restrict(set(cov.labels)), POP)
        np.testing.assert_allclose(sub.matrix, full.matrix, atol=1e-12)
        assert sub.labels == full.labels

    @pytest.mark.parametrize("seed", range(4))
    def test_exhaustive_subsets_match_restricted_inverse_oracle(self, seed):
        from itertools import combinations

        sem1, sem2, cov = _population_pair(seed, p=6)
        labels = cov.labels
        for size in range(1, 7):
            for subset in combinations(labels, size):
                idx = [cov.index(lab) for lab in subset]
                oracle = np.linalg.inv(cov.sigma1[np.ix_(idx, idx)]) - np.linalg.inv(
                    cov.sigma2[np.ix_(idx, idx)]
                )
                got = estimate(cov.restrict(subset), POP)
                assert np.abs(got.matrix - oracle).max() < 1e-8

    @pytest.mark.parametrize("seed", range(4))
    def test_sampled_subsets_at_larger_dimension(self, seed):
        rng = np.random.default_rng(400 + seed)
        _, _, cov = _population_pair(seed, p=8)
        for _ in range(15):
            size = int(rng.integers(1, 9))
            subset = set(rng.choice(cov.labels, size=size, replace=False).tolist())
            idx = sorted(cov.index(lab) for lab in subset)
            oracle = np.linalg.inv(cov.sigma1[np.ix_(idx, idx)]) - np.linalg.inv(
                cov.sigma2[np.ix_(idx, idx)]
            )
            got = estimate(cov.restrict(subset), POP)
            assert np.abs(got.matrix - oracle).max() < 1e-8

    def test_singleton_subset(self):
        _, _, cov = _population_pair(6, p=5)
        lab = cov.labels[2]
        got = estimate(cov.restrict({lab}), POP)
        i = cov.index(lab)
        expected = 1.0 / cov.sigma1[i, i] - 1.0 / cov.sigma2[i, i]
        assert got.matrix.shape == (1, 1)
        assert abs(got.matrix[0, 0] - expected) < 1e-10

    def test_unknown_label_raises(self):
        _, _, cov = _population_pair(7, p=4)
        with pytest.raises(KeyError):
            estimate(cov.restrict({99}), POP)


class TestThreshold:
    def test_all_below_gives_zero_matrix(self):
        dp = DeltaPrecision(np.full((3, 3), 0.01) - 0.01 * np.eye(3) + 0.02 * np.eye(3))
        out = threshold(dp, 0.5)
        assert np.array_equal(out.matrix, np.zeros((3, 3)))

    def test_boundary_entry_is_zeroed(self):
        dp = DeltaPrecision(np.array([[0.0, 0.2], [0.2, 0.0]]))
        out = threshold(dp, 0.2)
        assert np.array_equal(out.matrix, np.zeros((2, 2)))
        assert out.threshold_applied == 0.2

    def test_mixed_matrix(self):
        dp = DeltaPrecision(np.array([[0.3, 0.1], [0.1, -0.5]]))
        out = threshold(dp, 0.2)
        np.testing.assert_array_equal(out.matrix, np.array([[0.3, 0.0], [0.0, -0.5]]))

    def test_nonpositive_epsilon_rejected(self):
        dp = DeltaPrecision(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            threshold(dp, 0.0)

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_epsilon_rejected_naming_it(self, epsilon):
        dp = DeltaPrecision(np.array([[0.3, 0.1], [0.1, -0.5]]))
        with pytest.raises(ValueError, match=f"epsilon must be finite and positive, got {epsilon!r}"):
            threshold(dp, epsilon)

    def test_bool_epsilon_rejected(self):
        dp = DeltaPrecision(np.array([[0.3, 0.1], [0.1, -0.5]]))
        with pytest.raises(ValueError, match="epsilon must be a real number, got True"):
            threshold(dp, True)
