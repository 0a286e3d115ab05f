"""Population solver, constrained-l1 program and thresholding.

Oracles: direct matrix inversion for the population difference, inverses of
restricted covariances (Schur complements) for submatrices, the dense
Kronecker-lift LP for the factored constrained-l1 program, and a fresh
program per submatrix pair for restrictions re-solved on their source's
program.
"""

import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.optimize._highspy._core import HighsModelStatus

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
from helpers import perturb_sem, random_sem

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

    def test_entries_inside_threshold_rejected(self):
        m = np.array([[0.0, 0.05], [0.05, 0.0]])
        with pytest.raises(ValueError):
            DeltaPrecision(m, threshold_applied=0.1)

    def test_json_round_trip(self):
        dp = DeltaPrecision(np.array([[0.5, 0.0], [0.0, -0.3]]), (2, 7), 0.1)
        back = DeltaPrecision.from_json(dp.to_json())
        np.testing.assert_array_equal(back.matrix, dp.matrix)
        assert back.labels == dp.labels
        assert back.threshold_applied == dp.threshold_applied


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
        root = sem1.topological_order()[0]
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
        raw = dantzig_selector(cov.sigma1, cov.sigma2, lam, solver_tol=tol)
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

    def test_iteration_cap_raises_convergence_error(self):
        rng = np.random.default_rng(0)
        cov = CovariancePair.from_data(
            rng.standard_normal((40, 8)), rng.standard_normal((40, 8))
        )
        with pytest.raises(EstimatorConvergenceError, match="kIterationLimit"):
            dantzig_selector(cov.sigma1, cov.sigma2, 0.01, max_iter=1)

    def test_lambda_auto_requires_samples(self):
        _, _, cov = _population_pair(1, p=4)
        with pytest.raises(ValueError):
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
    """Support of the symmetrized estimate at the default epsilon 0.125."""
    return np.abs(raw + raw.T) / 2.0 > 0.125


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
    with pytest.raises(ValueError, match="finite"):
        dantzig_selector(np.eye(3), s2, 0.1)


def test_highs_binding_has_everything_the_program_uses():
    # scipy's HiGHS binding is private; this pins the names the persistent
    # program relies on, so a scipy that moves them fails here
    from scipy.optimize._highspy._core import HighsLp, HighsStatus, _Highs

    for method in (
        "setOptionValue", "passModel", "changeColsBounds", "changeRowBounds",
        "run", "getModelStatus", "getSolution", "clearSolver",
    ):
        assert callable(getattr(_Highs, method, None)), method
    highs = _Highs()
    for option in (
        "output_flag", "presolve", "simplex_strategy", "simplex_iteration_limit",
        "ipm_iteration_limit", "primal_feasibility_tolerance",
    ):
        assert highs.getOptionValue(option)[0] == HighsStatus.kOk, option
    lp = HighsLp()
    for field in ("num_col_", "num_row_", "col_cost_", "col_lower_", "col_upper_", "row_lower_", "row_upper_"):
        assert hasattr(lp, field), field
    for field in ("num_col_", "num_row_", "format_", "start_", "index_", "value_"):
        assert hasattr(lp.a_matrix_, field), field


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


def _assert_restrictions_match_fresh_solves(cov, raw_solves):
    """Every drop set of size 0-2, in prune's order, then one of them again.

    Each restriction goes through cov's program; each is compared with the
    estimate of a pair built from the same submatrices, which has no source
    and so solves a program of its own.
    """
    cfg = replace(DANTZIG, est_cfg=resolve_lambda(cov, DANTZIG.est_cfg))
    lam = cfg.est_cfg.lambda_n
    drops = [d for size in range(3) for d in itertools.combinations(cov.labels, size)]
    outcomes = []
    for drop in drops + [drops[len(drops) // 2]]:
        sub = cov.restrict(lab for lab in cov.labels if lab not in drop)
        fresh = CovariancePair(sub.sigma1, sub.sigma2, sub.n1, sub.n2, sub.labels)
        (got, got_raw), (ref, ref_raw) = (_estimate_with_raw(c, cfg, raw_solves) for c in (sub, fresh))
        outcomes.append(ref if isinstance(ref, type) else DeltaPrecision)
        if isinstance(ref, type):
            assert got is ref, drop
            continue
        assert isinstance(got, DeltaPrecision), drop
        l1_ref = np.abs(ref_raw).sum()
        assert abs(np.abs(got_raw).sum() - l1_ref) <= 1e-9 * max(l1_ref, 1e-12), drop
        b = (sub.sigma2 - sub.sigma1).flatten(order="F")
        resid = np.abs(np.kron(sub.sigma2, sub.sigma1) @ got_raw.flatten(order="F") - b).max()
        assert resid <= lam + 1e-7, drop
        np.testing.assert_array_equal(got.matrix != 0, ref.matrix != 0)
    assert list(cov._programs) == [(lam, cfg.est_cfg.solver_tol, cfg.est_cfg.max_iter)]
    return outcomes


def _estimate_with_raw(cov, cfg, raw_solves):
    """The estimate or the error class it raised, and the raw minimizer."""
    try:
        return estimate(cov, cfg), raw_solves[-1]
    except (InfeasibleEstimateError, EstimatorConvergenceError) as exc:
        return type(exc), None


@pytest.mark.parametrize("p", [5, 8, 12])
@pytest.mark.parametrize("n_rule", ["p+1", "2000"])
def test_restrictions_through_one_program_match_fresh_solves(p, n_rule, raw_solves):
    cov = _sampled_pair(p, p + 1 if n_rule == "p+1" else 2000)
    _assert_restrictions_match_fresh_solves(cov, raw_solves)


def test_program_recovers_after_an_infeasible_restriction(raw_solves):
    # vertex 0 is constant in the first sample, so S1's row 0 vanishes and
    # every restriction keeping vertex 0 is infeasible; those that drop it
    # must still match fresh solves after the failed ones
    outcomes = _assert_restrictions_match_fresh_solves(_sampled_pair(8, 2000, zero_vertex=0), raw_solves)
    assert outcomes[0] is InfeasibleEstimateError
    assert outcomes[1] is DeltaPrecision
    assert {InfeasibleEstimateError, DeltaPrecision} <= set(outcomes[2:])


def test_short_cut_restrictions_build_no_model():
    # zero is feasible at a huge radius, and lambda 0 with a Cholesky factor
    # is solved directly: neither reaches HiGHS, so the source keeps no model
    cov = _sampled_pair(5, 2000)
    sub = cov.restrict(cov.labels[1:])
    for lam in (1e6, 0.0):
        estimate(sub, replace(DANTZIG, est_cfg=EstimatorConfig(lambda_n=lam)))
    assert cov._programs == {}


def test_a_failed_solve_drops_the_basis():
    # after a non-optimal status the next solve starts cold, so it repeats a
    # new program's first solve of the same restriction bit for bit
    cov = _sampled_pair(8, 2000, zero_vertex=0)
    settings = (resolve_lambda(cov, DANTZIG.est_cfg).lambda_n, 1e-7, 50_000)
    program = estimators._FactoredProgram(cov.sigma1, cov.sigma2, *settings)
    checked, failed_before = 0, False
    for drop in (d for size in range(3) for d in itertools.combinations(range(8), size)):
        index = np.array([k for k in range(8) if k not in drop])
        status, raw = program.solve(index)
        if failed_before and status == HighsModelStatus.kOptimal:
            fresh = estimators._FactoredProgram(cov.sigma1, cov.sigma2, *settings)
            np.testing.assert_array_equal(raw, fresh.solve(index)[1])
            checked += 1
        failed_before = status != HighsModelStatus.kOptimal
    assert checked == 2


@pytest.mark.parametrize("p", [5, 8])
def test_program_has_one_ranged_row_per_entry(p):
    # 2 p^2 rows: one ranged row per entry of S1 D S2 and one equality row
    # per entry of m; p^3 nonzeros in the ranged block, 2 p^3 + p^2 in the
    # equality block
    cov = _sampled_pair(p, 2000)
    lam = resolve_lambda(cov, EstimatorConfig(lambda_auto=True)).lambda_n
    highs = estimators._FactoredProgram(cov.sigma1, cov.sigma2, lam, 1e-7, 50_000)._highs
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
