"""Model invariants, second-moment formulas, sampling, and the generator.

Covers the closed-form covariance/precision of small hand-built models, the
Monte-Carlo and law-of-large-numbers checks at a million draws, and the
rejection-sampling guarantees of the random pair generator (brute-force
precision differences as the oracle). The generator's block draws are checked
bit for bit against the scalar loop they replaced, kept here as
``_reference_generate``.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

import diffdag as dd
from diffdag import (
    CovariancePair,
    DagEdgeSet,
    GenerationExhaustedError,
    InvalidCovarianceError,
    InvalidModelError,
    Sem,
    SemPairGenConfig,
    covariance,
    difference_edge_set,
    generate_sem_pair,
    precision,
    sample,
)
from diffdag.estimators import DeltaPrecision
from diffdag.oracles import check_assumptions
from diffdag.sem import ZERO_TOL, _output_order, _write_json
from helpers import random_sem, topological_order


class TestSemInvariants:
    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(InvalidModelError):
            Sem(np.array([[0.1, 0.0], [0.0, 0.0]]), np.ones(2))

    def test_cycle_rejected(self):
        b = np.array([[0.0, 0.5], [0.5, 0.0]])
        with pytest.raises(InvalidModelError):
            Sem(b, np.ones(2))

    def test_nonpositive_noise_rejected(self):
        with pytest.raises(InvalidModelError):
            Sem(np.zeros((2, 2)), np.array([1.0, 0.0]))
        with pytest.raises(InvalidModelError):
            Sem(np.zeros((2, 2)), np.array([1.0, -1.0]))

    def test_arrays_are_read_only(self):
        sem = Sem(np.zeros((2, 2)), np.ones(2))
        with pytest.raises(ValueError):
            sem.b[0, 1] = 1.0

    def test_unknown_label_is_named(self):
        sem = Sem(np.zeros((2, 2)), np.ones(2), labels=("a", "b"))
        assert sem.index("b") == 1
        with pytest.raises(KeyError) as info:
            sem.index("z")
        assert info.value.args == ("unknown vertex label 'z'",)

    def test_difference_of_models_with_different_labels_rejected(self):
        sem = Sem(np.zeros((2, 2)), np.ones(2))
        relabeled = Sem(np.zeros((2, 2)), np.ones(2), labels=("a", "b"))
        with pytest.raises(InvalidModelError, match="^SEMs must share labels to take a difference$"):
            difference_edge_set(sem, relabeled)

    def test_topological_order_parents_first(self):
        # 0 <- 1 <- 2: parents before children means (2, 1, 0)
        b = np.zeros((3, 3))
        b[0, 1] = 0.5
        b[1, 2] = 0.5
        sem = Sem(b, np.ones(3))
        assert topological_order(sem) == (2, 1, 0)


class TestDagEdgeSet:
    def test_endpoint_outside_vertices_rejected(self):
        with pytest.raises(InvalidModelError):
            DagEdgeSet(vertices=frozenset({0, 1}), edges=frozenset({(0, 2)}))

    def test_cycle_rejected(self):
        with pytest.raises(InvalidModelError):
            DagEdgeSet(vertices=frozenset({0, 1}), edges=frozenset({(0, 1), (1, 0)}))

    def test_edge_that_is_not_a_pair_rejected_naming_it(self):
        with pytest.raises(InvalidModelError, match=r"^edge \(0, 1, 2\) is not a pair$"):
            DagEdgeSet(vertices=frozenset({0, 1, 2}), edges=frozenset({(0, 1, 2)}))

    def test_self_loop_rejected_naming_the_vertex(self):
        with pytest.raises(InvalidModelError, match="^self-loop at 1$"):
            DagEdgeSet(vertices=frozenset({0, 1}), edges=frozenset({(1, 1)}))

    def test_max_degree_counts_incident_edges(self):
        es = DagEdgeSet(vertices=frozenset(range(4)), edges=frozenset({(0, 1), (2, 1)}))
        assert es.max_degree() == 2
        assert DagEdgeSet(vertices=frozenset(range(4)), edges=frozenset()).max_degree() == 0


class TestCovariance:
    def test_no_edges_identity(self):
        sem = Sem(np.zeros((3, 3)), np.ones(3))
        np.testing.assert_allclose(covariance(sem), np.eye(3))

    def test_two_vertex_chain_closed_form(self):
        b = 0.7
        m = np.zeros((2, 2))
        m[1, 0] = b
        sem = Sem(m, np.ones(2))
        expected = np.array([[1.0, b], [b, 1.0 + b * b]])
        np.testing.assert_allclose(covariance(sem), expected, atol=1e-12)

    def test_monte_carlo_agreement(self):
        sem = random_sem(np.random.default_rng(7), p=5)
        data = sample(sem, 1_000_000, seed=42)
        emp = CovariancePair.from_data(data, data).sigma1
        assert np.abs(emp - covariance(sem)).max() < 1e-2


class TestPrecision:
    def test_diagonal_model(self):
        nv = np.array([0.5, 2.0, 1.25])
        sem = Sem(np.zeros((3, 3)), nv)
        np.testing.assert_allclose(precision(sem), np.diag(1.0 / nv))

    def test_two_vertex_chain_closed_form(self):
        b = -0.4
        m = np.zeros((2, 2))
        m[1, 0] = b
        sem = Sem(m, np.ones(2))
        expected = np.array([[1.0 + b * b, -b], [-b, 1.0]])
        np.testing.assert_allclose(precision(sem), expected, atol=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_precision_times_covariance_is_identity(self, seed):
        sem = random_sem(np.random.default_rng(seed), p=8)
        prod = precision(sem) @ covariance(sem)
        assert np.abs(prod - np.eye(8)).max() < 1e-10


class TestSample:
    def test_deterministic_given_seed(self):
        sem = random_sem(np.random.default_rng(3), p=4)
        a = sample(sem, 5, seed=11)
        b = sample(sem, 5, seed=11)
        c = sample(sem, 5, seed=12)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_single_row_finite(self):
        sem = random_sem(np.random.default_rng(0), p=6)
        row = sample(sem, 1, seed=0)
        assert row.shape == (1, 6)
        assert np.isfinite(row).all()

    def test_law_of_large_numbers(self):
        sem = random_sem(np.random.default_rng(5), p=5)
        data = sample(sem, 1_000_000, seed=5)
        emp = CovariancePair.from_data(data, data).sigma1
        assert np.abs(emp - covariance(sem)).max() < 1e-2

    @pytest.mark.parametrize("n, message", [
        (2.5, "n must be an integer, got 2.5"),
        (True, "n must be an integer, got True"),
        (0, "n must be at least 1, got 0"),
    ], ids=["fraction", "bool", "zero"])
    def test_bad_sample_count_rejected_naming_it(self, n, message):
        sem = random_sem(np.random.default_rng(0), p=3)
        with pytest.raises(ValueError, match=message):
            sample(sem, n, seed=0)


class TestEmpiricalCovariance:
    # CovariancePair.from_data's uncentered second moments (1/n) X^T X
    def test_mean_of_row_outer_products(self):
        data = np.array([[1.5, -2.0, 0.5], [0.0, 1.0, 2.0], [-1.0, 0.5, 0.0]])
        expected = sum(np.outer(row, row) for row in data) / 3
        np.testing.assert_allclose(CovariancePair.from_data(data, data).sigma1, expected)

    def test_two_basis_rows(self):
        data = np.array([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(CovariancePair.from_data(data, data).sigma1, 0.5 * np.eye(2))

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(1)
        cov = CovariancePair.from_data(rng.standard_normal((17, 6)), rng.standard_normal((9, 6)))
        for emp in (cov.sigma1, cov.sigma2):
            assert np.array_equal(emp, emp.T)


# Every labeled type checks its labels alike: (constructor at p with the
# given labels, the error class it raises).
LABELED = [
    (lambda p, labels: CovariancePair(np.eye(p), np.eye(p), labels=labels), InvalidCovarianceError),
    (lambda p, labels: Sem(np.zeros((p, p)), np.ones(p), labels), InvalidModelError),
    (lambda p, labels: DeltaPrecision(np.zeros((p, p)), labels), ValueError),
]
LABELED_IDS = ["CovariancePair", "Sem", "DeltaPrecision"]


class TestCovariancePair:
    def test_population_requires_positive_definite(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
        with pytest.raises(InvalidCovarianceError):
            CovariancePair(bad, np.eye(2))

    def test_asymmetric_rejected(self):
        m = np.array([[1.0, 0.5], [0.1, 1.0]])
        with pytest.raises(InvalidCovarianceError):
            CovariancePair(m, np.eye(2), n1=10, n2=10)

    @pytest.mark.parametrize("name", ["n1", "n2"])
    def test_a_zero_count_requires_its_matrix_positive_definite(self, name):
        # a zero count marks its matrix as population-exact, whatever the
        # other count is; the sampled matrix need only be symmetric
        singular = np.ones((2, 2))
        sigma = "sigma" + name[-1]
        counts = {"n1": 5, "n2": 5, name: 0}
        with pytest.raises(InvalidCovarianceError, match=rf"population {sigma} \({name}=0\) must be positive definite"):
            CovariancePair(**{"sigma1": np.eye(2), "sigma2": np.eye(2), sigma: singular}, **counts)
        other = {"sigma1": "sigma2", "sigma2": "sigma1"}[sigma]
        assert CovariancePair(**{sigma: np.eye(2), other: singular}, **counts).p == 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_rejected_naming_the_matrix(self, bad):
        m = np.eye(2)
        m[0, 1] = m[1, 0] = bad
        with pytest.raises(InvalidCovarianceError, match="sigma2"):
            CovariancePair(np.eye(2), m, n1=10, n2=10)
        x = np.ones((5, 2))
        x[3, 0] = bad
        with pytest.raises(InvalidCovarianceError, match="sigma1"):
            CovariancePair.from_data(x, np.ones((5, 2)))

    @pytest.mark.parametrize("name", ["n1", "n2"])
    def test_fewer_samples_than_variables_rejected_naming_the_count(self, name):
        counts = {"n1": 10, "n2": 10, name: 2}
        with pytest.raises(InvalidCovarianceError, match=f"{name}=2 samples"):
            CovariancePair(np.eye(3), np.eye(3), **counts)

    @pytest.mark.parametrize("name", ["n1", "n2"])
    @pytest.mark.parametrize("value, message", [
        (3.5, "must be an integer, got 3.5"),
        (True, "must be an integer, got True"),
        (-1, "must be at least 0, got -1"),
    ], ids=["fraction", "bool", "negative"])
    def test_bad_sample_count_rejected_naming_it(self, name, value, message):
        # the auto radius divides by the count
        counts = {"n1": 10, "n2": 10, name: value}
        with pytest.raises(ValueError, match=f"{name} {message}"):
            CovariancePair(np.eye(3), np.eye(3), **counts)

    def test_from_data_with_fewer_rows_than_columns_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidCovarianceError, match="n1=6 samples"):
            CovariancePair.from_data(rng.standard_normal((6, 10)), rng.standard_normal((20, 10)))

    def test_sample_count_equal_to_p_and_population_pairs_accepted(self):
        assert CovariancePair(np.eye(3), np.eye(3), n1=3, n2=3).p == 3
        population = CovariancePair(np.eye(3), np.eye(3))
        assert (population.n1, population.n2) == (0, 0)

    def test_restrict_keeps_a_valid_sample_count(self):
        cov = CovariancePair(np.eye(4), np.eye(4), n1=4, n2=4)
        assert cov.restrict({0, 2}).n1 == 4

    def test_restrict_preserves_label_order(self):
        sem = random_sem(np.random.default_rng(2), p=5)
        cov = CovariancePair.from_sems(sem, sem)
        sub = cov.restrict({3, 1})
        assert sub.labels == (1, 3)
        idx = [1, 3]
        np.testing.assert_array_equal(sub.sigma1, cov.sigma1[np.ix_(idx, idx)])

    @pytest.mark.parametrize("make, error", LABELED, ids=LABELED_IDS)
    def test_label_count_mismatch_gives_both_counts(self, make, error):
        with pytest.raises(error, match="2 labels for p=3 variables"):
            make(3, ("a", "b"))

    @pytest.mark.parametrize("make, error", LABELED, ids=LABELED_IDS)
    def test_duplicate_labels_are_named(self, make, error):
        with pytest.raises(error, match=r"duplicated: \['a', 'c'\]"):
            make(5, ("c", "a", "b", "a", "c"))

    @pytest.mark.parametrize("make, error", LABELED, ids=LABELED_IDS)
    def test_numpy_scalar_labels_become_python_scalars(self, make, error):
        obj = make(3, (np.int64(7), np.str_("a"), np.float64(0.5)))
        assert [type(lab) for lab in obj.labels] == [int, str, float]
        assert obj.labels == (7, "a", 0.5)
        assert obj.index(np.int64(7)) == 0

    def test_from_data_column_mismatch_gives_both_shapes(self):
        with pytest.raises(InvalidCovarianceError, match=r"got shapes \(5, 3\) and \(5, 2\)"):
            CovariancePair.from_data(np.ones((5, 3)), np.ones((5, 2)))

    @pytest.mark.parametrize("rows1, rows2", [(0, 0), (0, 5), (5, 0)])
    def test_from_data_without_rows_gives_both_shapes(self, rows1, rows2):
        with pytest.raises(InvalidCovarianceError,
                           match=rf"with rows and equal columns, got shapes \({rows1}, 3\) and \({rows2}, 3\)"):
            CovariancePair.from_data(np.ones((rows1, 3)), np.ones((rows2, 3)))

    def test_restriction_record_stays_out_of_repr(self):
        sub = CovariancePair(np.eye(3), 2.0 * np.eye(3)).restrict({0, 2})
        assert repr(sub) == repr(CovariancePair(sub.sigma1, sub.sigma2, sub.n1, sub.n2, sub.labels))

    def test_restrict_unknown_label(self):
        cov = CovariancePair(np.eye(2), np.eye(2))
        with pytest.raises(KeyError):
            cov.restrict({0, 5})

    def test_restrict_to_no_labels_rejected(self):
        with pytest.raises(InvalidCovarianceError, match="^cannot restrict to an empty label set$"):
            CovariancePair(np.eye(2), np.eye(2)).restrict(set())

    @pytest.mark.parametrize("sigma2, shape", [(np.eye(3), (3, 3)), (np.zeros((0, 0)), (0, 0))],
                             ids=["other-dimension", "empty"])
    def test_matrices_of_different_or_no_dimension_rejected(self, sigma2, shape):
        sigma1 = np.eye(2) if shape != (0, 0) else sigma2
        with pytest.raises(InvalidCovarianceError) as info:
            CovariancePair(sigma1, sigma2, n1=10, n2=10)
        assert str(info.value) == (
            "covariance matrices must be non-empty and share a dimension, "
            f"got {sigma1.shape} and {shape}"
        )

    def test_from_sems_with_different_labels_rejected(self):
        sem = Sem(np.zeros((2, 2)), np.ones(2))
        relabeled = Sem(np.zeros((2, 2)), np.ones(2), labels=("a", "b"))
        with pytest.raises(InvalidModelError, match="^SEMs must share labels$"):
            CovariancePair.from_sems(sem, relabeled)


class TestGenerateSemPair:
    def test_tiny_change_prob_gives_empty_difference(self):
        cfg = SemPairGenConfig(p=6, edge_change_prob=1e-12, seed=0)
        sem1, sem2, delta = generate_sem_pair(cfg)
        assert delta.edges == frozenset()
        np.testing.assert_array_equal(sem1.b, sem2.b)

    def test_two_vertex_defaults_are_valid(self):
        # sqrt(2) neighbours would exceed the one other vertex: the default
        # draws as an explicit 1, the largest valid setting
        cfg = SemPairGenConfig(p=2, seed=0)
        sem1, _, _ = generate_sem_pair(cfg)
        assert sem1.p == 2
        assert _outcome(generate_sem_pair, cfg) == _outcome(
            generate_sem_pair, replace(cfg, expected_neighbors=1.0, edge_change_prob=0.25)
        )

    @pytest.mark.parametrize("p", [5, 15])
    def test_unset_defaults_are_resolved_at_the_drawn_p(self, p):
        # a sweep copies its template config to each p of its grid
        template = SemPairGenConfig(p=10)
        assert template.expected_neighbors is None and template.edge_change_prob is None
        for seed in range(3):
            copied = replace(template, p=p, seed=seed)
            assert _outcome(generate_sem_pair, copied) == _outcome(
                generate_sem_pair, SemPairGenConfig(p=p, seed=seed)
            )

    def test_returned_difference_matches_recomputation(self):
        sem1, sem2, delta = generate_sem_pair(SemPairGenConfig(p=5, seed=123))
        assert difference_edge_set(sem1, sem2).edges == delta.edges
        assert delta.vertices == frozenset(range(5))

    @pytest.mark.parametrize("seed", range(30))
    def test_min_delta_omega_enforced(self, seed):
        cfg = SemPairGenConfig(p=10, seed=seed)
        sem1, sem2, _ = generate_sem_pair(cfg)
        dom = precision(sem1) - precision(sem2)
        nonzero = np.abs(dom) > 1e-10
        if nonzero.any():
            assert np.abs(dom)[nonzero].min() >= cfg.min_delta_omega

    def test_shared_noise_and_order(self):
        sem1, sem2, _ = generate_sem_pair(SemPairGenConfig(p=8, seed=4))
        np.testing.assert_array_equal(sem1.noise_vars, sem2.noise_vars)
        # one permutation triangularizes both: the union support must be acyclic
        union = (sem1.b != 0) | (sem2.b != 0)
        Sem(np.where(union, 0.5, 0.0), np.ones(8))  # raises on a cycle

    def test_deterministic_given_seed(self):
        a1, a2, _ = generate_sem_pair(SemPairGenConfig(p=6, seed=77))
        b1, b2, _ = generate_sem_pair(SemPairGenConfig(p=6, seed=77))
        np.testing.assert_array_equal(a1.b, b1.b)
        np.testing.assert_array_equal(a2.b, b2.b)
        np.testing.assert_array_equal(a1.noise_vars, b1.noise_vars)
        c1, _, _ = generate_sem_pair(SemPairGenConfig(p=6, seed=78))
        assert not np.array_equal(a1.b, c1.b)

    def test_weight_magnitudes_in_range(self):
        sem1, sem2, _ = generate_sem_pair(SemPairGenConfig(p=7, seed=9))
        lo, hi = dd.sem.WEIGHT_RANGE
        for sem in (sem1, sem2):
            mags = np.abs(sem.b[sem.b != 0])
            assert ((mags >= lo) & (mags <= hi)).all()

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            SemPairGenConfig(p=5, edge_change_prob=0.0)
        with pytest.raises(ValueError):
            SemPairGenConfig(p=5, min_delta_omega=-0.1)

    @pytest.mark.parametrize("neighbors", [0.0, 4.5, 5])
    def test_expected_neighbors_outside_zero_to_p_minus_one_rejected(self, neighbors):
        with pytest.raises(ValueError) as info:
            SemPairGenConfig(p=5, expected_neighbors=neighbors)
        assert str(info.value) == f"expected_neighbors must lie in (0, p-1], got {neighbors!r}"

    @pytest.mark.parametrize("field", ["expected_neighbors", "edge_change_prob", "min_delta_omega"])
    def test_bool_real_setting_rejected_naming_it(self, field):
        with pytest.raises(ValueError, match=f"{field} must be a real number, got True"):
            SemPairGenConfig(p=5, **{field: True})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0, float("-inf")])
    def test_min_delta_omega_must_be_finite_and_nonnegative(self, value):
        message = f"min_delta_omega must be finite and non-negative, got {value!r}"
        with pytest.raises(ValueError, match=message):
            SemPairGenConfig(p=5, min_delta_omega=value)


def _reference_generate(cfg):
    """The generator's rejection loop with one scalar draw at a time."""
    rng = np.random.default_rng(cfg.seed)
    p = cfg.p
    neighbors = cfg.expected_neighbors if cfg.expected_neighbors is not None else min(p**0.5, p - 1)
    change_prob = cfg.edge_change_prob if cfg.edge_change_prob is not None else 0.5 / p
    q_edge = neighbors / (p - 1)
    lo, hi = dd.sem.WEIGHT_RANGE

    def draw_weight():
        mag = rng.uniform(lo, hi)
        return -mag if rng.random() < 0.5 else mag

    for _ in range(dd.sem.MAX_ATTEMPTS):
        order = rng.permutation(p)
        slots = [(int(order[b]), int(order[a])) for a in range(p) for b in range(a + 1, p)]
        b1 = np.zeros((p, p))
        for child, parent in slots:
            if rng.random() < q_edge:
                b1[child, parent] = draw_weight()
        b2 = b1.copy()
        for child, parent in slots:
            if b1[child, parent] != 0.0:
                if rng.random() < change_prob:
                    b2[child, parent] = 0.0
            elif rng.random() < change_prob:
                b2[child, parent] = draw_weight()
        noise = rng.uniform(dd.sem.NOISE_VAR_RANGE[0], dd.sem.NOISE_VAR_RANGE[1], size=p)
        sem1 = Sem(b1, noise)
        sem2 = Sem(b2, noise)
        delta_omega = precision(sem1) - precision(sem2)
        nonzero = np.abs(delta_omega) > ZERO_TOL
        if nonzero.any() and float(np.abs(delta_omega)[nonzero].min()) < cfg.min_delta_omega:
            continue
        if not check_assumptions(sem1, sem2, cfg.min_delta_omega / 2.0).passed:
            continue
        return sem1, sem2, difference_edge_set(sem1, sem2)
    raise GenerationExhaustedError(f"no acceptable SEM pair after {dd.sem.MAX_ATTEMPTS} attempts")


def _outcome(generate, cfg):
    """The pair's bytes and difference edges, or the error class raised."""
    try:
        sem1, sem2, delta = generate(cfg)
    except GenerationExhaustedError as exc:
        return type(exc)
    return sem1.b.tobytes(), sem2.b.tobytes(), sem1.noise_vars.tobytes(), sem2.noise_vars.tobytes(), delta.edges


# max_retries and weight_range name the sem constants MAX_ATTEMPTS and
# WEIGHT_RANGE, which _patched_config sets; the rest are config fields
_REFERENCE_CONFIGS = [
    *(dict(p=p, seed=seed) for p in (2, 3, 5, 8, 12, 20, 25) for seed in (0, 1, 2, 3)),
    # every slot fires in the first model
    *(dict(p=p, seed=seed, expected_neighbors=p - 1, max_retries=40) for p in (3, 5, 8) for seed in (0, 1)),
    *(dict(p=p, seed=seed, edge_change_prob=1e-12) for p in (5, 12) for seed in (0, 1)),
    *(dict(p=p, seed=seed, edge_change_prob=0.99, max_retries=40) for p in (3, 4, 6) for seed in (0, 1, 2)),
    *(dict(p=p, seed=seed, weight_range=(0.5, 0.5)) for p in (4, 9) for seed in (0, 1)),
    *(dict(p=p, seed=seed, max_retries=1) for p in (5, 10, 20) for seed in (0, 5)),
]


def _patched_config(monkeypatch, kwargs):
    kwargs = dict(kwargs)
    for key, constant in (("max_retries", "MAX_ATTEMPTS"), ("weight_range", "WEIGHT_RANGE")):
        if key in kwargs:
            monkeypatch.setattr(dd.sem, constant, kwargs.pop(key))
    return SemPairGenConfig(**kwargs)


@pytest.mark.parametrize(
    "kwargs", _REFERENCE_CONFIGS, ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items())
)
def test_block_draws_reproduce_the_scalar_loop(kwargs, monkeypatch):
    cfg = _patched_config(monkeypatch, kwargs)
    assert _outcome(generate_sem_pair, cfg) == _outcome(_reference_generate, cfg)


def test_single_attempt_exhaustion_matches_the_scalar_loop(monkeypatch):
    # the one candidate passes the gate and fails the separation check
    monkeypatch.setattr(dd.sem, "MAX_ATTEMPTS", 1)
    cfg = SemPairGenConfig(p=5, seed=5)
    with pytest.raises(GenerationExhaustedError):
        _reference_generate(cfg)
    with pytest.raises(GenerationExhaustedError):
        generate_sem_pair(cfg)


class TestGenerationExhausted:
    def test_gate_only_exhaustion_counts_the_gate(self, monkeypatch):
        monkeypatch.setattr(dd.sem, "MAX_ATTEMPTS", 3)
        cfg = SemPairGenConfig(p=25, seed=0)
        with pytest.raises(
            GenerationExhaustedError,
            match=r"after 3 attempts: 3 rejected by the min_delta_omega=0.25 gate, 0 by check_assumptions$",
        ):
            generate_sem_pair(cfg)

    def test_checker_exhaustion_counts_each_failed_condition(self, monkeypatch):
        monkeypatch.setattr(dd.sem, "MAX_ATTEMPTS", 3)
        cfg = SemPairGenConfig(p=5, seed=50)
        with pytest.raises(
            GenerationExhaustedError,
            match=r"after 3 attempts: 1 rejected by the min_delta_omega=0.25 gate, "
            r"2 by check_assumptions \(separation: 2\)$",
        ):
            generate_sem_pair(cfg)


class TestSerialization:
    def test_sem_json_round_trip(self, tmp_path):
        sem = random_sem(np.random.default_rng(8), p=5)
        path = tmp_path / "sem.json"
        dd.save_sem(sem, path)
        loaded = dd.load_sem(path)
        np.testing.assert_array_equal(loaded.b, sem.b)
        np.testing.assert_array_equal(loaded.noise_vars, sem.noise_vars)
        assert loaded.labels == sem.labels

    def test_data_csv_round_trip(self, tmp_path):
        data = np.random.default_rng(0).standard_normal((4, 3))
        path = tmp_path / "data.csv"
        dd.save_data_csv(data, path)
        np.testing.assert_allclose(dd.load_data_csv(path), data, atol=1e-12)

    @pytest.mark.parametrize("text, problem", [
        ("a,b\n1,2\n", "could not convert string 'a' to float64 at row 0, column 1"),
        ("1,2\n3\n", "the number of columns changed from 2 to 1 at row 2"),
        ("1,nan\n3,4\n", "the data file has non-finite cells (NaN or inf)"),
    ], ids=["not-a-number", "ragged-row", "nan-cell"])
    def test_malformed_data_csv_rejected_naming_the_file(self, tmp_path, text, problem):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            dd.load_data_csv(path)
        assert str(info.value).startswith(f"{path}: {problem}")

    @pytest.mark.parametrize("obj, problem", [
        ({"b": [[0.0, 1.0]], "noise_vars": [1.0, 1.0]}, "edge-weight matrix must be square, got (1, 2)"),
        ({"b": [[0.5]], "noise_vars": [1.0]}, "edge-weight matrix must have zero diagonal"),
        ({"b": [[0.0]], "noise_vars": [1.0, 1.0]}, "noise_vars length must match matrix dimension"),
        ({"b": [[0.0]], "noise_vars": [0.0]}, "noise variances must be strictly positive and finite"),
        ({"b": [[0.0, 1.0], [1.0, 0.0]], "noise_vars": [1.0, 1.0]}, "edge support contains a directed cycle"),
    ], ids=["non-square", "nonzero-diagonal", "noise-length", "non-positive-variance", "cycle"])
    def test_invalid_model_rejected_naming_the_file(self, tmp_path, obj, problem):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(InvalidModelError) as info:
            dd.load_sem(path)
        assert str(info.value) == f"{path}: {problem}"

    @pytest.mark.parametrize("obj, problem", [
        ({"b": [[0.0, "x"], [0.0, 0.0]], "noise_vars": [1.0, 1.0]}, "field 'b' is not an array of numbers"),
        ({"b": [[0.0]], "noise_vars": {"a": 1.0}}, "field 'noise_vars' is not an array of numbers"),
        ({"b": [[0.0]], "noise_vars": [1.0], "labels": "a"},
         "field 'labels' is not a list of strings or numbers"),
        ({"b": [[0.0]], "noise_vars": [1.0], "labels": [["a"]]},
         "field 'labels' is not a list of strings or numbers"),
    ], ids=["b-string-entry", "noise_vars-object", "labels-string", "labels-nested"])
    def test_field_of_the_wrong_type_rejected_naming_the_file(self, tmp_path, obj, problem):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(ValueError) as info:
            dd.load_sem(path)
        assert str(info.value) == f"{path}: {problem}"

    def test_edge_set_json_round_trip(self):
        es = DagEdgeSet(vertices=frozenset(range(4)), edges=frozenset({(0, 2), (1, 3)}))
        payload = {"vertices": [0, 1, 2, 3], "edges": [[0, 2], [1, 3]]}
        assert es.to_json() == json.loads(json.dumps(es.to_json())) == payload

    @pytest.mark.parametrize("labels", [tuple(np.arange(5)), tuple(np.array(list("abcde")))])
    def test_numpy_scalar_labels_are_written(self, tmp_path, labels):
        # numpy scalars are stored as the equal Python scalars, which every
        # JSON writer takes. The pair has two difference edges, so its trace
        # holds sorted label lists
        sem1, sem2, _ = generate_sem_pair(SemPairGenConfig(p=5, seed=3))
        sem1, sem2 = (Sem(s.b, s.noise_vars, labels) for s in (sem1, sem2))
        path = tmp_path / "sem.json"
        dd.save_sem(sem1, path)
        assert dd.load_sem(path).labels == sem1.labels == labels
        cov = CovariancePair(covariance(sem1), covariance(sem2), labels=labels)
        assert cov.labels == labels
        result = dd.run_pipeline(cov, dd.PipelineConfig())
        assert result.delta.edges == difference_edge_set(sem1, sem2).edges
        payload = json.loads(json.dumps(result.to_json()))
        assert payload["trace"][0]["delta"]["labels"] == list(labels)
        assert payload["edges"] == [list(e) for e in result.delta.sorted_edges()]
        (rough,) = [entry["edges"] for entry in payload["trace"] if entry["stage"] == "orient_edges"]
        assert rough == sorted(rough) and len(rough) > len(payload["edges"]) > 0


def test_output_order_sorts_and_falls_back_to_repr():
    # comparable labels keep their natural order (9 before 10); mixed types
    # are ordered by repr ("'a'" < "10" < "9")
    assert _output_order({10, 9, 2}) == [2, 9, 10]
    assert _output_order({"a", 10, 9}) == ["a", 10, 9]
    assert _output_order([(1, "b"), ("a", 2)]) == [("a", 2), (1, "b")]


def test_a_json_write_that_fails_leaves_no_file(tmp_path):
    path = tmp_path / "out.json"
    with pytest.raises(TypeError):
        _write_json({"labels": [np.int64(1)]}, path)
    assert not path.exists()
