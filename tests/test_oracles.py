"""Vertex-removal formulas, closed-form entries, assumption checks, bound.

The two closed forms live in tests/helpers.py. The Schur complement of the
precision matrix is the reference for every marginalization claim; the matrix
product (I-B)^T D^-1 (I-B) is the reference for entry formulas.
"""

import ast
import hashlib
import json
import math
import re
from collections import Counter

import numpy as np
import pytest

import diffdag as dd
from diffdag import oracles
from diffdag import Sem, check_assumptions, covariance, minimax_sample_bound, precision
from diffdag.errors import InvalidModelError
from diffdag.oracles import AssumptionReport
from diffdag.sem import difference_edge_set
from helpers import (
    chain_sem,
    delta_omega_entry,
    marginalize_sem,
    perturb_sem,
    random_sem,
    topological_order,
)


def _schur_precision(sem, retained_labels):
    """Precision of the marginal over the retained labels, by Schur complement."""
    om = precision(sem)
    keep = [sem.index(lab) for lab in retained_labels]
    drop = [k for k in range(sem.p) if k not in keep]
    if not drop:
        return om
    a = om[np.ix_(keep, keep)]
    b = om[np.ix_(keep, drop)]
    d = om[np.ix_(drop, drop)]
    return a - b @ np.linalg.solve(d, b.T)


class TestMarginalizeSem:
    def test_terminal_removal_is_exact_submatrix(self):
        rng = np.random.default_rng(3)
        sem = random_sem(rng, 6, edge_prob=0.5)
        terminal = sem.labels[next(k for k in range(sem.p) if not sem.b[:, k].any())]
        marg = marginalize_sem(sem, {terminal})
        keep = [sem.index(lab) for lab in marg.labels]
        np.testing.assert_array_equal(marg.b, sem.b[np.ix_(keep, keep)])
        np.testing.assert_array_equal(marg.noise_vars, sem.noise_vars[keep])

    def test_chain_root_removal_inflates_child_noise(self):
        # chain 0 <- 1 <- 2 with unit noise; removing the root 2 folds its
        # variance into vertex 1 through the squared edge weight
        sem = chain_sem([0.5, 0.8])
        marg = marginalize_sem(sem, {2})
        assert marg.labels == (0, 1)
        assert marg.noise_vars[1] == pytest.approx(1.0 + 0.8**2)
        assert marg.noise_vars[0] == pytest.approx(1.0)
        schur = _schur_precision(sem, (0, 1))
        assert np.abs(precision(marg) - schur).max() < 1e-8

    @pytest.mark.parametrize("seed", range(20))
    def test_precision_matches_schur_complement(self, seed):
        rng = np.random.default_rng(seed)
        p = int(rng.integers(4, 9))
        sem = random_sem(rng, p, edge_prob=0.5)
        k = int(rng.integers(1, p // 2 + 1))
        removed = set(rng.choice(sem.labels, size=k, replace=False).tolist())
        marg = marginalize_sem(sem, removed)
        schur = _schur_precision(sem, marg.labels)
        assert np.abs(precision(marg) - schur).max() < 1e-8

    @pytest.mark.parametrize("seed", range(10))
    def test_covariance_of_marginal_is_restricted_covariance(self, seed):
        rng = np.random.default_rng(100 + seed)
        sem = random_sem(rng, 7, edge_prob=0.5)
        removed = set(rng.choice(sem.labels, size=3, replace=False).tolist())
        marg = marginalize_sem(sem, removed)
        keep = [sem.index(lab) for lab in marg.labels]
        assert np.abs(
            covariance(marg) - covariance(sem)[np.ix_(keep, keep)]
        ).max() < 1e-8

    @pytest.mark.parametrize("seed", range(8))
    def test_removals_commute(self, seed):
        rng = np.random.default_rng(200 + seed)
        sem = random_sem(rng, 8, edge_prob=0.4)
        labs = rng.choice(sem.labels, size=4, replace=False).tolist()
        u, w = set(labs[:2]), set(labs[2:])
        stepwise = marginalize_sem(marginalize_sem(sem, u), w)
        direct = marginalize_sem(sem, u | w)
        assert stepwise.labels == direct.labels
        assert np.abs(stepwise.b - direct.b).max() < 1e-8
        assert np.abs(stepwise.noise_vars - direct.noise_vars).max() < 1e-8

    @pytest.mark.parametrize("seed", range(8))
    def test_topological_order_survives_marginalization(self, seed):
        # the original order restricted to the retained labels must still put
        # every marginal parent before its child
        rng = np.random.default_rng(300 + seed)
        sem = random_sem(rng, 8, edge_prob=0.5)
        removed = set(rng.choice(sem.labels, size=3, replace=False).tolist())
        marg = marginalize_sem(sem, removed)
        restricted = [lab for lab in topological_order(sem) if lab not in removed]
        position = {lab: k for k, lab in enumerate(restricted)}
        for child, parent in zip(*np.nonzero(marg.b)):
            assert position[marg.labels[parent]] < position[marg.labels[child]]

    def test_cannot_remove_everything(self):
        sem = chain_sem([0.5])
        with pytest.raises(ValueError):
            marginalize_sem(sem, {0, 1})

    def test_unknown_label(self):
        sem = chain_sem([0.5])
        with pytest.raises(KeyError):
            marginalize_sem(sem, {5})


class TestDeltaOmegaEntry:
    def test_nonadjacent_without_common_children_is_zero(self):
        # edges 0 <- 1 and 3 <- 2 only: vertices 0 and 3 are unrelated
        b = np.zeros((4, 4))
        b[0, 1] = 0.5
        b[3, 2] = 0.7
        sem1 = Sem(b, np.ones(4))
        b2 = np.array(b)
        b2[0, 1] = 0.9
        sem2 = Sem(b2, np.ones(4))
        assert delta_omega_entry(sem1, sem2, 0, 3) == 0.0

    def test_single_changed_edge_value(self):
        nv = np.array([2.0, 1.0])
        b = np.zeros((2, 2))
        b[0, 1] = 0.5
        sem1 = Sem(b, nv)
        b2 = np.array(b)
        b2[0, 1] = 0.9
        sem2 = Sem(b2, nv)
        got = delta_omega_entry(sem1, sem2, 0, 1)
        oracle = (precision(sem1) - precision(sem2))[0, 1]
        assert got == pytest.approx(oracle, abs=1e-12)
        assert got == pytest.approx((0.9 - 0.5) / nv[0])

    def test_common_child_sum(self):
        # co-parents 0 and 1 of child 2; both child edges change
        nv = np.array([1.0, 1.0, 1.3])
        b1m = np.zeros((3, 3))
        b1m[2, 0] = 0.8
        b1m[2, 1] = 0.6
        b2m = np.array(b1m)
        b2m[2, 0] = 0.4
        b2m[2, 1] = -0.5
        sem1, sem2 = Sem(b1m, nv), Sem(b2m, nv)
        expected = (0.8 * 0.6 - 0.4 * (-0.5)) / nv[2]
        got = delta_omega_entry(sem1, sem2, 0, 1)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx((precision(sem1) - precision(sem2))[0, 1], abs=1e-12)

    @pytest.mark.parametrize("seed", range(100))
    def test_matches_matrix_oracle_everywhere(self, seed):
        rng = np.random.default_rng(seed)
        p = int(rng.integers(3, 11))
        sem1 = random_sem(rng, p, edge_prob=0.5)
        sem2 = perturb_sem(rng, sem1, n_changes=3)
        oracle = precision(sem1) - precision(sem2)
        for i in sem1.labels:
            for j in sem1.labels:
                got = delta_omega_entry(sem1, sem2, i, j)
                assert abs(got - oracle[sem1.index(i), sem1.index(j)]) < 1e-10

    def test_requires_shared_noise(self):
        sem1 = chain_sem([0.5])
        sem2 = Sem(sem1.b, np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            delta_omega_entry(sem1, sem2, 0, 1)


class TestIsTerminalInvariant:
    """A vertex whose column of B is unchanged is terminal in the difference
    DAG, and its precision-difference diagonal is zero."""

    def test_identical_sems_all_invariant(self):
        sem = random_sem(np.random.default_rng(4), 6)
        dom = precision(sem) - precision(sem)
        for i in range(sem.p):
            assert abs(dom[i, i]) == 0.0

    def test_changed_outgoing_edge_not_invariant(self):
        sem1 = chain_sem([0.5])  # edge 0 <- 1
        b2 = np.array(sem1.b)
        b2[0, 1] = 0.9
        sem2 = Sem(b2, sem1.noise_vars)
        assert not np.array_equal(sem1.b[:, 1], sem2.b[:, 1])
        assert (precision(sem1) - precision(sem2))[1, 1] != 0.0

    def test_changed_incoming_edge_stays_invariant(self):
        sem1 = chain_sem([0.5])
        b2 = np.array(sem1.b)
        b2[0, 1] = 0.9
        sem2 = Sem(b2, sem1.noise_vars)
        assert np.array_equal(sem1.b[:, 0], sem2.b[:, 0])
        assert abs((precision(sem1) - precision(sem2))[0, 0]) < 1e-12


class TestCheckAssumptions:
    def test_identical_pair_passes_vacuously(self):
        sem = random_sem(np.random.default_rng(0), 6)
        report = check_assumptions(sem, sem, 0.125)
        assert report.passed
        assert report.delta_edges == frozenset()
        assert report.subsets_checked == 0

    @pytest.mark.parametrize("seed", range(10))
    def test_generated_pairs_pass_at_generator_epsilon(self, seed):
        cfg = dd.SemPairGenConfig(p=8, seed=seed)
        sem1, sem2, _ = dd.generate_sem_pair(cfg)
        report = check_assumptions(sem1, sem2, cfg.min_delta_omega / 2.0)
        assert report.passed, report.detail

    def test_planted_cancellation_fails_separation(self):
        # deleted edge (1, 0) exactly compensated by the common-child term of
        # the deleted edge (2, 1): the partial correlation of (0, 1) given
        # everything matches across the models although the edge changed
        b1 = np.zeros((3, 3))
        b1[1, 0] = 0.6
        b1[2, 0] = 1.0
        b1[2, 1] = 0.6
        b2 = np.zeros((3, 3))
        b2[2, 0] = 1.0
        sem1 = Sem(b1, np.ones(3))
        sem2 = Sem(b2, np.ones(3))
        dom = precision(sem1) - precision(sem2)
        assert dom[1, 0] == 0.0  # the plant is exact
        report = check_assumptions(sem1, sem2, 0.125)
        assert not report.passed
        assert report.failed_condition == "separation"

    @pytest.mark.parametrize("side, flipped", [("incoming", (0, 1)), ("outgoing", (1, 0))])
    def test_invariant_vertex_with_changed_edges_fails(self, side, flipped):
        # the edge at 0 flips sign, and so does 2 <- 1; with 2 <- 0 kept, the
        # common-child term cancels the edge's own, so row 0 of the precision
        # difference vanishes although an edge at 0 changed
        b1 = np.zeros((3, 3))
        b1[flipped], b1[2, 0], b1[2, 1] = 0.5, 1.0, 0.5
        b2 = b1.copy()
        b2[flipped] = b2[2, 1] = -0.5
        sem1, sem2 = Sem(b1, np.ones(3)), Sem(b2, np.ones(3))
        assert not (precision(sem1) - precision(sem2))[0].any()
        report = check_assumptions(sem1, sem2, 0.125)
        assert (report.failed_condition, report.detail) == (
            "invariant-vertex-consistency",
            f"vertex 0 has a zero difference row but changed {side} edges",
        )
        assert report == _reference_check(sem1, sem2, 0.125)

    def test_subset_budget_marks_inconclusive(self, monkeypatch):
        # the budget caps the (edge, subset) pairs walked: a passing pair
        # whose walk is wider stops before a level would pass it, and only
        # the pairs it examined were factored
        sem1, sem2, delta = dd.generate_sem_pair(dd.SemPairGenConfig(p=8, seed=2))
        walked = check_assumptions(sem1, sem2, 0.125)
        assert walked.passed and walked.subsets_checked == 12  # over 2 edges
        factored, tail = [], oracles._cholesky_tail

        def counting(stack):
            factored.append(stack.shape[1])
            return tail(stack)

        monkeypatch.setattr(oracles, "_cholesky_tail", counting)
        for k in (1, 2, 5, 11):
            monkeypatch.setattr(oracles, "SUBSET_BUDGET", k)
            factored.clear()
            report = check_assumptions(sem1, sem2, 0.125)
            assert (report.failed_condition, report.detail) == (
                "subset-budget",
                f"more than {k} (edge, subset) pairs to walk; check inconclusive",
            )
            assert 0 < report.subsets_checked == sum(factored) <= k
        monkeypatch.setattr(oracles, "SUBSET_BUDGET", 12)
        assert check_assumptions(sem1, sem2, 0.125) == walked

    def test_violation_found_in_a_lattice_past_the_budget(self):
        # the third candidate of this config has 138 240 ancestor-closed
        # subsets, more than SUBSET_BUDGET, and its walk meets a violation
        # on its first subset: the budget caps the walk, not the lattice
        sem1, sem2, eps = _checked_candidates([dd.SemPairGenConfig(p=20, seed=0)])[2]
        report = check_assumptions(sem1, sem2, eps)
        ranked = sorted((lab for lab in sem1.labels if lab not in report.invariant), key=repr)
        bit = {lab: 1 << (len(ranked) - 1 - r) for r, lab in enumerate(ranked)}
        masks = {bit[v]: sum(bit[q] for (c, q) in report.delta_edges if c == v) for v in ranked}
        assert sum(map(len, oracles._downsets_above(0, masks))) > oracles.SUBSET_BUDGET
        assert (report.failed_condition, report.subsets_checked) == ("separation", 1)
        edge, name, _, subset = DETAIL.fullmatch(report.detail).groups()
        (i, j), s = ast.literal_eval(f"({edge})"), set(ast.literal_eval(subset))
        covs = covariance(sem1), covariance(sem2)
        assert dict(zip(GAP_NAMES, _inverse_gaps(covs, sem1.labels, i, j, s)))[name] < 2.0 * eps

    @pytest.mark.parametrize("epsilon", [-1.0, -1e-300, math.nan, math.inf])
    def test_epsilon_must_be_finite_and_non_negative(self, epsilon):
        sem = random_sem(np.random.default_rng(0), 4)
        with pytest.raises(ValueError, match="epsilon must be finite and non-negative"):
            check_assumptions(sem, sem, epsilon)

    def test_bool_epsilon_rejected(self):
        sem = random_sem(np.random.default_rng(0), 4)
        with pytest.raises(ValueError, match="epsilon must be a real number, got True"):
            check_assumptions(sem, sem, True)

    def test_zero_epsilon_passes_every_gap(self):
        # min_delta_omega = 0 is a legal generator setting, and it checks at 0
        b1 = np.zeros((3, 3))
        b1[1, 0] = 0.6
        b1[2, 0] = 1.0
        b1[2, 1] = 0.6
        b2 = np.zeros((3, 3))
        b2[2, 0] = 1.0
        report = check_assumptions(Sem(b1, np.ones(3)), Sem(b2, np.ones(3)), 0.0)
        assert report.passed
        assert report.subsets_checked > 0

    @pytest.mark.parametrize("p", [64, 65])
    def test_walk_takes_at_most_64_non_invariant_vertices(self, p):
        # a changed chain: every vertex is non-invariant, and its p + 1
        # ancestor-closed subsets stay far inside the budget
        sem1 = chain_sem([0.8] * (p - 1))
        sem2 = Sem(np.zeros((p, p)), sem1.noise_vars)
        if p == 64:  # bit 63, the top bit of a uint64 mask, is walked
            assert check_assumptions(sem1, sem2, 0.125) == _reference_check(sem1, sem2, 0.125)
        else:
            with pytest.raises(ValueError, match="at most 64 non-invariant vertices, not 65"):
                check_assumptions(sem1, sem2, 0.125)

    def test_more_than_64_vertices_raise_whatever_the_lattice(self):
        # 33 changed disjoint edges: 66 non-invariant vertices and 3^33
        # ancestor-closed subsets, far past the budget; the walk's vertex
        # limit is checked first
        b1 = np.zeros((66, 66))
        b1[np.arange(1, 66, 2), np.arange(0, 66, 2)] = 0.8
        sem1, sem2 = Sem(b1, np.ones(66)), Sem(np.zeros((66, 66)), np.ones(66))
        with pytest.raises(ValueError, match="at most 64 non-invariant vertices, not 66"):
            check_assumptions(sem1, sem2, 0.125)

    def test_difference_with_a_cycle_raises(self):
        # 1 <- 0 in one model and 0 <- 1 in the other: each model is acyclic,
        # their difference is not, and no clause is read
        b1, b2 = np.zeros((2, 2)), np.zeros((2, 2))
        b1[1, 0], b2[0, 1] = 0.5, 0.5
        with pytest.raises(InvalidModelError, match="^edge support contains a directed cycle$"):
            check_assumptions(Sem(b1, np.ones(2)), Sem(b2, np.ones(2)), 0.125)

    def test_large_p_pairs_and_reports_are_pinned(self):
        # every pair the generator returns at p = 20-30 and every report it
        # reads on the way there, byte for byte: a change to the cycle check,
        # the ancestry or the walk that moved a verdict, a count or a draw
        # would move the digest
        reports, real = [], oracles.check_assumptions

        def recording(sem1, sem2, epsilon):
            reports.append(real(sem1, sem2, epsilon))
            return reports[-1]

        digest, pairs = hashlib.sha256(), 0
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracles, "check_assumptions", recording)
            for p in (20, 25, 30):
                for seed in range(20):
                    sem1, sem2, _ = dd.generate_sem_pair(dd.SemPairGenConfig(p=p, seed=seed))
                    for array in (sem1.b, sem2.b, sem1.noise_vars):
                        digest.update(array.tobytes())
                    pairs += 1
        for report in reports:
            digest.update(json.dumps(report.to_dict()).encode())
        verdicts = Counter(report.failed_condition for report in reports)
        assert (pairs, len(reports), verdicts) == (60, 302, {"separation": 242, None: 60})
        assert sum(report.subsets_checked for report in reports) == 2943
        assert digest.hexdigest() == "d8392a391afbab3197224fc8c9970b38bb89bf10895de6312d7c3b57bb4a4421"

    def test_p30_exhaustions_are_pinned(self):
        # the ten seeds in 0-99 whose p = 30 draw exhausts its attempts, with
        # each message's gate and check_assumptions rejection counts: a
        # change to the draws, the gate or the checker would move the digest
        digest = hashlib.sha256()
        for seed in (20, 25, 30, 35, 37, 39, 78, 82, 86, 87):
            with pytest.raises(dd.GenerationExhaustedError) as info:
                dd.generate_sem_pair(dd.SemPairGenConfig(p=30, seed=seed))
            digest.update(f"{seed}: {info.value}\n".encode())
        assert str(info.value) == (
            "no acceptable SEM pair after 1000 attempts: 981 rejected by the "
            "min_delta_omega=0.25 gate, 19 by check_assumptions (separation: 19)"
        )
        assert digest.hexdigest() == "fa6e101b12fc5b6093648d770f9623af4ddfe223b17933331966cc48d12683ba"

    def test_report_dict_round_trip(self):
        sem = random_sem(np.random.default_rng(9), 4)
        payload = check_assumptions(sem, sem, 0.1).to_dict()
        assert payload["passed"] is True
        assert payload["failed_condition"] is None


class TestMinimaxSampleBound:
    def test_boundary_p_equals_2d(self):
        val = minimax_sample_bound(4, 2)
        assert val == pytest.approx(-(2.0 / 4.0) * math.log(2.0))
        assert val < 0.0

    def test_reference_value(self):
        # independent arithmetic: (2/2) ln(32/4) - (2/32) ln 2
        expected = math.log(8.0) - math.log(2.0) / 16.0
        assert minimax_sample_bound(32, 2) == pytest.approx(expected, abs=1e-12)

    def test_monotone_in_p(self):
        vals = [minimax_sample_bound(p, 2) for p in (4, 8, 16, 32, 64)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            minimax_sample_bound(3, 2)
        with pytest.raises(ValueError):
            minimax_sample_bound(10, 0)

    @pytest.mark.parametrize("p, d, message", [
        (10.0, 2, "p must be an integer, got 10.0"),
        (True, 1, "p must be an integer, got True"),
        (10, 1.5, "d must be an integer, got 1.5"),
        (10, 0, "d must be at least 1, got 0"),
    ], ids=["float-p", "bool-p", "fractional-d", "d-zero"])
    def test_bad_argument_rejected_naming_it(self, p, d, message):
        with pytest.raises(ValueError, match=message):
            minimax_sample_bound(p, d)


class TestPartialCorrelation:
    """``_cholesky_tail`` on a submatrix ordered as the conditioning set, then
    i, then j, gives the partial correlation of X_i and X_j."""

    def test_marginal_correlation(self):
        cov = np.array([[1.0, 0.6], [0.6, 1.0]])
        assert float(oracles._cholesky_tail(cov)[0]) == pytest.approx(0.6)

    def test_chain_middle_separates_ends(self):
        sem = chain_sem([0.7, 0.7])
        cov = covariance(sem)
        rho, _ = oracles._cholesky_tail(cov[np.ix_([1, 0, 2], [1, 0, 2])])
        assert abs(float(rho)) < 1e-12
        marginal, _ = oracles._cholesky_tail(cov[np.ix_([0, 2], [0, 2])])
        assert abs(float(marginal)) > 0.1


def _reference_held_levels(i, j, vertices: list, parents: dict):
    """The subsets of ``vertices`` closed under taking parents that hold i
    and j, one list per size, smallest first, each sorted by sorted reprs.

    A level is built from the one below by adding each vertex whose parents
    it holds: removing a childless vertex outside the ancestors of i and j
    leaves a smaller such subset."""
    base = {i, j}
    while not all(parents[v] <= base for v in base):
        base = base.union(*(parents[v] for v in base))
    level = {frozenset(base)}
    while level:
        yield sorted(level, key=lambda s: sorted(map(repr, s)))
        level = {s | {v} for s in level for v in vertices if v not in s and parents[v] <= s}


GAP_NAMES = ("partial-correlation", "parent diagonal")
DETAIL = re.compile(r"edge \((.*)\): (.*) gap (\S+) < \S+ over subset (\[.*\])")


def _inverse_gaps(covs, labels, i, j, s):
    """The partial-correlation and parent-diagonal gaps of edge (i, j) over
    the subset s, from the inverse of each covariance's submatrix in label
    order."""
    keep = [lab for lab in labels if lab in s]
    idx = [labels.index(lab) for lab in keep]
    si, sj = keep.index(i), keep.index(j)
    rho, diag = [], []
    for cov in covs:
        om = np.linalg.inv(cov[np.ix_(idx, idx)])
        rho.append(-om[si, sj] / math.sqrt(om[si, si] * om[sj, sj]))
        diag.append(om[sj, sj])
    return abs(rho[0] - rho[1]), abs(diag[0] - diag[1])


def _reference_check(sem1, sem2, epsilon, max_subsets=100_000):
    """check_assumptions without the mask walk: it builds each edge's held
    subsets as Python sets, inverts one subset at a time and takes the
    (edge, subset) pairs level-major, in rounds of one level per edge in
    edge rank. It stops, inconclusive, before a level would take the pairs
    examined past ``max_subsets``."""
    delta = difference_edge_set(sem1, sem2)
    dom = precision(sem1) - precision(sem2)
    labels = sem1.labels
    invariant = frozenset(labels[k] for k in np.flatnonzero(np.abs(dom).max(axis=1) <= 1e-9))

    def fail(cond, detail, checked=0):
        return AssumptionReport(False, cond, detail, invariant, delta.edges, checked)

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
    if not delta.edges:
        return AssumptionReport(True, None, None, invariant, delta.edges, 0)
    v_labels = [lab for lab in labels if lab not in invariant]
    parents = {lab: {j for (i, j) in delta.edges if i == lab} & set(v_labels) for lab in v_labels}
    covs = covariance(sem1), covariance(sem2)
    levels = {
        (i, j): _reference_held_levels(i, j, v_labels, parents)
        for (i, j) in sorted(delta.edges, key=lambda e: (repr(e[0]), repr(e[1])))
    }
    checked = 0
    while levels:
        for (i, j), held in list(levels.items()):
            level = next(held, None)
            if level is None:
                del levels[i, j]
                continue
            if checked + len(level) > max_subsets:
                return fail(
                    "subset-budget",
                    f"more than {max_subsets} (edge, subset) pairs to walk; check inconclusive",
                    checked,
                )
            for s in level:
                checked += 1
                for name, gap in zip(GAP_NAMES, _inverse_gaps(covs, labels, i, j, s)):
                    if gap < 2.0 * epsilon:
                        return fail(
                            "separation",
                            f"edge ({i!r}, {j!r}): {name} gap {gap:.4g} < {2 * epsilon:g} "
                            f"over subset {sorted(s, key=repr)}",
                            checked,
                        )
    return AssumptionReport(True, None, None, invariant, delta.edges, checked)


BUDGETS = (100_000, 1, 10, 100, 1000)


def _checked_candidates(configs):
    """Every (sem1, sem2, epsilon) generate_sem_pair hands the checker."""
    seen = []
    real = oracles.check_assumptions

    def recording(sem1, sem2, epsilon):
        seen.append((sem1, sem2, epsilon))
        return real(sem1, sem2, epsilon)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracles, "check_assumptions", recording)
        for cfg in configs:
            dd.generate_sem_pair(cfg)
    return seen


@pytest.fixture(scope="module")
def generator_candidates():
    """Every pair generate_sem_pair hands the checker, at p = 5-20, seeds 0-5."""
    return _checked_candidates(
        dd.SemPairGenConfig(p=p, seed=seed) for p in (5, 8, 10, 12, 15, 18, 20) for seed in range(6)
    )


def _with_string_labels(sem):
    return Sem(sem.b, sem.noise_vars, tuple(f"v{k}" for k in range(sem.p)))


class TestCheckAssumptionsMatchesReference:
    """The lazy level-major walk returns the reference's report, field for field."""

    @pytest.mark.parametrize("max_subsets", BUDGETS)
    def test_generator_candidates(self, generator_candidates, max_subsets, monkeypatch):
        monkeypatch.setattr(oracles, "SUBSET_BUDGET", max_subsets)
        verdicts = set()
        for sem1, sem2, eps in generator_candidates:
            report = check_assumptions(sem1, sem2, eps)
            assert report == _reference_check(sem1, sem2, eps, max_subsets)
            verdicts.add(report.failed_condition)
        # the candidates reach every verdict the budget allows: the longest
        # walk examines 864 pairs, so only budgets below it stop a walk
        assert verdicts == (
            {"subset-budget", "separation", None} if max_subsets < 864 else {"separation", None}
        )

    @pytest.mark.parametrize("max_subsets", BUDGETS)
    def test_string_labels_out_of_repr_order(self, generator_candidates, max_subsets, monkeypatch):
        monkeypatch.setattr(oracles, "SUBSET_BUDGET", max_subsets)
        wide = [c for c in generator_candidates if c[0].p >= 11]
        assert wide
        for sem1, sem2, eps in wide:
            sem1, sem2 = _with_string_labels(sem1), _with_string_labels(sem2)
            assert sorted(sem1.labels, key=repr) != list(sem1.labels)  # 'v10' before 'v2'
            report = check_assumptions(sem1, sem2, eps)
            assert report == _reference_check(sem1, sem2, eps, max_subsets)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_pairs(self, seed):
        rng = np.random.default_rng(400 + seed)
        sem1 = random_sem(rng, int(rng.integers(3, 10)), edge_prob=0.5)
        sem2 = perturb_sem(rng, sem1, n_changes=int(rng.integers(1, 6)))
        for eps in (0.01, 0.05, 0.125):
            assert check_assumptions(sem1, sem2, eps) == _reference_check(sem1, sem2, eps)

    def test_a_failing_report_names_a_real_violation(self, generator_candidates):
        # whatever the walk order, the edge and subset that a separation
        # failure names hold a gap below 2 eps by the inverse, as printed
        named = 0
        for base1, base2, eps in generator_candidates:
            renamed = _with_string_labels(base1), _with_string_labels(base2)
            for sem1, sem2 in ((base1, base2), renamed):
                report = check_assumptions(sem1, sem2, eps)
                if report.failed_condition != "separation":
                    continue
                edge, name, shown, subset = DETAIL.fullmatch(report.detail).groups()
                (i, j), s = ast.literal_eval(f"({edge})"), set(ast.literal_eval(subset))
                assert (i, j) in report.delta_edges and {i, j} <= s
                delta = difference_edge_set(sem1, sem2)
                assert not s & report.invariant
                # ancestor-closed
                assert all(parent in s or parent in report.invariant
                           for (child, parent) in delta.edges if child in s)
                covs = covariance(sem1), covariance(sem2)
                gap = dict(zip(GAP_NAMES, _inverse_gaps(covs, sem1.labels, i, j, s)))[name]
                assert gap < 2.0 * eps
                assert float(shown) == pytest.approx(gap, rel=1e-3, abs=1e-12)
                named += 1
        assert named >= 100  # 58 candidates, each under both label kinds

    def test_cholesky_tail_matches_the_inverse(self, generator_candidates):
        # the walk reads both gaps from _cholesky_tail with i, j last; the
        # reference reads them from the inverse in label order. Partial
        # correlations lie in [-1, 1] and can be structural zeros, so the
        # absolute floor is 1e-12 of that scale
        rng = np.random.default_rng(11)
        sizes = set()
        for sem1, sem2, _ in generator_candidates[::2]:
            covs = np.stack([covariance(sem1), covariance(sem2)])
            for i, j in sorted(difference_edge_set(sem1, sem2).edges)[:4]:
                ii, jj = sem1.index(i), sem1.index(j)
                others = [k for k in range(sem1.p) if k not in (ii, jj)]
                for size in (0, int(rng.integers(1, len(others) + 1))):
                    rest = sorted(rng.choice(others, size=size, replace=False).tolist())
                    sizes.add(size)
                    tail = [*rest, ii, jj]
                    rho, diag = oracles._cholesky_tail(covs[:, tail][:, :, tail])
                    keep = sorted(tail)
                    om = np.linalg.inv(covs[:, keep][:, :, keep])
                    si, sj = keep.index(ii), keep.index(jj)
                    ref_rho = -om[:, si, sj] / np.sqrt(om[:, si, si] * om[:, sj, sj])
                    for got, ref in ((rho, ref_rho), (diag, om[:, sj, sj])):
                        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)
                        gap, ref_gap = abs(got[0] - got[1]), abs(ref[0] - ref[1])
                        np.testing.assert_allclose(gap, ref_gap, rtol=1e-12, atol=1e-12)
        assert 0 in sizes and max(sizes) > 10  # S = {i, j} and wide subsets

    def test_stacked_cholesky_is_bitwise_the_single_cholesky(self, generator_candidates):
        # the walk factors a chunk of both models' submatrices in one call,
        # so where _CHUNK splits a level cannot move a verdict
        rng = np.random.default_rng(7)
        for sem1, sem2, _ in generator_candidates[::5]:
            covs = np.stack([covariance(sem1), covariance(sem2)])
            k = int(rng.integers(2, sem1.p + 1))
            idx = np.sort(np.array([rng.choice(sem1.p, size=k, replace=False) for _ in range(9)]))
            stack = covs[:, idx[:, :, None], idx[:, None, :]]
            single = np.stack([
                np.stack([np.linalg.cholesky(cov[np.ix_(row, row)]) for row in idx])
                for cov in covs
            ])
            assert np.array_equal(np.linalg.cholesky(stack), single)
            assert np.array_equal(np.linalg.cholesky(stack[:, 3:]), single[:, 3:])
