"""Layer extraction, orientation, pruning, and the end-to-end pipeline.

Hand-built models with known difference DAGs pin the layer structure and the
common-children pruning behavior; generated pairs check the population
exactness, supergraph and layer-consistency properties against the
generator's ground truth.
"""

import json
from dataclasses import asdict

import numpy as np
import pytest

import diffdag as dd
from diffdag import (
    CovariancePair,
    DagEdgeSet,
    DeltaPrecision,
    EstimatorConfig,
    LayeredOrder,
    OrderStallError,
    PipelineConfig,
    Sem,
    VertexMismatchError,
    compute_order,
    estimate,
    orient_edges,
    prune,
    run_pipeline,
    score,
)
from helpers import mixed_label_pair, random_sem, topological_order

POP = PipelineConfig(estimator="population")


def _pair_cov(sem1, sem2):
    return CovariancePair.from_sems(sem1, sem2)


def _order(cov):
    return compute_order(cov, POP, estimate(cov, POP), [])


def _reweighted(sem, changes):
    b2 = np.array(sem.b)
    for (i, j), w in changes.items():
        b2[i, j] = w
    return Sem(b2, sem.noise_vars, sem.labels)


class TestInvariantVertices:
    def test_zero_matrix_all_invariant(self):
        dp = DeltaPrecision(np.zeros((4, 4)))
        assert dp.zero_rows() == frozenset(range(4))
        assert DeltaPrecision(np.zeros((0, 0))).zero_rows() == frozenset()

    def test_single_nonzero_pair(self):
        m = np.zeros((4, 4))
        m[1, 2] = m[2, 1] = 0.5
        assert DeltaPrecision(m).zero_rows() == frozenset({0, 3})

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force_rows(self, seed):
        sem1, sem2, _ = dd.generate_sem_pair(dd.SemPairGenConfig(p=8, seed=seed))
        dom = dd.precision(sem1) - dd.precision(sem2)
        expected = frozenset(
            int(i) for i in range(8) if np.abs(dom[i]).max() <= 1e-9
        )
        assert estimate(_pair_cov(sem1, sem2), POP).zero_rows() == expected


class TestComputeOrder:
    def test_single_edge_terminal_first(self):
        # difference edge 0 <- 1 over a 2-vertex model
        b = np.zeros((2, 2))
        b[0, 1] = 0.5
        sem1 = Sem(b, np.ones(2))
        sem2 = _reweighted(sem1, {(0, 1): 0.9})
        order = _order(_pair_cov(sem1, sem2))
        assert order.layers == (frozenset({0}), frozenset({1}))

    def test_two_disconnected_edges_share_first_layer(self):
        b = np.zeros((4, 4))
        b[0, 1] = 0.5
        b[2, 3] = 0.6
        sem1 = Sem(b, np.ones(4))
        sem2 = _reweighted(sem1, {(0, 1): 0.8, (2, 3): 0.9})
        order = _order(_pair_cov(sem1, sem2))
        assert order.layers[0] == frozenset({0, 2})
        assert order.layers == (frozenset({0, 2}), frozenset({1, 3}))

    def test_chain_gives_singleton_layers(self):
        # difference chain 0 <- 1 <- 2
        b = np.zeros((3, 3))
        b[0, 1] = 0.5
        b[1, 2] = 0.6
        sem1 = Sem(b, np.ones(3))
        sem2 = _reweighted(sem1, {(0, 1): 0.8, (1, 2): 0.9})
        order = _order(_pair_cov(sem1, sem2))
        assert order.layers == (frozenset({0}), frozenset({1}), frozenset({2}))

    def test_stall_raises_with_stuck_estimate(self):
        cov = CovariancePair(np.eye(2), np.eye(2))
        stuck = DeltaPrecision(np.diag([0.5, 0.7]))
        with pytest.raises(OrderStallError) as exc:
            compute_order(cov, POP, stuck, [])
        assert exc.value.stuck_delta is stuck

    def test_single_label_is_its_own_layer(self):
        cov = CovariancePair(np.eye(1), np.eye(1), labels=(4,))
        order = _order(cov)
        assert order.layers == (frozenset({4}),)


class TestOrientEdges:
    def test_diagonal_only_gives_no_edges(self):
        dp = DeltaPrecision(np.diag([0.4, 0.0, 0.3]))
        order = LayeredOrder((frozenset({1}), frozenset({0, 2})))
        assert orient_edges(dp, order).edges == frozenset()

    def test_single_support_pair_oriented_toward_early_layer(self):
        m = np.zeros((2, 2))
        m[0, 1] = m[1, 0] = 0.5
        m[1, 1] = 0.4
        dp = DeltaPrecision(m)
        order = LayeredOrder((frozenset({0}), frozenset({1})))
        assert orient_edges(dp, order).edges == frozenset({(0, 1)})

    def test_common_child_pattern_creates_spurious_edge(self):
        # child 2 of both 0 and 1; the changed edge (2, 0) leaves a difference
        # entry between the co-parents 0 and 1 that only pruning can explain
        b = np.zeros((3, 3))
        b[2, 0] = 1.0
        b[2, 1] = 0.5
        sem1 = Sem(b, np.ones(3))
        sem2 = _reweighted(sem1, {(2, 0): 0.3})
        cov = _pair_cov(sem1, sem2)
        dp = estimate(cov, POP)
        order = compute_order(cov, POP, dp, [])
        assert order.layers == (frozenset({1, 2}), frozenset({0}))
        rough = orient_edges(dp, order)
        assert rough.edges == frozenset({(1, 0), (2, 0)})  # (1, 0) is spurious


class TestPrune:
    def _common_child_setup(self):
        b = np.zeros((3, 3))
        b[2, 0] = 1.0
        b[2, 1] = 0.5
        sem1 = Sem(b, np.ones(3))
        sem2 = _reweighted(sem1, {(2, 0): 0.3})
        cov = _pair_cov(sem1, sem2)
        dp = estimate(cov, POP)
        order = compute_order(cov, POP, dp, [])
        rough = orient_edges(dp, order)
        return cov, order, rough

    def test_removes_common_child_artifact(self):
        cov, order, rough = self._common_child_setup()
        pruned = prune(rough, cov, order, POP, [])
        assert pruned.edges == frozenset({(2, 0)})

    def test_keeps_true_edges_untouched(self):
        b = np.zeros((2, 2))
        b[0, 1] = 0.5
        sem1 = Sem(b, np.ones(2))
        sem2 = _reweighted(sem1, {(0, 1): 0.9})
        cov = _pair_cov(sem1, sem2)
        dp = estimate(cov, POP)
        order = compute_order(cov, POP, dp, [])
        rough = orient_edges(dp, order)
        assert prune(rough, cov, order, POP, []).edges == rough.edges == frozenset({(0, 1)})

    # the setup's prune estimates: the full set, then without 2, then without 1
    SETUP_ESTIMATES = 3

    def test_budget_past_the_run_raises_naming_budget_and_edge(self, monkeypatch):
        cov, order, rough = self._common_child_setup()
        k = self.SETUP_ESTIMATES - 1
        monkeypatch.setattr(dd.pipeline, "PRUNE_BUDGET", k)
        trace: list = []
        with pytest.raises(dd.PruneBudgetError, match=rf"prune budget {k} spent: {k} distinct "
                           r"estimates made, and edge \(2, 0\) needs another"):
            prune(rough, cov, order, POP, trace)
        # the spurious edge (1, 0) went before the budget ran out
        assert [e["edge"] for e in trace if e["stage"] == "prune_remove"] == [[1, 0]]

    def test_budget_of_exactly_the_run_prunes_in_full(self, monkeypatch):
        cov, order, rough = self._common_child_setup()
        monkeypatch.setattr(dd.pipeline, "PRUNE_BUDGET", self.SETUP_ESTIMATES)
        trace: list = []
        assert prune(rough, cov, order, POP, trace).edges == frozenset({(2, 0)})
        tested = {tuple(e["dropped"]) for e in trace if e["stage"] == "prune_test"}
        assert len(tested) == self.SETUP_ESTIMATES

    # the population pairs of p = 20/25/30 and seeds 0-29 that make the most
    # prune estimates, as (p, seed, distinct estimates): the two largest at
    # p = 30 and the largest overall
    @pytest.mark.parametrize("p, seed, estimates", [(30, 17, 192), (30, 14, 100), (25, 1, 238)])
    def test_population_pairs_stay_well_under_the_budget(self, p, seed, estimates):
        sem1, sem2, truth = dd.generate_sem_pair(dd.SemPairGenConfig(p=p, seed=seed))
        result = run_pipeline(_pair_cov(sem1, sem2), POP)
        assert result.delta.edges == truth.edges
        # a dropped set is the complement of a retained set
        tested = {tuple(e["dropped"]) for e in result.trace if e["stage"] == "prune_test"}
        assert len(tested) == estimates
        assert 8 * estimates < dd.pipeline.PRUNE_BUDGET


class TestHamming:
    def test_equal_sets(self):
        a = DagEdgeSet(frozenset({1, 2}), frozenset({(1, 2)}))
        assert score(a, a).hamming == 0

    def test_empty_versus_single(self):
        v = frozenset({1, 2})
        assert score(DagEdgeSet(v, frozenset()), DagEdgeSet(v, {(1, 2)})).hamming == 1

    def test_orientation_counts_twice(self):
        v = frozenset({1, 2})
        a = DagEdgeSet(v, frozenset({(1, 2)}))
        b = DagEdgeSet(v, frozenset({(2, 1)}))
        assert score(a, b).hamming == 2

    def test_vertex_mismatch(self):
        a = DagEdgeSet(frozenset({1}), frozenset())
        b = DagEdgeSet(frozenset({2}), frozenset())
        with pytest.raises(VertexMismatchError):
            score(a, b)


class TestRunPipeline:
    def test_identical_sems_all_invariant(self):
        sem = random_sem(np.random.default_rng(1), 5)
        res = run_pipeline(_pair_cov(sem, sem), POP)
        assert res.invariant_vertices == frozenset(sem.labels)
        assert res.delta.edges == frozenset()
        assert res.delta.vertices == frozenset()
        assert res.order.layers == ()

    def test_single_changed_edge_recovered(self):
        rng = np.random.default_rng(5)
        sem1 = random_sem(rng, 4, edge_prob=0.6)
        order = topological_order(sem1)
        child, parent = order[-1], order[0]
        i, j = sem1.index(child), sem1.index(parent)
        old = sem1.b[i, j]
        sem2 = _reweighted(sem1, {(i, j): old + 0.5})
        res = run_pipeline(_pair_cov(sem1, sem2), POP)
        assert res.delta.edges == frozenset({(child, parent)})

    @pytest.mark.parametrize("seed", range(25))
    def test_population_exactness_on_generated_pairs(self, seed):
        sem1, sem2, truth = dd.generate_sem_pair(dd.SemPairGenConfig(p=8, seed=seed))
        res = run_pipeline(_pair_cov(sem1, sem2), POP)
        assert res.delta.edges == truth.edges

    @pytest.mark.parametrize("seed", [2, 5, 9, 14, 21])
    def test_supergraph_and_layer_consistency(self, seed):
        sem1, sem2, truth = dd.generate_sem_pair(dd.SemPairGenConfig(p=10, seed=seed))
        cov = _pair_cov(sem1, sem2)
        dp = estimate(cov, POP)
        inv = dp.zero_rows()
        v = [lab for lab in cov.labels if lab not in inv]
        if not v:
            return
        cov_v = cov.restrict(v)
        dp_v = dp.restrict(v)
        order = compute_order(cov_v, POP, dp_v, [])
        rough = orient_edges(dp_v, order)
        assert rough.edges >= truth.edges
        for (i, j) in truth.edges:
            assert order.layer_of(i) != order.layer_of(j)
        # first layer is exactly the set of difference-terminal vertices of V
        children_of = {x: {c for (c, par) in truth.edges if par == x} for x in v}
        terminal = {x for x in v if not (children_of[x] & set(v))}
        assert order.layers[0] == frozenset(terminal)

    def test_result_edges_respect_layers(self):
        sem1, sem2, _ = dd.generate_sem_pair(dd.SemPairGenConfig(p=10, seed=2))
        res = run_pipeline(_pair_cov(sem1, sem2), POP)
        for (i, j) in res.delta.edges:
            assert res.order.layer_of(j) > res.order.layer_of(i)

    def test_dantzig_estimator_on_exact_covariances_matches(self):
        sem1, sem2, truth = dd.generate_sem_pair(dd.SemPairGenConfig(p=6, seed=3))
        cfg = PipelineConfig(
            estimator="dantzig", est_cfg=EstimatorConfig(lambda_n=0.0, epsilon=1e-7)
        )
        res = run_pipeline(_pair_cov(sem1, sem2), cfg)
        assert res.delta.edges == truth.edges

    def test_trace_records_stages(self):
        sem1, sem2, _ = dd.generate_sem_pair(dd.SemPairGenConfig(p=6, seed=8))
        res = run_pipeline(_pair_cov(sem1, sem2), POP)
        stages = {entry["stage"] for entry in res.trace}
        assert "estimate_full" in stages
        assert "invariant_vertices" in stages
        payload = res.to_json()
        assert "trace" in payload

    @pytest.mark.parametrize("estimator", ["population", "dantzig"])
    def test_each_estimate_is_checked_once_and_no_restriction_is(self, monkeypatch, estimator):
        # every restriction and threshold of a checked object is derived from it
        sem1, sem2, _ = dd.generate_sem_pair(dd.SemPairGenConfig(p=8, seed=2))
        if estimator == "population":
            cov, cfg = _pair_cov(sem1, sem2), POP
        else:
            x1, x2 = dd.sample(sem1, 2000, seed=1), dd.sample(sem2, 2000, seed=2)
            cov = CovariancePair.from_data(x1, x2)
            cfg = PipelineConfig(estimator="dantzig", est_cfg=EstimatorConfig(lambda_auto=True))
        checks = {"CovariancePair": 0, "DeltaPrecision": 0}
        for cls in (CovariancePair, DeltaPrecision):
            def checked(self, real=cls.__post_init__, name=cls.__name__):
                checks[name] += 1
                real(self)

            monkeypatch.setattr(cls, "__post_init__", checked)
        estimates = []  # the p of each estimate

        def counted(sub, cfg, real=dd.pipeline.estimate):
            estimates.append(sub.p)
            return real(sub, cfg)

        monkeypatch.setattr(dd.pipeline, "estimate", counted)
        run_pipeline(cov, cfg)
        assert len(estimates) > 5 and min(estimates) < 8
        assert checks == {"CovariancePair": 0, "DeltaPrecision": len(estimates)}

    def test_json_shape(self):
        sem1, sem2, _ = dd.generate_sem_pair(dd.SemPairGenConfig(p=5, seed=11))
        res = run_pipeline(_pair_cov(sem1, sem2), POP)
        payload = res.to_json()
        assert set(payload) >= {"invariant", "layers", "edges"}
        assert payload["edges"] == sorted(payload["edges"])


class TestPipelineConfig:
    @pytest.mark.parametrize("est_cfg", [
        EstimatorConfig(epsilon=0.3), EstimatorConfig(lambda_n=0.1), EstimatorConfig(lambda_auto=True),
    ], ids=["epsilon", "lambda_n", "lambda_auto"])
    def test_population_rejects_an_est_cfg_it_would_ignore(self, est_cfg):
        # the population estimate thresholds at ZERO_TOL: a set est_cfg would be dropped
        with pytest.raises(ValueError, match="the population estimator reads no est_cfg"):
            PipelineConfig(estimator="population", est_cfg=est_cfg)
        with pytest.raises(ValueError, match="reads no est_cfg"):
            PipelineConfig.from_json({"estimator": "population", "est_cfg": asdict(est_cfg)})
        assert PipelineConfig(estimator="dantzig", est_cfg=est_cfg).est_cfg == est_cfg

    def test_population_takes_the_default_est_cfg(self):
        assert PipelineConfig(estimator="population", est_cfg=EstimatorConfig()) == POP
        assert PipelineConfig.from_json({"estimator": "population", "est_cfg": {}}) == POP


class TestLayeredOrder:
    def test_layers_must_be_disjoint(self):
        with pytest.raises(ValueError):
            LayeredOrder((frozenset({1}), frozenset({1, 2})))

    def test_layers_must_be_nonempty(self):
        with pytest.raises(ValueError):
            LayeredOrder((frozenset(),))

    def test_layer_of_unknown_label(self):
        order = LayeredOrder((frozenset({1}),))
        with pytest.raises(KeyError):
            order.layer_of(9)


def test_mixed_type_labels_are_recovered_and_written():
    # the outputs list labels sorted, by repr when they cannot be compared
    sem1, sem2, edges = mixed_label_pair()
    res = run_pipeline(CovariancePair.from_sems(sem1, sem2), POP)
    assert res.delta.edges == edges
    assert any(len({type(lab) for lab in layer}) > 1 for layer in res.order.layers)
    payload = json.loads(json.dumps(res.to_json()))
    assert payload["trace"][0]["labels"] == ["a", 1, 2, 3, 4]
    assert payload["edges"] == [list(e) for e in sorted(edges, key=repr)]
    assert payload["layers"] == [sorted(layer, key=repr) for layer in res.order.layers]
