"""Properties over generated inputs: relabeling and JSON round-trips.

Hypothesis runs derandomized with few examples and no example database, so
every run draws the same cases.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import diffdag as dd

FIXED = settings(derandomize=True, database=None, deadline=None, max_examples=15)


def _json_round_trip(obj):
    return json.loads(json.dumps(obj.to_json()))


@st.composite
def relabeled_pairs(draw):
    """A generated population pair, and a reordering and renaming of it."""
    p = draw(st.integers(3, 8))
    seed = draw(st.integers(0, 10_000))
    order = draw(st.permutations(range(p)))
    names = [f"v{k}" for k in draw(st.permutations(range(p)))]
    sem1, sem2, truth = dd.generate_sem_pair(dd.SemPairGenConfig(p=p, seed=seed))
    cov = dd.CovariancePair.from_sems(sem1, sem2)
    idx = np.ix_(order, order)
    moved = dd.CovariancePair(
        cov.sigma1[idx], cov.sigma2[idx], labels=tuple(names[k] for k in order)
    )
    return cov, moved, names, truth


@FIXED
@given(relabeled_pairs())
def test_pipeline_commutes_with_reordering_and_renaming_vertices(case):
    cov, moved, names, truth = case
    cfg = dd.PipelineConfig(estimator="population")
    base, got = dd.run_pipeline(cov, cfg), dd.run_pipeline(moved, cfg)
    assert base.delta.edges == truth.edges
    assert got.delta.edges == {(names[i], names[j]) for i, j in base.delta.edges}
    assert got.invariant_vertices == {names[k] for k in base.invariant_vertices}
    assert got.order.layers == tuple(
        frozenset(names[k] for k in layer) for layer in base.order.layers
    )


@st.composite
def delta_precisions(draw):
    p = draw(st.integers(1, 5))
    values = draw(
        st.lists(st.floats(-10.0, 10.0), min_size=p * (p + 1) // 2, max_size=p * (p + 1) // 2)
    )
    m = np.zeros((p, p))
    m[np.triu_indices(p)] = values
    m = m + np.triu(m, 1).T
    labels = draw(st.lists(st.text(max_size=3), min_size=p, max_size=p, unique=True))
    dp = dd.DeltaPrecision(m, tuple(labels))
    epsilon = draw(st.none() | st.floats(0.01, 5.0))
    return dp if epsilon is None else dd.threshold(dp, epsilon)


@FIXED
@given(delta_precisions())
def test_delta_precision_json_round_trip(dp):
    back = dd.DeltaPrecision.from_json(_json_round_trip(dp))
    np.testing.assert_array_equal(back.matrix, dp.matrix)
    assert back.labels == dp.labels
    assert back.threshold_applied == dp.threshold_applied


@st.composite
def edge_sets(draw):
    vertices = draw(st.sets(st.integers(-50, 50), max_size=8))
    # edges point from a larger vertex to a smaller one, which keeps them acyclic
    pairs = st.tuples(st.sampled_from(sorted(vertices)), st.sampled_from(sorted(vertices)))
    edges = draw(st.sets(pairs.filter(lambda e: e[0] > e[1]), max_size=10)) if len(vertices) > 1 else set()
    return dd.DagEdgeSet(frozenset(vertices), frozenset(edges))


@FIXED
@given(edge_sets())
def test_dag_edge_set_json_round_trip(edges):
    assert dd.DagEdgeSet.from_json(_json_round_trip(edges)) == edges


@st.composite
def generator_configs(draw):
    p = draw(st.integers(2, 60))
    unset = st.none()
    lo = draw(st.floats(0.01, 2.0))
    nlo = draw(st.floats(0.1, 2.0))
    return dd.SemPairGenConfig(
        p=p,
        expected_neighbors=draw(unset | st.floats(0.01, p - 1)),
        edge_change_prob=draw(unset | st.floats(0.001, 0.999)),
        weight_range=(lo, lo + draw(st.floats(0.0, 2.0))),
        min_delta_omega=draw(st.floats(0.0, 1.0)),
        seed=draw(st.integers(0, 2**32)),
        noise_var_range=(nlo, nlo + draw(st.floats(0.0, 2.0))),
        max_retries=draw(st.integers(1, 5000)),
    )


@FIXED
@given(generator_configs())
def test_generator_config_json_round_trip(cfg):
    assert dd.SemPairGenConfig.from_json(_json_round_trip(cfg)) == cfg
