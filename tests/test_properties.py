"""Properties over generated inputs: relabeling and rescaling, loud failure
of the population pipeline on broken assumptions, the constrained-l1 path's
symmetries, JSON round-trips, and the draws, ancestry relation and subset walks
behind the generator.

Hypothesis runs derandomized with few examples and no example database, so
every run draws the same cases.
"""

import json
from collections import Counter
from dataclasses import asdict, replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diffdag as dd
from diffdag.errors import InvalidModelError
from diffdag.experiments import _trial_seed, sample_budget
from diffdag.oracles import _downsets_above
from diffdag.sem import _ancestry, _draw_slots
from helpers import C07_SWEEP, _scan_topo_positions

FIXED = settings(derandomize=True, database=None, deadline=None, max_examples=15)


def _json_round_trip(obj):
    return json.loads(json.dumps(obj.to_json()))


def _fields_round_trip(cfg):
    """The config's fields as the JSON a sweep config file holds."""
    return json.loads(json.dumps(asdict(cfg)))


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


@pytest.mark.parametrize("p", [10, 20, 25])
def test_population_edges_survive_rescaling_the_variables(p):
    # covariances D S D with D = diag(10^u), u ~ U(-3, 3) per variable, on the
    # pairs of seeds 0-9. The invariant set and layers are not compared: the
    # numerical zero ZERO_TOL is absolute, and rounding noise of up to 1e-8 on
    # the scaled solves moves them on some of these pairs
    cfg = dd.PipelineConfig(estimator="population")
    for seed in range(10):
        sem1, sem2, truth = dd.generate_sem_pair(dd.SemPairGenConfig(p=p, seed=seed))
        cov = dd.CovariancePair.from_sems(sem1, sem2)
        d = 10.0 ** np.random.default_rng(seed).uniform(-3, 3, p)
        outer = np.outer(d, d)
        scaled = dd.CovariancePair(cov.sigma1 * outer, cov.sigma2 * outer, labels=cov.labels)
        assert dd.run_pipeline(scaled, cfg).delta.edges == truth.edges, seed


def _broken_model_2(p, seed):
    """A generated pair's model 1, and its model 2 with one assumption broken.

    Each way: one noise variance scaled by 1 + delta, delta in {0.01, 0.2}, and
    one edge reversed unless that makes a cycle. The seed draws the vertex and
    the edge.
    """
    sem1, sem2, _ = dd.generate_sem_pair(dd.SemPairGenConfig(p=p, seed=seed))
    rng = np.random.default_rng((seed, 1))
    k = int(rng.integers(p))
    broken = []
    for delta in (0.01, 0.2):
        noise = np.array(sem2.noise_vars)
        noise[k] *= 1 + delta
        broken.append(dd.Sem(sem2.b, noise, sem2.labels))
    rows, cols = np.nonzero(sem2.b)
    if len(rows):
        e = int(rng.integers(len(rows)))
        i, j = rows[e], cols[e]
        b = np.array(sem2.b)
        b[j, i], b[i, j] = b[i, j], 0.0
        try:
            broken.append(dd.Sem(b, sem2.noise_vars, sem2.labels))
        except InvalidModelError:
            pass  # the reversal closes a cycle
    return sem1, broken


@pytest.mark.parametrize("p", [10, 20])
def test_population_pipeline_fails_loudly_when_an_assumption_breaks(p):
    # on the pairs of seeds 0-19 the population pipeline either stalls or
    # returns the support of B1 - B2' for the broken model 2'; it never returns
    # other edges, and no other failure, such as a spent prune budget, occurs
    cfg = dd.PipelineConfig(estimator="population")
    outcomes = Counter()
    for seed in range(20):
        sem1, broken = _broken_model_2(p, seed)
        for sem2 in broken:
            changed = zip(*np.nonzero(sem1.b != sem2.b))
            support = {(sem1.labels[i], sem1.labels[j]) for i, j in changed}
            try:
                result = dd.run_pipeline(dd.CovariancePair.from_sems(sem1, sem2), cfg)
            except dd.OrderStallError:
                outcomes["stalled"] += 1
                continue
            assert result.delta.edges == support, seed
            outcomes["returned"] += 1
    # both outcomes occur, so neither half of the property holds vacuously
    assert outcomes["stalled"] and outcomes["returned"], outcomes


# The C07 grid's first three trials per cell at p <= 10, as (p, c, rep):
# non-empty and empty estimates and order stalls, under a second of solves
C07_TRIALS = [(p, c, rep) for p in (5, 10) for c in C07_SWEEP.c_values for rep in range(3)]
FAILURES = (
    dd.OrderStallError, dd.InfeasibleEstimateError, dd.EstimatorConvergenceError, dd.PruneBudgetError
)


def _c07_trial_pair(p, c, rep):
    """The sampled covariance pair of one C07 trial, drawn as run_trial draws it."""
    seed = _trial_seed(C07_SWEEP.seed_base, p, c, rep)
    sem1, sem2, truth = dd.generate_sem_pair(replace(C07_SWEEP.gen, p=p, seed=seed))
    n = sample_budget(p, c, truth.max_degree())
    x1 = dd.sample(sem1, n, np.random.default_rng((seed, 1)))
    x2 = dd.sample(sem2, n, np.random.default_rng((seed, 2)))
    return dd.CovariancePair.from_data(x1, x2, sem1.labels)


def _dantzig_outcome(cov):
    """Edges, invariant set and layers of a C07 run, or its failure class."""
    try:
        result = dd.run_pipeline(cov, C07_SWEEP.pipeline)
    except FAILURES as exc:
        return type(exc).__name__
    return result.delta.edges, result.invariant_vertices, result.order.layers


@pytest.fixture(scope="module")
def c07_trials():
    """Each trial's covariance pair and its outcome as drawn."""
    pairs = [_c07_trial_pair(*key) for key in C07_TRIALS]
    outcomes = [_dantzig_outcome(cov) for cov in pairs]
    # the handful holds non-empty estimates and failures alike
    assert any(isinstance(o, str) for o in outcomes)
    assert any(not isinstance(o, str) and o[0] for o in outcomes)
    return list(zip(pairs, outcomes))


def test_dantzig_path_is_symmetric_in_the_two_conditions(c07_trials):
    # swapping S1 with S2 maps the program's solutions D to -D^T, which has
    # the same l1 norm and the same support after symmetrizing
    for cov, outcome in c07_trials:
        swapped = dd.CovariancePair(cov.sigma2, cov.sigma1, cov.n2, cov.n1, cov.labels)
        assert _dantzig_outcome(swapped) == outcome


def test_dantzig_path_does_not_depend_on_the_vertex_order(c07_trials):
    for cov, outcome in c07_trials:
        rev = np.ix_(range(cov.p)[::-1], range(cov.p)[::-1])
        moved = dd.CovariancePair(cov.sigma1[rev], cov.sigma2[rev], cov.n1, cov.n2, cov.labels[::-1])
        assert _dantzig_outcome(moved) == outcome


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
    back = _json_round_trip(dp)
    assert back == dp.to_json()
    assert (back["labels"], back["threshold"]) == (list(dp.labels), dp.threshold_applied)
    np.testing.assert_array_equal(np.array(back["matrix"]), dp.matrix)


def _fields(obj) -> dict:
    """Every attribute, with each array as its dtype, shape, bytes and write flag."""
    return {
        key: (v.dtype, v.shape, v.tobytes(), v.flags.writeable) if isinstance(v, np.ndarray) else v
        for key, v in vars(obj).items()
    }


@st.composite
def covariance_pairs(draw):
    """A checked pair of random covariances, population or empirical."""
    p = draw(st.integers(1, 7))
    labels = draw(st.lists(st.integers(-20, 20) | st.text(max_size=2), min_size=p, max_size=p, unique=True))
    counts = st.just(0) | st.integers(p, 500)
    sigmas = []
    for _ in range(2):
        a = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=p * p, max_size=p * p))).reshape(p, p)
        sigmas.append(a @ a.T + np.eye(p))
    return dd.CovariancePair(*sigmas, draw(counts), draw(counts), tuple(labels))


@FIXED
@given(covariance_pairs(), st.data())
def test_restrict_builds_what_the_checked_constructor_builds(cov, data):
    subset = data.draw(st.sets(st.sampled_from(cov.labels), min_size=1))
    keep = tuple(lab for lab in cov.labels if lab in subset)
    idx = np.ix_([cov.index(lab) for lab in keep], [cov.index(lab) for lab in keep])
    checked = dd.CovariancePair(cov.sigma1[idx], cov.sigma2[idx], cov.n1, cov.n2, keep)
    sub = cov.restrict(subset)
    assert type(sub) is dd.CovariancePair
    assert _fields(sub) == _fields(checked)


@FIXED
@given(delta_precisions(), st.data())
def test_delta_restrict_and_threshold_build_what_the_checked_constructor_builds(dp, data):
    subset = data.draw(st.sets(st.sampled_from(dp.labels)))
    keep = tuple(lab for lab in dp.labels if lab in subset)
    idx = np.ix_([dp.index(lab) for lab in keep], [dp.index(lab) for lab in keep])
    checked = dd.DeltaPrecision(dp.matrix[idx], keep, dp.threshold_applied)
    assert _fields(dp.restrict(subset)) == _fields(checked)

    epsilon = data.draw(st.floats(1e-3, 5.0))
    m = dp.matrix.copy()
    m[np.abs(m) <= epsilon] = 0.0
    assert _fields(dd.threshold(dp, epsilon)) == _fields(dd.DeltaPrecision(m, dp.labels, epsilon))


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
    back = _json_round_trip(edges)
    assert back == edges.to_json()
    assert back == {"vertices": sorted(edges.vertices), "edges": [list(e) for e in sorted(edges.edges)]}


@st.composite
def generator_configs(draw):
    p = draw(st.integers(2, 60))
    unset = st.none()
    return dd.SemPairGenConfig(
        p=p,
        expected_neighbors=draw(unset | st.floats(0.01, p - 1)),
        edge_change_prob=draw(unset | st.floats(0.001, 0.999)),
        min_delta_omega=draw(st.floats(0.0, 1.0)),
        seed=draw(st.integers(0, 2**32)),
    )


@FIXED
@given(generator_configs())
def test_generator_config_json_round_trip(cfg):
    assert dd.SemPairGenConfig.from_json(_fields_round_trip(cfg)) == cfg


def _pipeline_configs():
    # a fixed radius, or the auto rule with lambda_n left at 0; the population
    # estimator reads no est_cfg, so it takes only the default
    epsilon = st.floats(1e-3, 1.0)
    est = st.builds(dd.EstimatorConfig, lambda_n=st.floats(0.0, 10.0), epsilon=epsilon) | st.builds(
        dd.EstimatorConfig, epsilon=epsilon, lambda_auto=st.just(True)
    )
    return st.just(dd.PipelineConfig(estimator="population")) | st.builds(
        dd.PipelineConfig, estimator=st.just("dantzig"), est_cfg=est
    )


@FIXED
@given(_pipeline_configs())
def test_pipeline_config_json_round_trip(cfg):
    assert dd.PipelineConfig.from_json(_fields_round_trip(cfg)) == cfg


@st.composite
def sweep_configs(draw):
    p_values = tuple(draw(st.lists(st.integers(2, 40), min_size=1, max_size=4)))
    fixed_n = draw(st.none() | st.integers(max(p_values), 5000))
    return dd.SweepConfig(
        p_values=p_values,
        c_values=tuple(draw(st.lists(st.integers(1, 40), min_size=fixed_n is None, max_size=4))),
        repetitions=draw(st.integers(1, 50)),
        fixed_n=fixed_n,
        gen=draw(generator_configs()),
        pipeline=draw(_pipeline_configs()),
        seed_base=draw(st.integers(0, 2**32)),
    )


@FIXED
@given(sweep_configs())
def test_sweep_config_json_round_trip(cfg):
    assert dd.SweepConfig.from_json(_fields_round_trip(cfg)) == cfg


@st.composite
def supports(draw):
    """A random parent support; with a back edge it may hold a cycle."""
    p = draw(st.integers(1, 12))
    order = draw(st.permutations(range(p)))
    support = np.zeros((p, p), dtype=bool)
    for a, c in combinations(range(p), 2):
        if draw(st.booleans()):
            support[order[c], order[a]] = True
    if p > 1 and draw(st.integers(0, 3)) == 0:
        i, j = draw(st.lists(st.integers(0, p - 1), min_size=2, max_size=2, unique=True))
        support[i, j] = True
    return support


def _reachable(support, i):
    """The vertices a breadth-first walk over parents reaches from i, i included."""
    seen, frontier = {i}, [i]
    while frontier:
        frontier = [j for k in frontier for j in np.flatnonzero(support[k]) if j not in seen]
        seen.update(frontier)
    return seen


@settings(FIXED, max_examples=60)
@given(supports())
def test_cycle_check_raises_exactly_when_the_scan_finds_a_cycle(support):
    try:
        _scan_topo_positions(support)
    except InvalidModelError as scanned:
        with pytest.raises(InvalidModelError, match=str(scanned)):
            _ancestry(support)
        return
    reach = _ancestry(support)
    assert reach.dtype == bool and reach.shape == support.shape
    p = len(support)
    assert [set(np.flatnonzero(reach[i])) for i in range(p)] == [_reachable(support, i) for i in range(p)]


@st.composite
def labeled_dags(draw):
    """Labels of mixed types and an acyclic parents map over them."""
    labels = draw(
        st.lists(st.integers(0, 150) | st.text("abv012", max_size=3), min_size=1, max_size=8, unique=True)
    )
    order = draw(st.permutations(labels))
    parents = {lab: set() for lab in labels}
    for a, c in combinations(range(len(order)), 2):
        if draw(st.integers(0, 2)) == 0:
            parents[order[c]].add(order[a])
    return labels, parents


@settings(FIXED, max_examples=40)
@given(labeled_dags())
def test_subset_walk_matches_brute_force(dag):
    labels, parents = dag
    ranked = sorted(labels, key=repr)
    n = len(ranked)
    bit = {lab: 1 << (n - 1 - r) for r, lab in enumerate(ranked)}
    masks = {bit[lab]: sum(bit[q] for q in parents[lab]) for lab in labels}
    support = np.array([[q in parents[lab] for q in labels] for lab in labels], dtype=bool)
    reach = _ancestry(support)
    anc = {lab: sum(bit[q] for q, up in zip(labels, reach[k]) if up) for k, lab in enumerate(labels)}

    closed = [
        frozenset(s)
        for k in range(n + 1)
        for s in combinations(labels, k)
        if all(parents[v] <= set(s) for v in s)
    ]
    closed.sort(key=lambda s: (len(s), sorted(map(repr, s))))

    def walked(base):
        return [
            frozenset(lab for lab in labels if m & bit[lab])
            for level in _downsets_above(base, masks)
            for m in level
        ]

    assert walked(0) == closed
    for i in labels:
        for j in parents[i]:
            assert walked(anc[i]) == [s for s in closed if {i, j} <= s]


def _scalar_slots(rng, prob, addable, lo, hi):
    """One scalar draw per slot test, magnitude and sign."""
    fired = np.zeros(len(addable), dtype=bool)
    weights = np.zeros(len(addable))
    for k in range(len(addable)):
        fired[k] = rng.random() < prob
        if fired[k] and addable[k]:
            mag = rng.uniform(lo, hi)
            weights[k] = -mag if rng.random() < 0.5 else mag
    return fired, weights


@st.composite
def slot_draws(draw):
    """A seed, a count of 32-bit draws made first, and one slot pass."""
    n = draw(st.integers(0, 60))
    prob = draw(st.floats(0.0, 1.0))
    addable = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    lo = draw(st.floats(0.01, 2.0))
    hi = lo + draw(st.just(0.0) | st.floats(0.0, 3.0))
    return draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 3)), prob, addable, lo, hi


@settings(FIXED, max_examples=200)
@given(slot_draws())
def test_block_slot_draws_match_the_scalar_loop(case):
    seed, halves, prob, addable, lo, hi = case
    rngs = [np.random.default_rng(seed) for _ in range(2)]
    for rng in rngs:
        # an odd count leaves a buffered 32-bit half, which the draws must keep
        rng.integers(0, 2**31, size=halves, dtype=np.uint32)
    block = _draw_slots(rngs[0], prob, addable, lo, hi)
    scalar = _scalar_slots(rngs[1], prob, addable, lo, hi)
    np.testing.assert_array_equal(block[0], scalar[0])
    assert block[1].tobytes() == scalar[1].tobytes()
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
