"""Recovery of the difference DAG from a covariance pair.

Four stages, all driven by precision-difference estimates. Vertices whose
difference rows vanish are invariant and dropped. The remainder is peeled
into layers: vertices with a zero difference diagonal are terminal in the
difference DAG, so they are extracted, removed, and the difference is
re-estimated over what is left. Support pairs of the original (restricted)
difference are then oriented from earlier-eliminated vertex to later, which
yields a supergraph of the truth. Finally each edge is re-tested with
candidate common-children subsets removed; an edge whose entry can be zeroed
that way is an artifact of shared children and is pruned.

Every estimate after the first is over ``CovariancePair.restrict`` of the
pair; the run's trace holds the estimates, rough edges and prune tests alone.
Prune makes at most ``PRUNE_BUDGET`` distinct estimates in a run and raises
``PruneBudgetError`` before the next one, so a run either prunes every edge
in full or fails; it never returns a partly pruned edge set.

On exact covariances from a pair that passes ``oracles.check_assumptions``,
the pruned result equals the support of B1 - B2 exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

from .errors import OrderStallError, PruneBudgetError
from .estimators import (
    DeltaPrecision,
    EstimatorConfig,
    estimate_dantzig,
    resolve_lambda,
    solve_population,
    threshold,
)
from .sem import ZERO_TOL, CovariancePair, DagEdgeSet, _Config, _output_order

# a run makes at most PRUNE_BUDGET distinct prune estimates. It guards against
# prune's exponential cost and is not tuned: the heaviest op of the benchmark
# pools makes 33 (sweep-dantzig) and the heaviest C07 trial 297
PRUNE_BUDGET = 2048


@dataclass(frozen=True)
class LayeredOrder:
    """Disjoint vertex layers in elimination order, earliest first.

    Layer k holds vertices removed at stage k; vertices eliminated later sit
    earlier in the causal order of the difference DAG (terminal vertices come
    out first). Each label's layer is mapped once, and ``layer_of`` reads it.
    """

    layers: tuple = ()

    def __post_init__(self):
        layers = tuple(frozenset(layer) for layer in self.layers)
        if not all(layers):
            raise ValueError("layers must be nonempty")
        rank = {label: k for k, layer in enumerate(layers) for label in layer}
        if len(rank) < sum(map(len, layers)):
            raise ValueError("layers must be pairwise disjoint")
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "_rank", rank)

    def layer_of(self, label) -> int:
        if label not in self._rank:
            raise KeyError(f"label {label!r} is in no layer")
        return self._rank[label]

    def to_json(self) -> list:
        return [_output_order(layer) for layer in self.layers]


@dataclass(frozen=True)
class PipelineConfig(_Config):
    """How the pipeline estimates and reads the precision difference.

    ``estimator`` picks exact population solves or the constrained-l1
    program; ``estimate`` says how each is read. ``est_cfg`` is a section
    (``sem._Config``). The population estimate thresholds at ``ZERO_TOL``
    and reads no ``est_cfg``, so with it an ``est_cfg`` other than the
    default is rejected rather than dropped.
    """

    estimator: str = "population"
    est_cfg: EstimatorConfig = EstimatorConfig()

    def __post_init__(self):
        super().__post_init__()
        if self.estimator not in ("population", "dantzig"):
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if self.estimator == "population" and self.est_cfg != EstimatorConfig():
            raise ValueError(f"the population estimator reads no est_cfg, got {self.est_cfg!r}")


@dataclass(frozen=True)
class PipelineResult:
    """Everything the pipeline produced, including the elimination order.

    ``trace`` lists, in order, what the run measured that the result does
    not hold, one dict per step keyed by ``"stage"``: the full estimate, each
    re-estimate between peels, the rough oriented edges and each prune test.
    The invariant vertices and layers are fields, and a removal is the test
    whose entry is 0.0, so the trace does not state them a second time.
    """

    delta: DagEdgeSet
    invariant_vertices: frozenset
    order: LayeredOrder
    trace: tuple

    def to_json(self) -> dict:
        return {
            "invariant": _output_order(self.invariant_vertices),
            "layers": self.order.to_json(),
            "edges": [list(e) for e in self.delta.sorted_edges()],
            "trace": [
                {**entry, "delta": entry["delta"].to_json()}
                if "delta" in entry
                else dict(entry)
                for entry in self.trace
            ],
        }


def estimate(cov: CovariancePair, cfg: PipelineConfig) -> DeltaPrecision:
    """The thresholded precision difference in the configured mode.

    Population estimates are exact up to rounding and are thresholded at the
    numerical zero ``sem.ZERO_TOL``; constrained-l1 estimates are
    thresholded at ``est_cfg.epsilon``. An auto radius is resolved at cov's
    own p unless the caller resolved it first (``run_pipeline`` does, at the
    full p). A submatrix estimate is ``estimate(cov.restrict(labels), cfg)``.
    """
    if cfg.estimator == "population":
        return threshold(solve_population(cov), ZERO_TOL)
    return estimate_dantzig(cov, cfg.est_cfg)


def compute_order(
    cov: CovariancePair, cfg: PipelineConfig, initial: DeltaPrecision, trace: list
) -> LayeredOrder:
    """Peel zero-diagonal vertices into layers, re-estimating between peels.

    ``cov`` must already be restricted to the non-invariant vertices, and
    ``initial`` is the estimate over all of them. The loop runs while more
    than one vertex remains; a final leftover vertex becomes its own layer, so
    the layers partition the input labels. If some iteration finds no zero
    diagonal the run stalls, which signals an assumption violation or a badly
    chosen threshold. Each re-estimate is appended to ``trace``.
    """
    remaining = list(cov.labels)
    layers: list[frozenset] = []
    dp = initial
    while len(remaining) > 1:
        peeled = frozenset(lab for lab in remaining if dp.entry(lab, lab) == 0.0)
        if not peeled:
            raise OrderStallError(
                f"no zero-diagonal vertex among {len(remaining)} remaining; "
                "assumptions violated or epsilon too small",
                stuck_delta=dp,
            )
        layers.append(peeled)
        remaining = [lab for lab in remaining if lab not in peeled]
        if len(remaining) <= 1:
            break
        dp = estimate(cov.restrict(remaining), cfg)
        trace.append({"stage": "order_estimate", "delta": dp})
    if len(remaining) == 1:
        layers.append(frozenset(remaining))
    return LayeredOrder(tuple(layers))


def orient_edges(dp: DeltaPrecision, order: LayeredOrder) -> DagEdgeSet:
    """Turn difference support pairs into directed edges along the layers.

    Each nonzero off-diagonal D_ij whose endpoints lie in different layers
    gives the edge from the endpoint eliminated earlier: (i, j) when
    layer(i) < layer(j), otherwise (j, i). Earlier-eliminated vertices
    therefore end up as children. Estimates have a symmetric support; a
    hand-built D may not (``DeltaPrecision`` allows asymmetry up to 1e-10),
    and a pair with one nonzero entry is oriented by the same rule.
    """
    rank = order.layer_of
    edges = {
        (i, j) if rank(i) < rank(j) else (j, i)
        for i in dp.labels
        for j in dp.nonzero_partners(i)
        if rank(i) != rank(j)
    }
    return DagEdgeSet(vertices=frozenset(dp.labels), edges=frozenset(edges))


def prune(
    delta: DagEdgeSet,
    cov: CovariancePair,
    order: LayeredOrder,
    cfg: PipelineConfig,
    trace: list,
) -> DagEdgeSet:
    """Drop edges whose difference entry vanishes once common children go.

    For an edge (i, j), the candidate common children are the vertices
    eliminated strictly before j (descendants of j in the layered order),
    excluding i. Subsets are removed in increasing size and the difference is
    re-estimated over the rest; the first subset that zeroes the (i, j) entry
    kills the edge. Estimates are cached by retained set across edges, and the
    run may make ``PRUNE_BUDGET`` distinct ones; the next raises
    ``PruneBudgetError``, naming the budget, the count and the edge under
    test. Each test is appended to ``trace``.
    """
    kept = set(delta.edges)
    cache: dict[tuple, DeltaPrecision] = {}  # by retained labels, in cov's order
    for (i, j) in sorted(delta.edges, key=lambda e: (repr(e[0]), repr(e[1]))):
        desc = sorted(set().union(*order.layers[: order.layer_of(j)]) - {i}, key=repr)
        subsets = itertools.chain.from_iterable(
            itertools.combinations(desc, size) for size in range(len(desc) + 1)
        )
        for drop in subsets:
            drop_set = set(drop)
            retained = tuple(lab for lab in cov.labels if lab not in drop_set)
            if retained not in cache:
                if len(cache) >= PRUNE_BUDGET:
                    raise PruneBudgetError(
                        f"prune budget {PRUNE_BUDGET} spent: {len(cache)} distinct estimates "
                        f"made, and edge ({i!r}, {j!r}) needs another"
                    )
                cache[retained] = estimate(cov.restrict(retained), cfg)
            entry = cache[retained].entry(i, j)
            dropped = _output_order(drop)
            trace.append({"stage": "prune_test", "edge": [i, j], "dropped": dropped, "entry": entry})
            if entry == 0.0:
                kept.discard((i, j))
                break
    return DagEdgeSet(vertices=delta.vertices, edges=frozenset(kept))


def run_pipeline(cov: CovariancePair, cfg: PipelineConfig) -> PipelineResult:
    """Estimate, drop invariant vertices, order, orient, prune.

    Estimator failures propagate. When every vertex is invariant the result
    is an empty edge set over an empty vertex set.
    """
    if cfg.estimator == "dantzig":
        cfg = replace(cfg, est_cfg=resolve_lambda(cov, cfg.est_cfg))
    dp_full = estimate(cov, cfg)
    invariant = dp_full.zero_rows()
    v_labels = [lab for lab in cov.labels if lab not in invariant]
    trace: list = [{"stage": "estimate_full", "delta": dp_full}]
    if not v_labels:
        return PipelineResult(
            delta=DagEdgeSet(frozenset(), frozenset()),
            invariant_vertices=invariant,
            order=LayeredOrder(()),
            trace=tuple(trace),
        )
    cov_v = cov.restrict(v_labels)
    dp_v = dp_full.restrict(v_labels)
    order = compute_order(cov_v, cfg, dp_v, trace)
    rough = orient_edges(dp_v, order)
    trace.append({"stage": "orient_edges", "edges": [list(e) for e in rough.sorted_edges()]})
    pruned = prune(rough, cov_v, order, cfg, trace)
    return PipelineResult(delta=pruned, invariant_vertices=invariant, order=order, trace=tuple(trace))
