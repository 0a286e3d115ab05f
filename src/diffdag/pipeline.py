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
pair, and ``compute_order`` and ``prune`` append each step to the run's trace.
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
from .sem import ZERO_TOL, CovariancePair, DagEdgeSet, _output_order

# a run makes at most PRUNE_BUDGET distinct prune estimates
PRUNE_BUDGET = 2048


@dataclass(frozen=True)
class LayeredOrder:
    """Disjoint vertex layers in elimination order, earliest first.

    Layer k holds vertices removed at stage k; vertices eliminated later sit
    earlier in the causal order of the difference DAG (terminal vertices come
    out first).
    """

    layers: tuple = ()

    def __post_init__(self):
        layers = tuple(frozenset(layer) for layer in self.layers)
        seen: set = set()
        for layer in layers:
            if not layer:
                raise ValueError("layers must be nonempty")
            if layer & seen:
                raise ValueError("layers must be pairwise disjoint")
            seen |= layer
        object.__setattr__(self, "layers", layers)

    def layer_of(self, label) -> int:
        for k, layer in enumerate(self.layers):
            if label in layer:
                return k
        raise KeyError(f"label {label!r} is in no layer")

    def to_json(self) -> list:
        return [_output_order(layer) for layer in self.layers]


@dataclass(frozen=True)
class PipelineConfig:
    """How the pipeline estimates and reads the precision difference.

    ``estimator`` picks exact population solves or the constrained-l1
    program; ``estimate`` says how each is read. The population estimate
    thresholds at ``ZERO_TOL`` and reads no ``est_cfg``, so with it an
    ``est_cfg`` other than the default is rejected rather than dropped.
    """

    estimator: str = "population"
    est_cfg: EstimatorConfig = EstimatorConfig()

    def __post_init__(self):
        if self.estimator not in ("population", "dantzig"):
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if self.estimator == "population" and self.est_cfg != EstimatorConfig():
            raise ValueError(f"the population estimator reads no est_cfg, got {self.est_cfg!r}")

    @classmethod
    def from_json(cls, obj: dict) -> "PipelineConfig":
        kwargs = dict(obj)
        if "est_cfg" in kwargs:
            kwargs["est_cfg"] = EstimatorConfig.from_json(kwargs["est_cfg"])
        return cls(**kwargs)


@dataclass(frozen=True)
class PipelineResult:
    """Everything the pipeline produced, including the elimination order.

    ``trace`` lists the run's steps in order, one dict per step keyed by
    ``"stage"``: the full estimate, the invariant vertices, each peeled layer
    and re-estimate, the oriented edges, and each prune test and removal.
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
    chosen threshold. Each peel and re-estimate is appended to ``trace``.
    """
    remaining = list(cov.labels)
    layers: list[frozenset] = []
    dp = initial
    while len(remaining) > 1:
        peeled = [lab for lab in remaining if dp.entry(lab, lab) == 0.0]
        if not peeled:
            raise OrderStallError(
                f"no zero-diagonal vertex among {len(remaining)} remaining; "
                "assumptions violated or epsilon too small",
                stuck_delta=dp,
            )
        layers.append(frozenset(peeled))
        peeled_set = set(peeled)
        remaining = [lab for lab in remaining if lab not in peeled_set]
        trace.append(
            {"stage": "order_layer", "layer": _output_order(peeled), "remaining": _output_order(remaining)}
        )
        if len(remaining) <= 1:
            break
        dp = estimate(cov.restrict(remaining), cfg)
        trace.append({"stage": "order_estimate", "labels": _output_order(remaining), "delta": dp})
    if len(remaining) == 1:
        layers.append(frozenset(remaining))
    return LayeredOrder(tuple(layers))


def orient_edges(dp: DeltaPrecision, order: LayeredOrder) -> DagEdgeSet:
    """Turn difference support pairs into directed edges along the layers.

    For each layer in elimination order and each vertex i in it, every
    support partner j outside the layer contributes the edge (i, j) unless
    the reverse was already added. Earlier-eliminated vertices therefore end
    up as children. The result does not depend on the order of the vertices
    within a layer, or of their partners.
    """
    delta: set = set()
    for layer in order.layers:
        for i in layer:
            for j in dp.nonzero_partners(i):
                if j in layer or (j, i) in delta:
                    continue
                delta.add((i, j))
    return DagEdgeSet(vertices=frozenset(dp.labels), edges=frozenset(delta))


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
    test. Each test and removal is appended to ``trace``.
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
                trace.append({"stage": "prune_remove", "edge": [i, j], "dropped": dropped})
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
    trace: list = [
        {"stage": "estimate_full", "labels": _output_order(cov.labels), "delta": dp_full},
        {"stage": "invariant_vertices", "invariant": _output_order(invariant)},
    ]
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
