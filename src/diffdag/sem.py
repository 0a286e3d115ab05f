"""Linear structural equation models and their Gaussian second moments.

A model is a pair (B, D) generating X_i = B[i, :] @ X + eps_i with independent
centered noise of variance D[i]. Row i of B holds the coefficients of X_i's
parents, so B[i, j] != 0 encodes the directed edge i <- j. Acyclicity of the
support makes (I - B) invertible, which gives closed forms for the covariance
(I-B)^-1 D (I-B)^-T and the precision (I-B)^T D^-1 (I-B).

The module also hosts the random pair generator used by the benchmark
harness: an Erdos-Renyi DAG under a random topological order, a second model
obtained by per-slot edge deletions and order-consistent additions, and a
rejection loop that keeps only pairs whose precision difference is well
separated from zero.
"""

from __future__ import annotations

import heapq
import json
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import GenerationExhaustedError, InvalidCovarianceError, InvalidModelError

# The one numerical zero for population matrices: entries at or below it are
# structural zeros. Rounding noise of exact solves on generated pairs stays
# below 1e-13, and their real entries lie above 1e-6.
ZERO_TOL = 1e-9


def _symmetrize(m: np.ndarray) -> np.ndarray:
    return (m + m.T) / 2.0


def _canonical_topo_positions(support: np.ndarray) -> list[int]:
    """Lexicographically minimal topological order of the row indices.

    ``support[i, j]`` True means j is a parent of i. Kahn's sort that always
    places the smallest ready index. Raises on cycles.
    """
    p = support.shape[0]
    missing = [0] * p  # unplaced parents of each row
    children: list[list[int]] = [[] for _ in range(p)]
    for child, parent in zip(*(k.tolist() for k in np.nonzero(support))):
        missing[child] += 1
        children[parent].append(child)
    ready = [i for i in range(p) if not missing[i]]
    placed: list[int] = []
    while ready:
        nxt = heapq.heappop(ready)
        placed.append(nxt)
        for child in children[nxt]:
            missing[child] -= 1
            if not missing[child]:
                heapq.heappush(ready, child)
    if len(placed) < p:
        raise InvalidModelError("edge support contains a directed cycle")
    return placed


class _Labeled:
    """Vertex labels with an index, shared by every labeled matrix type."""

    def _set_labels(self, p: int, error: type[Exception]) -> None:
        """Default the labels to 0..p-1, check them, and index them.

        A wrong count or a duplicated label raises ``error``, naming the
        problem.
        """
        labels = tuple(self.labels) if len(self.labels) else tuple(range(p))
        if len(labels) != p:
            raise error(f"labels must match the dimension: {len(labels)} labels for p={p} variables")
        if len(set(labels)) != p:
            duplicated = sorted((lab for lab, k in Counter(labels).items() if k > 1), key=repr)
            raise error(f"labels must be unique; duplicated: {duplicated!r}")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_index", {lab: k for k, lab in enumerate(labels)})

    def index(self, label) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(f"unknown vertex label {label!r}") from None

    def _select(self, labels) -> tuple[tuple, np.ndarray]:
        """The given labels in this object's order, and their positions.

        Raises ``KeyError`` naming every label this object does not have.
        """
        wanted = set(labels)
        keep = tuple(lab for lab in self.labels if lab in wanted)
        missing = wanted - set(keep)
        if missing:
            raise KeyError(f"unknown vertex labels {sorted(missing, key=repr)!r}")
        return keep, np.array([self._index[lab] for lab in keep], dtype=int)


@dataclass(frozen=True, eq=False)
class Sem(_Labeled):
    """One linear SEM: edge-weight matrix, noise variances, vertex labels.

    ``b`` must have zero diagonal and acyclic support; ``noise_vars`` must be
    strictly positive and finite. Instances are immutable (arrays are marked
    read-only) and safe to share across threads.
    """

    b: np.ndarray
    noise_vars: np.ndarray
    labels: tuple = ()

    def __post_init__(self):
        b = np.array(self.b, dtype=float)
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise InvalidModelError(f"edge-weight matrix must be square, got {b.shape}")
        p = b.shape[0]
        if not np.isfinite(b).all():
            raise InvalidModelError("edge weights must be finite")
        if np.any(np.diag(b) != 0.0):
            raise InvalidModelError("edge-weight matrix must have zero diagonal")
        nv = np.array(self.noise_vars, dtype=float).reshape(-1)
        if nv.shape[0] != p:
            raise InvalidModelError("noise_vars length must match matrix dimension")
        if not np.isfinite(nv).all() or np.any(nv <= 0.0):
            raise InvalidModelError("noise variances must be strictly positive and finite")
        self._set_labels(p, InvalidModelError)
        topo = _canonical_topo_positions(b != 0.0)
        b.setflags(write=False)
        nv.setflags(write=False)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "noise_vars", nv)
        object.__setattr__(self, "_topo_positions", tuple(topo))

    @property
    def p(self) -> int:
        return self.b.shape[0]

    def topological_order(self) -> tuple:
        """Canonical (lexicographically minimal) topological order, as labels.

        Parents appear before their children.
        """
        return tuple(self.labels[i] for i in self._topo_positions)

    def parents(self, label) -> set:
        i = self.index(label)
        return {self.labels[j] for j in np.flatnonzero(self.b[i, :])}

    def children(self, label) -> set:
        j = self.index(label)
        return {self.labels[i] for i in np.flatnonzero(self.b[:, j])}

    def edge_set(self) -> "DagEdgeSet":
        rows, cols = np.nonzero(self.b)
        return DagEdgeSet(
            vertices=frozenset(self.labels),
            edges=frozenset((self.labels[i], self.labels[j]) for i, j in zip(rows, cols)),
        )


@dataclass(frozen=True)
class DagEdgeSet:
    """A set of directed edges over labeled vertices; (i, j) means i <- j."""

    vertices: frozenset
    edges: frozenset

    def __post_init__(self):
        vertices = frozenset(self.vertices)
        edges = frozenset(tuple(e) for e in self.edges)
        for e in edges:
            if len(e) != 2:
                raise InvalidModelError(f"edge {e!r} is not a pair")
            if e[0] not in vertices or e[1] not in vertices:
                raise InvalidModelError(f"edge {e!r} has an endpoint outside the vertex set")
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)
        self._check_acyclic()

    def _check_acyclic(self):
        index = {v: k for k, v in enumerate(self.vertices)}
        support = np.zeros((len(index), len(index)), dtype=bool)
        for child, parent in self.edges:
            if child == parent:
                raise InvalidModelError(f"self-loop at {child!r}")
            support[index[child], index[parent]] = True
        _canonical_topo_positions(support)

    def parents(self, label) -> set:
        return {j for (i, j) in self.edges if i == label}

    def children(self, label) -> set:
        return {i for (i, j) in self.edges if j == label}

    def degree(self, label) -> int:
        return sum(1 for e in self.edges if label in e)

    def max_degree(self) -> int:
        """Largest number of incident edges over all vertices (0 if empty)."""
        if not self.edges:
            return 0
        return max(self.degree(v) for v in self.vertices)

    def with_vertices(self, vertices) -> "DagEdgeSet":
        """The same edges over a different (superset) vertex universe."""
        return DagEdgeSet(vertices=frozenset(vertices), edges=self.edges)

    def sorted_edges(self) -> list[tuple]:
        return sorted(self.edges)

    def to_json(self) -> dict:
        return {"vertices": sorted(self.vertices), "edges": [list(e) for e in self.sorted_edges()]}

    @classmethod
    def from_json(cls, obj: dict) -> "DagEdgeSet":
        return cls(
            vertices=frozenset(obj["vertices"]),
            edges=frozenset(tuple(e) for e in obj["edges"]),
        )


def difference_edge_set(sem1: Sem, sem2: Sem) -> DagEdgeSet:
    """Support of B1 - B2 as a directed edge set over the full vertex set."""
    if sem1.labels != sem2.labels:
        raise InvalidModelError("SEMs must share labels to take a difference")
    rows, cols = np.nonzero(sem1.b != sem2.b)
    return DagEdgeSet(
        vertices=frozenset(sem1.labels),
        edges=frozenset((sem1.labels[i], sem1.labels[j]) for i, j in zip(rows, cols)),
    )


def covariance(sem: Sem) -> np.ndarray:
    """Population covariance (I-B)^-1 D (I-B)^-T of the model."""
    a = np.eye(sem.p) - sem.b
    ainv = np.linalg.solve(a, np.eye(sem.p))
    return _symmetrize(ainv @ np.diag(sem.noise_vars) @ ainv.T)


def precision(sem: Sem) -> np.ndarray:
    """Population precision (I-B)^T D^-1 (I-B) of the model."""
    a = np.eye(sem.p) - sem.b
    return _symmetrize(a.T @ (a / sem.noise_vars[:, None]))


def sample(sem: Sem, n: int, seed) -> np.ndarray:
    """Draw n i.i.d. rows of X = (I-B)^-1 eps with Gaussian noise.

    ``seed`` may be an int or a ``numpy.random.Generator``; equal seeds give
    identical outputs.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    eps = rng.standard_normal((n, sem.p)) * np.sqrt(sem.noise_vars)
    a = np.eye(sem.p) - sem.b
    return np.linalg.solve(a, eps.T).T


def empirical_covariance(data: np.ndarray) -> np.ndarray:
    """Uncentered second-moment matrix (1/n) X^T X.

    The generative model is zero-mean by construction, so no centering is
    applied. The result is exactly symmetric.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[0] < 1:
        raise ValueError("data must be a non-empty 2-d array")
    m = data.T @ data / data.shape[0]
    return _symmetrize(m)


@dataclass(frozen=True, eq=False)
class CovariancePair(_Labeled):
    """Two covariance matrices over a shared label ordering.

    Entries must be finite. ``n1 == n2 == 0`` marks population-exact
    matrices, which must be positive definite; empirical matrices only need
    to be symmetric, but a positive sample count below p is rejected.
    """

    sigma1: np.ndarray
    sigma2: np.ndarray
    n1: int = 0
    n2: int = 0
    labels: tuple = ()

    def __post_init__(self):
        s1 = np.array(self.sigma1, dtype=float)
        s2 = np.array(self.sigma2, dtype=float)
        for name, s in (("sigma1", s1), ("sigma2", s2)):
            if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] < 1:
                raise InvalidCovarianceError(f"{name} must be square and non-empty, got {s.shape}")
            if not np.isfinite(s).all():
                raise InvalidCovarianceError(f"{name} has non-finite entries (NaN or inf)")
            scale = max(1.0, float(np.abs(s).max()))
            if float(np.abs(s - s.T).max()) > 1e-12 * scale:
                raise InvalidCovarianceError(f"{name} is not symmetric")
        if s1.shape != s2.shape:
            raise InvalidCovarianceError("covariance matrices must share a dimension")
        if self.n1 < 0 or self.n2 < 0:
            raise InvalidCovarianceError("sample counts must be nonnegative")
        p = s1.shape[0]
        for name, n in (("n1", self.n1), ("n2", self.n2)):
            if 0 < n < p:
                raise InvalidCovarianceError(
                    f"{name}={n} samples are fewer than the p={p} variables; "
                    "the empirical covariance is singular"
                )
        self._set_labels(p, InvalidCovarianceError)
        if self.n1 == 0 and self.n2 == 0:
            for name, s in (("sigma1", s1), ("sigma2", s2)):
                try:
                    np.linalg.cholesky(s)
                except np.linalg.LinAlgError:
                    raise InvalidCovarianceError(
                        f"population {name} must be positive definite"
                    ) from None
        s1.setflags(write=False)
        s2.setflags(write=False)
        object.__setattr__(self, "sigma1", s1)
        object.__setattr__(self, "sigma2", s2)
        # (pair, index) this pair was restricted from, and the estimators'
        # constrained-l1 programs over this pair, keyed by their settings:
        # every restriction of one pair re-solves that pair's program
        object.__setattr__(self, "_source", None)
        object.__setattr__(self, "_programs", {})

    @property
    def p(self) -> int:
        return self.sigma1.shape[0]

    @property
    def is_population(self) -> bool:
        return self.n1 == 0 and self.n2 == 0

    def restrict(self, labels) -> "CovariancePair":
        """The pair restricted to a label subset, in this pair's label order."""
        keep, idx = self._select(labels)
        if not keep:
            raise InvalidCovarianceError("cannot restrict to an empty label set")
        sub = CovariancePair(
            sigma1=self.sigma1[np.ix_(idx, idx)],
            sigma2=self.sigma2[np.ix_(idx, idx)],
            n1=self.n1,
            n2=self.n2,
            labels=keep,
        )
        object.__setattr__(sub, "_source", (self, idx))
        return sub

    @classmethod
    def from_sems(cls, sem1: Sem, sem2: Sem) -> "CovariancePair":
        if sem1.labels != sem2.labels:
            raise InvalidModelError("SEMs must share labels")
        return cls(covariance(sem1), covariance(sem2), 0, 0, sem1.labels)

    @classmethod
    def from_data(cls, x1: np.ndarray, x2: np.ndarray, labels: tuple = ()) -> "CovariancePair":
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        if x1.ndim != 2 or x2.ndim != 2 or x1.shape[1] != x2.shape[1]:
            raise InvalidCovarianceError(
                f"data matrices must be 2-d with equal column counts, got shapes {x1.shape} and {x2.shape}"
            )
        return cls(
            empirical_covariance(x1),
            empirical_covariance(x2),
            x1.shape[0],
            x2.shape[0],
            labels,
        )


@dataclass(frozen=True)
class SemPairGenConfig:
    """Parameters of the random SEM pair generator.

    ``expected_neighbors`` defaults to sqrt(p), at most p - 1, and
    ``edge_change_prob`` to 0.5/p when left unset. ``weight_range`` is the
    magnitude interval of edge weights; signs are drawn uniformly, so the
    default corresponds to weights in [-1, -0.25] union [0.25, 1].
    ``min_delta_omega`` is enforced on every nonzero entry of the population
    precision difference by rejection sampling, together with the 2*eps
    partial-correlation separations at eps = min_delta_omega / 2.
    """

    p: int
    expected_neighbors: float | None = None
    edge_change_prob: float | None = None
    weight_range: tuple[float, float] = (0.25, 1.0)
    min_delta_omega: float = 0.25
    seed: int = 0
    noise_var_range: tuple[float, float] = (0.8, 1.2)
    max_retries: int = 1000

    def __post_init__(self):
        if self.p < 2:
            raise ValueError("p must be at least 2")
        if self.expected_neighbors is None:
            object.__setattr__(self, "expected_neighbors", float(min(np.sqrt(self.p), self.p - 1)))
        if self.edge_change_prob is None:
            object.__setattr__(self, "edge_change_prob", 0.5 / self.p)
        if not 0.0 < self.edge_change_prob < 1.0:
            raise ValueError("edge_change_prob must lie strictly between 0 and 1")
        if not 0.0 < self.expected_neighbors <= self.p - 1:
            raise ValueError("expected_neighbors must lie in (0, p-1]")
        lo, hi = self.weight_range
        if not 0.0 < lo <= hi:
            raise ValueError("weight_range must be a positive magnitude interval")
        if self.min_delta_omega < 0.0:
            raise ValueError("min_delta_omega must be nonnegative")
        nlo, nhi = self.noise_var_range
        if not 0.0 < nlo <= nhi:
            raise ValueError("noise_var_range must be a positive interval")
        if self.max_retries < 1:
            raise ValueError("max_retries must be at least 1")

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "expected_neighbors": self.expected_neighbors,
            "edge_change_prob": self.edge_change_prob,
            "weight_range": list(self.weight_range),
            "min_delta_omega": self.min_delta_omega,
            "seed": self.seed,
            "noise_var_range": list(self.noise_var_range),
            "max_retries": self.max_retries,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SemPairGenConfig":
        kwargs = dict(obj)
        for key in ("weight_range", "noise_var_range"):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)


def _draw_weight(rng: np.random.Generator, lo: float, hi: float) -> float:
    mag = rng.uniform(lo, hi)
    return -mag if rng.random() < 0.5 else mag


def generate_sem_pair(cfg: SemPairGenConfig) -> tuple[Sem, Sem, DagEdgeSet]:
    """Generate a pair of SEMs with a sparse, well-separated difference.

    The first model is an Erdos-Renyi DAG under a random topological order
    with per-slot edge probability expected_neighbors/(p-1). The second keeps
    the same order and noise variances; each existing edge is deleted and each
    absent order-consistent slot gains a fresh edge, independently with
    probability ``edge_change_prob``. Candidate pairs are rejected until every
    nonzero entry of the population precision difference has magnitude at
    least ``min_delta_omega`` and the partial-correlation separations hold at
    eps = min_delta_omega / 2 (see ``oracles.check_assumptions``).
    """
    from .oracles import check_assumptions  # deferred: oracles imports this module

    rng = np.random.default_rng(cfg.seed)
    p = cfg.p
    q_edge = cfg.expected_neighbors / (p - 1)
    lo, hi = cfg.weight_range
    for _ in range(cfg.max_retries):
        order = rng.permutation(p)
        slots = [
            (int(order[b]), int(order[a])) for a in range(p) for b in range(a + 1, p)
        ]  # (child, parent), parent earlier in the order
        b1 = np.zeros((p, p))
        for child, parent in slots:
            if rng.random() < q_edge:
                b1[child, parent] = _draw_weight(rng, lo, hi)
        b2 = b1.copy()
        for child, parent in slots:
            if b1[child, parent] != 0.0:
                if rng.random() < cfg.edge_change_prob:
                    b2[child, parent] = 0.0
            elif rng.random() < cfg.edge_change_prob:
                b2[child, parent] = _draw_weight(rng, lo, hi)
        noise = rng.uniform(cfg.noise_var_range[0], cfg.noise_var_range[1], size=p)
        sem1 = Sem(b1, noise)
        sem2 = Sem(b2, noise)

        delta_omega = precision(sem1) - precision(sem2)
        nonzero = np.abs(delta_omega) > ZERO_TOL
        if nonzero.any() and float(np.abs(delta_omega)[nonzero].min()) < cfg.min_delta_omega:
            continue
        if not check_assumptions(sem1, sem2, cfg.min_delta_omega / 2.0).passed:
            continue
        return sem1, sem2, difference_edge_set(sem1, sem2)
    raise GenerationExhaustedError(
        f"no acceptable SEM pair after {cfg.max_retries} attempts; "
        "the generator configuration looks unsatisfiable"
    )


def sem_to_json(sem: Sem) -> dict:
    return {
        "p": sem.p,
        "labels": list(sem.labels),
        "b": [[float(v) for v in row] for row in sem.b],
        "noise_vars": [float(v) for v in sem.noise_vars],
    }


def sem_from_json(obj: dict) -> Sem:
    return Sem(
        b=np.array(obj["b"], dtype=float),
        noise_vars=np.array(obj["noise_vars"], dtype=float),
        labels=tuple(obj.get("labels") or ()),
    )


def save_sem(sem: Sem, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(sem_to_json(sem), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_sem(path) -> Sem:
    with open(path, encoding="utf-8") as fh:
        return sem_from_json(json.load(fh))


def save_data_csv(data: np.ndarray, path) -> None:
    """One observation per row, comma separated, no header."""
    np.savetxt(path, np.asarray(data, dtype=float), delimiter=",")


def load_data_csv(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)
