"""Linear structural equation models and their Gaussian second moments.

A model is a pair (B, D) generating X_i = B[i, :] @ X + eps_i with independent
centered noise of variance D[i]. Row i of B holds the coefficients of X_i's
parents, so B[i, j] != 0 encodes the directed edge i <- j. Acyclicity of the
support makes (I - B) invertible, which gives closed forms for the covariance
(I-B)^-1 D (I-B)^-T and the precision (I-B)^T D^-1 (I-B).

The package checks each kind of input in one place, and every error names
the input and its value: a matrix through ``_matrix`` (square, finite, and
symmetric where required), a count through ``_integer`` (an integer, not a
bool, at least its lower bound) and a real setting through ``_real`` (finite
and non-negative, or positive). ``Sem``, ``CovariancePair`` and
``estimators.DeltaPrecision`` check their input once, in the constructor;
restrictions and thresholded copies are derived from a checked object
(``_Labeled._derive``) without a second check. ``Sem`` and ``DagEdgeSet``
reject a directed cycle through ``_ancestry``, which builds no topological
order; it is the one ancestry relation, and gives the assumption checker its
ancestors too.

The package's on-disk formats are decided here: ``_write_json`` and
``_write_lines`` write every artifact, and ``_output_order`` orders every
label list the package writes, by ``repr`` when the labels mix types that
cannot be compared. The package reads its inputs, not its artifacts:
``load_sem`` and ``load_data_csv`` read the model and sample files, and
JSON inputs, configs included, reject ``NaN`` and ``Infinity`` through
``_reject_constant``.

The module also hosts the random pair generator used by the benchmark
harness: an Erdos-Renyi DAG under a random topological order, a second model
obtained by per-slot edge deletions and order-consistent additions, and a
rejection loop that keeps only pairs whose precision difference is well
separated from zero.
"""

from __future__ import annotations

import json
import numbers
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import GenerationExhaustedError, InvalidCovarianceError, InvalidModelError

# The one numerical zero for population matrices: entries at or below it are
# structural zeros. Rounding noise of exact solves on generated pairs stays
# below 1e-13, and their real entries lie above 1e-6.
ZERO_TOL = 1e-9

# The generator's edge-weight magnitudes (signs are drawn uniformly, so
# weights lie in [-1, -0.25] union [0.25, 1]), its noise variances, and the
# candidate pairs it draws before giving up.
WEIGHT_RANGE = (0.25, 1.0)
NOISE_VAR_RANGE = (0.8, 1.2)
MAX_ATTEMPTS = 1000


def _symmetrize(m: np.ndarray) -> np.ndarray:
    return (m + m.T) / 2.0


def _integer(name: str, value, least: int | None = None, error: type[Exception] = ValueError) -> int:
    """``value`` as an int, which must not be a bool and, when ``least`` is given,
    must be at least ``least``; else ``error``, naming ``name`` and the value."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise error(f"{name} must be at least {least}, got {value!r}")
    return int(value)


def _real(name: str, value, positive: bool = False) -> float:
    """``value`` as a float, which must not be a bool and must be finite and non-negative,
    or positive when ``positive``; else ``ValueError``, naming ``name`` and the value."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not 0.0 <= value < np.inf or (positive and value == 0.0):
        sign = "positive" if positive else "non-negative"
        raise ValueError(f"{name} must be finite and {sign}, got {value!r}")
    return float(value)


def _matrix(name: str, value, error: type[Exception], symmetric_tol: float = 0.0) -> np.ndarray:
    """``value`` as a read-only float matrix, which must be square with finite
    entries and, when ``symmetric_tol`` is positive, symmetric to within
    ``symmetric_tol`` times max(1, its largest magnitude); else ``error``,
    naming ``name``."""
    m = np.array(value, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise error(f"{name} must be square, got {m.shape}")
    if not np.isfinite(m).all():
        raise error(f"{name} has non-finite entries (NaN or inf)")
    if symmetric_tol and m.size:
        if float(np.abs(m - m.T).max()) > symmetric_tol * max(1.0, float(np.abs(m).max())):
            raise error(f"{name} is not symmetric")
    m.setflags(write=False)
    return m


def _output_order(items) -> list:
    """``items`` sorted, or sorted by ``repr`` when they cannot be compared
    (labels of mixed types): the order of every label list the package writes."""
    try:
        return sorted(items)
    except TypeError:
        return sorted(items, key=repr)


def _ancestry(support: np.ndarray) -> np.ndarray:
    """The reflexive-transitive closure of the square boolean parent
    ``support``: entry (i, j) is True when j is i or an ancestor of i. k
    squarings of I | support reach the paths of 2^k >= p - 1 edges. An edge
    (i, j) with i among j's ancestors closes a directed cycle, which raises."""
    reach = (support | np.eye(len(support), dtype=bool)).astype(float)
    for _ in range(max(len(support) - 1, 0).bit_length()):
        reach = np.minimum(reach @ reach, 1.0)
    reach = reach > 0.0
    if (support & reach.T).any():
        raise InvalidModelError("edge support contains a directed cycle")
    return reach


class _Labeled:
    """Vertex labels with an index, shared by every labeled matrix type."""

    def _set_labels(self, p: int, error: type[Exception]) -> None:
        """Default the labels to 0..p-1, check them, and index them.

        Numpy scalars become the equal Python scalars, which the JSON writers
        take. A wrong count or a duplicated label raises ``error``, naming the
        problem.
        """
        labels = tuple(lab.item() if isinstance(lab, np.generic) else lab for lab in self.labels)
        labels = labels or tuple(range(p))
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

    def _derive(self, labels: tuple, **fields):
        """This checked object over ``labels``, a subset in its order, with
        ``fields`` replaced and replaced arrays made read-only.

        ``__post_init__`` does not run again: a principal submatrix or a
        thresholded copy of a checked matrix passes every check it makes.
        """
        new = object.__new__(type(self))
        index = {lab: k for k, lab in enumerate(labels)}
        new.__dict__.update(self.__dict__, **fields, labels=labels, _index=index)
        for value in fields.values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
        return new


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
        b = _matrix("edge-weight matrix", self.b, InvalidModelError)
        p = b.shape[0]
        if np.any(np.diag(b) != 0.0):
            raise InvalidModelError("edge-weight matrix must have zero diagonal")
        nv = np.array(self.noise_vars, dtype=float).reshape(-1)
        if nv.shape[0] != p:
            raise InvalidModelError("noise_vars length must match matrix dimension")
        if not np.isfinite(nv).all() or np.any(nv <= 0.0):
            raise InvalidModelError("noise variances must be strictly positive and finite")
        self._set_labels(p, InvalidModelError)
        _ancestry(b != 0.0)
        nv.setflags(write=False)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "noise_vars", nv)

    @property
    def p(self) -> int:
        return self.b.shape[0]


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
        _ancestry(support)

    def max_degree(self) -> int:
        """Largest number of incident edges over all vertices (0 if empty)."""
        return max(Counter(v for e in self.edges for v in e).values(), default=0)

    def with_vertices(self, vertices) -> "DagEdgeSet":
        """The same edges over a different (superset) vertex universe."""
        return DagEdgeSet(vertices=frozenset(vertices), edges=self.edges)

    def sorted_edges(self) -> list[tuple]:
        return _output_order(self.edges)

    def to_json(self) -> dict:
        return {"vertices": _output_order(self.vertices), "edges": [list(e) for e in self.sorted_edges()]}


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
    return _precision(sem.b, sem.noise_vars)


def _precision(b: np.ndarray, noise_vars: np.ndarray) -> np.ndarray:
    a = np.eye(b.shape[0]) - b
    return _symmetrize(a.T @ (a / noise_vars[:, None]))


def sample(sem: Sem, n: int, seed) -> np.ndarray:
    """Draw n i.i.d. rows of X = (I-B)^-1 eps with Gaussian noise.

    ``seed`` may be an int or a ``numpy.random.Generator``; equal seeds give
    identical outputs.
    """
    n = _integer("n", n, least=1)
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal((n, sem.p)) * np.sqrt(sem.noise_vars)
    a = np.eye(sem.p) - sem.b
    return np.linalg.solve(a, eps.T).T


@dataclass(frozen=True, eq=False)
class CovariancePair(_Labeled):
    """Two covariance matrices over a shared label ordering.

    Entries must be finite. A sample count of 0 marks its matrix as
    population-exact, which must be positive definite; empirical matrices
    only need to be symmetric, but a positive sample count below p is
    rejected.
    """

    sigma1: np.ndarray
    sigma2: np.ndarray
    n1: int = 0
    n2: int = 0
    labels: tuple = ()

    def __post_init__(self):
        s1, s2 = (_matrix(name, getattr(self, name), InvalidCovarianceError, 1e-12)
                  for name in ("sigma1", "sigma2"))
        if s1.shape != s2.shape or not s1.size:
            raise InvalidCovarianceError(
                f"covariance matrices must be non-empty and share a dimension, got {s1.shape} and {s2.shape}"
            )
        p = s1.shape[0]
        for name in ("n1", "n2"):
            n = _integer(name, getattr(self, name), least=0, error=InvalidCovarianceError)
            if 0 < n < p:
                raise InvalidCovarianceError(
                    f"{name}={n} samples are fewer than the p={p} variables; "
                    "the empirical covariance is singular"
                )
        self._set_labels(p, InvalidCovarianceError)
        for name, count, s in (("sigma1", "n1", s1), ("sigma2", "n2", s2)):
            if getattr(self, count) == 0:
                try:
                    np.linalg.cholesky(s)
                except np.linalg.LinAlgError:
                    raise InvalidCovarianceError(
                        f"population {name} ({count}=0) must be positive definite"
                    ) from None
        object.__setattr__(self, "sigma1", s1)
        object.__setattr__(self, "sigma2", s2)

    @property
    def p(self) -> int:
        return self.sigma1.shape[0]

    def restrict(self, labels) -> "CovariancePair":
        """The pair restricted to a label subset, in this pair's label order."""
        keep, idx = self._select(labels)
        if not keep:
            raise InvalidCovarianceError("cannot restrict to an empty label set")
        sub = np.ix_(idx, idx)
        return self._derive(keep, sigma1=self.sigma1[sub], sigma2=self.sigma2[sub])

    @classmethod
    def from_sems(cls, sem1: Sem, sem2: Sem) -> "CovariancePair":
        if sem1.labels != sem2.labels:
            raise InvalidModelError("SEMs must share labels")
        return cls(covariance(sem1), covariance(sem2), 0, 0, sem1.labels)

    @classmethod
    def from_data(cls, x1: np.ndarray, x2: np.ndarray, labels: tuple = ()) -> "CovariancePair":
        """The uncentered second-moment matrices (1/n) X^T X of two samples,
        made exactly symmetric. The generative model is zero-mean by
        construction, so no centering is applied."""
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        if x1.ndim != 2 or x2.ndim != 2 or x1.shape[1] != x2.shape[1] or min(len(x1), len(x2)) == 0:
            raise InvalidCovarianceError(
                f"data matrices must be 2-d, with rows and equal columns, got shapes {x1.shape} and {x2.shape}"
            )
        s1, s2 = (_symmetrize(x.T @ x / x.shape[0]) for x in (x1, x2))
        return cls(s1, s2, x1.shape[0], x2.shape[0], labels)


@dataclass(frozen=True)
class SemPairGenConfig:
    """Parameters of the random SEM pair generator.

    ``expected_neighbors`` and ``edge_change_prob`` left unset stay None, and
    ``generate_sem_pair`` resolves them at the config's p, as sqrt(p) (at most
    p - 1) and 0.5/p, so a copy with another p draws at that p.
    ``min_delta_omega`` is enforced on every nonzero entry of the population
    precision difference by rejection sampling, together with the 2*eps
    partial-correlation separations at eps = min_delta_omega / 2. Edge
    weights, noise variances and the attempt limit are the module constants
    ``WEIGHT_RANGE``, ``NOISE_VAR_RANGE`` and ``MAX_ATTEMPTS``.
    """

    p: int
    expected_neighbors: float | None = None
    edge_change_prob: float | None = None
    min_delta_omega: float = 0.25
    seed: int = 0

    def __post_init__(self):
        _integer("p", self.p, least=2)
        _integer("seed", self.seed, least=0)
        prob, neighbors = self.edge_change_prob, self.expected_neighbors
        if prob is not None and not 0.0 < _real("edge_change_prob", prob) < 1.0:
            raise ValueError(f"edge_change_prob must lie strictly between 0 and 1, got {prob!r}")
        if neighbors is not None and not 0.0 < _real("expected_neighbors", neighbors) <= self.p - 1:
            raise ValueError(f"expected_neighbors must lie in (0, p-1], got {neighbors!r}")
        _real("min_delta_omega", self.min_delta_omega)

    @classmethod
    def from_json(cls, obj: dict) -> "SemPairGenConfig":
        return cls(**obj)


def _draw_slots(
    rng: np.random.Generator, prob: float, addable: np.ndarray, lo: float, hi: float
) -> tuple[np.ndarray, np.ndarray]:
    """Test every slot with probability ``prob``; weigh the addable ones that fire.

    Returns the fired flags and the signed weights (0.0 where no weight was
    drawn). The random stream is used exactly as by this scalar loop:

        for k in range(n):
            fired[k] = rng.random() < prob
            if fired[k] and addable[k]:
                mag = rng.uniform(lo, hi)
                weights[k] = -mag if rng.random() < 0.5 else mag

    ``uniform(lo, hi)`` takes one double u and returns lo + (hi - lo) * u, so
    the doubles come in blocks, each holding only draws the loop is sure to
    make: one per untested slot and the rest of a pending magnitude/sign pair.
    Nothing is drawn ahead and rewound, which would drop the generator's
    buffered 32-bit half that ``permutation`` uses.
    """
    n = len(addable)
    fired = np.zeros(n, dtype=bool)
    weights = np.zeros(n)
    span = hi - lo
    slot = owed = 0  # next slot to test; draws owed to the weight of slot - 1
    while slot < n or owed:
        for u in rng.random(n - slot + owed).tolist():
            if not owed:
                if u < prob:
                    fired[slot] = True
                    owed = 2 if addable[slot] else 0
                slot += 1
            elif owed == 2:
                mag = lo + span * u
                owed = 1
            else:
                weights[slot - 1] = -mag if u < 0.5 else mag
                owed = 0
    return fired, weights


def generate_sem_pair(cfg: SemPairGenConfig) -> tuple[Sem, Sem, DagEdgeSet]:
    """Generate a pair of SEMs with a sparse, well-separated difference.

    The first model is an Erdos-Renyi DAG under a random topological order
    with per-slot edge probability expected_neighbors/(p-1), where unset
    ``expected_neighbors`` and ``edge_change_prob`` are resolved at ``cfg.p``
    (see ``SemPairGenConfig``). The second keeps
    the same order and noise variances; each existing edge is deleted and each
    absent order-consistent slot gains a fresh edge, independently with
    probability ``edge_change_prob``. Candidate pairs are rejected until every
    nonzero entry of the population precision difference has magnitude at
    least ``min_delta_omega`` and the partial-correlation separations hold at
    eps = min_delta_omega / 2 (see ``oracles.check_assumptions``).

    Draw order, per attempt: the permutation of the vertices; then, for each
    slot (parent a before child b in the order, by a then b), one double to
    test it, followed for each new edge by its magnitude and then its sign;
    the same pass again over the slots for the second model's changes; then
    the p noise variances. Each pair is a function of this order and the
    seed: changing the order changes every generated pair.

    After ``MAX_ATTEMPTS`` rejected attempts, ``GenerationExhaustedError``
    counts the attempts the ``min_delta_omega`` gate rejected and those
    ``check_assumptions`` rejected, by failed condition.
    """
    from .oracles import check_assumptions  # deferred: oracles imports this module

    rng = np.random.default_rng(cfg.seed)
    p = cfg.p
    neighbors = float(min(np.sqrt(p), p - 1)) if cfg.expected_neighbors is None else cfg.expected_neighbors
    change_prob = 0.5 / p if cfg.edge_change_prob is None else cfg.edge_change_prob
    q_edge = neighbors / (p - 1)
    lo, hi = WEIGHT_RANGE
    earlier, later = np.triu_indices(p, 1)  # slot positions in the order
    every_slot = np.ones(len(earlier), dtype=bool)
    gate_rejected = 0
    check_rejected: Counter = Counter()
    for _ in range(MAX_ATTEMPTS):
        order = rng.permutation(p)
        child, parent = order[later], order[earlier]
        in1, w1 = _draw_slots(rng, q_edge, every_slot, lo, hi)
        changed, w2 = _draw_slots(rng, change_prob, ~in1, lo, hi)
        noise = rng.uniform(*NOISE_VAR_RANGE, size=p)
        b1 = np.zeros((p, p))
        b1[child, parent] = w1
        b2 = np.zeros((p, p))
        b2[child, parent] = np.where(changed, w2, w1)  # w2 is 0.0 on a deleted edge

        gaps = np.abs(_precision(b1, noise) - _precision(b2, noise))
        gaps = gaps[gaps > ZERO_TOL]
        if gaps.size and float(gaps.min()) < cfg.min_delta_omega:
            gate_rejected += 1
            continue
        sem1 = Sem(b1, noise)
        sem2 = Sem(b2, noise)
        report = check_assumptions(sem1, sem2, cfg.min_delta_omega / 2.0)
        if not report.passed:
            check_rejected[report.failed_condition] += 1
            continue
        return sem1, sem2, difference_edge_set(sem1, sem2)
    by_condition = ", ".join(f"{cond}: {k}" for cond, k in sorted(check_rejected.items()))
    raise GenerationExhaustedError(
        f"no acceptable SEM pair after {MAX_ATTEMPTS} attempts: "
        f"{gate_rejected} rejected by the min_delta_omega={cfg.min_delta_omega:g} gate, "
        f"{check_rejected.total()} by check_assumptions"
        + (f" ({by_condition})" if by_condition else "")
    )


def _write_lines(lines, path) -> None:
    """Write ``lines`` to ``path`` as UTF-8, each ended by a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(obj, path) -> None:
    """Write ``obj`` to ``path`` as JSON indented by 2, keys sorted. It is
    encoded before the file is opened, so an object json cannot encode
    leaves no file behind."""
    _write_lines([json.dumps(obj, indent=2, sort_keys=True)], path)


def save_sem(sem: Sem, path) -> None:
    obj = {
        "p": sem.p,
        "labels": list(sem.labels),
        "b": [[float(v) for v in row] for row in sem.b],
        "noise_vars": [float(v) for v in sem.noise_vars],
    }
    _write_json(obj, path)


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a finite number")


def load_sem(path) -> Sem:
    """The SEM that ``save_sem`` wrote; a file that is not JSON, holds NaN
    or Infinity, has another shape or a ``"p"`` other than the size of
    ``"b"`` raises ``ValueError`` naming the path and the field, and a model
    that ``Sem`` rejects raises its ``InvalidModelError`` prefixed with the path."""
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh, parse_constant=_reject_constant)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: a SEM file holds a JSON object, not a {type(obj).__name__}")
    arrays = {}
    for field in ("b", "noise_vars"):
        if field not in obj:
            raise ValueError(f"{path}: missing field {field!r}")
        try:
            arrays[field] = np.array(obj[field], dtype=float)
        except (TypeError, ValueError):
            raise ValueError(f"{path}: field {field!r} is not an array of numbers") from None
    labels = obj.get("labels") or []
    if not (isinstance(labels, list) and all(isinstance(lab, (str, int, float)) for lab in labels)):
        raise ValueError(f"{path}: field 'labels' is not a list of strings or numbers")
    try:
        sem = Sem(b=arrays["b"], noise_vars=arrays["noise_vars"], labels=tuple(labels))
    except InvalidModelError as exc:
        raise InvalidModelError(f"{path}: {exc}") from None
    if "p" in obj and _integer(f"{path}: field 'p'", obj["p"]) != sem.p:
        raise ValueError(f"{path}: field 'p' is {obj['p']}, but 'b' is {sem.p} x {sem.p}")
    return sem


def save_data_csv(data: np.ndarray, path) -> None:
    """One observation per row, comma separated, no header.

    This is the format of the CLI's ``--data1``/``--data2`` files, which
    ``load_data_csv`` reads; the package never calls it, and it is public so
    that a caller can write that input (e.g. from ``sample``).
    """
    np.savetxt(path, np.asarray(data, dtype=float), delimiter=",")


def load_data_csv(path) -> np.ndarray:
    """The sample matrix that ``save_data_csv`` wrote; a file with no rows,
    a cell that is not a finite number or a ragged row raises ``ValueError``
    naming the path."""
    with warnings.catch_warnings():
        # the error below says it, and names the file
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            data = np.loadtxt(path, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if not data.size:
        raise ValueError(f"{path}: the data file has no rows")
    if not np.isfinite(data).all():
        raise ValueError(f"{path}: the data file has non-finite cells (NaN or inf)")
    return data
