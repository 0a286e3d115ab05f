"""Exception types shared across the package."""


class DiffDagError(Exception):
    """Base class for all library-specific failures."""


class InvalidModelError(DiffDagError, ValueError):
    """A SEM or edge set violates its structural invariants."""


class InvalidCovarianceError(DiffDagError, ValueError):
    """A covariance input is unusable (wrong shape, asymmetric, or not PD)."""


class GenerationExhaustedError(DiffDagError):
    """Rejection sampling hit its retry cap without an acceptable SEM pair."""


class InfeasibleEstimateError(DiffDagError):
    """The constrained l1 program has no feasible point at the given radius."""


class EstimatorConvergenceError(DiffDagError):
    """The LP backend stopped before reaching optimality."""


class OrderStallError(DiffDagError):
    """Layer extraction found no zero-diagonal vertex while several remain.

    Carries the stuck difference-of-precision estimate for diagnosis.
    """

    def __init__(self, message: str, stuck_delta=None):
        super().__init__(message)
        self.stuck_delta = stuck_delta


class VertexMismatchError(DiffDagError, ValueError):
    """Two edge sets are defined over different vertex sets."""
