"""Direct estimation of the structural difference between two linear SEMs.

Given two sets of observations drawn from structural equation models that
share a topological order and noise variances, the package estimates the
difference of their precision matrices (exactly in the population setting, or
through a constrained-l1 program on empirical covariances) and recovers the
difference DAG by invariant-vertex removal, layered terminal elimination,
edge orientation and common-children pruning. A benchmark harness reproduces
the synthetic study at desk scale.
"""

from .errors import (
    DiffDagError,
    EstimatorConvergenceError,
    GenerationExhaustedError,
    InfeasibleEstimateError,
    InvalidCovarianceError,
    InvalidModelError,
    OrderStallError,
    PruneBudgetError,
    VertexMismatchError,
)
from .estimators import (
    DeltaPrecision,
    EstimatorConfig,
    dantzig_selector,
    estimate_dantzig,
    solve_population,
    threshold,
)
from .experiments import (
    CellSummary,
    ExperimentRecord,
    ScoreResult,
    SweepConfig,
    aggregate,
    format_summary_table,
    run_sweep,
    run_trial,
    sample_budget,
    score,
    write_plot_tsv,
    write_records_csv,
    write_summary_json,
)
from .oracles import (
    AssumptionReport,
    check_assumptions,
    minimax_sample_bound,
)
from .pipeline import (
    LayeredOrder,
    PipelineConfig,
    PipelineResult,
    compute_order,
    estimate,
    orient_edges,
    prune,
    run_pipeline,
)
from .sem import (
    CovariancePair,
    DagEdgeSet,
    Sem,
    SemPairGenConfig,
    covariance,
    difference_edge_set,
    generate_sem_pair,
    load_data_csv,
    load_sem,
    precision,
    sample,
    save_data_csv,
    save_sem,
)

__version__ = "0.1.0"

__all__ = [
    "AssumptionReport",
    "CellSummary",
    "CovariancePair",
    "DagEdgeSet",
    "DeltaPrecision",
    "DiffDagError",
    "EstimatorConfig",
    "EstimatorConvergenceError",
    "ExperimentRecord",
    "GenerationExhaustedError",
    "InfeasibleEstimateError",
    "InvalidCovarianceError",
    "InvalidModelError",
    "LayeredOrder",
    "OrderStallError",
    "PipelineConfig",
    "PipelineResult",
    "PruneBudgetError",
    "ScoreResult",
    "Sem",
    "SemPairGenConfig",
    "SweepConfig",
    "VertexMismatchError",
    "aggregate",
    "check_assumptions",
    "compute_order",
    "covariance",
    "dantzig_selector",
    "difference_edge_set",
    "estimate",
    "estimate_dantzig",
    "format_summary_table",
    "generate_sem_pair",
    "load_data_csv",
    "load_sem",
    "minimax_sample_bound",
    "orient_edges",
    "precision",
    "prune",
    "run_pipeline",
    "run_sweep",
    "run_trial",
    "sample",
    "sample_budget",
    "save_data_csv",
    "save_sem",
    "score",
    "solve_population",
    "threshold",
    "write_plot_tsv",
    "write_records_csv",
    "write_summary_json",
]
