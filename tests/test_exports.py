"""The package's public names."""

import argparse
import inspect
from dataclasses import fields

import diffdag as dd
from diffdag.cli import build_parser


def test_all_is_sorted_unique_and_resolves():
    assert dd.__all__ == sorted(set(dd.__all__))
    for name in dd.__all__:
        assert getattr(dd, name) is not None, name


def test_all_is_pinned():
    # a public name is added or brought back only with a change to this list
    assert dd.__all__ == [
        "AssumptionReport", "CellSummary", "CovariancePair", "DagEdgeSet", "DeltaPrecision",
        "DiffDagError", "EstimatorConfig", "EstimatorConvergenceError", "ExperimentRecord",
        "GenerationExhaustedError", "InfeasibleEstimateError", "InvalidCovarianceError",
        "InvalidModelError", "LayeredOrder", "OrderStallError", "PipelineConfig",
        "PipelineResult", "PruneBudgetError", "ScoreResult", "Sem", "SemPairGenConfig",
        "SweepConfig", "VertexMismatchError", "aggregate", "check_assumptions", "compute_order",
        "covariance", "dantzig_selector", "difference_edge_set", "estimate", "estimate_dantzig",
        "generate_sem_pair", "load_data_csv", "load_sem", "minimax_sample_bound", "orient_edges",
        "precision", "prune", "run_pipeline", "run_sweep", "run_trial", "sample", "sample_budget",
        "save_data_csv", "save_sem", "score", "solve_population", "threshold", "write_sweep",
    ]


def test_deleted_names_stay_gone():
    assert "IncoherenceReport" not in dd.__all__
    assert not hasattr(dd.estimators, "IncoherenceReport")
    # inlined into CovariancePair.from_data, its one caller
    assert "empirical_covariance" not in dd.__all__
    assert not hasattr(dd.sem, "empirical_covariance")
    # the package reads its inputs, not the artifacts it writes
    for cls in (dd.PipelineResult, dd.DeltaPrecision, dd.DagEdgeSet):
        assert not hasattr(cls, "from_json"), cls.__name__
    # nothing in the package runs them: the two closed forms are in
    # tests/helpers.py, and the other two were wrappers
    for name in ("marginalize_sem", "delta_omega_entry", "is_terminal_invariant",
                 "partial_correlation"):
        assert name not in dd.__all__
        assert not hasattr(dd, name), name
        assert not hasattr(dd.oracles, name), name


def test_unneeded_members_stay_gone():
    # an edge set is read through its edges; Sem and DagEdgeSet check
    # acyclicity without building an order
    for member in ("children", "parents", "degree"):
        assert not hasattr(dd.DagEdgeSet, member), member
    assert not hasattr(dd.sem, "_canonical_topo_positions")
    # one ancestry relation decides cycles and gives the checker its
    # ancestors: no second cycle check in sem, no closure helper in oracles
    assert [name for name in vars(dd.sem) if "acycl" in name or "ancest" in name] == ["_ancestry"]
    assert not [name for name in vars(dd.oracles) if "closure" in name or "acycl" in name]
    assert not hasattr(dd.oracles, "difference_edge_set")
    # the subset walk counts the pairs it examines; nothing counts the lattice
    assert not hasattr(dd.oracles, "_downset_count")
    assert not hasattr(dd.CovariancePair, "is_population")
    assert not hasattr(dd.SemPairGenConfig, "to_json")
    assert not hasattr(dd.sem, "sem_to_json")
    assert not hasattr(dd.sem, "sem_from_json")
    # no test-only accessors on Sem
    assert "MarginalSem" not in dd.__all__
    assert not hasattr(dd.oracles, "MarginalSem")
    for member in ("parents", "children", "edge_set", "topological_order"):
        assert not hasattr(dd.Sem, member), member
    assert not hasattr(dd.Sem([[0.0]], [1.0]), "_topo_positions")
    # a convergence failure's message names the residual; nothing read a field
    assert "__init__" not in vars(dd.EstimatorConvergenceError)
    assert not hasattr(dd.EstimatorConvergenceError("stopped"), "best_residual")
    # _program builds the one program per solve; no second builder seam
    assert not hasattr(dd.estimators, "_program_arrays")
    # write_sweep writes the four files of a sweep; no writer per file
    for name in ("write_records_csv", "write_summary_json", "write_plot_tsv",
                 "format_summary_table"):
        assert not hasattr(dd, name), name
        assert not hasattr(dd.experiments, name), name


def test_config_fields_are_pinned():
    # the trace, the prune cap, the HiGHS limits and the auto radius's
    # scale are not settings
    assert [f.name for f in fields(dd.PipelineConfig)] == ["estimator", "est_cfg"]
    assert [f.name for f in fields(dd.EstimatorConfig)] == ["lambda_n", "epsilon", "lambda_auto"]
    # the generator's weights, noise and attempt limit are sem constants
    assert [f.name for f in fields(dd.SemPairGenConfig)] == [
        "p", "expected_neighbors", "edge_change_prob", "min_delta_omega", "seed"
    ]


def test_cli_options_are_pinned():
    # the inputs pick the estimator, so there is no --population
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {}
    for name, sub in commands.choices.items():
        options[name] = [o for a in sub._actions for o in a.option_strings if o not in ("-h", "--help")]
    io = ["--sem1", "--sem2", "--data1", "--data2", "--epsilon", "--lambda", "--lambda-auto", "--output-dir"]
    assert options == {
        "generate": ["--p", "--seed", "--expected-neighbors", "--edge-change-prob",
                     "--min-delta-omega", "--config", "--output-dir"],
        "estimate-delta": io,
        "run-pipeline": [*io, "--strict", "--trace"],
        "check-assumptions": ["--sem1", "--sem2", "--epsilon", "--strict"],
        "sweep": ["--config", "--seed", "--output-dir"],
        "bound": ["--p", "--d"],
    }


def test_stage_parameters_are_pinned():
    # run_pipeline passes every parameter, so none is optional
    for stage, names in (
        (dd.compute_order, ["cov", "cfg", "initial", "trace"]),
        (dd.prune, ["delta", "cov", "order", "cfg", "trace"]),
    ):
        params = inspect.signature(stage).parameters
        assert list(params) == names
        assert all(param.default is param.empty for param in params.values()), stage.__name__


def test_prune_budget_is_a_constant():
    # one budget per run, counted in distinct prune estimates; past it a run fails
    assert dd.pipeline.PRUNE_BUDGET == 2048
    assert issubclass(dd.PruneBudgetError, dd.DiffDagError)


def test_checker_budget_is_a_constant():
    assert list(inspect.signature(dd.check_assumptions).parameters) == ["sem1", "sem2", "epsilon"]
    assert dd.oracles.SUBSET_BUDGET == 100_000


def test_fixed_values_are_module_constants():
    assert dd.sem.WEIGHT_RANGE == (0.25, 1.0)
    assert dd.sem.NOISE_VAR_RANGE == (0.8, 1.2)
    assert dd.sem.MAX_ATTEMPTS == 1000
