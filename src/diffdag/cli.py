"""Command-line front-end; every subcommand is a thin adapter.

SEM inputs (``--sem1``/``--sem2``) are solved exactly and sample inputs
(``--data1``/``--data2``) by the constrained-l1 program. A flag the run would
ignore, such as ``--lambda`` with SEM inputs or ``--strict`` with data
inputs, is a usage error.

Exit codes: 0 on success, 1 on domain errors (infeasibility, order stall,
spent prune budget, assumption failure under --strict), 2 on usage errors
including malformed config files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import DiffDagError
from .estimators import EstimatorConfig, threshold
from .experiments import SweepConfig, run_sweep, write_sweep
from .oracles import check_assumptions, minimax_sample_bound
from .pipeline import PipelineConfig, estimate, run_pipeline
from .sem import (
    CovariancePair,
    Sem,
    SemPairGenConfig,
    _real,
    _reject_constant,
    _write_json,
    generate_sem_pair,
    load_data_csv,
    load_sem,
    save_sem,
)


_DEFAULT_EPSILON = EstimatorConfig().epsilon


class UsageError(Exception):
    """Bad invocation detected after argparse (e.g. malformed config file)."""


def _load_json(path: str) -> dict:
    """A config file's object; NaN and Infinity, which json accepts, are not."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, parse_constant=_reject_constant)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from None


def _finite_nonnegative(text: str) -> float:
    try:
        return _real("value", float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _require_positive_epsilon(args, parser: argparse.ArgumentParser) -> None:
    """Where --epsilon thresholds an estimate, 0 is a usage error: it would zero nothing."""
    if args.epsilon == 0.0:
        parser.error(
            f"--epsilon thresholds the estimate and must be positive, got {args.epsilon:g}"
        )


def _out_dir(args) -> Path:
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_generate(args, parser) -> int:
    cfg_dict = _load_json(args.config) if args.config else {}
    overrides = {
        "p": args.p,
        "seed": args.seed,
        "expected_neighbors": args.expected_neighbors,
        "edge_change_prob": args.edge_change_prob,
        "min_delta_omega": args.min_delta_omega,
    }
    cfg_dict.update({k: v for k, v in overrides.items() if v is not None})
    if "p" not in cfg_dict:
        raise UsageError("generate needs --p or a config file with p")
    try:
        cfg = SemPairGenConfig.from_json(cfg_dict)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad generator config: {exc}") from None
    sem1, sem2, delta = generate_sem_pair(cfg)
    out = _out_dir(args)
    save_sem(sem1, out / "sem1.json")
    save_sem(sem2, out / "sem2.json")
    _write_json(delta.to_json(), out / "true_delta.json")
    print(f"wrote sem1.json, sem2.json, true_delta.json to {out} "
          f"({len(delta.edges)} difference edges)")
    return 0


def _inputs(
    args, parser: argparse.ArgumentParser
) -> tuple[PipelineConfig, CovariancePair, tuple[Sem, Sem] | None]:
    """The estimator the inputs pick, the covariance pair, and the SEMs for SEM inputs.

    SEM inputs are solved exactly; data inputs go to the l1 program with the
    given flags. Any other mix of inputs, and a radius flag with SEM inputs,
    is a usage error.
    """
    if args.sem1 or args.sem2:
        if not (args.sem1 and args.sem2):
            parser.error("--sem1 and --sem2 must be given together")
        if args.data1 or args.data2:
            parser.error("give either SEM files or data files, not both")
        if args.lambda_ is not None or args.lambda_auto:
            parser.error("SEM inputs are solved exactly; they take no --lambda or --lambda-auto")
        sems = load_sem(args.sem1), load_sem(args.sem2)
        return PipelineConfig(estimator="population"), CovariancePair.from_sems(*sems), sems
    if not (args.data1 and args.data2):
        parser.error("need --sem1/--sem2 or --data1/--data2")
    _require_positive_epsilon(args, parser)
    kwargs = {}
    if args.epsilon is not None:
        kwargs["epsilon"] = args.epsilon
    if args.lambda_ is not None:
        kwargs["lambda_n"] = args.lambda_
    if args.lambda_auto:
        kwargs["lambda_auto"] = True
    cfg = PipelineConfig(estimator="dantzig", est_cfg=EstimatorConfig(**kwargs))
    return cfg, CovariancePair.from_data(load_data_csv(args.data1), load_data_csv(args.data2)), None


def _cmd_estimate_delta(args, parser) -> int:
    _require_positive_epsilon(args, parser)
    cfg, cov, sems = _inputs(args, parser)
    dp = estimate(cov, cfg)
    if sems and args.epsilon is not None:
        dp = threshold(dp, args.epsilon)
    out = _out_dir(args)
    _write_json(dp.to_json(), out / "delta.json")
    print(f"wrote delta.json to {out} ({dp.support_size()} nonzero entries)")
    return 0


def _cmd_run_pipeline(args, parser) -> int:
    if args.strict and not args.sem1:
        parser.error("--strict fails the run on the assumption check, which needs SEM inputs")
    cfg, cov, sems = _inputs(args, parser)
    if sems:
        report = check_assumptions(*sems, args.epsilon)
        if not report.passed:
            msg = f"assumption check failed: {report.failed_condition}: {report.detail}"
            if args.strict:
                print(f"error: {msg}", file=sys.stderr)
                return 1
            print(f"warning: {msg}", file=sys.stderr)
    result = run_pipeline(cov, cfg)
    payload = result.to_json()
    if not args.trace:
        del payload["trace"]
    out = _out_dir(args)
    _write_json(payload, out / "pipeline.json")
    print(f"wrote pipeline.json to {out} ({len(result.delta.edges)} difference edges, "
          f"{len(result.invariant_vertices)} invariant vertices)")
    return 0


def _cmd_check_assumptions(args, parser) -> int:
    report = check_assumptions(load_sem(args.sem1), load_sem(args.sem2), args.epsilon)
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return 1 if args.strict and not report.passed else 0


def _cmd_sweep(args, parser) -> int:
    cfg_dict = _load_json(args.config) if args.config else {}
    if args.seed is not None:
        cfg_dict["seed_base"] = args.seed
    try:
        cfg = SweepConfig.from_json(cfg_dict)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad sweep config: {exc}") from None
    records = run_sweep(cfg)
    out = _out_dir(args)
    summaries = write_sweep(records, out)
    print(f"wrote records.csv, summary.json, plot.tsv, table.txt to {out} "
          f"({len(records)} trials, {len(summaries)} cells)")
    return 0


def _cmd_bound(args, parser) -> int:
    print(minimax_sample_bound(args.p, args.d))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffdag",
        description="Directly estimate the structural difference between two linear SEMs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p: argparse.ArgumentParser, epsilon_help: str):
        p.add_argument("--sem1", help="first SEM as JSON; SEM inputs are solved exactly")
        p.add_argument("--sem2", help="second SEM as JSON")
        p.add_argument("--data1", help="first sample matrix as CSV, one row per observation")
        p.add_argument("--data2", help="second sample matrix as CSV")
        p.add_argument("--epsilon", type=_finite_nonnegative, default=None, help=epsilon_help)
        radius = p.add_mutually_exclusive_group()
        radius.add_argument("--lambda", dest="lambda_", type=_finite_nonnegative, default=None,
                            help="constraint radius of the l1 program (data inputs only)")
        radius.add_argument("--lambda-auto", action="store_true",
                            help="set the radius from the sample sizes (data inputs only)")
        p.add_argument("--output-dir", default=".", help="where to write artifacts")

    g = sub.add_parser("generate", help="generate a random SEM pair with a sparse difference")
    g.add_argument("--p", type=int, default=None, help="number of vertices")
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("--expected-neighbors", type=float, default=None)
    g.add_argument("--edge-change-prob", type=float, default=None)
    g.add_argument("--min-delta-omega", type=_finite_nonnegative, default=None)
    g.add_argument("--config", help="generator config JSON; flags override")
    g.add_argument("--output-dir", default=".")
    g.set_defaults(func=_cmd_generate)

    e = sub.add_parser("estimate-delta", help="estimate the precision-matrix difference")
    add_io(e, "hard threshold for support; must be positive")
    e.set_defaults(func=_cmd_estimate_delta)

    r = sub.add_parser("run-pipeline", help="recover the difference DAG")
    add_io(r, "hard threshold for support, which must be positive; with SEM inputs it "
              "sets only the assumption check's epsilon, which may be 0 "
              f"(default {_DEFAULT_EPSILON:g})")
    r.add_argument("--strict", action="store_true",
                   help="fail when the assumption check fails (SEM inputs only)")
    r.add_argument("--trace", action="store_true",
                   help="add each stage's steps and estimates to pipeline.json as \"trace\"")
    r.set_defaults(func=_cmd_run_pipeline, epsilon=_DEFAULT_EPSILON)

    c = sub.add_parser("check-assumptions", help="report whether a SEM pair is recoverable")
    c.add_argument("--sem1", required=True)
    c.add_argument("--sem2", required=True)
    c.add_argument("--epsilon", type=_finite_nonnegative, default=_DEFAULT_EPSILON)
    c.add_argument("--strict", action="store_true", help="exit 1 when the check fails")
    c.set_defaults(func=_cmd_check_assumptions)

    s = sub.add_parser("sweep", help="run the synthetic benchmark grid")
    s.add_argument("--config", help="sweep config JSON")
    s.add_argument("--seed", type=int, default=None, help="override the base seed")
    s.add_argument("--output-dir", default=".")
    s.set_defaults(func=_cmd_sweep)

    b = sub.add_parser("bound", help="sample-count lower bound for recoverability")
    b.add_argument("--p", type=int, required=True)
    b.add_argument("--d", type=int, required=True)
    b.set_defaults(func=_cmd_bound)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (DiffDagError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
