"""README's Python quick start runs as written, its commands parse, and its sweep
config reads."""

import argparse
import json
import re
import shlex
from pathlib import Path

import diffdag as dd
from diffdag.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs():
    quick_start = README.read_text(encoding="utf-8").split("## Quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", quick_start, re.S).group(1)
    exec(compile(block, "README.md (quick start)", "exec"), {"__name__": "__readme__"})


def test_command_line_examples_parse():
    # a README command that names a renamed or removed flag fails here
    command_line = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", command_line, re.S).group(1)
    lines = [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("diffdag ")]
    parser = build_parser()
    commands = [parser.parse_args(shlex.split(line)[1:]).command for line in lines]
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(commands) == sorted(subparsers.choices)


def test_sweep_config_example_reads():
    # a renamed or removed config key in README's example fails here
    example = README.read_text(encoding="utf-8").split("A sweep config mirrors `SweepConfig`", 1)[1]
    obj = json.loads(re.search(r"```json\n(.*?)```", example, re.S).group(1))
    cfg = dd.SweepConfig.from_json(obj)
    assert (cfg.p_values, cfg.c_values, cfg.repetitions) == (
        tuple(obj["p_values"]), tuple(obj["c_values"]), obj["repetitions"]
    )
    assert cfg.gen == dd.SemPairGenConfig(**obj["gen"])
    assert cfg.pipeline.est_cfg == dd.EstimatorConfig(**obj["pipeline"]["est_cfg"])
