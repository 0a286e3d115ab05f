"""``tools/bench_record.py`` rejects a pair count its quartiles cannot use,
and times the same C07 grid that the acceptance suite runs."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

import diffdag as dd
from helpers import C07_SWEEP

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"


@pytest.mark.parametrize("pairs", ["1", "0", "-3"])
def test_fewer_than_two_pairs_rejected_before_any_run(tmp_path, pairs):
    out = tmp_path / "bench.json"
    result = subprocess.run(
        [sys.executable, str(TOOL), "--parent", str(tmp_path), "--out", str(out), "--pairs", pairs],
        capture_output=True, text=True, check=False,
    )
    assert result.returncode == 2
    assert f"--pairs: must be at least 2, got {pairs}" in result.stderr
    assert not out.exists()


def test_c07_grid_is_the_acceptance_fixture_grid(monkeypatch):
    # exec the script the tool hands a fresh interpreter, with the sweep
    # stubbed out: the records.csv hash in every BENCH file is then the one
    # trend_records checks
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)

    class Captured(Exception):
        pass

    def capture(cfg):
        raise Captured(cfg)

    monkeypatch.setattr(dd, "run_sweep", capture)
    with pytest.raises(Captured) as caught:
        exec(tool.C07_GRID, {"__name__": "__c07_grid__"})
    assert caught.value.args == (C07_SWEEP,)
