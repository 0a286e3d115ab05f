"""``tools/bench_record.py`` rejects a pair count its quartiles cannot use and
counts each end-to-end metric's wins in the direction ``BENCHMARK.json`` calls
better."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"


def _tool():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


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


def test_wins_follow_each_metrics_better_side():
    # three pairs: the change is faster twice and ties once on ops_per_s,
    # and uses less memory once, more once and the same once
    runs = [
        {"parent": {"ops_per_s": 10.0, "peak_rss_mb": 50.0, "f_score_mean": 0.5},
         "change": {"ops_per_s": 11.0, "peak_rss_mb": 49.0, "f_score_mean": 0.5}},
        {"parent": {"ops_per_s": 10.0, "peak_rss_mb": 50.0, "f_score_mean": 0.5},
         "change": {"ops_per_s": 12.0, "peak_rss_mb": 51.0, "f_score_mean": 0.5}},
        {"parent": {"ops_per_s": 10.0, "peak_rss_mb": 50.0, "f_score_mean": 0.5},
         "change": {"ops_per_s": 10.0, "peak_rss_mb": 50.0, "f_score_mean": 0.5}},
    ]
    better = {"ops_per_s": "higher", "peak_rss_mb": "lower", "f_score_mean": "higher"}
    assert _tool().tally(runs, better) == {
        "ops_per_s": {"wins": 2, "losses": 0, "pairs": 3},
        "peak_rss_mb": {"wins": 1, "losses": 1, "pairs": 3},
        "f_score_mean": {"wins": 0, "losses": 0, "pairs": 3},
    }


def test_directions_come_from_the_benchmark_file():
    better = _tool().directions(TOOL.parent.parent / "BENCHMARK.json")
    assert better["ops_per_s"] == "higher"
    assert better["setup_s"] == better["peak_rss_mb"] == "lower"
    assert set(better.values()) == {"higher", "lower"}
