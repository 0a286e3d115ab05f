"""``tools/bench_record.py`` rejects a pair count its quartiles cannot use,
counts a tree's ``src/`` lines, counts each end-to-end metric's wins in the direction ``BENCHMARK.json`` calls
better, gives each metric a verdict against the bound it fixes, and spans
each per-layer metric over its traced runs."""

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


def test_src_lines_count_every_python_file_under_src(tmp_path):
    package = tmp_path / "src" / "pkg"
    (package / "sub").mkdir(parents=True)
    (package / "a.py").write_text("import os\n\nx = 1\n")
    (package / "sub" / "b.py").write_text('"""doc"""\ny = 2\n')
    (package / "notes.txt").write_text("not\ncode\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_a.py").write_text("def test():\n    pass\n")
    assert _tool().src_lines(tmp_path) == 5


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


def test_layer_spread_gives_each_metrics_median_min_and_max():
    runs = [{"estimators.lp.s": 0.30, "estimators.lp.calls": 69},
            {"estimators.lp.s": 0.10, "estimators.lp.calls": 69},
            {"estimators.lp.s": 0.20, "estimators.lp.calls": 69}]
    assert _tool().layer_spread(runs) == {
        "estimators.lp.s": {"median": 0.20, "min": 0.10, "max": 0.30},
        "estimators.lp.calls": {"median": 69, "min": 69, "max": 69},
    }


def test_directions_come_from_the_benchmark_file():
    better = _tool().directions(TOOL.parent.parent / "BENCHMARK.json")
    assert better["ops_per_s"] == "higher"
    assert better["setup_s"] == better["peak_rss_mb"] == "lower"
    assert set(better.values()) == {"higher", "lower"}


def test_bounds_come_from_the_benchmark_file():
    bounds = _tool().directions(TOOL.parent.parent / "BENCHMARK.json", "bound")
    assert bounds["ops_per_s"] == 0.25
    assert bounds["peak_rss_mb"] == 0.15


# ten pairs each; ops_per_s is better higher, peak_rss_mb lower, both with
# the benchmark's bounds (a fraction of the parent's median)
PARENT = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.0]


@pytest.mark.parametrize(
    ("change", "better", "bound", "expected"),
    [
        # wins 10 of 10 and the medians differ by 2 against a parent IQR of 0.2
        ([v + 2.0 for v in PARENT], "higher", 0.25, "gain"),
        # the same runs read as memory, where lower is better
        ([v + 2.0 for v in PARENT], "lower", 0.25, "within bound"),
        ([v + 2.0 for v in PARENT], "lower", 0.15, "regressed"),
        # 8 wins and 2 ties: too few wins for a gain
        ([v + 2.0 for v in PARENT[:8]] + PARENT[8:], "higher", 0.25, "within bound"),
        # wins 10 of 10, but by less than the parent's IQR
        ([v + 0.01 for v in PARENT], "higher", 0.25, "within bound"),
        # median 30 % worse
        ([v * 0.7 for v in PARENT], "higher", 0.25, "regressed"),
    ],
    ids=["gain", "worse-within-bound", "regressed-lower", "ties-no-gain", "small-gain", "regressed-higher"],
)
def test_verdicts_on_synthetic_runs(change, better, bound, expected):
    assert _tool().verdict(PARENT, change, better, bound) == expected


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    tool = _tool()
    parent = [6.0, 14.0, 8.0, 12.0, 10.0, 7.0, 13.0, 9.0, 11.0, 10.0]  # IQR 3.5 on a median of 10
    assert tool.verdict(parent, [v + 0.1 for v in parent], "higher", 0.25) == "unresolved"
    # a skewed parent (IQR 8 on a median of 9.95) that every change run beats,
    # by less than that IQR: resolved, but not a gain
    skewed = [1.0, 1.0, 1.0, 5.0, 9.9, 10.0, 10.0, 10.0, 10.0, 10.0]
    assert tool.verdict(skewed, [10.5] * 10, "higher", 0.25) == "within bound"
    assert tool.verdict(skewed, [10.5] * 9 + [9.0], "higher", 0.25) == "unresolved"
