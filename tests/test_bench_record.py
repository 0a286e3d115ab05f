"""``tools/bench_record.py`` rejects a pair count its quartiles cannot use."""

import subprocess
import sys
from pathlib import Path

import pytest

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
