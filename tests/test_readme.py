"""README's Python quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs():
    quick_start = README.read_text(encoding="utf-8").split("## Quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", quick_start, re.S).group(1)
    exec(compile(block, "README.md (quick start)", "exec"), {"__name__": "__readme__"})
