"""``tools/calls.py`` counts calls, so two runs print the same numbers."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_probe() -> str:
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "calls.py")],
        capture_output=True, text=True, timeout=300, check=True,
    )
    return done.stdout


def test_two_runs_count_the_same_calls():
    first = run_probe()
    assert first == run_probe()
    rows = re.findall(r"^(\w+)\s+python\s+([\d,]+)\s+c\s+([\d,]+)$",
                      first, re.MULTILINE)
    assert [name for name, _, _ in rows] == [
        "cold_batch", "memo_hit", "backend_hit", "optimize_grid",
    ]
    for _, python, c in rows:
        assert int(python.replace(",", "")) > 0
        assert int(c.replace(",", "")) > 0
