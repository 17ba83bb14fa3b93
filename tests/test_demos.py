"""Smoke test of the demos: each runs to exit code 0 and prints a known line."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

CASES = [
    ("01_thresholds.py", "fpt(x^5+y^5) over F_7 = 19/49 (exact, truncation-candidate, L=2)"),
    ("02_generic_formula.py", "p= 7: 137/343  (truncation at place 3)"),
    ("03_census.py", "137/343:  15120 forms, first witness x^5+x*y^4"),
    ("04_witness_search.py", "root a = 3*t over F_49; witness x^6+(3*t)*x^3*y^3+y^6"),
    ("05_lower_bounds.py", "d=10, p=3, e=2: x^10+x*y^9+y^10"),
]


@pytest.mark.parametrize("demo,line", CASES)
def test_demo_runs(demo, line):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert line in [text.strip() for text in out.stdout.splitlines()]
