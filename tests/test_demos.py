"""Every demo script runs to completion."""

import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    out = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, cwd=REPO
    )
    assert out.returncode == 0, out.stderr
    assert "Traceback" not in out.stderr
