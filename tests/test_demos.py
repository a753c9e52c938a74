"""Each narrative demo runs to completion."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    result = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    if demo.name == "05_full_verification.py":
        assert "all passed: True" in result.stdout
