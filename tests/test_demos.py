"""Every demo script runs to completion without writing to stderr."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def run_demo(demo: Path, cwd: Path) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs_cleanly(demo, tmp_path):
    proc = run_demo(demo, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout


def test_cli_tour_output_does_not_depend_on_the_checkout(tmp_path):
    proc = run_demo(ROOT / "demos" / "06_cli_tour.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "--scenario scenarios/hospitals.yaml" in proc.stdout
    assert str(ROOT) not in proc.stdout
