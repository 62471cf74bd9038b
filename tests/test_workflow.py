"""Every ``run:`` script of the CI workflow is valid bash.

A quoting slip in a step (an apostrophe in a comment of a single-quoted
program, say) makes its whole script a syntax error that only shows on
the CI runner; ``bash -n`` finds it without running anything.
"""
from __future__ import annotations

import shutil
import subprocess
from pathlib import Path

import pytest

WORKFLOW = (Path(__file__).resolve().parents[1] / ".github" / "workflows"
            / "tests.yml")


def _run_steps():
    yaml = pytest.importorskip("yaml")
    jobs = yaml.safe_load(WORKFLOW.read_text())["jobs"]
    return [(step.get("name", step["run"]), step["run"])
            for job in jobs.values() for step in job["steps"] if "run" in step]


@pytest.mark.skipif(shutil.which("bash") is None, reason="needs bash")
def test_every_workflow_run_script_parses_as_bash():
    steps = _run_steps()
    assert len(steps) >= 5
    for name, script in steps:
        done = subprocess.run(["bash", "-n"], input=script, text=True,
                              capture_output=True, timeout=60)
        assert done.returncode == 0, f"step {name!r}: {done.stderr}"
