"""Every CI workflow parses as YAML, so that every job in it can run."""

from __future__ import annotations

import pathlib

import pytest
import yaml

WORKFLOWS = sorted(
    (pathlib.Path(__file__).resolve().parent.parent / ".github" / "workflows")
    .glob("*.yml")
)


def test_workflows_found():
    assert WORKFLOWS


@pytest.mark.parametrize("path", WORKFLOWS, ids=lambda path: path.name)
def test_workflow_parses_and_every_job_has_steps(path):
    workflow = yaml.safe_load(path.read_text())
    jobs = workflow["jobs"]
    assert jobs
    for name, job in jobs.items():
        steps = job.get("steps")
        assert steps, "job %r has no steps" % name
        for step in steps:
            assert "run" in step or "uses" in step, (name, step)
