"""The CI workflows parse, and every test path their steps name exists.

A workflow file that is not valid YAML runs no step at all, and a step
that names a deleted test file or class fails only on the CI host.
Both show here, in tier-1: ``ci.yml`` once went unparsed for eight
changes because of an unquoted ``: `` in a step name.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest
import yaml

ROOT = Path(__file__).resolve().parents[2]
WORKFLOWS = sorted((ROOT / ".github" / "workflows").glob("*.yml"))

#: A repo path named in a ``run:`` script, with any ``::Node`` suffix.
NAMED = re.compile(
    r"(?<![\w./-])((?:tests|benchmarks|examples)/[\w./-]*(?:::\w+)*)")


def run_steps(workflow: Path) -> list[tuple[str, str]]:
    """``(step name, run script)`` for every step of every job."""
    jobs = yaml.safe_load(workflow.read_text(encoding="utf-8"))["jobs"]
    return [(step.get("name", ""), step["run"])
            for job in jobs.values() for step in job.get("steps", [])
            if "run" in step]


def _defines(path: Path, nodes: list[str]) -> bool:
    """Whether ``path`` defines ``nodes[0]``, which defines ``nodes[1]``..."""
    scope = ast.parse(path.read_text(encoding="utf-8")).body
    for name in nodes:
        found = next((node for node in scope
                      if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                      and node.name == name), None)
        if found is None:
            return False
        scope = found.body
    return True


def missing_targets(workflow: Path) -> list[str]:
    """Every path or ``::`` node a ``run:`` step names that does not
    exist, as ``"<step name>: <target>"``."""
    missing = []
    for name, script in run_steps(workflow):
        for target in NAMED.findall(script):
            path, *nodes = target.split("::")
            if not (ROOT / path).exists() or \
                    (nodes and not _defines(ROOT / path, nodes)):
                missing.append(f"{name}: {target}")
    return missing


def test_both_workflows_are_found():
    assert {workflow.name for workflow in WORKFLOWS} == {"ci.yml",
                                                         "nightly.yml"}


@pytest.mark.parametrize("workflow", WORKFLOWS, ids=lambda w: w.name)
def test_workflow_parses_into_run_steps(workflow):
    assert run_steps(workflow)


@pytest.mark.parametrize("workflow", WORKFLOWS, ids=lambda w: w.name)
def test_every_named_test_path_and_node_exists(workflow):
    assert missing_targets(workflow) == []


class TestTheCheckItself:
    """The two faults above, seeded into a scratch workflow."""

    @staticmethod
    def _workflow(tmp_path: Path, step: str) -> Path:
        path = tmp_path / "ci.yml"
        path.write_text(
            "on: push\njobs:\n  tests:\n    runs-on: ubuntu-latest\n"
            f"    steps:\n{step}", encoding="utf-8")
        return path

    def test_an_unquoted_colon_in_a_step_name_fails_to_parse(self, tmp_path):
        workflow = self._workflow(
            tmp_path,
            "      - name: CLI surface (tables: one row per command)\n"
            "        run: python -m pytest tests/unit/test_cli.py\n")
        with pytest.raises(yaml.YAMLError, match="mapping values"):
            run_steps(workflow)

    def test_a_deleted_file_or_class_is_reported(self, tmp_path):
        workflow = self._workflow(
            tmp_path,
            "      - name: Gone\n"
            "        run: >\n"
            "          python -m pytest benchmarks/test_no_such_ablation.py\n"
            "          tests/unit/test_workflows.py::TestTheCheckItself\n"
            "          tests/unit/test_workflows.py::TestNoSuchClass -q\n")
        assert missing_targets(workflow) == [
            "Gone: benchmarks/test_no_such_ablation.py",
            "Gone: tests/unit/test_workflows.py::TestNoSuchClass",
        ]
