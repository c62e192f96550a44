"""Unit tests for the discfs-lint engine chassis: findings, rule
selection, the run driver and the shared parse cache."""

import pytest

from repro.analysis.core import (
    Finding,
    Project,
    all_checkers,
    run_lint,
)


def _finding(**overrides):
    base = dict(rule="lock-discipline", path="src/x.py", line=10, col=4,
                message="mutates self.a unlocked")
    base.update(overrides)
    return Finding(**base)


class TestFinding:
    def test_render_and_dict(self):
        f = _finding(hint="wrap it")
        text = f.render()
        assert "src/x.py:10:4" in text
        assert "[lock-discipline]" in text
        assert "hint: wrap it" in text
        assert f.to_dict() == {
            "rule": "lock-discipline", "path": "src/x.py", "line": 10,
            "col": 4, "message": "mutates self.a unlocked", "hint": "wrap it",
        }


class TestRunLint:
    def test_unknown_rule_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown rule"):
            run_lint([tmp_path], tmp_path, rules=["no-such-rule"])

    def test_rule_selection_restricts_run(self, tmp_path):
        (tmp_path / "m.py").write_text("x = 1\n")
        result = run_lint([tmp_path], tmp_path, rules=["lock-discipline"])
        assert result.rules == ("lock-discipline",)

    def test_parse_error_is_a_finding(self, tmp_path):
        (tmp_path / "broken.py").write_text("def f(:\n")
        result = run_lint([tmp_path], tmp_path)
        assert any(f.rule == "parse" for f in result.findings)
        assert result.exit_code == 1

    def test_all_checkers_have_names_and_descriptions(self):
        checkers = all_checkers()
        assert set(checkers) == {
            "lock-discipline", "lock-order", "resource-leak",
        }
        for factory in checkers.values():
            assert factory.description


class TestProject:
    def test_parse_cache_is_shared(self, tmp_path):
        target = tmp_path / "m.py"
        target.write_text("x = 1\n")
        project = Project(tmp_path, [tmp_path])
        assert project.load(target) is project.load(target)
        assert project.files[0] is project.load(target)

    def test_dedupes_overlapping_paths(self, tmp_path):
        (tmp_path / "m.py").write_text("x = 1\n")
        project = Project(tmp_path, [tmp_path, tmp_path / "m.py"])
        assert len(project.files) == 1
