"""Unit tests for the discfs-lint engine chassis: fingerprints, inline
suppressions, baselines, rule selection and the run driver."""

import json

import pytest

from repro.analysis.core import (
    Baseline,
    Finding,
    Project,
    SourceFile,
    all_checkers,
    run_lint,
)


def _finding(**overrides):
    base = dict(rule="lock-discipline", path="src/x.py", line=10, col=4,
                severity="error", message="mutates self.a unlocked")
    base.update(overrides)
    return Finding(**base)


class TestFinding:
    def test_fingerprint_ignores_line_churn(self):
        a = _finding(line=10)
        b = _finding(line=99, col=0)
        assert a.fingerprint == b.fingerprint

    def test_fingerprint_distinguishes_substance(self):
        assert _finding().fingerprint != \
            _finding(message="mutates self.b unlocked").fingerprint
        assert _finding().fingerprint != \
            _finding(rule="lock-order").fingerprint
        assert _finding().fingerprint != _finding(path="src/y.py").fingerprint

    def test_render_and_dict(self):
        f = _finding(hint="wrap it")
        text = f.render()
        assert "src/x.py:10:4" in text
        assert "[lock-discipline]" in text
        assert "hint: wrap it" in text
        d = f.to_dict()
        assert d["fingerprint"] == f.fingerprint
        assert d["severity"] == "error"


class TestSuppressions:
    def _sf(self, text):
        from pathlib import Path
        return SourceFile(path=Path("x.py"), rel="x.py", text=text)

    def test_same_line_and_line_above(self):
        sf = self._sf(
            "a = 1  # discfs-lint: disable=lock-discipline\n"
            "# discfs-lint: disable=error-taxonomy\n"
            "b = 2\n"
            "c = 3\n"
        )
        assert sf.suppressed("lock-discipline", 1)
        assert sf.suppressed("error-taxonomy", 3)
        assert not sf.suppressed("error-taxonomy", 4)
        assert not sf.suppressed("lock-order", 1)

    def test_disable_all_and_multiple_rules(self):
        sf = self._sf(
            "b = 2  # discfs-lint: disable=lock-order, error-taxonomy\n"
            "a = 1  # discfs-lint: disable=all\n"
        )
        assert sf.suppressed("anything", 2)
        assert sf.suppressed("lock-order", 1)
        assert sf.suppressed("error-taxonomy", 1)
        assert not sf.suppressed("lock-discipline", 1)


class TestBaseline:
    def test_round_trip(self, tmp_path):
        f = _finding()
        baseline = Baseline.from_findings([f])
        path = tmp_path / "baseline.json"
        baseline.save(path)
        loaded = Baseline.load(path)
        assert loaded.covers(f)
        assert not loaded.covers(_finding(message="different"))
        raw = json.loads(path.read_text())
        assert raw["version"] == 1
        assert raw["findings"][0]["justification"] == ""

    def test_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 2, "findings": []}')
        with pytest.raises(ValueError):
            Baseline.load(path)

    def test_rejects_missing_fingerprint(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 1, "findings": [{"rule": "x"}]}')
        with pytest.raises(ValueError):
            Baseline.load(path)


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

    def test_baseline_grandfathers(self, tmp_path):
        (tmp_path / "broken.py").write_text("def f(:\n")
        first = run_lint([tmp_path], tmp_path)
        baseline = Baseline.from_findings(first.findings)
        second = run_lint([tmp_path], tmp_path, baseline=baseline)
        assert second.findings == []
        assert second.grandfathered == len(first.findings)
        assert second.exit_code == 0

    def test_exit_code_warning_only_is_zero(self):
        from repro.analysis.core import LintResult
        warn = _finding(severity="warning")
        assert LintResult([warn], 0, 0, 1, ()).exit_code == 0
        assert LintResult([_finding()], 0, 0, 1, ()).exit_code == 1

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
