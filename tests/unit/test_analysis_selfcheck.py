"""Self-check: ``discfs lint src/repro`` must find nothing — the gate CI
enforces, run as a test so a drifting checker or a new violation fails
close to the change that caused it."""

import json
from pathlib import Path

from repro.analysis.core import run_lint
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestSelfCheck:
    def test_src_repro_is_clean(self):
        result = run_lint([REPO_ROOT / "src" / "repro"], REPO_ROOT)
        rendered = "\n".join(f.render() for f in result.findings)
        assert result.findings == [], f"discfs-lint found:\n{rendered}"
        assert result.exit_code == 0

    def test_cli_lint_exits_zero(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        code = main(["lint", "src/repro"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "0 finding(s)" in out

    def test_cli_json_shape(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        code = main(["lint", "src/repro", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["findings"] == []
        assert payload["files_checked"] > 50

    def test_cli_unknown_rule_is_usage_error(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        code = main(["lint", "src/repro", "--rule", "no-such-rule"])
        assert code == 2
        assert "unknown rule" in capsys.readouterr().err
