"""``discfs lint`` is one blocking gate: every finding fails the run.

There is no way to tolerate a finding (no baseline, no inline
suppression comment, no changed-files mode, no warning severity): a
seeded violation of each rule exits 1 through the CLI, with or without
``--json`` and ``--rule``, and a ``discfs-lint: disable`` comment on the
offending line changes nothing.
"""

import json
import textwrap

import pytest

from repro.analysis.core import Finding, LintResult
from repro.cli import main

# rule -> (file, source, the statement the finding points at)
FIXTURES = {
    "lock-discipline": ("storage/counter.py", """\
        import threading

        class Store:
            def __init__(self):
                self._lock = threading.Lock()
                self._count = 0

            def bump(self):
                with self._lock:
                    self._count += 1

            def reset(self):
                self._count = None
        """, "self._count = None\n"),
    "lock-order": ("storage/order.py", """\
        import threading

        class Alpha:
            def __init__(self, beta: "Beta"):
                self._lock = threading.Lock()
                self._beta = beta

            def forward(self):
                with self._lock:
                    self._beta.poke()

            def poke(self):
                with self._lock:
                    pass

        class Beta:
            def __init__(self, alpha: "Alpha"):
                self._lock = threading.Lock()
                self._alpha = alpha

            def forward(self):
                with self._lock:
                    self._alpha.poke()

            def poke(self):
                with self._lock:
                    pass
        """, "self._beta.poke()\n"),
    "resource-leak": ("storage/opener.py", """\
        def open_cached(uri):
            return CachedBlockStore(open_store(uri))
        """, "return CachedBlockStore(open_store(uri))\n"),
}
RULES = sorted(FIXTURES)


def _seed(root, rule, comment=""):
    """Write ``rule``'s fixture under ``root``, with ``comment`` after
    every line of a lock-order edge or the one offending statement;
    returns the ``path:line`` the finding must point at."""
    rel, source, target = FIXTURES[rule]
    lines = textwrap.dedent(source).splitlines(keepends=True)
    hits = [i for i, text in enumerate(lines) if text.endswith(target)
            or (rule == "lock-order" and text.endswith("._alpha.poke()\n"))]
    for i in hits:
        lines[i] = lines[i].rstrip("\n") + comment + "\n"
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(lines))
    return f"{rel}:{hits[0] + 1}:"


def _lint(root, monkeypatch, capsys, *argv):
    monkeypatch.chdir(root)
    code = main(["lint", ".", *argv])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("rule", RULES)
def test_seeded_violation_fails_the_gate(rule, tmp_path, monkeypatch, capsys):
    where = _seed(tmp_path, rule)
    code, out = _lint(tmp_path, monkeypatch, capsys)
    assert code == 1
    assert [line for line in out.splitlines() if "[" in line] == [
        line for line in out.splitlines() if line.startswith(where)]
    assert f"[{rule}]" in out
    assert out.rstrip().endswith("1 finding(s)")


@pytest.mark.parametrize("rule", RULES)
def test_json_report_fails_the_gate(rule, tmp_path, monkeypatch, capsys):
    where = _seed(tmp_path, rule)
    code, out = _lint(tmp_path, monkeypatch, capsys, "--json")
    payload = json.loads(out)
    assert code == 1
    assert set(payload) == {"version", "rules", "files_checked", "findings"}
    [finding] = payload["findings"]
    assert finding["rule"] == rule
    assert f"{finding['path']}:{finding['line']}:" == where


@pytest.mark.parametrize("rule", RULES)
def test_each_selected_rule_gates_alone(rule, tmp_path, monkeypatch, capsys):
    for seeded in RULES:
        _seed(tmp_path, seeded)
    code, out = _lint(tmp_path, monkeypatch, capsys, "--rule", rule)
    assert code == 1
    assert [line.split("[")[1].split("]")[0]
            for line in out.splitlines() if ": [" in line] == [rule]


@pytest.mark.parametrize("form", ["{rule}", "all"])
@pytest.mark.parametrize("rule", RULES)
def test_disable_comment_does_not_silence(rule, form, tmp_path, monkeypatch,
                                          capsys):
    comment = "  # discfs-lint: disable=" + form.format(rule=rule)
    where = _seed(tmp_path, rule, comment)
    code, out = _lint(tmp_path, monkeypatch, capsys)
    assert code == 1
    assert any(line.startswith(where) and f"[{rule}]" in line
               for line in out.splitlines())


@pytest.mark.parametrize("option", [
    ["--baseline", "lint-baseline.json"],
    ["--write-baseline", "lint-baseline.json"],
    ["--diff", "HEAD"],
])
def test_removed_escape_hatches_are_usage_errors(option, tmp_path,
                                                 monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["lint", ".", *option])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option[0]}" in capsys.readouterr().err


@pytest.mark.parametrize("count", [0, 1, 3])
def test_exit_code_is_one_iff_anything_was_found(count):
    findings = [Finding(rule="lock-order", path="x.py", line=i, col=0,
                        message="cycle") for i in range(count)]
    result = LintResult(findings, files_checked=1, rules=("lock-order",))
    assert result.exit_code == (1 if count else 0)


def test_list_rules_names_the_three_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    names = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert names == RULES
