"""resource-leak rule: raise-before-close windows on acquired stores.

The seeded fixtures are the exact shapes the triage run found in
``registry.py`` (unguarded ``return Wrapper(store)``, nested acquirer
arguments); the known-good fixtures are the guard idioms the fixes
introduced, so the rule demonstrably separates the two.
"""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path

import pytest

import repro.cli
from repro.analysis.core import Project
from repro.analysis.leakcheck import ResourceLeakChecker, header_exprs


def _run(tmp_path, source, rel="storage/registry.py"):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    project = Project(tmp_path, [path])
    return list(ResourceLeakChecker().run(project))


class TestSeededViolations:
    def test_unguarded_consumer_ctor_is_flagged(self, tmp_path):
        findings = _run(tmp_path, """
            def open_wrapped(uri):
                store = open_store(uri)
                return Wrapper(store)
        """)
        assert len(findings) == 1
        f = findings[0]
        assert f.rule == "resource-leak"
        assert "`store` can leak" in f.message
        assert "its consumer" in f.message

    def test_intervening_raiser_is_flagged(self, tmp_path):
        findings = _run(tmp_path, """
            def open_checked(uri, limit):
                store = open_store(uri)
                check_capacity(limit)
                return store
        """)
        assert len(findings) == 1
        assert "an intervening statement" in findings[0].message

    def test_nested_acquirer_argument_is_flagged(self, tmp_path):
        findings = _run(tmp_path, """
            def open_nested(uri):
                return Wrapper(open_store(uri))
        """)
        assert len(findings) == 1
        assert "unnameable" in findings[0].message

    def test_call_in_a_loop_header_is_a_raiser(self, tmp_path):
        findings = _run(tmp_path, """
            def scan(uri, items):
                store = open_store(uri)
                for item in items():
                    pass
                store.close()
        """)
        assert len(findings) == 1
        assert "an intervening statement" in findings[0].message

    def test_nested_acquirer_in_a_with_header_is_flagged(self, tmp_path):
        findings = _run(tmp_path, """
            def open_scoped(uri):
                with Wrapper(open_store(uri)) as store:
                    store.flush()
        """)
        assert len(findings) == 1
        assert "unnameable" in findings[0].message


class TestKnownGood:
    def test_close_and_reraise_guard_is_clean(self, tmp_path):
        findings = _run(tmp_path, """
            def open_guarded(uri):
                store = open_store(uri)
                try:
                    return Wrapper(store)
                except Exception:
                    store.close()
                    raise
        """)
        assert findings == []

    def test_finally_guard_is_clean(self, tmp_path):
        findings = _run(tmp_path, """
            def copy_header(uri):
                fd = os.open(uri, flags)
                try:
                    return read_header(fd)
                finally:
                    fd.close()
        """)
        assert findings == []

    def test_ownership_handoff_to_self_is_clean(self, tmp_path):
        findings = _run(tmp_path, """
            def attach(self, uri):
                store = open_store(uri)
                self._store = store
                self._prepare()
        """)
        assert findings == []

    def test_ownership_handoff_to_container_is_clean(self, tmp_path):
        findings = _run(tmp_path, """
            def open_all(uris):
                out = []
                for uri in uris:
                    child = open_store(uri)
                    out.append(child)
                validate(out)
                return out
        """)
        assert findings == []

    def test_conditional_close_counts_as_release(self, tmp_path):
        # A mismatch branch that closes-and-raises is the fix, not the
        # leak.
        findings = _run(tmp_path, """
            def reuse_or_open(uri, expected_bs):
                store = open_store(uri)
                if store.block_size() != expected_bs:
                    store.close()
                    raise ValueError("block size mismatch")
                return store
        """)
        assert findings == []

    def test_close_quietly_consumer_is_safe(self, tmp_path):
        findings = _run(tmp_path, """
            def sweep(uri):
                close_quietly(open_store(uri))
        """)
        assert findings == []

    def test_leaf_programs_are_excluded_by_path(self, tmp_path):
        findings = _run(tmp_path, """
            def open_wrapped(uri):
                store = open_store(uri)
                return Wrapper(store)
        """, rel="src/repro/bench/flood.py")
        assert findings == []

    @pytest.mark.parametrize("root", ["package parent", "elsewhere"])
    def test_package_is_clean_from_any_root(self, root, tmp_path):
        # The exclusions match the path inside the ``repro`` package, so
        # linting it from ``src/`` or an unrelated directory sees the
        # same files as from the repository root.
        package = Path(repro.cli.__file__).parent
        project = Project(package.parent if root == "package parent"
                          else tmp_path, [package])
        assert list(ResourceLeakChecker().run(project)) == []


def test_compound_statement_is_its_header_only():
    # The if *test* is a plain name: the call in the body is a statement
    # of its own, not part of the header's.
    stmt = ast.parse("if flag:\n    danger()").body[0]
    assert header_exprs(stmt) == [stmt.test]


@pytest.mark.parametrize("source, header", [
    ("while busy():\n    danger()", lambda s: [s.test]),
    ("for x in items():\n    danger()", lambda s: [s.iter, s.target]),
    ("with open_store(a) as s, lock:\n    danger()",
     lambda s: [item.context_expr for item in s.items]),
    ("try:\n    danger()\nexcept E:\n    pass", lambda s: []),
    ("def f():\n    danger()", lambda s: []),
    ("class C:\n    x = danger()", lambda s: []),
    ("x = danger()", lambda s: [s.targets[0], s.value]),
])
def test_header_exprs_by_statement_kind(source, header):
    stmt = ast.parse(source).body[0]
    assert header_exprs(stmt) == header(stmt)
