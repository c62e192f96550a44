"""span-propagation rule: contextvars on pools.

Executor fixtures are written under a ``storage/`` directory because
the thread-hop sub-check is scoped to the storage plane; the scope
itself is pinned by a test that re-runs the same violation outside it.
"""

from __future__ import annotations

import textwrap

from repro.analysis.core import Project
from repro.analysis.spancheck import SpanPropagationChecker


def _run(tmp_path, source, rel="storage/mod.py"):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    project = Project(tmp_path, [path])
    return list(SpanPropagationChecker().run(project))


class TestExecutorHops:
    def test_bare_submit_is_flagged(self, tmp_path):
        findings = _run(tmp_path, """
            from concurrent.futures import ThreadPoolExecutor

            def fan_out(tasks):
                with ThreadPoolExecutor(max_workers=4) as pool:
                    futures = [pool.submit(task) for task in tasks]
                return [f.result() for f in futures]
        """)
        assert len(findings) == 1
        f = findings[0]
        assert f.rule == "span-propagation"
        assert "contextvars" in f.message

    def test_inline_copy_context_is_clean(self, tmp_path):
        findings = _run(tmp_path, """
            import contextvars
            from concurrent.futures import ThreadPoolExecutor

            def fan_out(tasks):
                with ThreadPoolExecutor(max_workers=4) as pool:
                    futures = [
                        pool.submit(contextvars.copy_context().run, task)
                        for task in tasks
                    ]
                return [f.result() for f in futures]
        """)
        assert findings == []

    def test_dominating_local_ctx_is_clean(self, tmp_path):
        findings = _run(tmp_path, """
            import contextvars
            from concurrent.futures import ThreadPoolExecutor

            def lane_submit(fn):
                ctx = contextvars.copy_context()
                pool = ThreadPoolExecutor(max_workers=1)
                return pool.submit(ctx.run, fn)
        """)
        assert findings == []

    def test_ctx_assigned_on_one_branch_only_is_flagged(self, tmp_path):
        # Flow-sensitivity: the copy exists on the slow path only, so
        # the submit is not dominated by it.
        findings = _run(tmp_path, """
            import contextvars
            from concurrent.futures import ThreadPoolExecutor

            def maybe_traced(fn, traced):
                if traced:
                    ctx = contextvars.copy_context()
                pool = ThreadPoolExecutor(max_workers=1)
                return pool.submit(ctx.run, fn)
        """)
        assert len(findings) == 1

    def test_non_storage_modules_are_out_of_scope(self, tmp_path):
        findings = _run(tmp_path, """
            from concurrent.futures import ThreadPoolExecutor

            def fan_out(tasks):
                with ThreadPoolExecutor(max_workers=4) as pool:
                    return [pool.submit(task) for task in tasks]
        """, rel="rpc/fallback.py")
        assert findings == []

    def test_storage_import_opts_a_module_in(self, tmp_path):
        findings = _run(tmp_path, """
            from concurrent.futures import ThreadPoolExecutor

            from repro.storage import open_store

            def fan_out(tasks):
                with ThreadPoolExecutor(max_workers=4) as pool:
                    return [pool.submit(task) for task in tasks]
        """, rel="elsewhere/helper.py")
        assert len(findings) == 1
