"""span-propagation: pool hops carry the caller's contextvars.

The storage plane's fan-out pools (shard fan-out, replica lanes,
reshard movers) run work on long-lived threads, where ``contextvars``
do **not** flow implicitly.  Every ``submit``/``map`` on an executor
must run the task under a ``contextvars.copy_context()`` taken on the
*submitting* thread (``pool.submit(contextvars.copy_context().run,
task)`` or a local ``ctx = contextvars.copy_context()`` proven, by
must-analysis, to be assigned on every path first).  An unwrapped
submit silently orphans every span the task starts — the reshard bug
this rule was built on.

The rule is scoped to storage-plane modules (path contains a
``storage`` component or the file imports ``repro.storage``): the RPC
fallback executors submit requests that were fully encoded — span
attached — on the caller's thread, so wrapping there is noise.

The other hand-off, the span riding ``cred=`` on the wire, is not
linted: ``RemoteBlockStore`` dispatches through one ``_call`` and one
``_submit``, and ``tests/unit/test_obs_trace.py::TestPropagation``
drives both.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.core import Checker, Finding, Project, SourceFile
from repro.analysis.flow import build_cfg, header_exprs, must_facts

_FuncDef = ast.FunctionDef | ast.AsyncFunctionDef

_EXECUTOR_DISPATCH = frozenset({"submit", "map"})
_EXECUTOR_TYPE = "ThreadPoolExecutor"


def _calls_at(stmt: ast.stmt) -> Iterator[ast.Call]:
    for expr in header_exprs(stmt):
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                yield node


def _is_self_attr(expr: ast.expr, names: frozenset[str] | None = None) -> bool:
    return (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name) and expr.value.id == "self"
        and (names is None or expr.attr in names)
    )


def _mentions_executor(annotation: ast.expr | None) -> bool:
    if annotation is None:
        return False
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name) and node.id == _EXECUTOR_TYPE:
            return True
        if isinstance(node, ast.Constant) and node.value == _EXECUTOR_TYPE:
            return True
    return False


def _is_copy_context_call(expr: ast.expr) -> bool:
    """``contextvars.copy_context()`` or bare ``copy_context()``."""
    if not isinstance(expr, ast.Call):
        return False
    func = expr.func
    if isinstance(func, ast.Name):
        return func.id == "copy_context"
    return isinstance(func, ast.Attribute) and func.attr == "copy_context"


def _storage_scoped(sf: SourceFile) -> bool:
    if "storage" in sf.path.parts:
        return True
    if sf.tree is None:
        return False
    for node in ast.walk(sf.tree):
        if isinstance(node, ast.ImportFrom):
            if node.module and node.module.startswith("repro.storage"):
                return True
        elif isinstance(node, ast.Import):
            if any(a.name.startswith("repro.storage") for a in node.names):
                return True
    return False


class SpanPropagationChecker(Checker):
    """contextvars across pool hops."""

    name = "span-propagation"
    description = (
        "executor submit/map in the storage plane must copy the caller's "
        "contextvars"
    )

    def run(self, project: Project) -> Iterable[Finding]:
        for sf in project.files:
            if sf.tree is not None and _storage_scoped(sf):
                yield from self._check_executor_hops(sf)

    def _check_executor_hops(self, sf: SourceFile) -> Iterator[Finding]:
        assert sf.tree is not None
        exec_methods: set[str] = set()
        exec_attrs: set[str] = set()
        for node in ast.walk(sf.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _mentions_executor(node.returns):
                    exec_methods.add(node.name)
            elif isinstance(node, ast.AnnAssign):
                if _is_self_attr(node.target) \
                        and _mentions_executor(node.annotation):
                    assert isinstance(node.target, ast.Attribute)
                    exec_attrs.add(node.target.attr)
        for fn in ast.walk(sf.tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(
                    sf, fn, frozenset(exec_methods), frozenset(exec_attrs)
                )

    def _check_function(self, sf: SourceFile, fn: _FuncDef,
                        exec_methods: frozenset[str],
                        exec_attrs: frozenset[str]) -> Iterator[Finding]:
        exec_names: set[str] = set()
        for node in ast.walk(fn):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if (
                        isinstance(item.context_expr, ast.Call)
                        and isinstance(item.context_expr.func, ast.Name)
                        and item.context_expr.func.id == _EXECUTOR_TYPE
                        and isinstance(item.optional_vars, ast.Name)
                    ):
                        exec_names.add(item.optional_vars.id)
            elif isinstance(node, ast.Assign):
                if (
                    isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Name)
                    and node.value.func.id == _EXECUTOR_TYPE
                ):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            exec_names.add(target.id)

        cfg = build_cfg(fn)

        def gen(stmt: ast.stmt) -> Iterable[str]:
            if isinstance(stmt, ast.Assign) \
                    and _is_copy_context_call(stmt.value):
                return tuple(
                    f"ctx:{t.id}" for t in stmt.targets
                    if isinstance(t, ast.Name)
                )
            return ()

        facts = must_facts(cfg, gen)

        for index, stmt in cfg.statements():
            for call in _calls_at(stmt):
                func = call.func
                if not (isinstance(func, ast.Attribute)
                        and func.attr in _EXECUTOR_DISPATCH):
                    continue
                if not self._is_executor(func.value, exec_names,
                                         exec_methods, exec_attrs):
                    continue
                if not call.args:
                    continue
                if self._task_carries_context(call.args[0], facts[index]):
                    continue
                yield self.finding(
                    sf, call,
                    f"executor .{func.attr}() crosses threads without "
                    "copying the caller's contextvars — active trace "
                    "spans will not parent the submitted work",
                    hint=(
                        "submit through a fresh copy per task: "
                        "pool.submit(contextvars.copy_context().run, "
                        "fn, *args) — one Context object cannot be "
                        "entered concurrently, so copy at submission "
                        "time, not inside the task"
                    ),
                )

    @staticmethod
    def _is_executor(recv: ast.expr, exec_names: frozenset[str] | set[str],
                     exec_methods: frozenset[str],
                     exec_attrs: frozenset[str]) -> bool:
        if isinstance(recv, ast.Name):
            return recv.id in exec_names
        if _is_self_attr(recv, exec_attrs):
            return True
        if isinstance(recv, ast.Subscript):
            return SpanPropagationChecker._is_executor(
                recv.value, exec_names, exec_methods, exec_attrs
            )
        if isinstance(recv, ast.Call):
            func = recv.func
            if isinstance(func, ast.Attribute) and _is_self_attr(func) \
                    and func.attr in exec_methods:
                return True
            if isinstance(func, ast.Name) and func.id in exec_methods:
                return True
        return False

    @staticmethod
    def _task_carries_context(task: ast.expr,
                              facts: frozenset[str]) -> bool:
        """First submit/map argument runs under a copied context?"""
        if isinstance(task, ast.Attribute) and task.attr == "run":
            owner = task.value
            if _is_copy_context_call(owner):
                return True
            if isinstance(owner, ast.Name):
                return f"ctx:{owner.id}" in facts
        return False
