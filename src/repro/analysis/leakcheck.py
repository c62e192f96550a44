"""resource-leak: an acquired store/transport/fd must survive the
failure paths between acquisition and ownership hand-off.

The registry composes stores recursively, so a builder that raises
*after* constructing a child but *before* anyone owns it strands the
child — an fd, an sqlite handle, a TCP connection — with no close()
left to call it.  The spec layer funnels every composite through one
guarded helper (``StoreSpec._over_children``: build the children,
``close_quietly`` them if the parent's constructor raises); this rule
mechanizes the review for everyone else.

An *acquisition* is ``name = <acquirer>(...)`` where the acquirer is
one of the project's resource-creating entry points (``open_store``,
``build``, ``serve_store``, transports, ``os.open`` …).  From there the
statements that follow are scanned in order until the resource is safe:

* **released** — ``name.close()`` / ``close_quietly(name)`` (even
  conditionally: a branch that closes-and-raises is the idiom, not a
  leak);
* **escaped** — ``return name`` bare, stored onto ``self``, or appended
  into a container (whose owner then carries the close obligation);
* **protected** — the next statement is (or the acquisition sits
  inside) a ``try`` whose ``finally`` closes it, or whose handler
  closes it and re-raises.

A statement that can raise (a call, ``raise``, ``assert``) before any
of those — including the consuming constructor itself, the
``return Wrapper(name)`` shape — is flagged.  An acquirer call nested
directly inside another call's arguments is always flagged: the result
is unnameable, so no cleanup can ever reference it.

Scope: library code.  ``bench/`` and ``cli.py`` are leaf programs whose
resources die with the process, so they are excluded by their path
inside the ``repro`` package — the same files whatever directory the
lint runs from.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.core import Checker, Finding, Project, SourceFile

_FuncDef = ast.FunctionDef | ast.AsyncFunctionDef

#: Bare-name calls that hand back a resource the caller must close.
_ACQUIRER_NAMES = frozenset({
    "open_store", "open_device", "serve_store", "build",
    "TCPTransport", "PipelinedTCPTransport",
})
#: ``<module>.<attr>`` acquirers.
_ACQUIRER_ATTRS = frozenset({("os", "open")})
#: Consumers allowed to take a nested acquirer call: they exist to
#: dispose of resources, not to own them.
_SAFE_CONSUMERS = frozenset({"close_quietly"})
#: Container hand-off methods: ownership moves to the container.
_ESCAPE_METHODS = frozenset({"append", "add", "put"})
#: Paths inside the ``repro`` package outside the rule: process-lifetime
#: resources.
_EXCLUDED_PREFIXES = ("bench/",)
_EXCLUDED_FILES = frozenset({"cli.py"})


def _is_acquirer_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id in _ACQUIRER_NAMES
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return (func.value.id, func.attr) in _ACQUIRER_ATTRS
    return False


def header_exprs(stmt: ast.stmt) -> list[ast.expr]:
    """The expressions evaluated *at* a statement — for a compound
    statement that is just its header (test / iterable / context items);
    the nested bodies are statements of their own."""
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter, stmt.target]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, (ast.Try, ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return []
    return [child for child in ast.iter_child_nodes(stmt)
            if isinstance(child, ast.expr)]


def _lambda_nodes(root: ast.AST) -> set[int]:
    """ids of nodes inside lambda/nested-def bodies under ``root`` —
    deferred code, not executed at this statement."""
    out: set[int] = set()
    for node in ast.walk(root):
        if isinstance(node, (ast.Lambda, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            if node is root:
                continue
            for sub in ast.walk(node):
                if sub is not node:
                    out.add(id(sub))
    return out


def _can_raise(stmt: ast.stmt) -> bool:
    """Leak-relevant raising: calls, raise, assert (attribute access and
    arithmetic are noise at this rule's granularity)."""
    if isinstance(stmt, (ast.Raise, ast.Assert)):
        return True
    deferred = _lambda_nodes(stmt)
    for expr in header_exprs(stmt):
        for node in ast.walk(expr):
            if id(node) in deferred:
                continue
            if isinstance(node, ast.Call):
                return True
    return False


def _closes(stmt: ast.stmt, name: str) -> bool:
    """``name.close()`` or ``close_quietly(... name ...)`` anywhere in
    ``stmt`` — conditional release counts (close-and-raise branches)."""
    for node in ast.walk(stmt):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in ("close", "close_quietly", "shutdown")
            and isinstance(func.value, ast.Name) and func.value.id == name
        ):
            return True
        if isinstance(func, ast.Name) and func.id in _SAFE_CONSUMERS:
            for arg in node.args:
                if any(isinstance(sub, ast.Name) and sub.id == name
                       for sub in ast.walk(arg)):
                    return True
    return False


def _escapes(stmt: ast.stmt, name: str) -> bool:
    if isinstance(stmt, ast.Return):
        return isinstance(stmt.value, ast.Name) and stmt.value.id == name
    if isinstance(stmt, ast.Assign):
        if not (isinstance(stmt.value, ast.Name) and stmt.value.id == name):
            return False
        return any(
            isinstance(t, (ast.Attribute, ast.Subscript))
            for t in stmt.targets
        )
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
        call = stmt.value
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _ESCAPE_METHODS
            and len(call.args) >= 1
        ):
            last = call.args[-1]
            return isinstance(last, ast.Name) and last.id == name
    return False


def _try_protects(stmt: ast.Try, name: str) -> bool:
    if any(_closes(s, name) for s in stmt.finalbody):
        return True
    for handler in stmt.handlers:
        handler_closes = any(_closes(s, name) for s in handler.body)
        reraises = any(
            isinstance(node, ast.Raise) for s in handler.body
            for node in ast.walk(s)
        )
        if handler_closes and reraises:
            return True
    return False


def _uses(stmt: ast.stmt, name: str) -> bool:
    return any(
        isinstance(node, ast.Name) and node.id == name
        for node in ast.walk(stmt)
    )


class ResourceLeakChecker(Checker):
    """Raise-before-close windows on acquired stores/transports/fds."""

    name = "resource-leak"
    description = (
        "a store/transport/fd acquired on a path that can raise before "
        "reaching close()/close_quietly/a finally is stranded — guard "
        "the window or hand ownership off first"
    )

    def run(self, project: Project) -> Iterable[Finding]:
        for sf in project.files:
            if sf.tree is None or self._excluded(sf):
                continue
            for fn in ast.walk(sf.tree):
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield from self._check_function(sf, fn)

    @staticmethod
    def _excluded(sf: SourceFile) -> bool:
        path = sf.path.resolve()
        package = next((p for p in path.parents if p.name == "repro"), None)
        if package is None:
            return False
        inner = path.relative_to(package).as_posix()
        return inner in _EXCLUDED_FILES or inner.startswith(_EXCLUDED_PREFIXES)

    def _check_function(self, sf: SourceFile,
                        fn: _FuncDef) -> Iterator[Finding]:
        yield from self._scan_suite(sf, fn, fn.body, enclosing_tries=[])

    def _scan_suite(self, sf: SourceFile, fn: _FuncDef,
                    suite: list[ast.stmt],
                    enclosing_tries: list[ast.Try]) -> Iterator[Finding]:
        for i, stmt in enumerate(suite):
            yield from self._nested_acquisitions(sf, fn, stmt)
            name = self._acquired_name(stmt)
            if name is not None:
                yield from self._follow(sf, fn, suite, i, name,
                                        enclosing_tries)
            # Recurse into compound bodies.
            if isinstance(stmt, ast.Try):
                yield from self._scan_suite(
                    sf, fn, stmt.body, enclosing_tries + [stmt]
                )
                for handler in stmt.handlers:
                    yield from self._scan_suite(sf, fn, handler.body,
                                                enclosing_tries)
                yield from self._scan_suite(sf, fn, stmt.orelse,
                                            enclosing_tries)
                yield from self._scan_suite(sf, fn, stmt.finalbody,
                                            enclosing_tries)
            elif isinstance(stmt, (ast.If, ast.While, ast.For,
                                   ast.AsyncFor, ast.With, ast.AsyncWith)):
                for body in (stmt.body, getattr(stmt, "orelse", [])):
                    yield from self._scan_suite(sf, fn, body,
                                                enclosing_tries)
            elif isinstance(stmt, ast.Match):
                for case in stmt.cases:
                    yield from self._scan_suite(sf, fn, case.body,
                                                enclosing_tries)

    @staticmethod
    def _acquired_name(stmt: ast.stmt) -> str | None:
        if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
            return None
        target = stmt.targets[0]
        if not isinstance(target, ast.Name):
            return None
        if _is_acquirer_call(stmt.value):
            return target.id
        return None

    def _follow(self, sf: SourceFile, fn: _FuncDef, suite: list[ast.stmt],
                i: int, name: str,
                enclosing_tries: list[ast.Try]) -> Iterator[Finding]:
        acq = suite[i]
        if any(_try_protects(t, name) for t in enclosing_tries):
            return
        for stmt in suite[i + 1:]:
            if _closes(stmt, name):
                return
            if _escapes(stmt, name):
                return
            if isinstance(stmt, ast.Try) and _try_protects(stmt, name):
                return
            if _can_raise(stmt):
                shape = (
                    "its consumer" if _uses(stmt, name)
                    else "an intervening statement"
                )
                yield self.finding(
                    sf, acq,
                    f"{fn.name}: `{name}` can leak — {shape} on line "
                    f"{stmt.lineno} can raise before `{name}` reaches "
                    "close()/close_quietly/a finally",
                    hint=(
                        "bind the resource first, then guard the "
                        "window: try: ... except: name.close(); raise "
                        "— or hand ownership off (return it, store it "
                        "on self, append it to a swept list) before "
                        "anything that can raise"
                    ),
                )
                return
        # Suite ends with the resource still local and nothing raising:
        # no window, no finding.

    def _nested_acquisitions(self, sf: SourceFile, fn: _FuncDef,
                             stmt: ast.stmt) -> Iterator[Finding]:
        deferred = _lambda_nodes(stmt)
        reported: set[int] = set()
        for expr in header_exprs(stmt):
            for call in ast.walk(expr):
                if not isinstance(call, ast.Call) or id(call) in deferred:
                    continue
                if isinstance(call.func, ast.Name) \
                        and call.func.id in _SAFE_CONSUMERS:
                    continue
                args: list[ast.expr] = list(call.args)
                args.extend(kw.value for kw in call.keywords)
                for arg in args:
                    for sub in ast.walk(arg):
                        if id(sub) in deferred or id(sub) in reported:
                            continue
                        if _is_acquirer_call(sub):
                            reported.add(id(sub))
                            assert isinstance(sub, ast.Call)
                            acq = self._call_name(sub)
                            yield self.finding(
                                sf, sub,
                                f"{fn.name}: {acq}(...) is acquired "
                                "inside another call's arguments — the "
                                "resource is unnameable, so no cleanup "
                                "can reach it if the consumer raises",
                                hint=(
                                    "bind it to a local first, then "
                                    "pass the name and guard the "
                                    "window with try/except close"
                                ),
                            )
        return

    @staticmethod
    def _call_name(call: ast.Call) -> str:
        func = call.func
        if isinstance(func, ast.Name):
            return func.id
        if isinstance(func, ast.Attribute):
            return func.attr
        return "<call>"
