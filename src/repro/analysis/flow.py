"""Flow-sensitive core for the v2 checkers: per-function CFGs + dataflow.

The v1 rules were syntactic walks; the invariants this package grew for
— span propagation, resource lifetimes — are statements about *paths*,
so they need a control-flow graph and a dataflow fixpoint, not a tree
visitor.  This module is that shared core:

* :func:`build_cfg` — one :class:`CFG` per function body, built from
  stdlib ``ast``.  Each node is one statement (compound statements
  contribute a *header* node for the part evaluated at that point: the
  ``if``/``while`` test, the ``for`` iterable, the ``with`` items);
  edges cover branches, loops (with back edges), ``try``/``except``/
  ``finally``, ``with`` blocks, and early exits (``return``/``raise``/
  ``break``/``continue``).
* exception edges — inside a ``try`` body, every statement that can
  raise gets an *exceptional* successor into each handler (and the
  ``finally`` block).  Exceptional edges propagate the facts holding
  **before** the statement, because a raising statement never completed.
* :func:`must_facts` — a forward "must have occurred" analysis: the
  facts guaranteed to have been established on *every* path from entry,
  merged by set intersection at joins.  This is what dominance-style
  rules ("the context must be copied before every submit") are phrased
  in.

Deliberate approximations, all in the conservative direction for a
must-analysis (extra paths can only *shrink* a must-set, so they cause
findings, never hide them): ``break``/``continue`` jump straight to
their loop targets even when a ``finally`` intervenes, and one
``finally`` body stands in for every exit kind that routes through it.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

__all__ = [
    "CFG",
    "FlowNode",
    "build_cfg",
    "header_exprs",
    "must_facts",
    "stmt_can_raise",
]


@dataclass
class FlowNode:
    """One CFG node: a statement (or a synthetic entry/exit/join point).

    ``succs`` are normal-completion edges; ``exc_succs`` are taken only
    when the statement raises, so dataflow propagates the *pre*-state
    along them.
    """

    index: int
    stmt: ast.stmt | None
    succs: set[int] = field(default_factory=set)
    exc_succs: set[int] = field(default_factory=set)
    label: str = ""


class CFG:
    """Control-flow graph of one function body.

    ``nodes[ENTRY]`` and ``nodes[EXIT]`` are synthetic; every other node
    carries exactly one ``ast.stmt``.  ``node_of`` maps a statement back
    to its node (by identity), so checkers can walk the AST to find the
    statements they care about and then ask the dataflow what holds
    there.
    """

    ENTRY = 0
    EXIT = 1

    def __init__(self) -> None:
        self.nodes: list[FlowNode] = [
            FlowNode(self.ENTRY, None, label="entry"),
            FlowNode(self.EXIT, None, label="exit"),
        ]
        self._by_stmt: dict[int, int] = {}

    def new_node(self, stmt: ast.stmt | None, label: str = "") -> int:
        index = len(self.nodes)
        self.nodes.append(FlowNode(index, stmt, label=label))
        if stmt is not None:
            self._by_stmt[id(stmt)] = index
        return index

    def node_of(self, stmt: ast.stmt) -> int | None:
        """Node index of ``stmt``, or None for statements the builder
        does not model as nodes (e.g. the body of a nested ``def``)."""
        return self._by_stmt.get(id(stmt))

    def statements(self) -> Iterator[tuple[int, ast.stmt]]:
        for node in self.nodes:
            if node.stmt is not None:
                yield node.index, node.stmt

    def edge(self, src: int, dst: int) -> None:
        self.nodes[src].succs.add(dst)

    def exc_edge(self, src: int, dst: int) -> None:
        self.nodes[src].exc_succs.add(dst)


#: Expression types whose evaluation can raise for our purposes.  Broad
#: on purpose: attribute access and subscripts raise in this codebase
#: (closed stores, missing blocks), and any call can.
_RAISING_EXPRS = (
    ast.Call,
    ast.Attribute,
    ast.Subscript,
    ast.BinOp,
    ast.Await,
)


def header_exprs(stmt: ast.stmt) -> list[ast.expr]:
    """The expressions evaluated *at* a statement's CFG node — for a
    compound statement that is just its header (test / iterable /
    context items), because the nested bodies have nodes of their own."""
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter, stmt.target]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, ast.Try):
        return []
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return []
    out: list[ast.expr] = []
    for child in ast.iter_child_nodes(stmt):
        if isinstance(child, ast.expr):
            out.append(child)
    return out


def stmt_can_raise(stmt: ast.stmt) -> bool:
    """Whether evaluating ``stmt``'s own node (header only, for compound
    statements) can raise.  ``raise`` and ``assert`` always can."""
    if isinstance(stmt, (ast.Raise, ast.Assert)):
        return True
    if isinstance(stmt, (ast.Pass, ast.Break, ast.Continue,
                         ast.Global, ast.Nonlocal, ast.Import,
                         ast.ImportFrom)):
        return False
    for expr in header_exprs(stmt):
        for node in ast.walk(expr):
            if isinstance(node, _RAISING_EXPRS):
                return True
    return False


@dataclass
class _LoopCtx:
    header: int
    breaks: list[int] = field(default_factory=list)


@dataclass
class _TryCtx:
    """Exception routing while building statements: where a raise goes.

    ``handlers`` are this try's handler entry join points (empty while
    building ``orelse``/handler bodies, whose exceptions escape the
    try); ``final`` is the ``finally`` join point, if any.
    """

    handlers: list[int] = field(default_factory=list)
    final: int | None = None
    abrupt_into_final: bool = False


class _Builder:
    def __init__(self) -> None:
        self.cfg = CFG()
        self.loops: list[_LoopCtx] = []
        self.tries: list[_TryCtx] = []

    # -- wiring helpers ----------------------------------------------------

    def _join(self, frontier: list[int], node: int) -> None:
        for src in frontier:
            self.cfg.edge(src, node)

    def _exc_targets(self) -> list[int]:
        """Where an exception raised at the current point can land."""
        targets: list[int] = []
        for ctx in reversed(self.tries):
            targets.extend(ctx.handlers)
            if ctx.final is not None:
                targets.append(ctx.final)
                ctx.abrupt_into_final = True
                # Uncaught exceptions keep unwinding past the finally,
                # but the finally->EXIT edge added at build time covers
                # that continuation; stop at the first finally.
            if ctx.handlers or ctx.final is not None:
                return targets
        return targets

    def _abrupt_exit_target(self) -> int:
        """Where ``return``/uncaught ``raise`` control goes: the nearest
        enclosing ``finally`` join (which also routes to EXIT), else
        EXIT itself."""
        for ctx in reversed(self.tries):
            if ctx.final is not None:
                ctx.abrupt_into_final = True
                return ctx.final
        return CFG.EXIT

    # -- construction ------------------------------------------------------

    def build(self, body: list[ast.stmt]) -> CFG:
        frontier = self.build_body(body, [CFG.ENTRY])
        self._join(frontier, CFG.EXIT)
        return self.cfg

    def build_body(self, body: list[ast.stmt],
                   frontier: list[int]) -> list[int]:
        for stmt in body:
            frontier = self.build_stmt(stmt, frontier)
        return frontier

    def build_stmt(self, stmt: ast.stmt,
                   frontier: list[int]) -> list[int]:
        node = self.cfg.new_node(stmt)
        self._join(frontier, node)
        if stmt_can_raise(stmt) and not isinstance(stmt, ast.Raise):
            for target in self._exc_targets():
                self.cfg.exc_edge(node, target)

        if isinstance(stmt, ast.If):
            body_frontier = self.build_body(stmt.body, [node])
            if stmt.orelse:
                else_frontier = self.build_body(stmt.orelse, [node])
            else:
                else_frontier = [node]
            return body_frontier + else_frontier

        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            ctx = _LoopCtx(header=node)
            self.loops.append(ctx)
            body_frontier = self.build_body(stmt.body, [node])
            self.loops.pop()
            self._join(body_frontier, node)  # back edge
            infinite = (
                isinstance(stmt, ast.While)
                and isinstance(stmt.test, ast.Constant)
                and bool(stmt.test.value)
            )
            if infinite:
                exit_frontier: list[int] = []
            elif stmt.orelse:
                exit_frontier = self.build_body(stmt.orelse, [node])
            else:
                exit_frontier = [node]
            return exit_frontier + ctx.breaks

        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self.build_body(stmt.body, [node])

        if isinstance(stmt, ast.Try):
            return self._build_try(stmt, node)

        if isinstance(stmt, ast.Match):
            frontiers: list[int] = []
            exhaustive = False
            for case in stmt.cases:
                frontiers.extend(self.build_body(case.body, [node]))
                if (isinstance(case.pattern, ast.MatchAs)
                        and case.pattern.pattern is None
                        and case.guard is None):
                    exhaustive = True
            if not exhaustive:
                frontiers.append(node)
            return frontiers

        if isinstance(stmt, ast.Return):
            self.cfg.edge(node, self._abrupt_exit_target())
            return []

        if isinstance(stmt, ast.Raise):
            targets = self._exc_targets()
            if not targets:
                targets = [self._abrupt_exit_target()]
            for target in targets:
                self.cfg.edge(node, target)
            return []

        if isinstance(stmt, ast.Break):
            if self.loops:
                self.loops[-1].breaks.append(node)
            return []

        if isinstance(stmt, ast.Continue):
            if self.loops:
                self.cfg.edge(node, self.loops[-1].header)
            return []

        # Nested def/class: one opaque node, no flow into the body.
        return [node]

    def _build_try(self, stmt: ast.Try, node: int) -> list[int]:
        handler_entries = [
            self.cfg.new_node(None, label="except") for _ in stmt.handlers
        ]
        final_entry = (
            self.cfg.new_node(None, label="finally")
            if stmt.finalbody else None
        )
        ctx = _TryCtx(handlers=handler_entries, final=final_entry)

        self.tries.append(ctx)
        body_frontier = self.build_body(stmt.body, [node])
        self.tries.pop()

        # orelse and handler bodies: their exceptions escape this try's
        # handlers but still pass through its finally.
        escape_ctx = _TryCtx(handlers=[], final=final_entry)
        self.tries.append(escape_ctx)
        if stmt.orelse:
            normal_frontier = self.build_body(stmt.orelse, body_frontier)
        else:
            normal_frontier = body_frontier
        handler_frontiers: list[int] = []
        for entry, _handler in zip(handler_entries, stmt.handlers):
            handler_frontiers.extend(
                self.build_body(_handler.body, [entry])
            )
        self.tries.pop()
        if escape_ctx.abrupt_into_final:
            ctx.abrupt_into_final = True

        if final_entry is None:
            return normal_frontier + handler_frontiers

        self._join(normal_frontier + handler_frontiers, final_entry)
        final_frontier = self.build_body(stmt.finalbody, [final_entry])
        if ctx.abrupt_into_final:
            # An exception / early return that routed through the
            # finally keeps unwinding afterwards instead of falling
            # through to the next statement.
            self._join(final_frontier, CFG.EXIT)
        return final_frontier


def build_cfg(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> CFG:
    """CFG of ``fn``'s body.  Nested function/class bodies are opaque
    single nodes (they execute at call time, not here)."""
    return _Builder().build(fn.body)


def must_facts(
    cfg: CFG,
    gen: Callable[[ast.stmt], Iterable[str]],
) -> dict[int, frozenset[str]]:
    """Forward must-analysis: for each node, the facts established on
    *every* path from entry to just **before** that node.

    ``gen(stmt)`` names the facts a completed statement establishes.
    Merge at joins is set intersection; an exceptional edge contributes
    the facts from before its source statement (the statement did not
    complete).  Unreachable nodes keep the full universe (vacuously
    dominated).
    """
    gen_sets: dict[int, frozenset[str]] = {}
    for node in cfg.nodes:
        facts = frozenset(gen(node.stmt)) if node.stmt is not None \
            else frozenset()
        gen_sets[node.index] = facts
    universe: frozenset[str] = frozenset().union(*gen_sets.values())

    normal_preds: dict[int, list[int]] = {n.index: [] for n in cfg.nodes}
    exc_preds: dict[int, list[int]] = {n.index: [] for n in cfg.nodes}
    for node in cfg.nodes:
        for succ in node.succs:
            normal_preds[succ].append(node.index)
        for succ in node.exc_succs:
            exc_preds[succ].append(node.index)

    in_facts: dict[int, frozenset[str]] = {
        n.index: universe for n in cfg.nodes
    }
    in_facts[CFG.ENTRY] = frozenset()

    worklist: deque[int] = deque(n.index for n in cfg.nodes)
    while worklist:
        index = worklist.popleft()
        if index == CFG.ENTRY:
            continue
        incoming: frozenset[str] | None = None
        for pred in normal_preds[index]:
            out = in_facts[pred] | gen_sets[pred]
            incoming = out if incoming is None else incoming & out
        for pred in exc_preds[index]:
            pre = in_facts[pred]
            incoming = pre if incoming is None else incoming & pre
        if incoming is None:
            continue  # unreachable: keep universe
        if incoming != in_facts[index]:
            in_facts[index] = incoming
            node = cfg.nodes[index]
            for succ in node.succs | node.exc_succs:
                worklist.append(succ)
    return in_facts
