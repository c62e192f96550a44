"""Lock-discipline and lock-order checkers.

The storage plane guards shared state with per-instance locks
(``self._lock`` and friends).  Two whole-program invariants fall out:

* **lock-discipline** — an attribute that is mutated under a lock is
  the lock's responsibility *everywhere*: one unguarded assignment is a
  lost-update / torn-state bug that no test reliably catches.  The
  checker models held locks through the intra-class call graph (a
  helper only ever invoked under ``with self._lock`` counts as locked)
  and exempts the single-threaded construction phase (methods reachable
  only from ``__init__``).
* **lock-order** — nested acquisitions define a partial order; a cycle
  between two classes (A takes its lock then calls into B, which takes
  its lock then calls back into A) is a deadlock candidate.  Cross-class
  edges are resolved by *receiver type*: ``self._audit.record(...)``
  links to ``AuditLog`` only when ``self._audit`` is provably an
  ``AuditLog`` (constructed in a method, or bound from an annotated
  parameter).  Name-only matching is deliberately not used — generic
  method names (``write``, ``record``) collide with file objects and
  histograms and would drown the signal.  The public ``read``/``write``
  wrappers still dispatch to the ``_get``/``_put`` hooks of the resolved
  class.

Both checkers are deliberately conservative about *reads* (unlocked
reads are often benign snapshots); they only reason about mutations and
acquisitions, which keeps the signal high.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.analysis.core import Checker, Finding, Project, SourceFile

__all__ = ["LockDisciplineChecker", "LockOrderChecker", "build_lock_model"]

#: Constructors whose result makes a ``self.X = ...`` attribute a lock.
_LOCK_CTORS = frozenset({
    "Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore",
})

#: Attribute-name conventions that mark a lock even without seeing the
#: constructor (e.g. a lock passed in from outside).
_LOCK_SUFFIXES = ("_lock", "_cv", "_cond")

#: Public BlockStore wrappers and the subclass hooks they dispatch to —
#: lets the order checker follow ``self.child.write_many(...)`` into the
#: ``_put_many`` of other analyzed classes.
_DISPATCH_ALIASES = {
    "read": "_get",
    "write": "_put",
    "contains": "_contains",
    "read_many": "_get_many",
    "write_many": "_put_many",
}


@dataclass
class _Mutation:
    attr: str
    line: int
    col: int
    held: frozenset[str]


@dataclass
class _Acquire:
    lock: str
    line: int
    held_before: frozenset[str]


@dataclass
class _CallSite:
    callee: str
    line: int
    held: frozenset[str]
    on_self: bool
    #: Receiver root: ``self.X.method()`` -> ``X``; ``name.method()`` ->
    #: ``name``; empty when the receiver is a deeper expression.
    recv: str = ""


@dataclass
class _Method:
    name: str
    node: ast.AST
    public: bool
    nested: bool  # closures run later, outside the def-site's locks
    mutations: list[_Mutation] = field(default_factory=list)
    acquires: list[_Acquire] = field(default_factory=list)
    calls: list[_CallSite] = field(default_factory=list)
    #: Locks this method is guaranteed to hold on entry (fixpoint result).
    min_entry: frozenset[str] = frozenset()
    #: Parameter name -> annotated type name (for receiver resolution).
    param_types: dict[str, str] = field(default_factory=dict)


@dataclass
class _Class:
    name: str
    sf: SourceFile
    node: ast.ClassDef
    lock_attrs: set[str] = field(default_factory=set)
    rlocks: set[str] = field(default_factory=set)
    thread_safe: bool = False
    methods: dict[str, _Method] = field(default_factory=dict)
    construction_only: set[str] = field(default_factory=set)
    #: Attribute name -> inferred class name (``self.X = ClassName(...)``
    #: or ``self.X = param`` with an annotated parameter).
    attr_types: dict[str, str] = field(default_factory=dict)

    @property
    def in_scope(self) -> bool:
        return bool(self.lock_attrs)


@dataclass
class _Edge:
    src: tuple[str, str]  # (class, lock)
    dst: tuple[str, str]
    sf: SourceFile
    line: int
    via: str  # human-readable provenance for the report


class LockModel:
    """Every analyzed class plus the cross-class acquisition-order graph."""

    def __init__(self, classes: list[_Class], edges: list[_Edge]) -> None:
        self.classes = classes
        self.edges = edges


def _self_attr_root(node: ast.expr) -> str | None:
    """The first attribute of a ``self.``-rooted expression, if any.

    ``self.x`` -> ``x``; ``self.x[i]`` -> ``x``; ``self.x.y`` -> ``x``.
    """
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and node.value.id == "self":
            return node.attr
        node = node.value
    return None


def _is_self_lock(node: ast.expr, locks: set[str]) -> str | None:
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
            and node.value.id == "self" and node.attr in locks:
        return node.attr
    return None


class _MethodScanner:
    """Walk one method body tracking the lexically-held self-lock set."""

    def __init__(self, cls: _Class, method: _Method) -> None:
        self.cls = cls
        self.method = method

    def scan(self, body: Iterable[ast.stmt],
             held: frozenset[str] = frozenset()) -> None:
        for stmt in body:
            self._stmt(stmt, held)

    def _stmt(self, stmt: ast.stmt, held: frozenset[str]) -> None:
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            inner = held
            for item in stmt.items:
                lock = _is_self_lock(item.context_expr, self.cls.lock_attrs)
                self._exprs_in(item.context_expr, held)
                if lock is not None:
                    self.method.acquires.append(
                        _Acquire(lock, stmt.lineno, inner))
                    inner = inner | {lock}
            self.scan(stmt.body, inner)
            return
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # A nested def is a callback: it runs later, not under the
            # locks held where it was defined.
            nested = _Method(
                name=f"{self.method.name}.<{stmt.name}>", node=stmt,
                public=False, nested=True,
            )
            self.cls.methods[nested.name] = nested
            _MethodScanner(self.cls, nested).scan(stmt.body)
            return
        if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets: list[ast.expr]
            if isinstance(stmt, ast.Assign):
                targets = list(stmt.targets)
            else:
                targets = [stmt.target]
            for target in targets:
                self._record_target(target, held)
            if stmt.value is not None:
                self._exprs_in(stmt.value, held)
            if isinstance(stmt, ast.AugAssign):
                self._exprs_in(stmt.target, held)
            return
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                self._record_target(target, held)
            return
        # Generic recursion: visit child statements with the same held
        # set, and collect calls from bare expressions / conditions.
        for child_field, value in ast.iter_fields(stmt):
            del child_field
            if isinstance(value, list):
                stmts = [v for v in value if isinstance(v, ast.stmt)]
                if stmts:
                    self.scan(stmts, held)
                for v in value:
                    if isinstance(v, ast.expr):
                        self._exprs_in(v, held)
                    elif isinstance(v, ast.excepthandler):
                        self.scan(v.body, held)
                    elif isinstance(v, (ast.withitem, ast.keyword)):
                        pass  # handled above / below
            elif isinstance(value, ast.expr):
                self._exprs_in(value, held)

    def _record_target(self, target: ast.expr, held: frozenset[str]) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._record_target(elt, held)
            return
        if isinstance(target, ast.Starred):
            self._record_target(target.value, held)
            return
        attr = _self_attr_root(target)
        if attr is not None and attr not in self.cls.lock_attrs:
            self.method.mutations.append(
                _Mutation(attr, target.lineno, target.col_offset, held))
        self._exprs_in(target, held, skip_store=True)

    def _exprs_in(self, node: ast.expr, held: frozenset[str],
                  skip_store: bool = False) -> None:
        del skip_store
        # Manual walk so deferred bodies (lambdas, comprehensions) are
        # pruned: they run later, not under the locks held right here.
        todo: list[ast.AST] = [node]
        while todo:
            sub = todo.pop()
            if isinstance(sub, (ast.Lambda, ast.ListComp, ast.SetComp,
                                ast.DictComp, ast.GeneratorExp)):
                continue
            todo.extend(ast.iter_child_nodes(sub))
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
                func = sub.func
                on_self = (isinstance(func.value, ast.Name)
                           and func.value.id == "self")
                recv = ""
                if not on_self:
                    if isinstance(func.value, ast.Name):
                        recv = func.value.id
                    else:
                        recv = _self_attr_root(func.value) or ""
                self.method.calls.append(
                    _CallSite(func.attr, sub.lineno, held,
                              on_self=on_self, recv=recv))


def _ann_name(node: ast.expr | None) -> str:
    """Best-effort class name from an annotation node.

    ``Foo`` / ``mod.Foo`` / ``"Foo"`` resolve; ``Optional[Foo]`` peels
    to ``Foo``; anything fancier resolves to nothing (no edge, never a
    wrong edge).
    """
    if node is None:
        return ""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.split(".")[-1].strip()
    if isinstance(node, ast.Subscript):
        outer = _ann_name(node.value)
        if outer == "Optional":
            return _ann_name(node.slice)
    return ""


def _infer_attr_types(cls: _Class) -> None:
    """Infer ``self.X`` attribute types and parameter types per method."""
    for item in cls.node.body:
        if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        params: dict[str, str] = {}
        for arg in list(item.args.args) + list(item.args.kwonlyargs):
            name = _ann_name(arg.annotation)
            if name:
                params[arg.arg] = name
        if item.name in cls.methods:
            cls.methods[item.name].param_types = params
        for node in ast.walk(item):
            target: ast.expr | None = None
            value: ast.expr | None = None
            ann = ""
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign):
                target, value = node.target, node.value
                ann = _ann_name(node.annotation)
            if not (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                continue
            tname = ann
            if not tname and isinstance(value, ast.Call) \
                    and isinstance(value.func, ast.Name):
                tname = value.func.id
            if not tname and isinstance(value, ast.Name):
                tname = params.get(value.id, "")
            if tname:
                cls.attr_types[target.attr] = tname


def _collect_classes(project: Project) -> list[_Class]:
    classes: list[_Class] = []
    for sf in project.files:
        if sf.tree is None:
            continue
        for node in ast.walk(sf.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            cls = _Class(name=node.name, sf=sf, node=node)
            _find_locks(cls)
            if not cls.in_scope:
                continue
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if any(isinstance(d, ast.Name) and
                           d.id in ("staticmethod", "classmethod")
                           for d in item.decorator_list):
                        continue
                    method = _Method(
                        name=item.name, node=item,
                        public=not item.name.startswith("_")
                        or (item.name.startswith("__")
                            and item.name.endswith("__")),
                        nested=False,
                    )
                    cls.methods[item.name] = method
                    _MethodScanner(cls, method).scan(item.body)
            _infer_attr_types(cls)
            _propagate_entry_locks(cls)
            _mark_construction_only(cls)
            classes.append(cls)
    return classes


def _find_locks(cls: _Class) -> None:
    for item in cls.node.body:
        if isinstance(item, ast.Assign):
            for target in item.targets:
                if isinstance(target, ast.Name) and target.id == "thread_safe":
                    if isinstance(item.value, ast.Constant) \
                            and item.value.value is True:
                        cls.thread_safe = True
    for node in ast.walk(cls.node):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if not (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                continue
            value = node.value
            ctor = ""
            if isinstance(value, ast.Call):
                func = value.func
                if isinstance(func, ast.Attribute):
                    ctor = func.attr
                elif isinstance(func, ast.Name):
                    ctor = func.id
            if ctor in _LOCK_CTORS or target.attr.endswith(_LOCK_SUFFIXES):
                cls.lock_attrs.add(target.attr)
                if ctor == "RLock":
                    cls.rlocks.add(target.attr)


def _propagate_entry_locks(cls: _Class) -> None:
    """Fixpoint: which locks does each private method *always* enter with?

    ``min_entry(m)`` is the intersection over every internal call site of
    (locks lexically held at the site) ∪ ``min_entry(caller)``.  Public
    methods and nested callbacks can be entered from outside with nothing
    held, so their entry set is empty.  Call sites inside ``__init__``
    are excluded — they happen before the object is shared.
    """
    all_locks = frozenset(cls.lock_attrs)
    sites: dict[str, list[tuple[str, frozenset[str]]]] = {}
    for method in cls.methods.values():
        for call in method.calls:
            if call.on_self and call.callee in cls.methods:
                sites.setdefault(call.callee, []).append(
                    (method.name, call.held))
    for method in cls.methods.values():
        if method.public or method.nested or method.name == "__init__":
            method.min_entry = frozenset()
        elif sites.get(method.name):
            method.min_entry = all_locks  # refined downward below
        else:
            method.min_entry = frozenset()

    changed = True
    while changed:
        changed = False
        for method in cls.methods.values():
            callers = [
                (name, held) for name, held in sites.get(method.name, [])
                if name != "__init__"
            ]
            if method.public or method.nested or method.name == "__init__" \
                    or not callers:
                continue
            entry = all_locks
            for caller_name, held in callers:
                caller = cls.methods[caller_name]
                entry = entry & (held | caller.min_entry)
            if entry != method.min_entry:
                method.min_entry = entry
                changed = True


def _mark_construction_only(cls: _Class) -> None:
    """Private methods reachable *only* from ``__init__`` run before the
    instance escapes the constructing thread: exempt from discipline."""
    callers: dict[str, set[str]] = {}
    for method in cls.methods.values():
        for call in method.calls:
            if call.on_self and call.callee in cls.methods:
                callers.setdefault(call.callee, set()).add(method.name)
    construction: set[str] = set()
    changed = True
    while changed:
        changed = False
        for name, method in cls.methods.items():
            if name in construction or method.public or method.nested \
                    or name == "__init__":
                continue
            sources = callers.get(name)
            if not sources:
                continue
            if all(src == "__init__" or src in construction
                   for src in sources):
                construction.add(name)
                changed = True
    cls.construction_only = construction


def _acquire_closure(cls: _Class, name: str,
                     seen: set[str] | None = None) -> set[str]:
    """Locks acquired by ``name`` or any same-class method it calls."""
    if seen is None:
        seen = set()
    if name in seen or name not in cls.methods:
        return set()
    seen.add(name)
    method = cls.methods[name]
    out = {acq.lock for acq in method.acquires}
    for call in method.calls:
        if call.on_self:
            out |= _acquire_closure(cls, call.callee, seen)
    return out


def build_lock_model(project: Project) -> LockModel:
    cached = project.memo.get("lock_model")
    if isinstance(cached, LockModel):
        return cached
    classes = _collect_classes(project)
    edges: list[_Edge] = []

    by_name: dict[str, _Class] = {}
    for cls in classes:
        by_name.setdefault(cls.name, cls)

    for cls in classes:
        for method in cls.methods.values():
            entry = method.min_entry
            for acq in method.acquires:
                for held in acq.held_before | entry:
                    if held != acq.lock:
                        edges.append(_Edge(
                            (cls.name, held), (cls.name, acq.lock),
                            cls.sf, acq.line,
                            via=f"{cls.name}.{method.name}",
                        ))
            for call in method.calls:
                held = call.held | entry
                if not held:
                    continue
                target_name = _DISPATCH_ALIASES.get(call.callee, call.callee)
                if call.on_self and call.callee in cls.methods:
                    for lock in _acquire_closure(cls, call.callee):
                        for src in held:
                            if src != lock:
                                edges.append(_Edge(
                                    (cls.name, src), (cls.name, lock),
                                    cls.sf, call.line,
                                    via=f"{cls.name}.{method.name} -> "
                                        f"self.{call.callee}()",
                                ))
                    continue
                if call.on_self or not call.recv:
                    continue
                # Receiver-typed resolution only: an edge needs proof of
                # *which* class the call lands in.
                tname = cls.attr_types.get(call.recv) \
                    or method.param_types.get(call.recv)
                other = by_name.get(tname or "")
                if other is None or other.name == cls.name:
                    continue
                resolved = call.callee if call.callee in other.methods \
                    else target_name
                for lock in _acquire_closure(other, resolved):
                    for src in held:
                        edges.append(_Edge(
                            (cls.name, src), (other.name, lock),
                            cls.sf, call.line,
                            via=f"{cls.name}.{method.name} -> "
                                f"{other.name}.{resolved}()",
                        ))

    # Dedupe parallel edges, keeping the first (lowest line) witness.
    unique: dict[tuple[tuple[str, str], tuple[str, str]], _Edge] = {}
    for edge in sorted(edges, key=lambda e: (e.sf.rel, e.line)):
        unique.setdefault((edge.src, edge.dst), edge)
    model = LockModel(classes, list(unique.values()))
    project.memo["lock_model"] = model
    return model


class LockDisciplineChecker(Checker):
    name = "lock-discipline"
    description = (
        "attributes mutated both under and outside their guarding lock"
    )

    def run(self, project: Project) -> Iterator[Finding]:
        model = build_lock_model(project)
        for cls in model.classes:
            yield from self._check_class(cls)

    def _check_class(self, cls: _Class) -> Iterator[Finding]:
        # attr -> list of (method, mutation, effective held set)
        sites: dict[str, list[tuple[_Method, _Mutation, frozenset[str]]]] = {}
        for name, method in cls.methods.items():
            if name == "__init__" or name in cls.construction_only:
                continue
            for mut in method.mutations:
                effective = mut.held | method.min_entry
                sites.setdefault(mut.attr, []).append(
                    (method, mut, effective))
        for attr, occurrences in sorted(sites.items()):
            guard = self._guard_for(cls, occurrences)
            if guard is None:
                continue
            guarded = [o for o in occurrences if guard in o[2]]
            unguarded = [o for o in occurrences if guard not in o[2]]
            if not guarded or not unguarded:
                continue
            witness = guarded[0][1]
            for method, mut, _held in unguarded:
                yield self.finding(
                    cls.sf, None,
                    message=(
                        f"{cls.name}.{method.name} mutates self.{attr} "
                        f"without holding self.{guard} "
                        f"(guarded mutation at line {witness.line})"
                    ),
                    hint=(
                        f"wrap the mutation in `with self.{guard}:` (only "
                        "methods reachable solely from __init__ are exempt)"
                    ),
                    line=mut.line, col=mut.col,
                )

    @staticmethod
    def _guard_for(
        cls: _Class,
        occurrences: list[tuple[_Method, _Mutation, frozenset[str]]],
    ) -> str | None:
        """The lock most often held while mutating this attribute."""
        counts: dict[str, int] = {}
        for _method, _mut, held in occurrences:
            for lock in held & cls.lock_attrs:
                counts[lock] = counts.get(lock, 0) + 1
        if not counts:
            return None
        return max(sorted(counts), key=lambda lock: counts[lock])


class LockOrderChecker(Checker):
    name = "lock-order"
    description = "cycles in the cross-class lock-acquisition-order graph"

    def run(self, project: Project) -> Iterator[Finding]:
        model = build_lock_model(project)
        graph: dict[tuple[str, str], set[tuple[str, str]]] = {}
        by_pair: dict[tuple[tuple[str, str], tuple[str, str]], _Edge] = {}
        for edge in model.edges:
            graph.setdefault(edge.src, set()).add(edge.dst)
            by_pair[(edge.src, edge.dst)] = edge
        for cycle in _cycles(graph):
            edges = [
                by_pair[(cycle[i], cycle[(i + 1) % len(cycle)])]
                for i in range(len(cycle))
            ]
            path = " -> ".join(f"{c}.{lk}" for c, lk in cycle)
            first = f"{cycle[0][0]}.{cycle[0][1]}"
            witnesses = "; ".join(
                f"{e.sf.rel}:{e.line} ({e.via})" for e in edges
            )
            yield self.finding(
                edges[0].sf, None,
                message=(
                    f"lock-order cycle (deadlock candidate): "
                    f"{path} -> {first} [{witnesses}]"
                ),
                hint=(
                    "impose a single acquisition order, or release the "
                    "outer lock before calling into the other class"
                ),
                line=edges[0].line, col=0,
            )


def _cycles(
    graph: dict[tuple[str, str], set[tuple[str, str]]],
) -> list[list[tuple[str, str]]]:
    """One representative simple cycle per strongly connected component."""
    index = 0
    indices: dict[tuple[str, str], int] = {}
    low: dict[tuple[str, str], int] = {}
    stack: list[tuple[str, str]] = []
    on_stack: set[tuple[str, str]] = set()
    sccs: list[list[tuple[str, str]]] = []

    nodes = set(graph) | {d for dsts in graph.values() for d in dsts}

    def strongconnect(node: tuple[str, str]) -> None:
        nonlocal index
        work: list[tuple[tuple[str, str], Iterator[tuple[str, str]]]] = [
            (node, iter(sorted(graph.get(node, ()))))
        ]
        indices[node] = low[node] = index
        index += 1
        stack.append(node)
        on_stack.add(node)
        while work:
            current, children = work[-1]
            advanced = False
            for child in children:
                if child not in indices:
                    indices[child] = low[child] = index
                    index += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(sorted(graph.get(child, ())))))
                    advanced = True
                    break
                if child in on_stack:
                    low[current] = min(low[current], indices[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[current])
            if low[current] == indices[current]:
                component: list[tuple[str, str]] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == current:
                        break
                if len(component) > 1:
                    sccs.append(list(reversed(component)))

    for node in sorted(nodes):
        if node not in indices:
            strongconnect(node)

    cycles: list[list[tuple[str, str]]] = []
    for component in sccs:
        members = set(component)
        start = component[0]
        path = [start]
        seen = {start}
        current = start
        while True:
            nxt = next(
                (n for n in sorted(graph.get(current, ()))
                 if n in members and (n == start or n not in seen)),
                None,
            )
            if nxt is None or nxt == start:
                break
            path.append(nxt)
            seen.add(nxt)
            current = nxt
        cycles.append(path)
    return cycles
