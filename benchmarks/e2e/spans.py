"""Span recording and folding for the traced run.

The benchmark's own files record the spans: :class:`Recorder` swaps the
layers' public callables for timing wrappers (class attributes and
by-name imported functions), keeps every finished span in memory, and
puts everything back afterwards.  Nothing under ``src/`` knows about it.

The active span lives in a :class:`~contextvars.ContextVar`, so the
replica lanes' ``copy_context()`` parents their children to the
submitting thread's span.  Threads that do not copy the context (the
``rpc-async`` executor under ``remote://`` writes, the store nodes'
connection threads) produce *orphans*; :func:`adopt_orphans` re-parents
those by time containment before :func:`fold` computes self times:

    self time = duration - time covered by children inside the span
"""

from __future__ import annotations

import json
import sys
from bisect import bisect_right
from contextvars import ContextVar
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable, Iterable

# In-flight records are bare lists (cheapest thing to build per call).
_NAME, _START, _END, _PARENT, _VALUE = range(5)

_current: ContextVar[list | None] = ContextVar("e2e_current_span", default=None)


@dataclass
class Span:
    """One finished span.  Times are ``perf_counter_ns`` readings."""

    id: int
    name: str
    start: int
    end: int
    parent: int | None = None
    #: Wrapper-specific count carried by the span (bytes, blocks).
    value: int = 0

    @property
    def duration(self) -> int:
        return self.end - self.start


class Recorder:
    """Installs span wrappers, collects spans, restores the originals."""

    def __init__(self) -> None:
        self._records: list[list] = []
        #: (owner, attribute, original, was_own_attribute)
        self._patched: list[tuple[object, str, object, bool]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, fn: Callable, name: str | Callable[[object], str],
             value: Callable[[tuple, object], int] | None = None) -> Callable:
        """``fn`` timed as one span per call.

        ``name`` may be a function of the first positional argument (the
        receiver), so one wrapper on ``BlockStore.read`` names its span
        after the concrete store's scheme.  ``value(args, result)`` puts
        a count on the span.
        """
        records = self._records
        dynamic = callable(name)

        def traced(*args, **kwargs):
            rec = [name(args[0]) if dynamic else name, perf_counter_ns(), 0,
                   _current.get(), 0]
            token = _current.set(rec)
            try:
                result = fn(*args, **kwargs)
                if value is not None:
                    rec[_VALUE] = value(args, result)
                return result
            finally:
                _current.reset(token)
                rec[_END] = perf_counter_ns()
                records.append(rec)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def span(self, name: str) -> "_OpenSpan":
        """Context manager for spans the driver opens itself (ops, steps)."""
        return _OpenSpan(self._records, name)

    # -- patching ----------------------------------------------------------

    def patch(self, owner: object, attr: str, name, value=None) -> None:
        """Replace ``owner.attr`` (a class or module attribute) by its
        traced wrapper, remembering how to undo it exactly."""
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        target = original.__func__ if isinstance(original, staticmethod) \
            else original
        wrapped = self.wrap(target, name, value)
        if isinstance(original, staticmethod):
            wrapped = staticmethod(wrapped)
        self._patched.append((owner, attr, original, own))
        setattr(owner, attr, wrapped)

    def patch_function(self, fn: Callable, name: str, value=None) -> None:
        """Trace a module-level function under every name it was imported
        by (``from x import f`` copies the binding into each importer)."""
        wrapped = self.wrap(fn, name, value)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, bound in list(vars(module).items()):
                if bound is fn:
                    self._patched.append((module, attr, fn, True))
                    setattr(module, attr, wrapped)

    def unpatch_all(self) -> None:
        for owner, attr, original, own in reversed(self._patched):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patched.clear()

    # -- readout -----------------------------------------------------------

    def spans(self) -> list[Span]:
        """Finished spans with ids assigned and parents resolved."""
        ids = {id(rec): i for i, rec in enumerate(self._records)}
        return [
            Span(i, rec[_NAME], rec[_START], rec[_END],
                 # A parent still open when the recorder is read (never
                 # the case after a round) is treated as absent.
                 ids.get(id(rec[_PARENT])) if rec[_PARENT] is not None
                 else None,
                 rec[_VALUE])
            for i, rec in enumerate(self._records)
        ]

    def clear(self) -> None:
        self._records.clear()


class _OpenSpan:
    __slots__ = ("_records", "_rec", "_token")

    def __init__(self, records: list, name: str) -> None:
        self._records = records
        self._rec = [name, 0, 0, None, 0]

    def __enter__(self) -> "_OpenSpan":
        rec = self._rec
        rec[_PARENT] = _current.get()
        self._token = _current.set(rec)
        rec[_START] = perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        rec = self._rec
        rec[_END] = perf_counter_ns()
        _current.reset(self._token)
        self._records.append(rec)


# -- folding -----------------------------------------------------------------


#: Candidate parents examined per orphan, latest starts first.
_LOOKBACK = 16


def adopt_orphans(spans: list[Span], rules: dict[str, str]) -> int:
    """Give parentless spans a parent by time containment.

    ``rules`` maps an orphan's name prefix to the name prefix of the
    spans allowed to adopt it.  An orphan goes to the shortest candidate
    that contains it and has not already adopted a span overlapping it —
    with one closed-loop client at most a handful of candidates are open
    at once, so only the latest :data:`_LOOKBACK` starts are examined.
    Returns the number adopted.
    """
    adopted = 0
    for orphan_prefix, parent_prefix in rules.items():
        candidates = sorted(
            (s for s in spans if s.name.startswith(parent_prefix)),
            key=lambda s: s.start,
        )
        if not candidates:
            continue
        starts = [s.start for s in candidates]
        taken: dict[int, list[tuple[int, int]]] = {}
        orphans = sorted(
            (s for s in spans
             if s.parent is None and s.name.startswith(orphan_prefix)),
            key=lambda s: s.start,
        )
        for orphan in orphans:
            hi = bisect_right(starts, orphan.start)
            best: Span | None = None
            for cand in candidates[max(0, hi - _LOOKBACK):hi]:
                if cand.end < orphan.end or cand.id == orphan.id:
                    continue
                if any(a < orphan.end and orphan.start < b
                       for a, b in taken.get(cand.id, ())):
                    continue
                if best is None or cand.duration < best.duration:
                    best = cand
            if best is not None:
                orphan.parent = best.id
                taken.setdefault(best.id, []).append((orphan.start, orphan.end))
                adopted += 1
    return adopted


def fold(spans: Iterable[Span]) -> dict[int, int]:
    """Self time (ns) of every span, keyed by span id.

    Children are clipped to their parent's interval (a cross-thread child
    may outlive the call that spawned it) and overlapping siblings count
    once (three replica lanes waiting at the same time cover the parent
    once, not three times).
    """
    spans = list(spans)
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    self_ns: dict[int, int] = {}
    for span in spans:
        covered = 0
        edge = span.start
        for child in sorted(children.get(span.id, ()), key=lambda c: c.start):
            lo = max(child.start, edge)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        self_ns[span.id] = span.duration - covered
    return self_ns


def roots(spans: list[Span]) -> dict[int, Span]:
    """The top-most ancestor of every span, keyed by span id."""
    by_id = {s.id: s for s in spans}
    top: dict[int, Span] = {}
    for span in spans:
        chain = []
        node = span
        while node.id not in top and node.parent is not None:
            chain.append(node)
            node = by_id[node.parent]
        root = top.get(node.id, node)
        top[node.id] = root
        for visited in chain:
            top[visited.id] = root
    return top


def write_jsonl(spans: Iterable[Span], top: dict[int, Span], path: str) -> None:
    """One span per line: name, start, end, parent, op id, value.
    ``top`` is :func:`roots` of the spans."""
    with open(path, "w", encoding="utf-8") as out:
        for s in spans:
            out.write(json.dumps({
                "id": s.id, "name": s.name, "start": s.start, "end": s.end,
                "parent": s.parent, "op": top[s.id].id, "value": s.value,
            }) + "\n")
