"""Distributed tracing: span contexts, a span ring buffer, JSON-lines.

A :class:`SpanContext` (trace id, span id, parent span id) is minted at
the client call site — the ``metered://`` wrapper starts a root span
per operation, ``remote://`` derives a child context per RPC and ships
it in the ONC RPC credential field (an XDR opaque old peers decode and
ignore, so the trace field is NULL-compatible in both directions).  The
server records one span per proc with the queue-wait vs. service-time
split; :func:`mark_request_received` is how the transport layer hands
the receive timestamp across the worker-pool boundary.  Inside one
process the active context is a :mod:`contextvars` variable, and
:class:`ContextExecutor` and :class:`ContextLane` carry it across every
pool hop on the client side.

Spans land in a process-wide :class:`TraceRecorder`: a bounded ring
buffer plus an optional JSON-lines log (``store-serve --trace-log``).
``discfs store-trace`` joins the client's and servers' logs on trace id
to reconstruct cross-node trees.
"""

from __future__ import annotations

import contextvars
import json
import os
import queue
import threading
import time
import weakref
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import IO, Any, Callable, TypeVar

__all__ = [
    "ContextExecutor",
    "ContextLane",
    "Span",
    "SpanContext",
    "TraceRecorder",
    "TRACE_WIRE_MAGIC",
    "configure_tracing",
    "current_context",
    "decode_context",
    "encode_context",
    "get_recorder",
    "mark_request_received",
    "new_root_context",
    "take_request_received",
    "use_context",
]

#: Default ring-buffer capacity; override per mount with ``#ring=``.
DEFAULT_RING = 2048

_NO_PARENT = "0" * 16

_T = TypeVar("_T")


def _hex_id(nbytes: int) -> str:
    return os.urandom(nbytes).hex()


@dataclass(frozen=True)
class SpanContext:
    """Identity of one span: where in which trace, under which parent."""

    trace_id: str  # 16 random bytes, hex
    span_id: str  # 8 random bytes, hex
    parent_id: str = ""  # parent span id, empty for roots

    def child(self) -> "SpanContext":
        """A fresh span in the same trace, parented to this one."""
        return SpanContext(self.trace_id, _hex_id(8), self.span_id)


def new_root_context() -> SpanContext:
    """Mint a brand-new trace with a root span."""
    return SpanContext(_hex_id(16), _hex_id(8), "")


# -- active-span propagation ------------------------------------------------

_active: contextvars.ContextVar[SpanContext | None] = contextvars.ContextVar(
    "discfs_active_span", default=None
)


def current_context() -> SpanContext | None:
    """The span context active in this thread/context, if any."""
    return _active.get()


class use_context:
    """Context manager installing ``ctx`` as the active span context.

    Every pool that runs a caller's work is a :class:`ContextExecutor`
    (``call_async``'s fallback pool) or a :class:`ContextLane`
    (``replica://``), so a context activated here is visible to every
    child dispatch.
    """

    def __init__(self, ctx: SpanContext | None) -> None:
        self._ctx = ctx
        self._token: contextvars.Token | None = None

    def __enter__(self) -> SpanContext | None:
        self._token = _active.set(self._ctx)
        return self._ctx

    def __exit__(self, *exc: object) -> None:
        if self._token is not None:
            _active.reset(self._token)
            self._token = None


class ContextExecutor(ThreadPoolExecutor):
    """A thread pool whose tasks run in their submitter's context.

    Pool threads outlive many operations and :mod:`contextvars` do not
    flow into them, so ``submit`` runs each task in a
    :func:`contextvars.copy_context` taken on the submitting thread at
    submission time — one copy per task, since one context cannot be
    entered by two threads at once.  ``map`` goes through ``submit``.
    """

    def submit(self, fn: Callable[..., _T], /, *args: Any,
               **kwargs: Any) -> Future[_T]:
        return super().submit(contextvars.copy_context().run, fn,
                              *args, **kwargs)


class ContextLane:
    """One daemon thread running tasks in submission order, each in the
    context copied at ``submit``, with no :class:`Future`: a task reports
    its own outcome and must not raise.  The thread starts with the first
    task and holds only the queue, so an unclosed lane ends it when
    collected; ``close`` lets queued tasks finish, then ``submit`` raises
    :class:`RuntimeError`."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.closed = False
        self._tasks: queue.SimpleQueue = queue.SimpleQueue()
        self._stop = weakref.finalize(self, self._tasks.put, None)
        self._lock = threading.Lock()
        self._thread: threading.Thread | None = None
        self._submitted, self._ran = 0, [0]  # _ran: the thread's count

    @property
    def waking(self) -> bool:
        """Whether tasks are queued while none runs: the thread has yet
        to take one up."""
        return self._submitted - self._ran[0] == self._tasks.qsize() > 0

    def submit(self, fn: Callable[[], object]) -> None:
        task = (contextvars.copy_context(), fn)
        with self._lock:
            if self.closed:
                raise RuntimeError(f"lane {self.name} is closed")
            self._submitted += 1
            self._tasks.put(task)
            if self._thread is None:
                self._thread = threading.Thread(
                    target=_run_lane, args=(self._tasks, self._ran),
                    name=self.name, daemon=True)
                self._thread.start()

    def close(self) -> None:
        with self._lock:
            self.closed = True
            self._stop()  # the end-of-tasks mark, queued once
        if self._thread is not None:
            self._thread.join()


def _run_lane(tasks: queue.SimpleQueue, ran: list[int]) -> None:
    while (task := tasks.get()) is not None:
        task[0].run(task[1])
        ran[0] += 1
        del task  # idle, hold nothing that keeps the lane's owner alive


# -- wire format ------------------------------------------------------------

#: Version/magic prefix of the on-wire context blob (rides inside the
#: XDR opaque credential body of a call message).
TRACE_WIRE_MAGIC = b"DTR1"
_WIRE_LEN = len(TRACE_WIRE_MAGIC) + 32 + 16 + 16  # magic + trace + span + parent


def encode_context(ctx: SpanContext) -> bytes:
    """Fixed-width wire form: magic + trace(32) + span(16) + parent(16)."""
    parent = ctx.parent_id or _NO_PARENT
    return TRACE_WIRE_MAGIC + ctx.trace_id.encode() + ctx.span_id.encode() + parent.encode()


def decode_context(body: bytes) -> SpanContext | None:
    """Parse a wire blob; None for absent/foreign/garbled bodies.

    Lenient by design: an empty credential (old client) or an
    unrecognized one (some future flavor) simply means "no trace".
    """
    if len(body) != _WIRE_LEN or not body.startswith(TRACE_WIRE_MAGIC):
        return None
    try:
        text = body[len(TRACE_WIRE_MAGIC):].decode("ascii")
    except UnicodeDecodeError:
        return None
    trace_id, span_id, parent = text[:32], text[32:48], text[48:64]
    if not all(c in "0123456789abcdef" for c in text):
        return None
    return SpanContext(trace_id, span_id, "" if parent == _NO_PARENT else parent)


# -- spans and the recorder --------------------------------------------------


@dataclass
class Span:
    """One timed operation, as recorded (and serialized to JSON-lines)."""

    name: str  # e.g. "write", "WRITE_MANY"
    kind: str  # "client" | "server" | "store"
    trace_id: str
    span_id: str
    parent_id: str = ""
    node: str = ""  # e.g. "client", "127.0.0.1:9001"
    start: float = 0.0  # wall-clock epoch seconds (cross-process alignment)
    duration_ms: float = 0.0
    queue_ms: float = 0.0  # server-side: recv -> handler-start wait
    status: str = "ok"
    attrs: dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict[str, object]:
        out: dict[str, object] = {
            "name": self.name,
            "kind": self.kind,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "node": self.node,
            "start": self.start,
            "duration_ms": self.duration_ms,
            "queue_ms": self.queue_ms,
            "status": self.status,
        }
        if self.attrs:
            out["attrs"] = self.attrs
        return out

    @classmethod
    def from_dict(cls, d: dict[str, object]) -> "Span":
        return cls(
            name=str(d.get("name", "")),
            kind=str(d.get("kind", "")),
            trace_id=str(d.get("trace_id", "")),
            span_id=str(d.get("span_id", "")),
            parent_id=str(d.get("parent_id", "")),
            node=str(d.get("node", "")),
            start=float(d.get("start", 0.0)),  # type: ignore[arg-type]
            duration_ms=float(d.get("duration_ms", 0.0)),  # type: ignore[arg-type]
            queue_ms=float(d.get("queue_ms", 0.0)),  # type: ignore[arg-type]
            status=str(d.get("status", "ok")),
            attrs=dict(d.get("attrs", {})),  # type: ignore[call-overload]
        )


class TraceRecorder:
    """Bounded in-memory span ring plus an optional JSON-lines sink."""

    def __init__(self, ring: int = DEFAULT_RING, log_path: str | None = None) -> None:
        if ring < 1:
            raise ValueError("trace ring must hold at least one span")
        self._lock = threading.Lock()
        self._ring = ring
        self._spans: list[Span] = []
        self._log: IO[str] | None = None
        self._log_path: str | None = None
        self._enabled = False
        if log_path:
            self.set_log(log_path)

    @property
    def enabled(self) -> bool:
        """Whether span *origination* is on (span recording itself is
        always accepted — a server records spans whenever a client ships
        a context, regardless of this flag).  Enabled explicitly or as a
        side effect of attaching a JSON-lines log."""
        return self._enabled or self._log is not None

    def enable(self, on: bool = True) -> None:
        self._enabled = on

    def record(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)
            if len(self._spans) > self._ring:
                del self._spans[: len(self._spans) - self._ring]
            if self._log is not None:
                self._log.write(json.dumps(span.to_dict(), separators=(",", ":")) + "\n")
                self._log.flush()

    def spans(self) -> list[Span]:
        with self._lock:
            return list(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    @property
    def ring(self) -> int:
        return self._ring

    def set_ring(self, ring: int) -> None:
        if ring < 1:
            raise ValueError("trace ring must hold at least one span")
        with self._lock:
            self._ring = ring
            if len(self._spans) > ring:
                del self._spans[: len(self._spans) - ring]

    @property
    def log_path(self) -> str | None:
        return self._log_path

    def set_log(self, path: str | None) -> None:
        with self._lock:
            if self._log is not None:
                self._log.close()
                self._log = None
            self._log_path = path
            if path:
                self._log = open(path, "a", encoding="utf-8")

    def close(self) -> None:
        self.set_log(None)


_RECORDER = TraceRecorder()


def get_recorder() -> TraceRecorder:
    """The process-wide recorder client and server layers share."""
    return _RECORDER


def configure_tracing(
    log_path: str | None = None,
    ring: int | None = None,
    enabled: bool | None = None,
) -> TraceRecorder:
    """(Re)configure the process-wide recorder; returns it."""
    if ring is not None:
        _RECORDER.set_ring(ring)
    if log_path is not None:
        _RECORDER.set_log(log_path)
    if enabled is not None:
        _RECORDER.enable(enabled)
    return _RECORDER


# -- queue-wait handoff ------------------------------------------------------

_rx = threading.local()


def mark_request_received(t: float | None = None) -> None:
    """Stamp "a request was just received" for the current thread.

    Called by the transport right where a request starts waiting for a
    handler (socket receive, worker-pool handoff).  The program layer
    pairs it with :func:`take_request_received` at handler start to
    split queue wait from service time on the same monotonic clock.
    """
    _rx.t = time.perf_counter() if t is None else t


def take_request_received() -> float | None:
    """Consume the receive timestamp stamped for this thread, if any."""
    t = getattr(_rx, "t", None)
    _rx.t = None
    return t
