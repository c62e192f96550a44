"""Latency instrumentation overlay (``metered://``): time every op.

:class:`InstrumentedBlockStore` wraps any store and times each
``read``/``write``/``read_many``/``write_many``/``flush`` into
log-bucketed histograms in the process-wide
:class:`~repro.obs.metrics.MetricsRegistry`.  The quantiles come back
through the standard ``snapshot()``/``StoreStats.extra`` protocol under
the stable ``lat:<layer>:<op>:<quantile>`` key namespace, so
``describe()``, ``store-inspect`` (and its ``--json`` form) and the
Prometheus endpoint all render per-layer latency without knowing this
wrapper exists.

It is also where traces start: when tracing is enabled (or an outer
span is already active), each operation runs under its own span, so a
stack like ``metered://replica://remote://…`` produces one client root
span whose children are the per-node RPCs — ``discfs store-trace``
joins them with the server-side spans into one tree.  Ops slower than
``slow_ms`` are counted and flagged on their span.

Because the wrapper is just another store, it composes anywhere:
``metered://cached://metered://file:///…`` measures the cache's hit
latency and the file backend's miss latency separately.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.trace import (
    Span,
    TraceRecorder,
    current_context,
    get_recorder,
    new_root_context,
    use_context,
)
from repro.storage.base import BlockStore, StoreStats, T, WrapperBlockStore

#: Ops slower than this are counted as slow and flagged on their span;
#: override per mount with ``metered://…#slow_ms=``.
DEFAULT_SLOW_MS = 100.0

_OPS = ("read", "write", "read_many", "write_many", "flush")


class InstrumentedBlockStore(WrapperBlockStore):
    """Times every operation of ``child``; see module docstring.

    The base forwards to the child's *internal* hooks (validation,
    padding and stats already happened in this layer's public
    wrappers), so the measured window is exactly the child's work.
    """

    scheme = "metered"

    def __init__(self, child: BlockStore, label: str | None = None,
                 slow_ms: float | None = None, ring: int | None = None,
                 registry: MetricsRegistry | None = None,
                 recorder: TraceRecorder | None = None):
        super().__init__(child)
        self.thread_safe = child.capabilities().thread_safe  # instruments lock
        #: Layer name used in metric names and ``lat:`` extras keys;
        #: defaults to the child's scheme (the layer being measured).
        self.label = label or child.scheme or "store"
        self.slow_ms = DEFAULT_SLOW_MS if slow_ms is None else float(slow_ms)
        self._registry = registry if registry is not None else get_registry()
        self._recorder = recorder if recorder is not None else get_recorder()
        if ring is not None:
            self._recorder.set_ring(ring)
        self._hist = {
            op: self._registry.histogram(f"store:{self.label}:{op}_seconds")
            for op in _OPS
        }
        self._slow = self._registry.counter(f"store:{self.label}:slow_ops")

    # -- the measured window -----------------------------------------------

    def around(self, op: str, fn: Callable[[], T]) -> T:
        if op not in self._hist:
            return fn()  # introspection and close: stats-free, untimed
        parent = current_context()
        if parent is None and not self._recorder.enabled:
            # Steady-state path: a timer and one histogram record — no
            # span objects, no ring traffic (that is what keeps the
            # metered overhead ablation inside its 10% budget).
            start = time.perf_counter()
            try:
                return fn()
            finally:
                elapsed = time.perf_counter() - start
                self._hist[op].record(elapsed)
                if elapsed * 1000.0 >= self.slow_ms:
                    self._slow.inc()
        ctx = parent.child() if parent is not None else new_root_context()
        wall = time.time()
        start = time.perf_counter()
        status = "ok"
        try:
            with use_context(ctx):
                return fn()
        except Exception:
            status = "error"
            raise
        finally:
            elapsed = time.perf_counter() - start
            self._hist[op].record(elapsed)
            slow = elapsed * 1000.0 >= self.slow_ms
            if slow:
                self._slow.inc()
            span = Span(
                name=op, kind="store", trace_id=ctx.trace_id,
                span_id=ctx.span_id, parent_id=ctx.parent_id,
                node=self.label, start=wall,
                duration_ms=elapsed * 1000.0, status=status,
            )
            if slow:
                span.attrs["slow"] = True
                span.attrs["slow_ms"] = self.slow_ms
            self._recorder.record(span)

    def remote_stats(self) -> StoreStats | None:
        return self.child.remote_stats()

    def _extra_stats(self) -> dict[str, float]:
        """Per-op latency under the stable ``lat:`` namespace (ms)."""
        out: dict[str, float] = {}
        for op, hist in self._hist.items():
            if not hist.count:
                continue
            pct = hist.percentiles()
            out[f"lat:{self.label}:{op}:p50"] = round(pct["p50"] * 1000.0, 4)
            out[f"lat:{self.label}:{op}:p95"] = round(pct["p95"] * 1000.0, 4)
            out[f"lat:{self.label}:{op}:p99"] = round(pct["p99"] * 1000.0, 4)
            out[f"lat:{self.label}:{op}:count"] = float(hist.count)
        slow = self._slow.value
        if slow:
            out["slow_ops"] = slow
        return out

    def describe(self) -> str:
        return (
            f"metered({self.label}, slow_ms={self.slow_ms:g}) "
            f"over {self.child.describe()}"
        )
