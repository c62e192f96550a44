"""Distributed tracing: span contexts, the wire encoding that rides the
RPC credential slot, the ring-buffered recorder, and end-to-end
propagation through every composite store.

The wire-compat contract under test is the NULL-compatibility of the
trace field: it lives in the ``AUTH_NONE`` credential *body* — an XDR
opaque every peer has always decoded, size-capped and ignored — so an
old server skips a traced client's context and an old client's empty
body simply means "no trace".  No new enum values, no envelope changes.
"""

from __future__ import annotations

import contextvars
import gc
import json
import threading

import pytest

from repro.obs import (
    Span,
    SpanContext,
    TraceRecorder,
    current_context,
    get_recorder,
    new_root_context,
)
from repro.obs.trace import (
    TRACE_WIRE_MAGIC,
    ContextExecutor,
    ContextLane,
    decode_context,
    encode_context,
    use_context,
)
from repro.rpc.client import RPCClient
from repro.rpc.message import CallMessage
from repro.rpc.server import RPCProgram, RPCServer
from repro.rpc.transport import InProcessTransport, TCPTransport
from repro.storage import open_store
from repro.storage.net import StoreServer


@pytest.fixture(autouse=True)
def clean_tracing():
    recorder = get_recorder()
    recorder.clear()
    recorder.enable(False)
    recorder.set_log(None)
    yield
    recorder.clear()
    recorder.enable(False)
    recorder.set_log(None)


class TestSpanContext:
    def test_child_keeps_trace_and_links_parent(self):
        root = new_root_context()
        child = root.child()
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert child.span_id != root.span_id

    def test_wire_round_trip(self):
        ctx = new_root_context().child()
        decoded = decode_context(encode_context(ctx))
        assert decoded == ctx

    def test_root_round_trip_keeps_empty_parent(self):
        root = new_root_context()
        assert decode_context(encode_context(root)).parent_id == ""

    @pytest.mark.parametrize("body", [
        b"",                      # old client: empty credential body
        b"x" * 68,                # right length, wrong magic
        TRACE_WIRE_MAGIC + b"Z" * 64,   # non-hex ids
        TRACE_WIRE_MAGIC + b"a" * 10,   # truncated
        b"some-other-credential-scheme",
    ])
    def test_decode_is_lenient(self, body):
        assert decode_context(body) is None

    def test_active_context_is_scoped(self):
        assert current_context() is None
        ctx = new_root_context()
        with use_context(ctx):
            assert current_context() == ctx
        assert current_context() is None


class TestTraceRecorder:
    def _span(self, i: int) -> Span:
        return Span(name=f"s{i}", kind="store", trace_id="t" * 32,
                    span_id=f"{i:016x}")

    def test_ring_keeps_only_the_newest(self):
        rec = TraceRecorder(ring=3)
        for i in range(10):
            rec.record(self._span(i))
        assert [s.name for s in rec.spans()] == ["s7", "s8", "s9"]

    def test_ring_must_be_positive(self):
        with pytest.raises(ValueError):
            TraceRecorder(ring=0)
        with pytest.raises(ValueError):
            TraceRecorder().set_ring(-1)

    def test_json_lines_log(self, tmp_path):
        path = str(tmp_path / "spans.jsonl")
        rec = TraceRecorder(log_path=path)
        assert rec.enabled  # a log sink turns origination on
        rec.record(self._span(1))
        rec.close()
        lines = [json.loads(ln) for ln in
                 open(path, encoding="utf-8").read().splitlines()]
        assert len(lines) == 1
        restored = Span.from_dict(lines[0])
        assert restored.name == "s1"
        assert restored.kind == "store"


_probe: contextvars.ContextVar[str] = contextvars.ContextVar(
    "probe", default="unset")


class TestContextExecutor:
    """Every pool that runs a caller's work is one of these, so what it
    promises is what keeps spans parented across thread hops."""

    def test_context_is_copied_at_submission(self):
        started = threading.Event()

        def task():
            started.wait(5)
            return _probe.get()

        with ContextExecutor(max_workers=1) as pool:
            token = _probe.set("at submit")
            try:
                fut = pool.submit(task)
                _probe.set("after submit")
                started.set()
                assert fut.result(5) == "at submit"
            finally:
                _probe.reset(token)

    def test_concurrent_tasks_each_get_their_own_copy(self):
        both_running = threading.Barrier(2, timeout=5)

        def task(name):
            _probe.set(name)
            both_running.wait()
            return _probe.get()

        with ContextExecutor(max_workers=2) as pool:
            futures = [pool.submit(task, name) for name in ("a", "b")]
            assert [fut.result(5) for fut in futures] == ["a", "b"]
        assert _probe.get() == "unset"

    def test_map_carries_context(self):
        ctx = new_root_context()
        with ContextExecutor(max_workers=2) as pool, use_context(ctx):
            seen = list(pool.map(lambda _i: current_context(), range(4)))
        assert seen == [ctx] * 4

    def test_a_task_does_not_see_the_previous_tasks_changes(self):
        # One worker, so both tasks run on the same pool thread.
        with ContextExecutor(max_workers=1) as pool:
            pool.submit(_probe.set, "left behind").result(5)
            assert pool.submit(_probe.get).result(5) == "unset"

    def test_nested_submit_carries_the_tasks_context(self):
        with ContextExecutor(max_workers=2) as pool:
            def outer():
                _probe.set("outer task")
                return pool.submit(_probe.get).result(5)

            assert pool.submit(outer).result(5) == "outer task"

    def test_arguments_reach_the_task(self):
        with ContextExecutor(max_workers=1) as pool:
            fut = pool.submit(lambda a, *, b: (a, b, _probe.get()), 1, b=2)
            assert fut.result(5) == (1, 2, "unset")

    def test_task_errors_arrive_through_the_future(self):
        def fail():
            raise KeyError("from the pool")

        with ContextExecutor(max_workers=1) as pool:
            with pytest.raises(KeyError, match="from the pool"):
                pool.submit(fail).result(5)

    def test_call_async_fallback_runs_in_callers_context(self):
        """A blocking-only transport (no ``submit``) makes ``call_async``
        use the client's own pool; the call must still see the caller's
        active span."""
        seen = []

        class ContextNotingTransport(InProcessTransport):
            def call(self, request):
                seen.append(current_context())
                return super().call(request)

        server = RPCServer()
        server.register(RPCProgram(200000, 1, name="probe"))
        client = RPCClient(ContextNotingTransport(server.handler_for()),
                           200000, 1)
        ctx = new_root_context()
        try:
            with use_context(ctx):
                futures = [client.call_async(0) for _ in range(4)]
            for fut in futures:
                fut.result(5)
        finally:
            client.close()
        assert seen == [ctx] * 4


class TestContextLane:
    """A ``replica://`` child's lane: one thread, tasks in submission
    order, each in the context copied when it was submitted."""

    def test_tasks_run_in_order_each_in_its_submit_context(self):
        lane = ContextLane("lane-order")
        seen = []
        finished = threading.Event()
        try:
            for i in range(50):
                token = _probe.set(f"task {i}")
                lane.submit(lambda i=i: seen.append(
                    (i, _probe.get(), threading.current_thread().name)))
                _probe.reset(token)
            # A task's own changes stay in its copy.
            lane.submit(lambda: _probe.set("left behind"))
            lane.submit(lambda: seen.append(_probe.get()))
            lane.submit(finished.set)
            assert finished.wait(5)
        finally:
            lane.close()
        assert seen[:50] == [(i, f"task {i}", "lane-order")
                             for i in range(50)]
        assert seen[50:] == ["unset"]
        assert _probe.get() == "unset"

    def test_carries_the_active_span(self):
        lane = ContextLane("lane-span")
        ctx = new_root_context()
        seen = []
        with use_context(ctx):
            lane.submit(lambda: seen.append(current_context()))
        lane.close()
        assert seen == [ctx]

    def test_close_runs_the_queued_tasks_then_ends_the_thread(self):
        lane = ContextLane("lane-close")
        gate = threading.Event()
        seen = []
        lane.submit(lambda: gate.wait(5))
        for i in range(5):
            lane.submit(lambda i=i: seen.append(i))
        assert not lane.waking and not lane.closed
        gate.set()
        lane.close()
        assert lane.closed and not lane.waking
        assert seen == [0, 1, 2, 3, 4]
        assert "lane-close" not in {t.name for t in threading.enumerate()}

    @pytest.mark.parametrize("used", [True, False])
    def test_submit_after_close_raises(self, used):
        lane = ContextLane("lane-closed")
        if used:
            lane.submit(lambda: None)
        lane.close()
        lane.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            lane.submit(lambda: None)

    def test_an_unclosed_lane_ends_its_thread_when_collected(self):
        lane = ContextLane("lane-dropped")
        lane.submit(lambda: None)
        thread = lane._thread
        del lane
        gc.collect()
        thread.join(5)
        assert not thread.is_alive()


def _client_write_read(uri: str):
    """Mount ``uri``, run a traced write+read of block 0, return the
    root context the client used."""
    store = open_store(uri)
    ctx = new_root_context()
    try:
        with use_context(ctx):
            store.write(0, b"T" * 256)
            assert store.read(0) is not None
            # Write-back layers (cached://) only touch the child on
            # flush; keep it inside the traced scope.
            store.flush()
    finally:
        store.close()
    return ctx


class TestPropagation:
    """One test per composite: the server-side span must carry the
    client's trace id across real TCP, including through worker pools
    (replica lanes) that run on long-lived threads."""

    def test_remote(self):
        with StoreServer(open_store("mem://")) as server:
            host, port = server.address
            ctx = _client_write_read(f"remote://{host}:{port}")
        server_spans = [s for s in get_recorder().spans()
                        if s.kind == "server"]
        assert server_spans, "no server-side spans recorded"
        assert all(s.trace_id == ctx.trace_id for s in server_spans)
        for span in server_spans:
            assert span.duration_ms > 0.0
            assert span.queue_ms >= 0.0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_remote_batches_over_several_windows(self, workers, monkeypatch):
        """``workers=1`` sends each window through the blocking call,
        ``workers=2`` keeps them in flight through ``call_async``: on
        either path a request that left its ``cred=`` behind would
        arrive with no context and leave no server span."""
        from repro.storage import net

        monkeypatch.setattr(net, "MAX_BATCH_BLOCKS", 2)
        items = [(block_no, b"T" * 256) for block_no in range(6)]
        with StoreServer(open_store("mem://"), workers=workers) as server:
            host, port = server.address
            store = open_store(f"remote://{host}:{port}?workers={workers}")
            ctx = new_root_context()
            try:
                with use_context(ctx):
                    store.write_many(items)
                    store.read_many([block_no for block_no, _ in items])
            finally:
                store.close()
        spans = get_recorder().spans()
        client_ids = {s.span_id for s in spans if s.kind == "client"}
        for name in ("WRITE_MANY", "READ_MANY"):
            served = [s for s in spans
                      if s.kind == "server" and s.name == name]
            assert len(served) == 3, (name, spans)
            assert all(s.trace_id == ctx.trace_id for s in served)
            assert all(s.parent_id in client_ids for s in served)

    def test_replica_over_remote(self):
        with StoreServer(open_store("mem://")) as s1, \
                StoreServer(open_store("mem://")) as s2:
            uri = ("replica://remote://{}:{};remote://{}:{}#w=2&r=2"
                   .format(*s1.address, *s2.address))
            ctx = _client_write_read(uri)
        server_spans = [s for s in get_recorder().spans()
                        if s.kind == "server"]
        # Quorum W=2: the write alone lands on both nodes, sent from the
        # lanes (FLUSH is sent from the caller's own thread).
        written = {s.node for s in server_spans if s.name.startswith("WRITE")}
        assert len(written) == 2, server_spans
        assert all(s.trace_id == ctx.trace_id for s in server_spans)

    def test_cached_journal_over_remote(self, tmp_path):
        from repro.storage import spec as specs

        with StoreServer(open_store("mem://")) as server:
            host, port = server.address
            spec = specs.cached(
                specs.journal(specs.remote(f"{host}:{port}"),
                              path=f"{tmp_path}/trace.journal"),
                capacity=8)
            ctx = _client_write_read(spec)
        server_spans = [s for s in get_recorder().spans()
                        if s.kind == "server"]
        assert server_spans
        assert all(s.trace_id == ctx.trace_id for s in server_spans)

    def test_untraced_client_records_no_server_spans(self):
        with StoreServer(open_store("mem://")) as server:
            host, port = server.address
            store = open_store(f"remote://{host}:{port}")
            try:
                store.write(0, b"U" * 256)
                assert store.read(0) is not None
            finally:
                store.close()
        assert [s for s in get_recorder().spans()
                if s.kind == "server"] == []


class TestNullCompatibility:
    """Both directions of the optional-field contract."""

    def test_empty_credential_body_still_serves(self):
        """An old client (no trace field at all) gets served and leaves
        no trace: the modern server treats the empty body as NULL."""
        from repro.rpc.xdr import XDREncoder
        from repro.storage.net import (
            BLOCKSTORE_PROGRAM,
            BLOCKSTORE_VERSION,
            ERR_OK,
            GEOM,
        )

        with StoreServer(open_store("mem://")) as server:
            host, port = server.address
            client = RPCClient(TCPTransport(host, port),
                               BLOCKSTORE_PROGRAM, BLOCKSTORE_VERSION)
            try:
                enc = XDREncoder()
                enc.pack_opaque(b"")  # v2 envelope: empty session token
                reply = client.call(GEOM.number, enc.getvalue())
                assert reply.unpack_uint() == ERR_OK
            finally:
                client.close()
        assert get_recorder().spans() == []

    def test_old_peer_round_trips_an_opaque_trace_body(self):
        """The wire message a traced client emits decodes on a peer that
        knows nothing about tracing: the context is just an AUTH_NONE
        credential body, always decoded and ignored."""
        ctx = new_root_context().child()
        msg = CallMessage(prog=390010, vers=2, proc=1, args=b"\x00" * 4,
                          auth_body=encode_context(ctx))
        decoded = CallMessage.decode(msg.encode())
        assert decoded.auth_body == encode_context(ctx)
        assert decoded.args == b"\x00" * 4
        # ...and a tracing server reads the same context back out.
        assert decode_context(decoded.auth_body) == ctx
