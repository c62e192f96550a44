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

import json

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
    decode_context,
    encode_context,
    use_context,
)
from repro.rpc.client import RPCClient
from repro.rpc.message import CallMessage
from repro.rpc.transport import TCPTransport
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


def _client_write_read(uri: str, blocks=(0,)):
    """Mount ``uri``, run a traced write+read per block, return the
    root context the client used."""
    store = open_store(uri)
    ctx = new_root_context()
    try:
        with use_context(ctx):
            for block_no in blocks:
                store.write(block_no, b"T" * 256)
                assert store.read(block_no) is not None
            # Write-back layers (cached://) only touch the child on
            # flush; keep it inside the traced scope.
            store.flush()
    finally:
        store.close()
    return ctx


class TestPropagation:
    """One test per composite: the server-side span must carry the
    client's trace id across real TCP, including through worker pools
    (replica lanes, shard fan-out) that run on long-lived threads."""

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
        # Quorum W=2: the write alone lands on both nodes.
        nodes = {s.node for s in server_spans}
        assert len(nodes) == 2, server_spans
        assert all(s.trace_id == ctx.trace_id for s in server_spans)

    def test_shard_over_remote(self):
        with StoreServer(open_store("mem://")) as s1, \
                StoreServer(open_store("mem://")) as s2:
            uri = ("shard://remote://{}:{};remote://{}:{}#fanout=2"
                   .format(*s1.address, *s2.address))
            ctx = _client_write_read(uri, blocks=range(16))
        server_spans = [s for s in get_recorder().spans()
                        if s.kind == "server"]
        nodes = {s.node for s in server_spans}
        assert len(nodes) == 2, "16 blocks never hit both ring owners"
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
