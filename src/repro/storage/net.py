"""Networked block storage (``remote://``): any backend served over RPC.

Two halves, both riding the existing :mod:`repro.rpc` stack:

* :class:`BlockStoreProgram` — an RPC program (its own program number,
  XDR-encoded procedures) exporting *any* :class:`BlockStore` over any
  transport.  ``discfs store-serve --backend URI`` runs one on a TCP
  port; tests run it in-process.
* :class:`RemoteBlockStore` — the client store, registered as
  ``remote://host:port``.  Geometry is learned from the server at
  connect time (GEOM), so the remote node owns its configuration.

Because a remote store is just another :class:`BlockStore`, it composes
with everything else: ``shard://remote://h1:9001;remote://h2:9002``
turns the consistent-hash ring into a real multi-node cluster, and
``replica://remote://h1:9001;remote://h2:9002#w=1&r=1`` replicates
across nodes.

Per-block round trips would make that unusable, so the batched
interface is first-class on the wire: READ_MANY/WRITE_MANY carry whole
extents in one message, and :class:`RemoteBlockStore` routes the
``read_many``/``write_many`` cold paths through them.  ``?batch=off``
forces per-block calls — the knob the replication ablation uses to
price the round trips batching saves.  ``?workers=N`` adds the other
distributed win: a :class:`~repro.rpc.client.ConnectionPool` of
pipelined connections keeps several windows in flight at once, so a
large extent overlaps its round trips instead of paying them serially
(``serve_store(..., workers=N)`` gives the server matching concurrency).

Procedures (version 2 — every request except NULL starts with an opaque
session token, empty before SESSION_OPEN; every reply except NULL's
starts with a uint status, 0 = OK, else an error code followed by a
message string)::

    0 NULL                                    (ping; no v2 envelope)
    1 GEOM        void -> uint num_blocks, uint block_size, string desc
    2 READ        uint block_no -> opaque data
    3 WRITE       uint block_no, opaque data -> void
    4 READ_MANY   uint<> block_nos -> opaque<> blocks
    5 WRITE_MANY  struct{uint, opaque}<> -> void
    6 FLUSH       void -> void
    7 USED        void -> uhyper used_blocks
    8 CONTAINS    uint block_no -> bool      (stats-free, for overlays)
    9 LIST        uint start, uint limit -> uint<> block_nos
                                              (paginated enumeration —
                                               the reshard primitive)
   10 STATS       void -> string json        (served store's snapshot +
                                               capabilities, for
                                               ``store-inspect``)
   11 CHALLENGE   void -> opaque nonce       (single-use, for
                                               SESSION_OPEN; empty on an
                                               ungated server)
   12 SESSION_OPEN  string identity, string tenant, string rights,
                    string<> credentials, opaque nonce, string signature
                    -> opaque token, string granted

When the server runs a :class:`~repro.storage.auth.StoreAuthGate`
(``store-serve --policy``), NULL/CHALLENGE/SESSION_OPEN are the only
procs an unauthenticated client may call; everything else is authorized
against the session's granted rights (read procs need ``r``, mutating
procs ``rw``, STATS ``admin``) and runs against the session tenant's
:class:`~repro.storage.tenant.TenantBlockStore` view.  Authorization,
quota and rate-limit failures come back as in-band status codes and
re-raise client-side as the same typed errors — *not* as
:class:`~repro.errors.StoreUnavailable`, so ``replica://`` never
mistakes a denied tenant for a down node.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from collections import deque
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Callable, Optional

from repro.errors import (
    AuthError,
    QuotaExceeded,
    RateLimited,
    RPCError,
    StoreUnavailable,
    TransportError,
)
from repro.rpc.client import ConnectionPool, RPCClient, abandon_call
from repro.rpc.server import CallContext, RPCProgram, RPCServer
from repro.rpc.transport import (
    PipelinedTCPTransport,
    TCPServer,
    TCPTransport,
    Transport,
    serve_tcp,
)
from repro.rpc.xdr import XDRDecoder, XDREncoder
from repro.crypto.keycodec import encode_public_key
from repro.obs.metrics import get_registry
from repro.obs.trace import (
    Span,
    SpanContext,
    current_context,
    decode_context,
    encode_context,
    get_recorder,
    take_request_received,
    use_context,
)
from repro.storage.auth import StoreAuthGate, sign_session_request
from repro.storage.base import BlockStore, StoreStats, T, WrapperBlockStore

#: DisCFS-private program number, next to AUTH_CHANNEL's 390000 range.
BLOCKSTORE_PROGRAM = 390010
BLOCKSTORE_VERSION = 2

PROC_GEOM = 1
PROC_READ = 2
PROC_WRITE = 3
PROC_READ_MANY = 4
PROC_WRITE_MANY = 5
PROC_FLUSH = 6
PROC_USED = 7
PROC_CONTAINS = 8
PROC_LIST = 9
PROC_STATS = 10
PROC_CHALLENGE = 11
PROC_SESSION_OPEN = 12

#: In-band reply status codes and the typed errors they carry.
ERR_OK = 0
ERR_AUTH = 1
ERR_QUOTA = 2
ERR_RATE = 3
_STATUS_ERRORS: dict[int, type[Exception]] = {
    ERR_AUTH: AuthError,
    ERR_QUOTA: QuotaExceeded,
    ERR_RATE: RateLimited,
}
_ERROR_STATUS: list[tuple[type[Exception], int]] = [
    (AuthError, ERR_AUTH),
    (QuotaExceeded, ERR_QUOTA),
    (RateLimited, ERR_RATE),
]

#: Minimum rights a gated proc needs; ``None`` = unauthenticated.
PROC_RIGHTS: dict[int, Optional[str]] = {
    0: None, PROC_CHALLENGE: None, PROC_SESSION_OPEN: None,
    PROC_GEOM: "r", PROC_READ: "r", PROC_READ_MANY: "r",
    PROC_CONTAINS: "r", PROC_USED: "r", PROC_LIST: "r",
    PROC_WRITE: "rw", PROC_WRITE_MANY: "rw", PROC_FLUSH: "rw",
    PROC_STATS: "admin",
}

PROC_NAMES: dict[int, str] = {
    0: "NULL", PROC_GEOM: "GEOM", PROC_READ: "READ", PROC_WRITE: "WRITE",
    PROC_READ_MANY: "READ_MANY", PROC_WRITE_MANY: "WRITE_MANY",
    PROC_FLUSH: "FLUSH", PROC_USED: "USED", PROC_CONTAINS: "CONTAINS",
    PROC_LIST: "LIST", PROC_STATS: "STATS", PROC_CHALLENGE: "CHALLENGE",
    PROC_SESSION_OPEN: "SESSION_OPEN",
}

#: Size caps for handshake fields (tokens/nonces are 16 bytes today).
MAX_TOKEN = 64
MAX_IDENTITY = 4096
MAX_CREDENTIAL = 1 << 16
MAX_CREDENTIALS = 32

#: Block numbers one LIST page may carry.
LIST_PAGE = 4096

#: Reusable no-op context manager for the untraced fast path.
_NO_CONTEXT = contextlib.nullcontext()

#: Upper bounds on one READ_MANY/WRITE_MANY message.  The client
#: window is the smaller of an item cap and a byte budget computed from
#: the negotiated block size, so large-block stores stay under the
#: transport's 64 MiB record sanity limit while still amortizing round
#: trips by orders of magnitude.
MAX_BATCH_BLOCKS = 4096
MAX_BATCH_BYTES = 1 << 25  # 32 MiB of payload per message


class BlockStoreProgram(RPCProgram):
    """Exports one :class:`BlockStore` as an RPC program.

    The store's own ``read``/``write`` wrappers run server-side, so the
    served node keeps authoritative stats and range validation; client
    stores layer their *local* stats on top.  Thread safety is the
    backend's concern (``TCPServer`` dispatches each connection on its
    own thread; ``mem://`` is safe under the GIL, ``sqlite://``
    serializes internally).
    """

    def __init__(self, store: BlockStore,
                 gate: Optional[StoreAuthGate] = None):
        super().__init__(BLOCKSTORE_PROGRAM, BLOCKSTORE_VERSION,
                         name="blockstore")
        self.store = store
        self.gate = gate
        if gate is not None:
            gate.bind(store)
        #: "host:port" label stamped on server-side spans (set by
        #: StoreServer once the listener is bound; in-process programs
        #: keep the generic default).
        self.node = "server"
        registry = get_registry()
        self._recorder = get_recorder()
        #: Per-proc service-time histograms plus one queue-wait
        #: histogram, registered eagerly so the metrics endpoint shows
        #: the full proc surface from the first scrape.
        self._svc_hist = {
            proc: registry.histogram(
                f"rpc:server:{name}:service_seconds"
            )
            for proc, name in PROC_NAMES.items() if proc != 0
        }
        self._queue_hist = registry.histogram("rpc:server:queue_wait_seconds")
        # Proc 0 (NULL) keeps the RPC-wide convention — empty args,
        # empty reply, no token/status envelope — so transport-level
        # health checks work against any program uniformly.
        self.register(PROC_GEOM, self._gated(PROC_GEOM, self._proc_geom))
        self.register(PROC_READ, self._gated(PROC_READ, self._proc_read))
        self.register(PROC_WRITE, self._gated(PROC_WRITE, self._proc_write))
        self.register(PROC_READ_MANY,
                      self._gated(PROC_READ_MANY, self._proc_read_many))
        self.register(PROC_WRITE_MANY,
                      self._gated(PROC_WRITE_MANY, self._proc_write_many))
        self.register(PROC_FLUSH, self._gated(PROC_FLUSH, self._proc_flush))
        self.register(PROC_USED, self._gated(PROC_USED, self._proc_used))
        self.register(PROC_CONTAINS,
                      self._gated(PROC_CONTAINS, self._proc_contains))
        self.register(PROC_LIST, self._gated(PROC_LIST, self._proc_list))
        self.register(PROC_STATS, self._gated(PROC_STATS, self._proc_stats))
        self.register(PROC_CHALLENGE,
                      self._gated(PROC_CHALLENGE, self._proc_challenge))
        self.register(PROC_SESSION_OPEN,
                      self._gated(PROC_SESSION_OPEN, self._proc_session_open))

    def _gated(
        self,
        proc: int,
        handler: Callable[[BlockStore, XDRDecoder, CallContext], bytes],
    ) -> Callable[[XDRDecoder, CallContext], bytes]:
        """Wrap a proc handler in the v2 envelope: consume the leading
        session token, authorize it against the gate, run the handler on
        the session's store view, and prefix the reply with a status —
        turning the typed auth/quota/rate errors into in-band codes
        instead of SYSTEM_ERR transport failures.

        The wrapper is also the server-side observation point: every
        call lands in the per-proc service histogram plus the shared
        queue-wait histogram (arrival stamped by the transport, so the
        worker-pool wait is split from handler time), and when the
        client shipped a span context in the call's credential body a
        child server span is recorded — under which the handler runs,
        so a metered served store parents its spans correctly."""
        name = PROC_NAMES[proc]
        required = PROC_RIGHTS[proc]

        def wrapped(dec: XDRDecoder, ctx: CallContext) -> bytes:
            received = take_request_received()
            wall = time.time()
            start = time.perf_counter()
            queue_wait = max(0.0, start - received) if received is not None \
                else 0.0
            parent = decode_context(ctx.call.auth_body) \
                if ctx.call is not None else None
            span_ctx: Optional[SpanContext] = \
                parent.child() if parent is not None else None
            status = "ok"
            try:
                token = dec.unpack_opaque(max_size=MAX_TOKEN)
                try:
                    store = self.store
                    if self.gate is not None and required is not None:
                        session = self.gate.authorize(token, name, required)
                        store = session.store
                    with use_context(span_ctx) if span_ctx is not None \
                            else _NO_CONTEXT:
                        payload = handler(store, dec, ctx)
                except (AuthError, QuotaExceeded, RateLimited) as exc:
                    status = "denied"
                    for err_type, code in _ERROR_STATUS:
                        if isinstance(exc, err_type):
                            return (XDREncoder().pack_uint(code)
                                    .pack_string(str(exc)).getvalue())
                    raise  # unreachable
                return XDREncoder().pack_uint(ERR_OK).getvalue() + payload
            except Exception:
                if status == "ok":
                    status = "error"
                raise
            finally:
                service = time.perf_counter() - start
                self._svc_hist[proc].record(service)
                self._queue_hist.record(queue_wait)
                if span_ctx is not None:
                    self._recorder.record(Span(
                        name=name, kind="server",
                        trace_id=span_ctx.trace_id,
                        span_id=span_ctx.span_id,
                        parent_id=span_ctx.parent_id,
                        node=self.node, start=wall,
                        duration_ms=service * 1000.0,
                        queue_ms=queue_wait * 1000.0,
                        status=status,
                    ))

        return wrapped

    def _proc_challenge(self, store: BlockStore, dec: XDRDecoder,
                        ctx: CallContext) -> bytes:
        """A single-use nonce for SESSION_OPEN (empty if ungated, so a
        credentialed client degrades gracefully on an open server)."""
        dec.done()
        nonce = self.gate.issue_nonce() if self.gate is not None else b""
        return XDREncoder().pack_opaque(nonce).getvalue()

    def _proc_session_open(self, store: BlockStore, dec: XDRDecoder,
                           ctx: CallContext) -> bytes:
        identity = dec.unpack_string(max_size=MAX_IDENTITY)
        tenant = dec.unpack_string(max_size=256)
        rights = dec.unpack_string(max_size=32)
        credentials = dec.unpack_array(
            lambda d: d.unpack_string(max_size=MAX_CREDENTIAL),
            max_items=MAX_CREDENTIALS,
        )
        nonce = dec.unpack_opaque(max_size=MAX_TOKEN)
        signature = dec.unpack_string(max_size=MAX_IDENTITY)
        dec.done()
        if self.gate is None:
            # Open server: hand back an empty token; every proc accepts it.
            return (XDREncoder().pack_opaque(b"")
                    .pack_string("admin").getvalue())
        session = self.gate.open_session(
            identity=identity, tenant=tenant, rights=rights,
            credentials=credentials, nonce=nonce, signature=signature,
        )
        return (XDREncoder().pack_opaque(session.token)
                .pack_string(session.rights).getvalue())

    def _proc_geom(self, store: BlockStore, dec: XDRDecoder,
                   ctx: CallContext) -> bytes:
        dec.done()
        return (
            XDREncoder()
            .pack_uint(store.num_blocks)
            .pack_uint(store.block_size)
            .pack_string(store.describe())
            .getvalue()
        )

    def _proc_read(self, store: BlockStore, dec: XDRDecoder,
                   ctx: CallContext) -> bytes:
        block_no = dec.unpack_uint()
        dec.done()
        return XDREncoder().pack_opaque(store.read(block_no)).getvalue()

    def _proc_write(self, store: BlockStore, dec: XDRDecoder,
                    ctx: CallContext) -> bytes:
        block_no = dec.unpack_uint()
        data = dec.unpack_opaque(max_size=store.block_size)
        dec.done()
        store.write(block_no, data)
        return b""

    def _proc_read_many(self, store: BlockStore, dec: XDRDecoder,
                        ctx: CallContext) -> bytes:
        block_nos = dec.unpack_array(
            lambda d: d.unpack_uint(), max_items=MAX_BATCH_BLOCKS
        )
        dec.done()
        blocks = store.read_many(block_nos)
        enc = XDREncoder()
        enc.pack_array(blocks, lambda e, b: e.pack_opaque(b))
        return enc.getvalue()

    def _proc_write_many(self, store: BlockStore, dec: XDRDecoder,
                         ctx: CallContext) -> bytes:
        def unpack_item(d: XDRDecoder) -> tuple[int, bytes]:
            block_no = d.unpack_uint()
            return block_no, d.unpack_opaque(max_size=store.block_size)

        items = dec.unpack_array(unpack_item, max_items=MAX_BATCH_BLOCKS)
        dec.done()
        store.write_many(items)
        return b""

    def _proc_flush(self, store: BlockStore, dec: XDRDecoder,
                    ctx: CallContext) -> bytes:
        dec.done()
        store.flush()
        return b""

    def _proc_used(self, store: BlockStore, dec: XDRDecoder,
                   ctx: CallContext) -> bytes:
        dec.done()
        return XDREncoder().pack_uhyper(store.used_blocks()).getvalue()

    def _proc_contains(self, store: BlockStore, dec: XDRDecoder,
                       ctx: CallContext) -> bytes:
        block_no = dec.unpack_uint()
        dec.done()
        return XDREncoder().pack_bool(store._contains(block_no)).getvalue()

    def _proc_list(self, store: BlockStore, dec: XDRDecoder,
                   ctx: CallContext) -> bytes:
        """One page of used block numbers at or past ``start``; the
        client advances ``start`` past the last entry until a page comes
        back empty.  The enumeration is recomputed per page (stateless —
        pages stay correct across concurrent writes) but sliced by
        bisection, so a page costs one sorted listing, not a linear
        filter over it."""
        import bisect

        start = dec.unpack_uint()
        limit = dec.unpack_uint()
        dec.done()
        limit = max(1, min(limit, LIST_PAGE))
        numbers = store.used_block_numbers()  # sorted by contract
        lo = bisect.bisect_left(numbers, start)
        page = numbers[lo:lo + limit]
        enc = XDREncoder()
        enc.pack_array(page, lambda e, b: e.pack_uint(b))
        return enc.getvalue()

    def _proc_stats(self, store: BlockStore, dec: XDRDecoder,
                    ctx: CallContext) -> bytes:
        """The served store's snapshot + capabilities, as JSON — the
        control plane's window into the node's own counters.  Always the
        *root* served store (STATS needs ``admin``); gate counters and
        per-tenant usage ride in ``extra``."""
        dec.done()
        snap = self.store.snapshot()
        caps = self.store.capabilities()
        payload = snap.to_dict()
        if self.gate is not None:
            payload["extra"].update(self.gate.extra_stats())
        payload["capabilities"] = {
            "thread_safe": caps.thread_safe,
            "durable": caps.durable,
            "networked": caps.networked,
            "composite": caps.composite,
        }
        return XDREncoder().pack_string(json.dumps(payload)).getvalue()


class SerializedBlockStore(WrapperBlockStore):
    """Lock wrapper making any store safe under concurrent callers.

    ``serve_store(..., workers=N)`` answers one connection's requests
    from several threads, but most composite stores (``cached://``'s
    LRU mutates even on reads) assume a single caller.  This wrapper
    serializes every operation under one lock; backends that declare
    ``thread_safe`` (``mem://``, ``sqlite://``) are served unwrapped so
    their operations still overlap.
    """

    thread_safe = True  # that is the point of the wrapper

    def __init__(self, child: BlockStore):
        super().__init__(child)
        self._op_lock = threading.RLock()

    def around(self, op: str, fn: Callable[[], T]) -> T:
        with self._op_lock:
            return fn()

    def _extra_stats(self) -> dict[str, float]:
        return self.child._extra_stats()

    def describe(self) -> str:
        return f"serialized {self.child.describe()}"


class StoreServer:
    """A :class:`BlockStoreProgram` bound to a TCP listener.

    ``address`` is the (host, port) actually bound (port 0 picks a free
    one).  Closing stops the listener; the store is flushed but left
    open for the caller (who may also own it through other references).
    """

    def __init__(self, store: BlockStore, host: str = "127.0.0.1",
                 port: int = 0, workers: int = 0,
                 gate: Optional[StoreAuthGate] = None):
        self.store = store
        self.gate = gate
        served = store
        if not store.capabilities().thread_safe and (
            workers > 0 or (gate is not None and gate.tenants)
        ):
            # Worker threads would race a backend that does not claim
            # concurrent-caller safety; serialize its operations
            # (network/pipelining still overlaps).  Tenant views make
            # even a sequential server multi-caller: each connection
            # runs on its own thread and the views share one child.
            served = SerializedBlockStore(store)
        self.program = BlockStoreProgram(served, gate=gate)
        rpc = RPCServer()
        rpc.register(self.program)
        self.rpc = rpc
        self._tcp: TCPServer = serve_tcp(rpc.handler_for(None),
                                         host=host, port=port,
                                         workers=workers)
        self.address: tuple[str, int] = self._tcp.address
        # Server spans carry the bound endpoint, so a cross-node trace
        # tree names which node served each proc.
        self.program.node = f"{self.address[0]}:{self.address[1]}"

    def handler(self, request: bytes) -> bytes:
        """``bytes -> bytes`` entry point for in-process transports."""
        return self.rpc.handle(request)

    def close(self) -> None:
        self._tcp.close()
        self.store.flush()
        if self.gate is not None:
            self.gate.close()

    def __enter__(self) -> "StoreServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def serve_store(store: BlockStore, host: str = "127.0.0.1",
                port: int = 0, workers: int = 0,
                gate: Optional[StoreAuthGate] = None) -> StoreServer:
    """Serve ``store`` over TCP; returns the running :class:`StoreServer`.

    ``workers=N`` answers each connection's requests from a thread pool
    (replies may come back out of request order — xid matching on the
    client makes that safe), so pipelined clients overlap server-side
    work too; ``workers=0`` keeps the sequential per-connection loop.
    Backends that do not declare ``thread_safe`` are wrapped in
    :class:`SerializedBlockStore` first, so worker threads never race
    an unlocked store.

    ``gate=StoreAuthGate(...)`` credential-gates the server: clients
    must SESSION_OPEN with KeyNote credentials the gate's policy
    accepts, and tenant sessions are confined to their region view.
    """
    return StoreServer(store, host=host, port=port, workers=workers,
                       gate=gate)


class RemoteBlockStore(BlockStore):
    """Client store speaking the block-store program over a transport.

    Any transport works — :func:`connect` opens TCP for the
    ``remote://host:port`` registry form; tests wire an
    :class:`~repro.rpc.transport.InProcessTransport` straight to a
    :class:`StoreServer`.  Transport and RPC failures surface as
    :class:`~repro.errors.StoreUnavailable`, the signal ``replica://``
    treats as a down node.
    """

    scheme = "remote"
    networked = True

    def __init__(self, transport: Transport, batch: bool = True,
                 workers: int = 1, timeout: float | None = None,
                 endpoint: tuple[str, int] | None = None,
                 key=None, credentials: list[str] | None = None,
                 tenant: str = "", rights: str = "rw"):
        self._client = RPCClient(transport, BLOCKSTORE_PROGRAM,
                                 BLOCKSTORE_VERSION)
        self.batch = batch
        self.workers = max(1, workers)
        self.timeout = timeout
        #: ``(host, port)`` for TCP mounts (None for in-process
        #: transports) — lets the control plane name the node.
        self.endpoint = endpoint
        # A connection pool multiplexes concurrent callers safely; a
        # single blocking transport does not.
        self.thread_safe = self.workers > 1
        #: Session token carried on every request (empty = no session;
        #: an ungated server accepts that on every proc).  The token is
        #: server-global, not per-connection, so one session covers the
        #: whole connection pool.
        self._token = b""
        self.tenant = tenant
        #: Rights granted at SESSION_OPEN (None on an open mount).
        self.session_rights: str | None = None
        if key is not None:
            self._open_session(key, list(credentials or []), tenant, rights)
        dec = self._call(PROC_GEOM)
        num_blocks = dec.unpack_uint()
        block_size = dec.unpack_uint()
        self.remote_description = dec.unpack_string()
        dec.done()
        super().__init__(num_blocks, block_size)

    def _open_session(self, key, credentials: list[str], tenant: str,
                      rights: str) -> None:
        """CHALLENGE + SESSION_OPEN: prove key possession over the
        nonce, present credentials, and pocket the session token."""
        dec = self._call(PROC_CHALLENGE)
        nonce = dec.unpack_opaque(max_size=MAX_TOKEN)
        dec.done()
        identity = encode_public_key(key)
        signature = sign_session_request(key, nonce, identity, tenant,
                                         rights)
        enc = XDREncoder()
        enc.pack_string(identity)
        enc.pack_string(tenant)
        enc.pack_string(rights)
        enc.pack_array(credentials, lambda e, c: e.pack_string(c))
        enc.pack_opaque(nonce)
        enc.pack_string(signature)
        dec = self._call(PROC_SESSION_OPEN, enc.getvalue())
        self._token = dec.unpack_opaque(max_size=MAX_TOKEN)
        self.session_rights = dec.unpack_string()
        dec.done()

    @classmethod
    def connect(cls, host: str, port: int, timeout: float = 10.0,
                batch: bool = True, workers: int = 1,
                key=None, credentials: list[str] | None = None,
                tenant: str = "", rights: str = "rw") -> "RemoteBlockStore":
        """Open a TCP client for the store at ``host:port``.

        ``workers=1`` (the default) is one classic blocking connection.
        ``workers=N`` builds a :class:`~repro.rpc.client.ConnectionPool`
        of pipelined connections, so the windowed ``read_many``/
        ``write_many`` batches (and any concurrent callers) keep up to
        ``N`` requests in flight on independent connections.

        ``key``/``credentials`` authenticate the mount against a
        credential-gated server (``tenant`` selects the namespace,
        ``rights`` what the session asks for).
        """
        auth = dict(key=key, credentials=credentials, tenant=tenant,
                    rights=rights)
        if workers > 1:
            pool = ConnectionPool(
                lambda: PipelinedTCPTransport(host, port, timeout=timeout),
                size=workers, timeout=timeout,
            )
            try:
                return cls(pool, batch=batch, workers=workers,
                           timeout=timeout, endpoint=(host, port), **auth)
            except Exception:
                # Handshake failed: don't leak dialed connections (retry
                # loops waiting for a node would pile up descriptors).
                pool.close()
                raise
        try:
            transport = TCPTransport(host, port, timeout=timeout)
        except OSError as exc:
            raise StoreUnavailable(
                f"cannot reach block store at {host}:{port}: {exc}"
            ) from exc
        try:
            return cls(transport, batch=batch, timeout=timeout,
                       endpoint=(host, port), **auth)
        except Exception:
            # GEOM handshake failed: don't leak the connected socket
            # (retry loops waiting for a node would pile up descriptors).
            transport.close()
            raise

    def _frame(self, args: bytes) -> bytes:
        """Prefix the v2 session token onto a request's arguments."""
        return XDREncoder().pack_opaque(self._token).getvalue() + args

    @property
    def _node_label(self) -> str:
        return (f"{self.endpoint[0]}:{self.endpoint[1]}" if self.endpoint
                else "in-process")

    def _trace_start(self, proc: int):
        """Derive a child span context for one RPC when a trace is
        active; returns ``(cred_bytes, span_ctx, wall, start)`` — all
        empty/None/0 when untraced, so the hot path pays one
        contextvar read."""
        parent = current_context()
        if parent is None:
            return b"", None, 0.0, 0.0
        ctx = parent.child()
        return encode_context(ctx), ctx, time.time(), time.perf_counter()

    def _trace_finish(self, proc: int, span_ctx, wall: float, start: float,
                      status: str) -> None:
        """Record the client-side RPC span begun by :meth:`_trace_start`."""
        if span_ctx is None:
            return
        get_recorder().record(Span(
            name=PROC_NAMES.get(proc, str(proc)), kind="client",
            trace_id=span_ctx.trace_id, span_id=span_ctx.span_id,
            parent_id=span_ctx.parent_id, node=self._node_label,
            start=wall,
            duration_ms=(time.perf_counter() - start) * 1000.0,
            status=status,
        ))

    @staticmethod
    def _check_status(dec: XDRDecoder) -> XDRDecoder:
        """Decode the v2 reply status; re-raise server-side auth/quota/
        rate denials as their typed errors (not StoreUnavailable — a
        denied tenant is not a down node)."""
        status = dec.unpack_uint()
        if status != ERR_OK:
            message = dec.unpack_string()
            dec.done()
            raise _STATUS_ERRORS.get(status, StoreUnavailable)(message)
        return dec

    def _call(self, proc: int, args: bytes = b"") -> XDRDecoder:
        cred, span_ctx, wall, start = self._trace_start(proc)
        status = "ok"
        try:
            try:
                dec = self._client.call(proc, self._frame(args), cred=cred)
            except (TransportError, RPCError, OSError) as exc:
                raise StoreUnavailable(
                    f"remote block store failed: {exc}"
                ) from exc
            return self._check_status(dec)
        except Exception:
            status = "error"
            raise
        finally:
            self._trace_finish(proc, span_ctx, wall, start, status)

    # -- async windowed batches --------------------------------------------

    def _submit(self, proc: int, args: bytes) -> Future:
        """Start one RPC; transport errors surface as StoreUnavailable.

        When a trace is active the span context rides on the future and
        the client span is closed by :meth:`_await` (it covers the full
        in-flight window, queueing included — that is the latency the
        caller experienced)."""
        cred, span_ctx, wall, start = self._trace_start(proc)
        try:
            fut = self._client.call_async(proc, self._frame(args), cred=cred)
        except (TransportError, RPCError, OSError) as exc:
            self._trace_finish(proc, span_ctx, wall, start, "error")
            raise StoreUnavailable(f"remote block store failed: {exc}") from exc
        if span_ctx is not None:
            fut.trace_info = (proc, span_ctx, wall, start)  # type: ignore[attr-defined]
        return fut

    def _await(self, fut: Future) -> XDRDecoder:
        trace_info = getattr(fut, "trace_info", None)
        status = "ok"
        try:
            try:
                dec = fut.result(timeout=self.timeout)
            except FutureTimeoutError:
                # Tear the wedged connection down (failing its other
                # in-flight windows) so a never-answering server cannot
                # accumulate pending calls against the pool.
                abandon_call(fut, f"no reply within {self.timeout}s")
                raise StoreUnavailable(
                    f"remote call timed out after {self.timeout}s"
                ) from None
            except (TransportError, RPCError, OSError) as exc:
                raise StoreUnavailable(
                    f"remote block store failed: {exc}"
                ) from exc
            return self._check_status(dec)
        except Exception:
            status = "error"
            raise
        finally:
            if trace_info is not None:
                self._trace_finish(*trace_info, status)

    @property
    def _inflight_cap(self) -> int:
        """Outstanding windows kept in flight by read_many/write_many."""
        return max(2, 2 * self.workers)

    # -- BlockStore interface ----------------------------------------------

    def _get(self, block_no: int) -> bytes | None:
        args = XDREncoder().pack_uint(block_no).getvalue()
        dec = self._call(PROC_READ, args)
        data = dec.unpack_opaque(max_size=self.block_size)
        dec.done()
        return data

    def _put(self, block_no: int, data: bytes) -> None:
        args = XDREncoder().pack_uint(block_no).pack_opaque(data).getvalue()
        self._call(PROC_WRITE, args).done()

    @property
    def _batch_window(self) -> int:
        return max(1, min(MAX_BATCH_BLOCKS, MAX_BATCH_BYTES // self.block_size))

    def _decode_read_window(self, dec: XDRDecoder, want: int) -> list:
        blocks = dec.unpack_array(
            lambda d: d.unpack_opaque(max_size=self.block_size),
            max_items=MAX_BATCH_BLOCKS,
        )
        dec.done()
        if len(blocks) != want:
            raise StoreUnavailable(
                f"remote returned {len(blocks)} blocks for {want} requested"
            )
        return blocks

    def _get_many(self, block_nos: list[int]) -> list[bytes | None]:
        if not self.batch:
            return [self._get(block_no) for block_no in block_nos]
        window_size = self._batch_window
        windows = [
            block_nos[start : start + window_size]
            for start in range(0, len(block_nos), window_size)
        ]
        if self.workers == 1 or len(windows) == 1:
            out: list[bytes | None] = []
            for window in windows:
                enc = XDREncoder()
                enc.pack_array(window, lambda e, b: e.pack_uint(b))
                dec = self._call(PROC_READ_MANY, enc.getvalue())
                out.extend(self._decode_read_window(dec, len(window)))
            return out
        # Windowed in-flight pipeline: keep up to _inflight_cap windows
        # outstanding across the connection pool; results are collected
        # in submission order so the output aligns with block_nos.
        out = []
        inflight: deque[tuple[list[int], Future]] = deque()

        def drain_one() -> None:
            window, fut = inflight.popleft()
            dec = self._await(fut)
            out.extend(self._decode_read_window(dec, len(window)))

        try:
            for window in windows:
                enc = XDREncoder()
                enc.pack_array(window, lambda e, b: e.pack_uint(b))
                inflight.append(
                    (window, self._submit(PROC_READ_MANY, enc.getvalue()))
                )
                if len(inflight) >= self._inflight_cap:
                    drain_one()
            while inflight:
                drain_one()
        except Exception:
            for _window, fut in inflight:
                fut.cancel()
            raise
        return out

    def _put_many(self, items: list[tuple[int, bytes]]) -> None:
        if not self.batch:
            for block_no, data in items:
                self._put(block_no, data)
            return

        def pack_window(window: list[tuple[int, bytes]]) -> bytes:
            enc = XDREncoder()

            def pack_item(e: XDREncoder, item: tuple[int, bytes]) -> None:
                e.pack_uint(item[0])
                e.pack_opaque(item[1])

            enc.pack_array(window, pack_item)
            return enc.getvalue()

        window_size = self._batch_window
        windows = [
            items[start : start + window_size]
            for start in range(0, len(items), window_size)
        ]
        if self.workers == 1 or len(windows) == 1:
            for window in windows:
                self._call(PROC_WRITE_MANY, pack_window(window)).done()
            return
        # Concurrent windows may land out of order, so a block that
        # appears twice in one batch could end up holding its *older*
        # payload.  Collapse duplicates to the last write first — the
        # exact result sequential application would produce — and then
        # order between windows no longer matters.
        deduped = dict(items)
        if len(deduped) != len(items):
            items = list(deduped.items())
            windows = [
                items[start : start + window_size]
                for start in range(0, len(items), window_size)
            ]
        inflight: deque[Future] = deque()
        try:
            for window in windows:
                inflight.append(
                    self._submit(PROC_WRITE_MANY, pack_window(window))
                )
                if len(inflight) >= self._inflight_cap:
                    self._await(inflight.popleft()).done()
            while inflight:
                self._await(inflight.popleft()).done()
        except Exception:
            for fut in inflight:
                fut.cancel()
            raise

    def _contains(self, block_no: int) -> bool:
        args = XDREncoder().pack_uint(block_no).getvalue()
        dec = self._call(PROC_CONTAINS, args)
        result = dec.unpack_bool()
        dec.done()
        return result

    def flush(self) -> None:
        self._call(PROC_FLUSH).done()

    def close(self) -> None:
        self._client.close()

    def used_blocks(self) -> int:
        dec = self._call(PROC_USED)
        used = dec.unpack_uhyper()
        dec.done()
        return used

    def used_block_numbers(self) -> list[int]:
        """Page the served store's enumeration over LIST round trips."""
        numbers: list[int] = []
        start = 0
        while True:
            args = (XDREncoder().pack_uint(start).pack_uint(LIST_PAGE)
                    .getvalue())
            dec = self._call(PROC_LIST, args)
            page = dec.unpack_array(
                lambda d: d.unpack_uint(), max_items=LIST_PAGE
            )
            dec.done()
            if not page:
                return numbers
            numbers.extend(page)
            start = page[-1] + 1

    def remote_stats(self) -> StoreStats:
        """The *served* store's snapshot (its own counters, not this
        client's), fetched over STATS — what ``store-inspect`` shows
        under a ``remote://`` node."""
        dec = self._call(PROC_STATS)
        payload = json.loads(dec.unpack_string())
        dec.done()
        caps = payload.pop("capabilities", {})
        snap = StoreStats(**payload)
        snap.extra = dict(snap.extra)
        snap.extra["served_thread_safe"] = 1.0 if caps.get(
            "thread_safe") else 0.0
        snap.extra["served_durable"] = 1.0 if caps.get("durable") else 0.0
        return snap

    def describe(self) -> str:
        where = f"{self.endpoint[0]}:{self.endpoint[1]}" if self.endpoint \
            else ""
        workers = f" workers={self.workers}" if self.workers > 1 else ""
        return (
            f"remote://{where}  {self.num_blocks}x{self.block_size}B"
            f"{workers} [{self.remote_description}]"
        )

    def ping(self) -> None:
        """NULL-procedure health check (RPC-level: no v2 envelope)."""
        try:
            self._client.call(0, b"").done()
        except (TransportError, RPCError, OSError) as exc:
            raise StoreUnavailable(f"remote block store failed: {exc}") from exc
