"""Networked block storage (``remote://``): any backend served over RPC.

Two halves, both riding the existing :mod:`repro.rpc` stack:

* :class:`BlockStoreProgram` — an RPC program (its own program number,
  XDR-encoded procedures) exporting *any* :class:`BlockStore` over any
  transport.  ``discfs store-serve --backend URI`` runs one on a TCP
  port; tests run it in-process.
* :class:`RemoteBlockStore` — the client store, registered as
  ``remote://host:port``.  Geometry is learned from the server at
  first contact (GEOM), so the remote node owns its configuration.

Because a remote store is just another :class:`BlockStore`, it composes
with everything else:
``replica://remote://h1:9001;remote://h2:9002#w=1&r=1`` replicates
across nodes.

Per-block round trips would make that unusable, so the batched
interface is first-class on the wire: READ_MANY/WRITE_MANY carry whole
extents in one message, and :class:`RemoteBlockStore` routes the
``read_many``/``write_many`` cold paths through them.  ``?batch=off``
forces per-block calls — the knob the replication ablation uses to
price the round trips batching saves.  ``?workers=N`` adds the other
distributed win: one pipelined connection
(:class:`~repro.rpc.transport.PipelinedTCPTransport`) keeps up to ``2N``
windows in flight at once, so a large extent overlaps its round trips
instead of paying them serially (``serve_store(..., workers=N)`` gives
the server matching concurrency).

Wire format (version 2): every request starts with an opaque session
token (empty before SESSION_OPEN) and every reply with a uint status —
0 = OK, else an error code followed by a message string.  NULL (proc 0)
alone keeps the RPC-wide convention of empty arguments and an empty
reply.  The procedures themselves — number, name, rights, argument and
result fields — are declared once, in :data:`PROCEDURES`; the client
stub, the server dispatch and both envelopes are derived from it, so
the two ends cannot disagree about a message.

When the server runs a :class:`~repro.storage.auth.StoreAuthGate`
(``store-serve --policy``), NULL/CHALLENGE/SESSION_OPEN are the only
procs an unauthenticated client may call; everything else is authorized
against the session's granted rights (read procs need ``r``, mutating
procs ``rw``, STATS and REVOKE ``admin``) and runs against the session tenant's
:class:`~repro.storage.tenant.TenantBlockStore` view.  Authorization,
quota and rate-limit failures come back as in-band status codes and
re-raise client-side as the same typed errors — *not* as
:class:`~repro.errors.StoreUnavailable`, so ``replica://`` never
mistakes a denied tenant for a down node.
"""

from __future__ import annotations

import bisect
import contextlib
import json
import threading
import time
from collections import deque
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Any, Callable, Optional

from repro.errors import (
    AuthError,
    InvalidArgument,
    QuotaExceeded,
    RateLimited,
    RPCError,
    StoreUnavailable,
    TransportError,
    XDRError,
)
from repro.rpc.client import RPCClient
from repro.rpc.server import (
    CallContext,
    Procedure,
    RPCProgram,
    RPCServer,
    check_table,
)
from repro.rpc.transport import (
    PipelinedTCPTransport,
    TCPServer,
    TCPTransport,
    Transport,
    serve_tcp,
)
from repro.rpc.xdr import (
    Field,
    XDRDecoder,
    XDREncoder,
    array,
    boolean,
    opaque,
    string,
    struct,
    uhyper,
    uint,
)
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
from repro.storage.base import (
    DEFAULT_BLOCK_SIZE,
    DEFAULT_NUM_BLOCKS,
    BlockStore,
    StoreStats,
    T,
    WrapperBlockStore,
)

#: DisCFS-private program number, next to AUTH_CHANNEL's 390000 range.
BLOCKSTORE_PROGRAM = 390010
BLOCKSTORE_VERSION = 2

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
_DENIALS = tuple(_STATUS_ERRORS.values())

#: What a call can fail with below the v2 envelope — the transport, the
#: RPC layer, or a reply that does not decode (``XDRError`` is an
#: ``RPCError``).  All of it means "this node cannot answer".
_WIRE_FAILURES = (TransportError, RPCError, OSError)

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


# -- the block-store program -------------------------------------------------


def _unpack_block(dec: XDRDecoder, lo: int, hi: int) -> bytes:
    data = dec.unpack_opaque(hi)
    if len(data) < lo:
        raise XDRError(f"block of {len(data)} bytes, expected {lo}")
    return data


block = Field(XDREncoder.pack_opaque, _unpack_block)


#: The program.  A row here plus a ``_proc_<name>`` method on
#: :class:`BlockStoreProgram` is a whole procedure; ``access`` is the
#: least a gated server's session must hold (``None`` = callable before
#: SESSION_OPEN).
PROCEDURES: tuple[Procedure, ...] = (
    # -> num_blocks, block_size, description
    GEOM := Procedure(1, "GEOM", "r", (), (uint, uint, string())),
    READ := Procedure(2, "READ", "r", (uint,), (block,)),
    WRITE := Procedure(3, "WRITE", "rw", (uint, block), ()),
    READ_MANY := Procedure(4, "READ_MANY", "r",
                           (array(uint, MAX_BATCH_BLOCKS),),
                           (array(block, MAX_BATCH_BLOCKS),)),
    WRITE_MANY := Procedure(5, "WRITE_MANY", "rw",
                            (array(struct(uint, block), MAX_BATCH_BLOCKS),),
                            ()),
    FLUSH := Procedure(6, "FLUSH", "rw", (), ()),
    USED := Procedure(7, "USED", "r", (), (uhyper,)),
    # Stats-free membership, for overlays.
    CONTAINS := Procedure(8, "CONTAINS", "r", (uint,), (boolean,)),
    # start, limit -> one page of used block numbers.
    LIST := Procedure(9, "LIST", "r", (uint, uint),
                      (array(uint, LIST_PAGE),)),
    # -> the served store's snapshot + capabilities as JSON, for
    # ``store-inspect``.
    STATS := Procedure(10, "STATS", "admin", (), (string(),)),
    # -> a single-use nonce for SESSION_OPEN (empty on an ungated server).
    CHALLENGE := Procedure(11, "CHALLENGE", None, (), (opaque(MAX_TOKEN),)),
    # identity, tenant, rights, credentials, nonce, signature
    # -> session token, granted rights
    SESSION_OPEN := Procedure(
        12, "SESSION_OPEN", None,
        (string(MAX_IDENTITY), string(256), string(32),
         array(string(MAX_CREDENTIAL), MAX_CREDENTIALS),
         opaque(MAX_TOKEN), string(MAX_IDENTITY)),
        (opaque(MAX_TOKEN), string())),
    # "key <principal>" or "credential <signature>" -> what was revoked
    REVOKE := Procedure(13, "REVOKE", "admin", (string(MAX_CREDENTIAL),),
                        (string(),)),
)

PROC_NAMES: dict[int, str] = {p.number: p.name for p in PROCEDURES}
#: Minimum rights a gated proc needs; ``None`` = unauthenticated.
PROC_RIGHTS: dict[int, Optional[str]] = {
    p.number: p.access for p in PROCEDURES}


class BlockStoreProgram(RPCProgram):
    """Exports one :class:`BlockStore` as an RPC program.

    The store's own ``read``/``write`` wrappers run server-side, so the
    served node keeps authoritative stats and range validation; client
    stores layer their *local* stats on top.  The program takes no
    lock: ``TCPServer`` answers each connection on its own thread, and
    :class:`StoreServer` serializes a backend that does not declare
    ``thread_safe`` (``mem://`` is safe under the GIL).
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
        self._recorder = get_recorder()
        self._queue_hist = get_registry().histogram(
            "rpc:server:queue_wait_seconds")
        # Proc 0 (NULL) keeps the RPC-wide convention — empty args,
        # empty reply, no token/status envelope — so transport-level
        # health checks work against any program uniformly.
        for proc in PROCEDURES:
            self.register(proc.number, self._serve(proc))

    def _serve(self, proc: Procedure) -> Callable[[XDRDecoder, CallContext],
                                                  bytes]:
        """The v2 envelope around ``proc``'s handler: consume the leading
        session token, authorize it against the gate, decode the
        arguments, run the handler on the session's store view, and
        reply with a status and the encoded result — turning the typed
        auth/quota/rate errors into in-band codes instead of SYSTEM_ERR
        transport failures.

        The wrapper is also the server-side observation point: every
        call lands in the per-proc service histogram (registered here,
        so the metrics endpoint shows the full proc surface from the
        first scrape) plus the shared queue-wait histogram (arrival
        stamped by the transport, so the worker-pool wait is split from
        handler time), and when the client shipped a span context in
        the call's credential body a child server span is recorded —
        under which the handler runs, so a metered served store parents
        its spans correctly."""
        handler = getattr(self, proc.handler)
        svc_hist = get_registry().histogram(
            f"rpc:server:{proc.name}:service_seconds")

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
                enc = XDREncoder()
                try:
                    store = self.store
                    if self.gate is not None and proc.access is not None:
                        store = self.gate.authorize(
                            token, proc.name, proc.access).store
                    args = proc.unpack_args(dec, store.block_size)
                    dec.done()
                    with use_context(span_ctx) if span_ctx is not None \
                            else _NO_CONTEXT:
                        result = handler(store, *args)
                except _DENIALS as exc:
                    status = "denied"
                    code = next(code for code, error in _STATUS_ERRORS.items()
                                if isinstance(exc, error))
                    return enc.pack_uint(code).pack_string(str(exc)).getvalue()
                proc.pack_result(enc.pack_uint(ERR_OK), result)
                return enc.getvalue()
            except Exception:
                status = "error"
                raise
            finally:
                service = time.perf_counter() - start
                svc_hist.record(service)
                self._queue_hist.record(queue_wait)
                if span_ctx is not None:
                    self._recorder.record(Span(
                        name=proc.name, kind="server",
                        trace_id=span_ctx.trace_id,
                        span_id=span_ctx.span_id,
                        parent_id=span_ctx.parent_id,
                        node=self.node, start=wall,
                        duration_ms=service * 1000.0,
                        queue_ms=queue_wait * 1000.0,
                        status=status,
                    ))

        return wrapped

    def _proc_challenge(self, store: BlockStore) -> bytes:
        """Empty if ungated, so a credentialed client degrades
        gracefully on an open server."""
        return self.gate.issue_nonce() if self.gate is not None else b""

    def _proc_session_open(self, store: BlockStore, identity: str,
                           tenant: str, rights: str, credentials: list[str],
                           nonce: bytes, signature: str) -> tuple[bytes, str]:
        if self.gate is None:
            # Open server: hand back an empty token; every proc accepts it.
            return b"", "admin"
        session = self.gate.open_session(
            identity=identity, tenant=tenant, rights=rights,
            credentials=credentials, nonce=nonce, signature=signature,
        )
        return session.token, session.rights

    def _proc_revoke(self, store: BlockStore, payload: str) -> str:
        if self.gate is None:
            raise AuthError("this node is not credential-gated: "
                            "there is nothing to revoke")
        return self.gate.revoke(payload)

    def _proc_geom(self, store: BlockStore) -> tuple[int, int, str]:
        return store.num_blocks, store.block_size, store.describe()

    def _proc_read(self, store: BlockStore, block_no: int) -> bytes:
        return store.read(block_no)

    def _proc_write(self, store: BlockStore, block_no: int,
                    data: bytes) -> None:
        store.write(block_no, data)

    def _proc_read_many(self, store: BlockStore,
                        block_nos: list[int]) -> list[bytes]:
        return store.read_many(block_nos)

    def _proc_write_many(self, store: BlockStore,
                         items: list[tuple[int, bytes]]) -> None:
        store.write_many(items)

    def _proc_flush(self, store: BlockStore) -> None:
        store.flush()

    def _proc_used(self, store: BlockStore) -> int:
        return store.used_blocks()

    def _proc_contains(self, store: BlockStore, block_no: int) -> bool:
        return store._contains(block_no)

    def _proc_list(self, store: BlockStore, start: int,
                   limit: int) -> list[int]:
        """One page of used block numbers at or past ``start``; the
        client advances ``start`` past the last entry until a page comes
        back empty.  The enumeration is recomputed per page (stateless —
        pages stay correct across concurrent writes) but sliced by
        bisection, so a page costs one sorted listing, not a linear
        filter over it."""
        limit = max(1, min(limit, LIST_PAGE))
        numbers = store.used_block_numbers()  # sorted by contract
        lo = bisect.bisect_left(numbers, start)
        return numbers[lo:lo + limit]

    def _proc_stats(self, store: BlockStore) -> str:
        """Always the *root* served store (STATS needs ``admin``); gate
        counters and per-tenant usage ride in ``extra``."""
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
        return json.dumps(payload)


check_table(BlockStoreProgram, PROCEDURES)


class SerializedBlockStore(WrapperBlockStore):
    """Lock wrapper making any store safe under concurrent callers.

    A served store is called from every connection's thread (and, for a
    pipelined backlog, from worker threads), but most composite stores
    (``cached://``'s LRU mutates even on reads) assume a single caller.
    This wrapper serializes every operation under one lock; backends
    that declare ``thread_safe`` (``mem://``) are served
    unwrapped so their operations still overlap.
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
        if not store.capabilities().thread_safe:
            # Every connection is answered on its own thread (and a
            # pipelined backlog on worker threads), so even a server
            # without workers has concurrent callers; serialize the
            # operations of a backend that does not claim to be safe
            # under them (network/pipelining still overlaps).
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

    Each connection's thread answers its requests itself; ``workers=N``
    adds a pool that answers a request with a further one already
    buffered behind it (replies may come back out of request order —
    xid matching on the client makes that safe), so a pipelined client
    overlaps server-side work too; ``workers=0`` answers every request
    in turn.  Backends that do not declare ``thread_safe`` are wrapped
    in :class:`SerializedBlockStore` first, so concurrent connections
    and workers never race an unlocked store.

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
    :class:`StoreServer`.  Transport and RPC failures, a reply that does
    not decode included, surface as
    :class:`~repro.errors.StoreUnavailable`, the signal ``replica://``
    treats as a down node.

    Construction makes first contact — SESSION_OPEN when ``key`` is
    given, then GEOM — and takes the node's geometry.  A node that is
    down at that point does not fail the mount: ``num_blocks`` /
    ``block_size`` stand in until the first call that reaches it makes
    first contact, adopts its block count, and raises
    :class:`~repro.errors.InvalidArgument` (closing the connection) if
    its block size differs.  Until then every call raises
    ``StoreUnavailable``, so ``replica://remote://…`` mounts with a node
    down and read-repair heals it once it answers.  A typed denial at
    construction still fails the mount.
    """

    scheme = "remote"
    networked = True

    def __init__(self, transport: Transport, batch: bool = True,
                 workers: int = 1, timeout: float | None = None,
                 endpoint: tuple[str, int] | None = None,
                 key=None, credentials: list[str] | None = None,
                 tenant: str = "", rights: str = "rw",
                 num_blocks: int = DEFAULT_NUM_BLOCKS,
                 block_size: int = DEFAULT_BLOCK_SIZE):
        self._client = RPCClient(transport, BLOCKSTORE_PROGRAM,
                                 BLOCKSTORE_VERSION)
        self.batch = batch
        self.workers = max(1, workers)
        self.timeout = timeout
        #: ``(host, port)`` for TCP mounts (None for in-process
        #: transports) — lets the control plane name the node.
        self.endpoint = endpoint
        # A pipelined connection multiplexes concurrent callers safely;
        # a single blocking transport does not.
        self.thread_safe = self.workers > 1
        #: Session token carried on every request (empty = no session;
        #: an ungated server accepts that on every proc).  The token is
        #: server-global, not per-connection, so the session outlives a
        #: re-dial of the pipelined connection.
        self._token = b""
        self.tenant = tenant
        #: Rights granted at SESSION_OPEN (None on an open mount).
        self.session_rights: str | None = None
        self._session = None if key is None else (
            key, list(credentials or []), tenant, rights)
        self.remote_description = "not reached yet"
        #: Unknown until GEOM answers; no handshake reply carries a block.
        self.block_size = 0
        self._contact_lock = threading.Lock()
        try:
            num_blocks, block_size = self._first_contact()
            self._uncontacted = False
        except StoreUnavailable:
            self._uncontacted = True  # down at mount: the next call retries
        super().__init__(num_blocks, block_size)

    def _first_contact(self) -> tuple[int, int]:
        """SESSION_OPEN when the mount carries a key, then GEOM: the
        node's ``(num_blocks, block_size)``."""
        if self._session is not None:
            key, credentials, tenant, rights = self._session
            nonce = self._rpc(CHALLENGE, ())
            identity = encode_public_key(key)
            signature = sign_session_request(key, nonce, identity, tenant,
                                             rights)
            self._token, self.session_rights = self._rpc(
                SESSION_OPEN, (identity, tenant, rights, credentials, nonce,
                               signature))
        num_blocks, block_size, self.remote_description = self._rpc(GEOM, ())
        return num_blocks, block_size

    def _contact(self) -> None:
        """First contact with a node that was down at mount — made once,
        however many callers race it."""
        with self._contact_lock:
            if not self._uncontacted:
                return
            num_blocks, block_size = self._first_contact()
            if block_size != self.block_size:
                self.close()
                raise InvalidArgument(
                    f"{self._node_label} has block size {block_size}; "
                    f"this mount expected {self.block_size}"
                )
            self.num_blocks = num_blocks
            self._uncontacted = False

    @classmethod
    def connect(cls, host: str, port: int, timeout: float = 10.0,
                batch: bool = True, workers: int = 1,
                key=None, credentials: list[str] | None = None,
                tenant: str = "", rights: str = "rw",
                num_blocks: int = DEFAULT_NUM_BLOCKS,
                block_size: int = DEFAULT_BLOCK_SIZE) -> "RemoteBlockStore":
        """Open a TCP client for the store at ``host:port``.

        ``workers=1`` (the default) is one classic blocking connection.
        ``workers=N`` opens one pipelined connection instead, so the
        windowed ``read_many``/``write_many`` batches keep up to ``2N``
        windows in flight (and concurrent callers share it).  Either
        way a connection that breaks — or that could not be dialed at
        mount — is dialed again on next use.

        ``key``/``credentials`` authenticate the mount against a
        credential-gated server (``tenant`` selects the namespace,
        ``rights`` what the session asks for).  ``num_blocks`` /
        ``block_size`` stand in for the node's geometry while it is down.
        """
        dial = PipelinedTCPTransport if workers > 1 else TCPTransport
        transport = dial(host, port, timeout=timeout)
        try:
            return cls(transport, batch=batch, workers=workers,
                       timeout=timeout, endpoint=(host, port), key=key,
                       credentials=credentials, tenant=tenant, rights=rights,
                       num_blocks=num_blocks, block_size=block_size)
        except Exception:
            # A denied handshake: don't leak the connected socket.
            transport.close()
            raise

    @property
    def _node_label(self) -> str:
        return (f"{self.endpoint[0]}:{self.endpoint[1]}" if self.endpoint
                else "in-process")

    # -- the one client stub -------------------------------------------------

    def _request(self, proc: Procedure, args: tuple) -> bytes:
        """The v2 request envelope: session token, then ``args``."""
        enc = XDREncoder().pack_opaque(self._token)
        proc.pack_args(enc, args)
        return enc.getvalue()

    def _reply(self, proc: Procedure, dec: XDRDecoder) -> Any:
        """The v2 reply envelope: status, then ``proc``'s result — or a
        server-side auth/quota/rate denial, re-raised as its typed error
        (not StoreUnavailable — a denied tenant is not a down node)."""
        status = dec.unpack_uint()
        if status != ERR_OK:
            message = dec.unpack_string()
            dec.done()
            raise _STATUS_ERRORS.get(status, StoreUnavailable)(message)
        result = proc.unpack_result(dec, self.block_size)
        dec.done()
        return result

    def _trace_start(self):
        """Derive a child span context for one RPC when a trace is
        active; returns ``(cred_bytes, span_ctx, wall, start)`` — all
        empty/None/0 when untraced, so the hot path pays one
        contextvar read."""
        parent = current_context()
        if parent is None:
            return b"", None, 0.0, 0.0
        ctx = parent.child()
        return encode_context(ctx), ctx, time.time(), time.perf_counter()

    def _trace_finish(self, proc: Procedure, trace, status: str) -> None:
        """Record the client-side RPC span begun by :meth:`_trace_start`."""
        _cred, span_ctx, wall, start = trace
        if span_ctx is None:
            return
        get_recorder().record(Span(
            name=proc.name, kind="client",
            trace_id=span_ctx.trace_id, span_id=span_ctx.span_id,
            parent_id=span_ctx.parent_id, node=self._node_label,
            start=wall,
            duration_ms=(time.perf_counter() - start) * 1000.0,
            status=status,
        ))

    def _finish(self, proc: Procedure, trace,
                reply: Callable[[], XDRDecoder]) -> Any:
        """Wait for one call's reply and decode it; whatever goes wrong
        below the v2 envelope is StoreUnavailable, and the client span
        closes either way."""
        status = "error"
        try:
            result = self._reply(proc, reply())
            status = "ok"
            return result
        except _WIRE_FAILURES as exc:
            raise StoreUnavailable(
                f"remote block store failed: {exc}") from exc
        finally:
            self._trace_finish(proc, trace, status)

    def _call(self, proc: Procedure, *args: Any) -> Any:
        """One blocking RPC: ``proc``'s result for ``args``."""
        if self._uncontacted:
            self._contact()
        return self._rpc(proc, args)

    def _rpc(self, proc: Procedure, args: tuple) -> Any:
        request = self._request(proc, args)
        trace = self._trace_start()
        return self._finish(proc, trace, lambda: self._client.call(
            proc.number, request, cred=trace[0]))

    # -- async windowed batches --------------------------------------------

    def _submit(self, proc: Procedure, *args: Any) -> tuple:
        """Start one RPC; transport errors surface as StoreUnavailable.

        When a trace is active the client span is closed by
        :meth:`_await` (it covers the full in-flight window, queueing
        included — that is the latency the caller experienced)."""
        if self._uncontacted:
            self._contact()
        request = self._request(proc, args)
        trace = self._trace_start()
        try:
            fut = self._client.call_async(proc.number, request, cred=trace[0])
        except _WIRE_FAILURES as exc:
            self._trace_finish(proc, trace, "error")
            raise StoreUnavailable(f"remote block store failed: {exc}") from exc
        return proc, fut, trace

    def _await(self, pending: tuple) -> Any:
        proc, fut, trace = pending

        def reply() -> XDRDecoder:
            try:
                return fut.result(timeout=self.timeout)
            except FutureTimeoutError:
                # Tear the wedged connection down (failing its other
                # in-flight windows) so a never-answering server cannot
                # accumulate pending calls against it.
                fut.cancel()
                abandon = getattr(self._client.transport, "abandon", None)
                if abandon is not None:
                    abandon(f"no reply within {self.timeout}s")
                raise StoreUnavailable(
                    f"remote call timed out after {self.timeout}s"
                ) from None

        return self._finish(proc, trace, reply)

    @property
    def _inflight_cap(self) -> int:
        """Outstanding windows kept in flight by read_many/write_many."""
        return max(2, 2 * self.workers)

    @property
    def _batch_window(self) -> int:
        return max(1, min(MAX_BATCH_BLOCKS, MAX_BATCH_BYTES // self.block_size))

    def _windowed(self, proc: Procedure, items: list) -> list[tuple]:
        """``proc`` once per window of ``items``: ``(window, result)``
        pairs in window order.  With ``workers>1`` and more than one
        window, up to ``_inflight_cap`` windows are outstanding at once."""
        size = self._batch_window
        windows = [items[i:i + size] for i in range(0, len(items), size)]
        if self.workers == 1 or len(windows) == 1:
            return [(window, self._call(proc, window)) for window in windows]
        results: list = []
        inflight: deque[tuple] = deque()
        try:
            for window in windows:
                inflight.append(self._submit(proc, window))
                if len(inflight) >= self._inflight_cap:
                    results.append(self._await(inflight.popleft()))
            while inflight:
                results.append(self._await(inflight.popleft()))
        except Exception:
            for _proc, fut, _trace in inflight:
                fut.cancel()
            raise
        return list(zip(windows, results))

    # -- BlockStore interface ----------------------------------------------

    def _get(self, block_no: int) -> bytes | None:
        return self._call(READ, block_no)

    def _put(self, block_no: int, data: bytes) -> None:
        self._call(WRITE, block_no, data)

    def _get_many(self, block_nos: list[int]) -> list[bytes | None]:
        if not self.batch:
            return [self._get(block_no) for block_no in block_nos]
        out: list[bytes | None] = []
        for window, blocks in self._windowed(READ_MANY, block_nos):
            if len(blocks) != len(window):
                raise StoreUnavailable(
                    f"remote returned {len(blocks)} blocks for "
                    f"{len(window)} requested"
                )
            out.extend(blocks)
        return out

    def _put_many(self, items: list[tuple[int, bytes]]) -> None:
        if not self.batch:
            for block_no, data in items:
                self._put(block_no, data)
            return
        if self.workers > 1 and len(items) > self._batch_window:
            # Concurrent windows may land out of order, so a block that
            # appears twice in one batch could end up holding its *older*
            # payload.  Collapse duplicates to the last write first — the
            # exact result sequential application would produce — and then
            # order between windows no longer matters.
            items = list(dict(items).items())
        self._windowed(WRITE_MANY, items)

    def _contains(self, block_no: int) -> bool:
        return self._call(CONTAINS, block_no)

    def flush(self) -> None:
        self._call(FLUSH)

    def close(self) -> None:
        self._client.close()

    def used_blocks(self) -> int:
        return self._call(USED)

    def used_block_numbers(self) -> list[int]:
        """Page the served store's enumeration over LIST round trips."""
        numbers: list[int] = []
        start = 0
        while True:
            page = self._call(LIST, start, LIST_PAGE)
            if not page:
                return numbers
            numbers.extend(page)
            start = page[-1] + 1

    def remote_stats(self) -> StoreStats:
        """The *served* store's snapshot (its own counters, not this
        client's), fetched over STATS — what ``store-inspect`` shows
        under a ``remote://`` node."""
        payload = json.loads(self._call(STATS))
        caps = payload.pop("capabilities", {})
        snap = StoreStats(**payload)
        snap.extra = dict(snap.extra)
        snap.extra["served_thread_safe"] = 1.0 if caps.get(
            "thread_safe") else 0.0
        snap.extra["served_durable"] = 1.0 if caps.get("durable") else 0.0
        return snap

    def revoke(self, payload: str) -> str:
        """Notify the served node of a bad key or credential (``key
        <principal>`` / ``credential <signature>``, needs ``admin``)."""
        return self._call(REVOKE, payload)

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
        except _WIRE_FAILURES as exc:
            raise StoreUnavailable(f"remote block store failed: {exc}") from exc
