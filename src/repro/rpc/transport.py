"""RPC transports.

A transport is anything with ``call(request: bytes) -> bytes`` (client
side) plus accounting (:class:`TransportStats`: calls and bytes each
way, which the modeled report prices under a network model).  Three
implementations:

* :class:`InProcessTransport` — the server handler is invoked directly;
  fast and deterministic.  Most tests and the wall-clock benchmarks use
  this, with the RPC/NFS/KeyNote layers providing the measured overheads.
* :class:`TCPTransport` (+ :func:`serve_tcp`) — real sockets with RFC 1831
  record marking, for the distributed examples.
* :class:`PipelinedTCPTransport` — one socket, many in-flight calls:
  :meth:`~PipelinedTCPTransport.submit` returns a future and a background
  reader matches replies to requests by xid, so independent calls overlap
  on one connection (and a ``workers=N`` server may answer out of order).

The socket transports send a record without copying it: the marker and
the record leave in one gathered ``sendmsg``.  A socket is read through
one buffer, usually one ``recv`` per record, and every record handed to
the handler (or the caller) is a ``bytearray`` of its own, so it may be
decoded after the next one has arrived; what a decoder hands on is
``bytes`` (see :mod:`repro.rpc.xdr`).
"""

from __future__ import annotations

import contextlib
import socket
import struct
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import Callable, Protocol

from repro.errors import TransportError
from repro.obs.trace import mark_request_received

Handler = Callable[[bytes], bytes]

_RECORD_HEADER = struct.Struct(">I")
_LAST_FRAGMENT = 0x80000000
#: Largest record accepted, over all of its fragments.
MAX_RECORD = 1 << 26


class Transport(Protocol):
    def call(self, request: bytes) -> bytes: ...

    def close(self) -> None: ...


@dataclass
class TransportStats:
    calls: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0

    def reset(self) -> None:
        self.calls = self.bytes_sent = self.bytes_received = 0


class InProcessTransport:
    """Directly invokes a server handler in the caller's thread."""

    def __init__(self, handler: Handler):
        self._handler = handler
        self.stats = TransportStats()
        self._closed = False

    def call(self, request: bytes) -> bytes:
        if self._closed:
            raise TransportError("transport is closed")
        self.stats.calls += 1
        self.stats.bytes_sent += len(request)
        mark_request_received()  # no queue: service starts immediately
        response = self._handler(request)
        self.stats.bytes_received += len(response)
        return response

    def close(self) -> None:
        self._closed = True


class TCPTransport:
    """Client side of an RPC connection over TCP with record marking.

    One call at a time on one socket.  Any failure inside :meth:`call`
    (a timeout included) closes the socket, so a late reply can never be
    read as the next call's; the next call dials a fresh one.  The failed
    call itself is not retried.  A peer that cannot be reached when the
    transport is made leaves it in that same socketless state.
    ``timeout`` bounds connecting and every send and receive.
    """

    def __init__(self, host: str, port: int, timeout: float = 10.0):
        self.address = (host, port)
        self.timeout = timeout
        self._lock = threading.Lock()
        self._closed = False
        self.stats = TransportStats()
        self._sock: socket.socket | None = None
        with contextlib.suppress(OSError):
            self._sock = self._dial()

    def _dial(self) -> socket.socket:
        sock = socket.create_connection(self.address, timeout=self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = _RecordReader(sock)
        return sock

    def call(self, request: bytes) -> bytes:
        with self._lock:
            if self._closed:
                raise TransportError("transport is closed")
            if self._sock is None:
                try:
                    self._sock = self._dial()
                except OSError as exc:
                    raise TransportError(f"re-dial failed: {exc}") from exc
            self.stats.calls += 1
            self.stats.bytes_sent += len(request)
            try:
                _send_record(self._sock, request)
                response = self._reader.read()
            except BaseException:
                self._sock.close()
                self._sock = None
                raise
            self.stats.bytes_received += len(response)
            return response

    def close(self) -> None:
        self._closed = True
        sock = self._sock
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)  # wakes a call blocked in recv
            except OSError:
                pass
        with self._lock:  # the woken call has let go of the socket
            if self._sock is not None:
                self._sock.close()
                self._sock = None


def _resolve_future(fut: Future, result: bytes | None = None,
                    exc: BaseException | None = None) -> None:
    """Set a future's outcome, tolerating callers that cancelled it."""
    if fut.cancelled() or fut.done():
        return
    try:
        if exc is not None:
            fut.set_exception(exc)
        else:
            fut.set_result(result)
    except Exception:  # lost a race with cancel(): the caller gave up
        pass


class PipelinedTCPTransport:
    """Many in-flight calls on one TCP connection.

    :meth:`submit` frames and sends the request immediately and returns
    a :class:`~concurrent.futures.Future` for the reply; a background
    reader thread matches incoming replies to pending futures by **xid**
    (the first uint32 of every RPC call and reply), so replies may
    arrive in any order — which is exactly what a ``workers=N`` server
    produces when a fast call overtakes a slow one.

    A transport error (or :meth:`abandon`) fails every call in flight on
    the connection together and marks it broken (``broken`` is the
    error); the next :meth:`submit` dials a fresh socket and reader, and
    ``dials`` counts how many were ever opened.  A peer that cannot be
    reached when the transport is made leaves it broken the same way.
    ``timeout`` bounds connecting and the synchronous :meth:`call` path;
    future-based callers apply their own deadline via
    ``Future.result(timeout)``.
    """

    def __init__(self, host: str, port: int, timeout: float = 10.0):
        self.address = (host, port)
        self.timeout = timeout
        self.stats = TransportStats()
        self.dials = 0
        self._send_lock = threading.Lock()
        self._lock = threading.Lock()
        self._closed = False
        self._sock: socket.socket | None = None
        self._pending: dict[int, Future] = {}
        try:
            self._dial()
        except OSError as exc:
            self.broken = TransportError(f"dial failed: {exc}")

    def _dial(self) -> None:
        """Connect a fresh socket and start its reader (``OSError`` if
        the peer cannot be reached)."""
        sock = socket.create_connection(self.address, timeout=self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # The reader blocks in recv until _fail shuts the socket down,
        # so no per-recv timeout is needed once connected.
        sock.settimeout(None)
        self._sock = sock
        self._pending = {}
        self.broken: TransportError | None = None
        self.dials += 1
        self._reader = threading.Thread(
            target=self._read_loop, args=(sock,), name="rpc-pipeline-reader",
            daemon=True,
        )
        self._reader.start()

    # -- client API ---------------------------------------------------------

    def submit(self, request: bytes) -> "Future[bytes]":
        """Send ``request`` now; the returned future resolves to the reply."""
        if len(request) < 4:
            raise TransportError("request too short to carry an xid")
        xid = _RECORD_HEADER.unpack_from(request)[0]
        fut: Future = Future()
        with self._lock:
            if self._closed:
                raise TransportError("transport is closed")
            if self.broken is not None:
                try:
                    self._dial()
                except OSError as exc:
                    raise TransportError(f"re-dial failed: {exc}") from exc
            if xid in self._pending:
                raise TransportError(f"xid {xid} already in flight")
            self._pending[xid] = fut
            sock = self._sock
            self.stats.calls += 1
            self.stats.bytes_sent += len(request)
        try:
            with self._send_lock:
                _send_record(sock, request)
        except TransportError as exc:
            self._fail(exc, sock)
        return fut

    def call(self, request: bytes) -> bytes:
        fut = self.submit(request)
        try:
            return fut.result(timeout=self.timeout)
        except FutureTimeoutError:
            # The reply may still arrive, but the caller's deadline has
            # passed; tear the connection down so pending state cannot
            # grow without bound and callers see a clean error.
            reason = f"no reply within {self.timeout}s (connection dropped)"
            self.abandon(reason)
            raise TransportError(reason) from None

    def abandon(self, reason: str) -> None:
        """Tear the connection down: every call in flight on it fails
        with ``reason``, and the next :meth:`submit` re-dials."""
        self._fail(TransportError(reason))

    @property
    def pending_calls(self) -> int:
        with self._lock:
            return len(self._pending)

    def close(self) -> None:
        with self._lock:
            self._closed = True
        self._fail(TransportError("transport closed"))

    # -- internals ----------------------------------------------------------

    def _read_loop(self, sock: socket.socket) -> None:
        """Resolve replies on ``sock`` until it fails; the reader owns
        the socket and closes it on the way out."""
        reader = _RecordReader(sock)
        try:
            while True:
                try:
                    response = reader.read()
                except TransportError as exc:
                    self._fail(exc, sock)
                    return
                if len(response) < 4:
                    self._fail(TransportError("reply too short to carry an xid"),
                               sock)
                    return
                xid = _RECORD_HEADER.unpack_from(response)[0]
                with self._lock:
                    fut = self._pending.pop(xid, None)
                    self.stats.bytes_received += len(response)
                if fut is not None:
                    _resolve_future(fut, result=response)
                # else: a reply for a call that timed out or was never
                # ours; xids are unique, so nothing can mis-match.
        finally:
            with self._send_lock, self._lock:  # no send or shutdown on it
                sock.close()

    def _fail(self, exc: TransportError,
              sock: socket.socket | None = None) -> None:
        """Break ``sock``'s connection (default: the current one): its
        calls in flight fail with ``exc``.  The socket is shut down, not
        closed — a close would neither wake the reader blocked in recv
        nor tell the peer; the reader closes it as it exits."""
        with self._lock:
            sock = sock or self._sock
            pending: dict[int, Future] = {}
            if sock is self._sock and self.broken is None:
                self.broken = exc
                pending, self._pending = self._pending, {}
            try:
                if sock is not None:  # None: never connected
                    sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already shut down, or closed by its reader
        for fut in pending.values():
            _resolve_future(fut, exc=exc)


def _send_record(sock: socket.socket, data: bytes) -> None:
    """Send ``data`` as one last-fragment record; the marker and the
    record go out in one gathered write, never concatenated."""
    header = _RECORD_HEADER.pack(_LAST_FRAGMENT | len(data))
    try:
        sent = sock.sendmsg((header, data))
        if sent < len(header):
            sock.sendall(header[sent:])
            sent = len(header)
        if sent < len(header) + len(data):
            sock.sendall(memoryview(data)[sent - len(header):])
    except OSError as exc:
        raise TransportError(f"send failed: {exc}") from exc


class _RecordReader:
    """The records arriving on one socket.  A receive fills what room the
    buffer has, so a record, its marker and whatever was pipelined behind
    them (:attr:`buffered`) usually take one ``recv``; the rest of a record
    that did not arrive whole is received straight into its own buffer."""

    #: Buffer size: room for a block-sized record and what follows it.
    CHUNK = 1 << 14

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._buf = bytearray(self.CHUNK)
        self._view = memoryview(self._buf)
        self._start = self._end = 0  # the received bytes not handed out

    @property
    def buffered(self) -> int:
        """Bytes received past the last record handed out."""
        return self._end - self._start

    def read(self) -> bytearray:
        """The next record, a copy of its own (``TransportError`` on a
        failed or closed connection, or past :data:`MAX_RECORD`)."""
        record = bytearray()
        while True:
            while self._end - self._start < 4:
                kept = self._end - self._start  # a marker's first bytes
                self._buf[:kept] = self._buf[self._start:self._end]
                self._start, self._end = 0, kept
                self._end += self._recv_into(self._view[kept:])
            header = _RECORD_HEADER.unpack_from(self._buf, self._start)[0]
            self._start += 4
            length = header & ~_LAST_FRAGMENT
            if len(record) + length > MAX_RECORD:
                raise TransportError(
                    f"record of more than {MAX_RECORD} bytes is implausible")
            fragment = self._take(length)
            if record:
                record += fragment
            else:
                record = fragment  # the usual one-fragment record: no join
            if header & _LAST_FRAGMENT:
                return record

    def _take(self, n: int) -> bytearray:
        start, got = self._start, self._end - self._start
        if got >= n:
            self._start = start + n
            return self._buf[start:start + n]
        out = bytearray(n)
        out[:got] = self._view[start:self._end]
        self._start = self._end = 0
        view = memoryview(out)
        while got < n:
            got += self._recv_into(view[got:])
        return out

    def _recv_into(self, view: memoryview) -> int:
        try:
            count = self._sock.recv_into(view)
        except OSError as exc:
            raise TransportError(f"receive failed: {exc}") from exc
        if not count:
            raise TransportError("connection closed mid-record")
        return count


class TCPServer:
    """A threaded record-marked TCP server dispatching to a handler.

    Each connection's thread answers the requests it reads, so a client
    with one call at a time never waits for a thread switch.  With
    ``workers=N`` a request with bytes of a further one buffered behind
    it goes to a shared pool while the thread reads on, so a pipelined
    backlog is answered concurrently, possibly out of request order
    (legal: RPC replies carry the call's xid).  A request that arrived
    alone is answered before the thread reads again: what is pipelined
    behind it waits for it, then overlaps.

    :meth:`close` stops accepting, frees the port and shuts every
    accepted connection down, so a client still connected sees the
    server go away.
    """

    def __init__(self, handler: Handler, host: str = "127.0.0.1", port: int = 0,
                 workers: int = 0):
        self._handler = handler
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(16)
        self.address = self._listener.getsockname()
        # Set before the thread starts: settimeout on a listener that
        # close() already tore down raises EBADF in the accept thread.
        self._listener.settimeout(0.2)
        self.workers = workers
        self._pool = (
            ThreadPoolExecutor(max_workers=workers,
                               thread_name_prefix="rpc-server-worker")
            if workers > 0 else None
        )
        self._stop = threading.Event()
        self._conns: set[socket.socket] = set()
        self._conns_lock = threading.Lock()
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            with self._conns_lock:
                if self._stop.is_set():
                    conn.close()
                    break
                self._conns.add(conn)
            threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            ).start()

    def _serve_connection(self, conn: socket.socket) -> None:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        reader = _RecordReader(conn)
        send_lock = threading.Lock()
        try:
            while not self._stop.is_set():
                try:
                    request = reader.read()
                except TransportError:
                    return
                # The gap until the handler starts is queue wait, which
                # the program layer splits from service time for tracing.
                received = time.perf_counter()
                if self._pool is not None and reader.buffered:
                    try:
                        self._pool.submit(self._answer, conn, send_lock,
                                          request, received)
                    except RuntimeError:  # close() shut the pool down
                        return
                else:
                    self._answer(conn, send_lock, request, received)
        finally:
            with self._conns_lock:
                self._conns.discard(conn)
            with send_lock:  # no worker is mid-reply on it
                conn.close()

    def _answer(self, conn: socket.socket, send_lock: threading.Lock,
                request: bytes, received: float) -> None:
        """Handle ``request`` and reply.  A handler bug or a failed send
        shuts the connection down (waking its reading thread)."""
        try:
            mark_request_received(received)
            response = self._handler(request)
            with send_lock:
                _send_record(conn, response)
        except Exception:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def close(self) -> None:
        self._stop.set()
        with self._conns_lock:  # held: no connection closes meanwhile
            for conn in self._conns:
                try:
                    conn.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass  # the peer reset it first
        if self._pool is not None:
            self._pool.shutdown(wait=False)
        try:
            self._listener.shutdown(socket.SHUT_RDWR)  # wakes accept()
        except OSError:
            pass
        # Once the accept loop has let go, the port is free to serve again.
        self._accept_thread.join(timeout=1.0)
        self._listener.close()


def serve_tcp(handler: Handler, host: str = "127.0.0.1", port: int = 0,
              workers: int = 0) -> TCPServer:
    """Start a TCP RPC server; returns the server (``.address`` has the port)."""
    return TCPServer(handler, host=host, port=port, workers=workers)
