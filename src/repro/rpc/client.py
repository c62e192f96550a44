"""RPC client stub: synchronous and future-based calls over any transport.

Two concurrency building blocks live here besides the classic blocking
:meth:`RPCClient.call`:

* :meth:`RPCClient.call_async` — returns a
  :class:`~concurrent.futures.Future` for the decoded reply.  On a
  transport that can pipeline (anything with ``submit``, e.g.
  :class:`~repro.rpc.transport.PipelinedTCPTransport` or a
  :class:`ConnectionPool`) the call is in flight before the method
  returns; otherwise a small thread pool runs the blocking call, so
  callers get the same futures API over every transport.
* :class:`ConnectionPool` — up to ``size`` lazily-created pipelined
  connections to one endpoint, presented as a single transport.
  In-flight calls are spread over the least-loaded connections, broken
  connections are discarded and re-dialed on next use, and a failure on
  one pool slot fails only the calls routed over that slot.

No asyncio: everything is plain threads and ``concurrent.futures``, the
same machinery the storage fan-out layers build on.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from typing import Any, Callable

from repro.errors import ProcedureUnavailable, RPCError, TransportError
from repro.obs.trace import ContextExecutor
from repro.rpc.message import AcceptStat, ReplyMessage, encode_call, next_xid
from repro.rpc.server import Procedure
from repro.rpc.transport import (
    PipelinedTCPTransport,
    Transport,
    _resolve_future,
)
from repro.rpc.xdr import XDRDecoder, XDREncoder

#: Slot marker: a connection is being dialed for this slot right now.
_DIALING = object()


def abandon_call(fut: Future, reason: str) -> None:
    """Give up on an in-flight call whose deadline has passed.

    Cancels the future and — when it rides a pooled connection
    (``ConnectionPool.submit`` tags its futures) — tears that connection
    down, failing its other in-flight calls with ``reason``.  Without
    the teardown, a server that never answers would accumulate pending
    state and in-flight counts against a wedged connection forever.
    """
    fut.cancel()
    transport = getattr(fut, "pool_transport", None)
    if transport is None:
        return
    transport._fail(TransportError(reason))  # fails its pending calls


class ConnectionPool:
    """Fan calls over up to ``size`` connections to one endpoint.

    ``factory`` dials one new :class:`PipelinedTCPTransport` (it may
    raise, e.g. ``OSError`` when the peer is down — the error surfaces
    on the call that needed the new connection).  Connections are
    created lazily: a workload with one call in flight at a time uses
    one connection no matter the pool size, and ``created`` counts how
    many the pool ever dialed, so tests can assert reuse.

    The pool implements the transport protocol (``call``/``close``)
    plus ``submit``, so an :class:`RPCClient` works over it unchanged.
    Calls are routed to the connection with the fewest calls in flight.
    A slot whose transport turns out broken is cleared and re-dialed on
    next use; its failure is delivered only to the calls that were
    actually riding that connection.
    """

    def __init__(self, factory: Callable[[], PipelinedTCPTransport],
                 size: int = 4, timeout: float | None = None):
        if size < 1:
            raise ValueError("pool needs at least one connection slot")
        self.factory = factory
        self.size = size
        #: Deadline applied by the synchronous :meth:`call` path (None =
        #: wait forever); future-based callers set their own deadlines.
        self.timeout = timeout
        self.created = 0
        self._slots: list = [None] * size
        self._inflight = [0] * size
        self._cond = threading.Condition()
        self._closed = False

    # -- slot management ----------------------------------------------------

    def _acquire(self) -> tuple[int, PipelinedTCPTransport]:
        discarded: list[PipelinedTCPTransport] = []
        slot = -1
        reuse: tuple[int, PipelinedTCPTransport] | None = None
        try:
            with self._cond:
                while slot < 0 and reuse is None:
                    if self._closed:
                        raise TransportError("connection pool is closed")
                    for idx in range(self.size):
                        transport = self._slots[idx]
                        if (transport is not None
                                and transport is not _DIALING
                                and transport.broken):
                            self._slots[idx] = None
                            discarded.append(transport)
                    live = [idx for idx in range(self.size)
                            if self._slots[idx] is not None
                            and self._slots[idx] is not _DIALING]
                    idle = [idx for idx in live if self._inflight[idx] == 0]
                    if idle:
                        # Reuse an idle connection before dialing new ones.
                        chosen = idle[0]
                        self._inflight[chosen] += 1
                        reuse = (chosen, self._slots[chosen])
                        continue
                    empty = next((idx for idx in range(self.size)
                                  if self._slots[idx] is None), None)
                    if empty is not None:
                        self._slots[empty] = _DIALING
                        self._inflight[empty] += 1
                        slot = empty
                    elif live:
                        # Every slot is live and busy: pile onto the
                        # least loaded (pipelining shares a connection).
                        chosen = min(live,
                                     key=lambda idx: self._inflight[idx])
                        self._inflight[chosen] += 1
                        reuse = (chosen, self._slots[chosen])
                    else:
                        # Every slot is mid-dial; wait for one to land.
                        self._cond.wait()
        finally:
            # Outside the lock: closing a pipelined transport resolves
            # its pending futures, whose callbacks re-enter _release.
            self._close_quietly(discarded)
        if reuse is not None:
            return reuse
        try:
            transport = self.factory()
        except Exception:
            with self._cond:
                self._slots[slot] = None
                self._inflight[slot] -= 1
                self._cond.notify_all()
            raise
        with self._cond:
            if self._closed:
                self._slots[slot] = None
                self._inflight[slot] -= 1
                self._cond.notify_all()
                transport.close()
                raise TransportError("connection pool is closed")
            self._slots[slot] = transport
            self.created += 1
            self._cond.notify_all()
        return slot, transport

    @staticmethod
    def _close_quietly(transports: list) -> None:
        """Close discarded transports; best effort (a broken one already
        closed its socket in ``_fail``)."""
        while transports:
            try:
                transports.pop().close()
            except Exception:
                pass

    def _release(self, slot: int, transport: PipelinedTCPTransport) -> None:
        dropped = None
        with self._cond:
            self._inflight[slot] -= 1
            if transport.broken and self._slots[slot] is transport:
                self._slots[slot] = None
                dropped = transport
            self._cond.notify_all()
        if dropped is not None:
            self._close_quietly([dropped])

    # -- transport protocol -------------------------------------------------

    def submit(self, request: bytes) -> "Future[bytes]":
        slot, transport = self._acquire()
        try:
            fut = transport.submit(request)
        except Exception:
            self._release(slot, transport)
            raise
        fut.pool_transport = transport  # type: ignore[attr-defined]  # lets abandon_call tear it down
        fut.add_done_callback(lambda _f: self._release(slot, transport))
        return fut

    def call(self, request: bytes) -> bytes:
        """Blocking call with the pool's deadline.

        The slot is released synchronously before returning (not from a
        future callback, which CPython runs *after* ``result()`` waiters
        wake), so a strictly sequential caller always finds its previous
        connection idle again instead of dialing a redundant one.  On
        timeout the wedged connection is torn down and its slot
        re-dialed on next use — in-flight state must not accumulate
        against a server that never answers.
        """
        from concurrent.futures import TimeoutError as FutureTimeoutError

        slot, transport = self._acquire()
        try:
            fut = transport.submit(request)
            fut.pool_transport = transport  # type: ignore[attr-defined]  # for abandon_call symmetry
            try:
                return fut.result(timeout=self.timeout)
            except FutureTimeoutError:
                reason = (
                    f"no reply within {self.timeout}s (connection dropped)"
                )
                abandon_call(fut, reason)
                raise TransportError(reason) from None
        finally:
            self._release(slot, transport)

    @property
    def live_connections(self) -> int:
        with self._cond:
            return sum(1 for t in self._slots
                       if t is not None and t is not _DIALING)

    def close(self) -> None:
        with self._cond:
            if self._closed:
                return
            self._closed = True
            slots, self._slots = list(self._slots), [None] * self.size
            self._cond.notify_all()
        for transport in slots:
            if transport is not None and transport is not _DIALING:
                transport.close()


class RPCClient:
    """Issues calls for one (program, version) pair over a transport."""

    def __init__(self, transport: Transport, prog: int, vers: int):
        self.transport = transport
        self.prog = prog
        self.vers = vers
        self._executor = ContextExecutor(max_workers=8,
                                         thread_name_prefix="rpc-async")

    def _decode_reply(self, xid: int, proc: int, raw: bytes) -> XDRDecoder:
        dec = XDRDecoder(raw)
        reply = ReplyMessage.unpack(dec)
        if reply.xid != xid:
            raise RPCError(f"xid mismatch: sent {xid}, got {reply.xid}")
        if reply.stat is AcceptStat.SUCCESS:
            return dec
        if reply.stat in (AcceptStat.PROG_UNAVAIL, AcceptStat.PROC_UNAVAIL,
                          AcceptStat.PROG_MISMATCH):
            raise ProcedureUnavailable(
                f"server cannot serve prog={self.prog} vers={self.vers} "
                f"proc={proc} ({reply.stat.name})"
            )
        raise RPCError(f"call failed with status {reply.stat.name}")

    def call(self, proc: int, args: bytes = b"", cred: bytes = b"") -> XDRDecoder:
        """Call a procedure; returns the reply's decoder, positioned on
        the results.

        ``cred`` rides in the call's AUTH_NONE credential body — the
        slot the trace layer uses to ship span contexts; peers that
        predate tracing decode and ignore it (see
        :mod:`repro.obs.trace`).

        Raises :class:`ProcedureUnavailable` for PROG/PROC_UNAVAIL and
        :class:`RPCError` for other non-success statuses or xid mismatches.
        """
        xid = next_xid()
        raw = self.transport.call(encode_call(
            xid, self.prog, self.vers, proc, args, auth_body=cred))
        return self._decode_reply(xid, proc, raw)

    def invoke(self, proc: Procedure, *args: Any) -> Any:
        """One call of a table-declared procedure: ``args`` packed by
        its row, the result unpacked by it.  The whole reply must be the
        result; a byte left over is an :class:`~repro.errors.XDRError`."""
        enc = XDREncoder()
        proc.pack_args(enc, args)
        dec = self.call(proc.number, enc.getvalue())
        result = proc.unpack_result(dec)
        dec.done()
        return result

    def call_async(self, proc: int, args: bytes = b"",
                   cred: bytes = b"") -> Future:
        """Start a call; the future resolves to the reply's decoder.

        Over a pipelined transport (or :class:`ConnectionPool`) the
        request is on the wire before this returns, so several
        ``call_async`` invocations overlap their round trips; elsewhere
        a client-owned :class:`~repro.obs.trace.ContextExecutor`
        supplies the overlap, running the blocking call in the caller's
        context.  Errors arrive through the future exactly as
        :meth:`call` would raise them.  ``cred`` is the optional
        credential body, as in :meth:`call`.
        """
        xid = next_xid()
        raw = encode_call(xid, self.prog, self.vers, proc, args,
                          auth_body=cred)
        submit = getattr(self.transport, "submit", None)
        if submit is None:
            return self._executor.submit(
                lambda: self._decode_reply(xid, proc, self.transport.call(raw))
            )
        outer: Future = Future()
        inner = submit(raw)
        pool_transport = getattr(inner, "pool_transport", None)
        if pool_transport is not None:
            outer.pool_transport = pool_transport  # type: ignore[attr-defined]  # keep abandon_call working

        def chain(f: Future) -> None:
            exc = f.exception()
            if exc is not None:
                _resolve_future(outer, exc=exc)
                return
            try:
                _resolve_future(outer, result=self._decode_reply(
                    xid, proc, f.result()
                ))
            except Exception as decode_exc:
                _resolve_future(outer, exc=decode_exc)

        inner.add_done_callback(chain)
        return outer

    def ping(self) -> None:
        """Invoke the NULL procedure (used by tests and health checks)."""
        self.call(0).done()

    def close(self) -> None:
        self._executor.shutdown(wait=False)
        self.transport.close()
