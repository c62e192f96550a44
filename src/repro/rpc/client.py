"""RPC client stub: synchronous and future-based calls over any transport.

Besides the classic blocking :meth:`RPCClient.call` there is
:meth:`RPCClient.call_async`, which returns a
:class:`~concurrent.futures.Future` for the decoded reply.  On a
transport that can pipeline (anything with ``submit``, i.e.
:class:`~repro.rpc.transport.PipelinedTCPTransport`) the call is in
flight before the method returns; otherwise a small thread pool runs the
blocking call, so callers get the same futures API over every transport.

No asyncio: everything is plain threads and ``concurrent.futures``, the
same machinery the storage fan-out layers build on.
"""

from __future__ import annotations

from concurrent.futures import Future
from typing import Any

from repro.errors import ProcedureUnavailable, RPCError
from repro.obs.trace import ContextExecutor
from repro.rpc.message import AcceptStat, ReplyMessage, encode_call, next_xid
from repro.rpc.server import Procedure
from repro.rpc.transport import Transport, _resolve_future
from repro.rpc.xdr import XDRDecoder, XDREncoder


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

        Over a pipelined transport the request is on the wire before
        this returns, so several ``call_async`` invocations overlap their
        round trips; elsewhere a client-owned
        :class:`~repro.obs.trace.ContextExecutor` supplies the overlap,
        running the blocking call in the caller's context.  Errors arrive through the future exactly as
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
