"""RPC program registration and dispatch."""

from __future__ import annotations

from typing import Callable

from repro.errors import RPCError, XDRError
from repro.rpc.message import AcceptStat, CallMessage, encode_reply
from repro.rpc.xdr import XDRDecoder

#: A procedure takes the request's decoder, positioned on its arguments,
#: and the per-call context, returning encoded results.
Procedure = Callable[[XDRDecoder, "CallContext"], bytes]


class CallContext:
    """Per-call information handed to procedures.

    ``peer_identity`` carries the public-key identifier bound to the
    transport by the secure channel (None on unauthenticated transports).
    DisCFS procedures use it as the requesting principal.
    """

    def __init__(self, call: CallMessage, peer_identity: str | None = None):
        self.call = call
        self.peer_identity = peer_identity


class RPCProgram:
    """One versioned RPC program: a table of procedures."""

    def __init__(self, prog: int, vers: int, name: str = ""):
        self.prog = prog
        self.vers = vers
        self.name = name or f"prog-{prog}"
        self._procedures: dict[int, Procedure] = {0: lambda dec, ctx: b""}  # NULL proc

    def register(self, proc: int, handler: Procedure) -> None:
        self._procedures[proc] = handler

    def procedure(self, proc: int):
        """Decorator form of :meth:`register`."""

        def wrap(handler: Procedure) -> Procedure:
            self.register(proc, handler)
            return handler

        return wrap

    def dispatch(self, proc: int, decoder: XDRDecoder, ctx: CallContext) -> bytes:
        handler = self._procedures.get(proc)
        if handler is None:
            raise RPCError(f"procedure {proc} unavailable in {self.name}")
        return handler(decoder, ctx)

    def has_procedure(self, proc: int) -> bool:
        return proc in self._procedures


class RPCServer:
    """Dispatches encoded call messages to registered programs.

    The server itself is transport-agnostic: its :meth:`handle` is a
    ``bytes -> bytes`` function pluggable into any transport, including
    the secure channel (which supplies a per-connection identity via an
    identity resolver).
    """

    def __init__(self) -> None:
        self._programs: dict[tuple[int, int], RPCProgram] = {}

    def register(self, program: RPCProgram) -> None:
        self._programs[(program.prog, program.vers)] = program

    def handle(self, request: bytes, peer_identity: str | None = None) -> bytes:
        dec = XDRDecoder(request)
        try:
            call = CallMessage.unpack(dec)
        except RPCError as exc:
            # The xid is the first word whatever else is wrong with the
            # header; answering under it lets the caller fail this call
            # instead of waiting for a reply that never matches.
            xid = int.from_bytes(request[:4], "big") if len(request) >= 4 else 0
            return encode_reply(xid, AcceptStat.GARBAGE_ARGS,
                                str(exc).encode()[:64])

        program = self._programs.get((call.prog, call.vers))
        if program is None:
            return encode_reply(call.xid, AcceptStat.PROG_UNAVAIL)
        if not program.has_procedure(call.proc):
            return encode_reply(call.xid, AcceptStat.PROC_UNAVAIL)

        ctx = CallContext(call, peer_identity=peer_identity)
        try:
            results = program.dispatch(call.proc, dec, ctx)
        except XDRError:
            return encode_reply(call.xid, AcceptStat.GARBAGE_ARGS)
        except Exception:
            return encode_reply(call.xid, AcceptStat.SYSTEM_ERR)
        return encode_reply(call.xid, AcceptStat.SUCCESS, results)

    def handler_for(self, identity: str | None = None):
        """A ``bytes -> bytes`` closure with a fixed peer identity."""

        def handler(request: bytes) -> bytes:
            return self.handle(request, peer_identity=identity)

        return handler
