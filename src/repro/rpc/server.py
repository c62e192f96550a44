"""RPC program registration and dispatch, and the procedure row programs
declare their wire in."""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

from repro.errors import RPCError, XDRError
from repro.rpc.message import AcceptStat, CallMessage, encode_reply
from repro.rpc.xdr import Field, XDRDecoder, XDREncoder, struct, void

#: A registered handler takes the request's decoder, positioned on its
#: arguments, and the per-call context, returning encoded results.
Handler = Callable[[XDRDecoder, "CallContext"], bytes]


class CallContext:
    """Per-call information handed to procedures.

    ``peer_identity`` carries the public-key identifier bound to the
    transport by the secure channel (None on unauthenticated transports).
    DisCFS procedures use it as the requesting principal.
    """

    def __init__(self, call: CallMessage, peer_identity: str | None = None):
        self.call = call
        self.peer_identity = peer_identity


class Procedure:
    """One procedure of a table-declared program, declared once.

    ``access`` is what a call needs before its handler runs, in the
    program's own terms (``None``: nothing the dispatcher checks).
    ``args`` holds one field per positional argument of the client's
    call and of the server's ``_proc_<name>`` handler, or is one field
    for the whole argument tuple (a compiled record).  What the handler
    returns is what the call returns: ``None`` for no ``result`` field,
    the value for one, a tuple for several.  Both ends run the codecs
    composed here."""

    def __init__(self, number: int, name: str, access: Optional[str],
                 args: tuple[Field, ...] | Field, result: tuple[Field, ...]):
        self.number = number
        self.name = name
        self.access = access
        self.handler = f"_proc_{name.lower()}"
        self._args = args if isinstance(args, Field) else struct(*args)
        self._result = (void if not result else
                        result[0] if len(result) == 1 else struct(*result))
        #: ``pack_args(enc, args)`` and ``pack_result(enc, value)``: the
        #: codecs' own functions, not wrapped, to save a call per message.
        self.pack_args: Callable[[XDREncoder, Any], object] = self._args.pack
        self.pack_result: Callable[[XDREncoder, Any], object] = \
            self._result.pack

    def unpack_args(self, dec: XDRDecoder, size: int = 0) -> tuple:
        """Server side: a length-checked argument may be ``0..size``
        long (a short block is padded by the store)."""
        return self._args.unpack(dec, 0, size)

    def unpack_result(self, dec: XDRDecoder, size: int = 0) -> Any:
        """Client side: a length-checked result that is not ``size``
        long is malformed."""
        return self._result.unpack(dec, size, size)


def check_table(program: type, procedures: Sequence[Procedure]) -> None:
    """Every procedure has its handler, every handler its procedure, and
    no two procedures share a number (0 is NULL's)."""
    numbers = [proc.number for proc in procedures]
    declared = {proc.handler for proc in procedures}
    defined = {name for name in dir(program) if name.startswith("_proc_")}
    if (0 in numbers or len(set(numbers)) != len(numbers)
            or declared != defined):
        raise TypeError(
            f"the procedure table and {program.__name__}._proc_* disagree: "
            f"numbers {sorted(numbers)}, unmatched {sorted(declared ^ defined)}")


class RPCProgram:
    """One versioned RPC program: a table of procedures."""

    def __init__(self, prog: int, vers: int, name: str = ""):
        self.prog = prog
        self.vers = vers
        self.name = name or f"prog-{prog}"
        self._procedures: dict[int, Handler] = {0: lambda dec, ctx: b""}  # NULL proc

    def register(self, proc: int, handler: Handler) -> None:
        self._procedures[proc] = handler

    def procedure(self, proc: int):
        """Decorator form of :meth:`register`."""

        def wrap(handler: Handler) -> Handler:
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
