"""RPC call/reply message framing (ONC RPC, RFC 5531 subset).

Message layout::

    CALL:  xid, mtype=0, rpcvers=2, prog, vers, proc, cred, verf, args...
    REPLY: xid, mtype=1, reply_stat=ACCEPTED, verf, accept_stat, results...

Both headers are compiled: :data:`CALL_HEADER` runs from the xid to the
credential's length word, :data:`VERIFIER` follows the credential body,
and :data:`REPLY_HEADER` is the whole accepted-reply header — one
``pack`` to write each, one ``unpack_from`` at the decoder's cursor to
read it.  Decoding leaves the decoder positioned on the arguments
(results), which are never sliced out of the record; encoding joins the
header and the argument string into one buffer.  Enum-valued words are
checked against lookup tables, and every malformed or unknown value is
an :class:`~repro.errors.RPCError`.

Authentication flavors: ``AUTH_NONE`` and a DisCFS-specific
``AUTH_CHANNEL`` flavor whose body is empty — the peer identity comes from
the secure channel, not from per-message credentials (the paper's point:
"requests coming over the IPsec link can be safely assumed to come from
the authorized user").  Verifiers are always ``AUTH_NONE`` with an empty
body; a message carrying anything else is rejected.

The ``AUTH_NONE`` credential *body* (an XDR opaque, normally empty)
doubles as the optional trace field: tracing clients pack a span
context there (:func:`repro.obs.trace.encode_context`) and servers that
understand it record a child span.  Both directions are NULL-compatible
with peers that predate tracing — the body has always been decoded,
size-capped and otherwise ignored, so an old server skips the context
and an old client simply sends the empty body.
"""

from __future__ import annotations

import enum
import itertools
import struct
import threading
from dataclasses import dataclass, field

from repro.errors import RPCError, XDRError
from repro.rpc.xdr import PAD, XDRDecoder

RPC_VERSION = 2

#: Largest credential body a call may carry (RFC 5531: 400 bytes).
MAX_AUTH_BODY = 400


class MsgType(enum.IntEnum):
    CALL = 0
    REPLY = 1


class AcceptStat(enum.IntEnum):
    SUCCESS = 0
    PROG_UNAVAIL = 1
    PROG_MISMATCH = 2
    PROC_UNAVAIL = 3
    GARBAGE_ARGS = 4
    SYSTEM_ERR = 5


class AuthFlavor(enum.IntEnum):
    AUTH_NONE = 0
    AUTH_SYS = 1
    #: Identity supplied by the secure channel (DisCFS extension).
    AUTH_CHANNEL = 390000


#: xid, mtype, rpcvers, prog, vers, proc, credential flavor, credential length.
CALL_HEADER = struct.Struct(">IiIIIIiI")
#: Verifier flavor and length, after the credential body.
VERIFIER = struct.Struct(">iI")
#: xid, mtype, reply_stat, verifier flavor, verifier length, accept_stat.
REPLY_HEADER = struct.Struct(">IiiiIi")

_CALL = int(MsgType.CALL)
_REPLY = int(MsgType.REPLY)
_MSG_ACCEPTED = 0
#: The only verifier sent or accepted: AUTH_NONE with an empty body.
_NO_VERIFIER = (int(AuthFlavor.AUTH_NONE), 0)
_NO_VERIFIER_BYTES = VERIFIER.pack(*_NO_VERIFIER)
_AUTH_FLAVORS = {int(flavor): flavor for flavor in AuthFlavor}
_ACCEPT_STATS = {int(stat): stat for stat in AcceptStat}

_xid_counter = itertools.count(1)
_xid_lock = threading.Lock()


def next_xid() -> int:
    with _xid_lock:
        return next(_xid_counter) & 0xFFFFFFFF


def encode_call(xid: int, prog: int, vers: int, proc: int, args: bytes = b"",
                auth_flavor: int = AuthFlavor.AUTH_NONE,
                auth_body: bytes = b"") -> bytes:
    """One CALL record: header, credential, verifier and ``args`` in one buffer."""
    try:
        header = CALL_HEADER.pack(xid, _CALL, RPC_VERSION, prog, vers, proc,
                                  auth_flavor, len(auth_body))
    except struct.error as exc:
        raise XDRError(f"call header field out of range: {exc}") from None
    return b"".join((header, auth_body, PAD[len(auth_body) & 3],
                     _NO_VERIFIER_BYTES, args))


def encode_reply(xid: int, stat: int, results: bytes = b"") -> bytes:
    """One accepted REPLY record: header and ``results`` in one buffer."""
    try:
        header = REPLY_HEADER.pack(xid, _REPLY, _MSG_ACCEPTED, *_NO_VERIFIER,
                                   stat)
    except struct.error as exc:
        raise XDRError(f"reply header field out of range: {exc}") from None
    return b"".join((header, results))


@dataclass
class CallMessage:
    prog: int
    vers: int
    proc: int
    args: bytes = b""
    xid: int = field(default_factory=next_xid)
    auth_flavor: AuthFlavor = AuthFlavor.AUTH_NONE
    auth_body: bytes = b""

    def encode(self) -> bytes:
        return encode_call(self.xid, self.prog, self.vers, self.proc,
                           self.args, self.auth_flavor, self.auth_body)

    @classmethod
    def unpack(cls, dec: XDRDecoder) -> "CallMessage":
        """Read a call's header; ``dec`` is left on its arguments
        (``args`` of the result stays empty)."""
        xid, mtype, rpcvers, prog, vers, proc, flavor, cred_len = \
            dec.unpack_struct(CALL_HEADER)
        if mtype != _CALL:
            raise RPCError(f"expected CALL, got message type {mtype}")
        if rpcvers != RPC_VERSION:
            raise RPCError(f"unsupported RPC version {rpcvers}")
        auth_flavor = _AUTH_FLAVORS.get(flavor)
        if auth_flavor is None:
            raise RPCError(f"unknown auth flavor {flavor}")
        if cred_len > MAX_AUTH_BODY:
            raise XDRError(
                f"credential of {cred_len} bytes exceeds maximum {MAX_AUTH_BODY}")
        auth_body = dec.unpack_fixed_opaque(cred_len)
        if dec.unpack_struct(VERIFIER) != _NO_VERIFIER:
            raise RPCError("unsupported call verifier")
        return cls(prog, vers, proc, b"", xid, auth_flavor, auth_body)

    @classmethod
    def decode(cls, data: bytes) -> "CallMessage":
        dec = XDRDecoder(data)
        call = cls.unpack(dec)
        call.args = bytes(data[len(data) - dec.remaining:])
        return call


@dataclass
class ReplyMessage:
    xid: int
    stat: AcceptStat = AcceptStat.SUCCESS
    results: bytes = b""

    def encode(self) -> bytes:
        return encode_reply(self.xid, self.stat, self.results)

    @classmethod
    def unpack(cls, dec: XDRDecoder) -> "ReplyMessage":
        """Read a reply's header; ``dec`` is left on its results
        (``results`` of the result stays empty)."""
        xid, mtype, reply_stat, verf_flavor, verf_len, stat = \
            dec.unpack_struct(REPLY_HEADER)
        if mtype != _REPLY:
            raise RPCError(f"expected REPLY, got message type {mtype}")
        if reply_stat != _MSG_ACCEPTED:
            raise RPCError(f"RPC message denied (reply_stat={reply_stat})")
        if (verf_flavor, verf_len) != _NO_VERIFIER:
            raise RPCError("unsupported reply verifier")
        accept_stat = _ACCEPT_STATS.get(stat)
        if accept_stat is None:
            raise RPCError(f"unknown accept_stat {stat}")
        return cls(xid, accept_stat)

    @classmethod
    def decode(cls, data: bytes) -> "ReplyMessage":
        dec = XDRDecoder(data)
        reply = cls.unpack(dec)
        reply.results = bytes(data[len(data) - dec.remaining:])
        return reply
