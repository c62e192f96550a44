"""Unit tests for RPC message framing."""

import pytest

from repro.errors import RPCError
from repro.rpc.message import (
    AcceptStat,
    AuthFlavor,
    CallMessage,
    ReplyMessage,
    next_xid,
)


class TestCallMessage:
    def test_roundtrip(self):
        call = CallMessage(prog=100003, vers=2, proc=6, args=b"payload")
        decoded = CallMessage.decode(call.encode())
        assert decoded.prog == 100003
        assert decoded.vers == 2
        assert decoded.proc == 6
        assert decoded.args == b"payload"
        assert decoded.xid == call.xid

    def test_empty_args(self):
        call = CallMessage(prog=1, vers=1, proc=0)
        assert CallMessage.decode(call.encode()).args == b""

    def test_auth_flavor_preserved(self):
        call = CallMessage(prog=1, vers=1, proc=0,
                           auth_flavor=AuthFlavor.AUTH_CHANNEL)
        assert CallMessage.decode(call.encode()).auth_flavor == AuthFlavor.AUTH_CHANNEL

    def test_xids_unique(self):
        assert len({next_xid() for _ in range(1000)}) == 1000

    def test_reply_rejected_as_call(self):
        reply = ReplyMessage(xid=1).encode()
        with pytest.raises(RPCError):
            CallMessage.decode(reply)

    def test_bad_rpc_version(self):
        call = CallMessage(prog=1, vers=1, proc=0)
        raw = bytearray(call.encode())
        raw[11] = 3  # rpcvers field
        with pytest.raises(RPCError):
            CallMessage.decode(bytes(raw))


class TestReplyMessage:
    def test_roundtrip(self):
        reply = ReplyMessage(xid=77, stat=AcceptStat.SUCCESS, results=b"ok")
        decoded = ReplyMessage.decode(reply.encode())
        assert decoded.xid == 77
        assert decoded.stat == AcceptStat.SUCCESS
        assert decoded.results == b"ok"

    def test_error_statuses(self):
        for stat in AcceptStat:
            decoded = ReplyMessage.decode(ReplyMessage(xid=1, stat=stat).encode())
            assert decoded.stat == stat

    def test_call_rejected_as_reply(self):
        call = CallMessage(prog=1, vers=1, proc=0).encode()
        with pytest.raises(RPCError):
            ReplyMessage.decode(call)


class TestUnknownEnumWords:
    """A word outside its enum is a typed protocol error, not ValueError."""

    def test_unknown_auth_flavor_is_rpc_error(self):
        raw = bytearray(CallMessage(prog=1, vers=1, proc=0).encode())
        raw[24:28] = (7).to_bytes(4, "big")  # credential flavor
        with pytest.raises(RPCError, match="auth flavor"):
            CallMessage.decode(bytes(raw))

    def test_unknown_accept_stat_is_rpc_error(self):
        raw = bytearray(ReplyMessage(xid=9).encode())
        raw[20:24] = (6).to_bytes(4, "big")  # accept_stat
        with pytest.raises(RPCError, match="accept_stat"):
            ReplyMessage.decode(bytes(raw))

    def test_decoded_enums_are_members(self):
        call = CallMessage.decode(CallMessage(prog=1, vers=1, proc=0).encode())
        assert call.auth_flavor is AuthFlavor.AUTH_NONE
        reply = ReplyMessage.decode(
            ReplyMessage(xid=1, stat=AcceptStat.SYSTEM_ERR).encode())
        assert reply.stat is AcceptStat.SYSTEM_ERR

    def test_trace_body_roundtrip(self):
        body = bytes(range(25))  # a span context's size: padded to 28
        call = CallMessage(prog=1, vers=1, proc=2, args=b"rest", auth_body=body)
        decoded = CallMessage.decode(call.encode())
        assert decoded.auth_body == body
        assert decoded.args == b"rest"

    def test_non_empty_verifier_rejected(self):
        raw = bytearray(ReplyMessage(xid=1).encode())
        raw[16:20] = (4).to_bytes(4, "big")  # verifier length
        with pytest.raises(RPCError):
            ReplyMessage.decode(bytes(raw) + b"\x00" * 4)
