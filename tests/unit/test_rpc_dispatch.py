"""Unit tests for RPC server dispatch and client stubs."""

import pytest

from repro.errors import ProcedureUnavailable
from repro.rpc.client import RPCClient
from repro.rpc.server import RPCProgram, RPCServer
from repro.rpc.transport import InProcessTransport
from repro.rpc.xdr import XDREncoder


def make_adder_program():
    prog = RPCProgram(200000, 1, name="adder")

    @prog.procedure(1)
    def add(dec, ctx):
        a = dec.unpack_uint()
        b = dec.unpack_uint()
        enc = XDREncoder()
        enc.pack_uint(a + b)
        return enc.getvalue()

    @prog.procedure(2)
    def whoami(dec, ctx):
        enc = XDREncoder()
        enc.pack_string(ctx.peer_identity or "")
        return enc.getvalue()

    @prog.procedure(3)
    def boom(dec, ctx):
        raise RuntimeError("handler bug")

    return prog


@pytest.fixture()
def client():
    server = RPCServer()
    server.register(make_adder_program())
    transport = InProcessTransport(server.handler_for("tester"))
    return RPCClient(transport, 200000, 1)


class TestDispatch:
    def test_null_procedure(self, client):
        client.ping()

    def test_procedure_call(self, client):
        enc = XDREncoder()
        enc.pack_uint(20)
        enc.pack_uint(22)
        dec = client.call(1, enc.getvalue())
        assert dec.unpack_uint() == 42

    def test_peer_identity_reaches_context(self, client):
        dec = client.call(2)
        assert dec.unpack_string() == "tester"

    def test_unknown_program(self):
        server = RPCServer()
        transport = InProcessTransport(server.handler_for())
        client = RPCClient(transport, 999, 1)
        with pytest.raises(ProcedureUnavailable):
            client.ping()

    def test_unknown_procedure(self, client):
        with pytest.raises(ProcedureUnavailable):
            client.call(99)

    def test_wrong_version(self):
        server = RPCServer()
        server.register(make_adder_program())
        transport = InProcessTransport(server.handler_for())
        client = RPCClient(transport, 200000, 9)
        with pytest.raises(ProcedureUnavailable):
            client.ping()

    def test_garbage_args(self, client):
        from repro.errors import RPCError
        with pytest.raises(RPCError):
            client.call(1, b"\x00")  # truncated args -> GARBAGE_ARGS

    def test_handler_exception_becomes_system_err(self, client):
        from repro.errors import RPCError
        with pytest.raises(RPCError) as excinfo:
            client.call(3)
        assert "SYSTEM_ERR" in str(excinfo.value)

    def test_garbage_request_bytes(self):
        server = RPCServer()
        # must not raise, must return an encodable reply
        reply = server.handle(b"\x01\x02")
        assert isinstance(reply, bytes)


class TestUnknownEnumWords:
    """Satellite of the compiled codec: an auth flavor or accept_stat the
    enums do not name used to escape as ValueError — out of
    ``RPCServer.handle`` (dropping a TCP connection, or reaching an
    in-process caller) and out of the client's reply decoding."""

    @staticmethod
    def _call_with_flavor(flavor: int, xid: int = 0x1234ABCD) -> bytes:
        from repro.rpc.message import CallMessage

        raw = bytearray(CallMessage(prog=200000, vers=1, proc=0, xid=xid).encode())
        raw[24:28] = flavor.to_bytes(4, "big")
        return bytes(raw)

    def test_server_answers_unknown_flavor_under_the_calls_xid(self):
        from repro.rpc.message import AcceptStat, ReplyMessage

        server = RPCServer()
        server.register(make_adder_program())
        reply = ReplyMessage.decode(server.handle(self._call_with_flavor(7)))
        assert reply.xid == 0x1234ABCD
        assert reply.stat == AcceptStat.GARBAGE_ARGS

    def test_truncated_header_is_answered_under_its_xid(self):
        from repro.rpc.message import AcceptStat, ReplyMessage

        reply = ReplyMessage.decode(
            RPCServer().handle(self._call_with_flavor(0)[:20]))
        assert reply.xid == 0x1234ABCD
        assert reply.stat == AcceptStat.GARBAGE_ARGS

    def test_unknown_flavor_over_tcp_keeps_the_connection(self):
        from repro.rpc.message import ReplyMessage
        from repro.rpc.transport import TCPTransport, serve_tcp

        server = RPCServer()
        server.register(make_adder_program())
        tcp = serve_tcp(server.handler_for(None))
        try:
            raw = TCPTransport(*tcp.address, timeout=5.0)
            assert ReplyMessage.decode(
                raw.call(self._call_with_flavor(7, xid=5))).xid == 5
            RPCClient(raw, 200000, 1).ping()  # same connection, still served
            raw.close()
        finally:
            tcp.close()

    def test_client_reports_unknown_accept_stat_as_rpc_error(self):
        from repro.errors import RPCError
        from repro.rpc.message import ReplyMessage

        def weird_server(request: bytes) -> bytes:
            raw = bytearray(ReplyMessage(
                xid=int.from_bytes(request[:4], "big")).encode())
            raw[20:24] = (9).to_bytes(4, "big")
            return bytes(raw)

        client = RPCClient(InProcessTransport(weird_server), 200000, 1)
        with pytest.raises(RPCError, match="accept_stat"):
            client.ping()
