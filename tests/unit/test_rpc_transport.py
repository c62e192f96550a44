"""Unit tests for RPC transports."""

import threading
import time

import pytest

from repro.errors import TransportError
from repro.rpc.transport import (
    InProcessTransport,
    PipelinedTCPTransport,
    TCPTransport,
    serve_tcp,
)

pytestmark = pytest.mark.filterwarnings(
    "error::pytest.PytestUnhandledThreadExceptionWarning")


class TestInProcessTransport:
    def test_echo(self):
        t = InProcessTransport(lambda req: req.upper())
        assert t.call(b"hello") == b"HELLO"

    def test_stats(self):
        t = InProcessTransport(lambda req: b"1234")
        t.call(b"ab")
        t.call(b"cd")
        assert t.stats.calls == 2
        assert t.stats.bytes_sent == 4
        assert t.stats.bytes_received == 8

    def test_closed_transport_rejects(self):
        t = InProcessTransport(lambda req: req)
        t.close()
        with pytest.raises(TransportError):
            t.call(b"x")


class TestTCPTransport:
    def test_roundtrip(self):
        server = serve_tcp(lambda req: b"pong:" + req)
        try:
            client = TCPTransport(*server.address)
            assert client.call(b"ping") == b"pong:ping"
            client.close()
        finally:
            server.close()

    def test_multiple_calls_one_connection(self):
        server = serve_tcp(lambda req: req[::-1])
        try:
            client = TCPTransport(*server.address)
            for payload in (b"a", b"bb" * 5000, b"ccc"):
                assert client.call(payload) == payload[::-1]
            client.close()
        finally:
            server.close()

    def test_concurrent_clients(self):
        server = serve_tcp(lambda req: req + b"!")
        try:
            clients = [TCPTransport(*server.address) for _ in range(4)]
            for i, c in enumerate(clients):
                assert c.call(f"c{i}".encode()) == f"c{i}!".encode()
            for c in clients:
                c.close()
        finally:
            server.close()

    def test_large_payload(self):
        server = serve_tcp(lambda req: req)
        try:
            client = TCPTransport(*server.address)
            blob = bytes(range(256)) * 4096  # 1 MiB
            assert client.call(blob) == blob
            client.close()
        finally:
            server.close()

    def test_call_after_server_close(self):
        server = serve_tcp(lambda req: req)
        client = TCPTransport(*server.address)
        server.close()
        with pytest.raises(TransportError):
            # First call may succeed if the record was in flight; retry
            # until the closed socket surfaces.
            for _ in range(10):
                client.call(b"x")
        client.close()


def _request(xid: int, body: bytes = b"fast") -> bytes:
    """A request the echo handlers below answer with itself; its first
    four bytes are the xid the pipelined transport matches replies on."""
    return xid.to_bytes(4, "big") + body


@pytest.mark.parametrize("transport", [TCPTransport, PipelinedTCPTransport])
class TestConnectionLifecycle:
    """A failed call drops its connection and the next call dials a new
    one, on both TCP transports; a closed transport stays closed."""

    @pytest.fixture
    def slow_echo(self):
        """An echo server that holds requests ending in ``slow`` until
        released; yields (server, release event, slow requests seen)."""
        release = threading.Event()
        seen = []

        def handler(req):
            if req.endswith(b"slow"):
                seen.append(req)
                release.wait(5.0)
            return req

        server = serve_tcp(handler)
        yield server, release, seen
        release.set()
        server.close()

    def test_late_reply_is_never_read_as_the_next(self, transport, slow_echo):
        server, release, _seen = slow_echo
        client = transport(*server.address, timeout=0.2)
        with pytest.raises(TransportError):
            client.call(_request(1, b"slow"))
        release.set()
        time.sleep(0.1)  # the late reply goes out, to a dropped connection
        for xid in range(2, 7):
            assert client.call(_request(xid)) == _request(xid)
        client.close()

    def test_failed_call_is_not_retried(self, transport, slow_echo):
        server, release, seen = slow_echo
        client = transport(*server.address, timeout=0.2)
        with pytest.raises(TransportError):
            client.call(_request(1, b"slow"))
        release.set()
        assert client.call(_request(2)) == _request(2)
        assert seen == [_request(1, b"slow")]
        client.close()

    def test_failed_redial_is_a_transport_error(self, transport):
        server = serve_tcp(lambda req: req)
        client = transport(*server.address, timeout=1.0)
        assert client.call(_request(1)) == _request(1)
        server.close()
        errors = []
        for xid in (2, 3):
            with pytest.raises(TransportError) as exc:
                client.call(_request(xid))
            errors.append(str(exc.value))
        assert "re-dial failed" in errors[-1]
        client.close()

    def test_restarted_server_is_redialed(self, transport):
        server = serve_tcp(lambda req: req)
        host, port = server.address
        client = transport(host, port, timeout=1.0)
        assert client.call(_request(1)) == _request(1)
        server.close()
        with pytest.raises(TransportError):
            client.call(_request(2))
        served = []
        server = serve_tcp(lambda req: served.append(req) or req,
                           host=host, port=port)
        try:
            for xid in range(3, 6):
                assert client.call(_request(xid)) == _request(xid)
            assert served == [_request(xid) for xid in range(3, 6)]
        finally:
            client.close()
            server.close()

    def test_close_is_idempotent_and_final(self, transport):
        server = serve_tcp(lambda req: req)
        try:
            client = transport(*server.address)
            assert client.call(_request(1)) == _request(1)
            client.close()
            client.close()
            with pytest.raises(TransportError, match="transport is closed"):
                client.call(_request(2))
        finally:
            server.close()

    def test_close_wakes_a_blocked_call(self, transport, slow_echo):
        server, _release, seen = slow_echo
        client = transport(*server.address, timeout=10.0)
        outcome = []

        def blocked_call():
            try:
                outcome.append(client.call(_request(1, b"slow")))
            except TransportError as exc:
                outcome.append(exc)

        caller = threading.Thread(target=blocked_call)
        caller.start()
        deadline = time.monotonic() + 2.0
        while not seen and time.monotonic() < deadline:
            time.sleep(0.01)
        assert seen, "the call never reached the server"
        started = time.monotonic()
        client.close()
        caller.join(timeout=2.0)
        assert not caller.is_alive()
        assert time.monotonic() - started < 2.0
        assert len(outcome) == 1 and isinstance(outcome[0], TransportError)


class TestRecordMarking:
    """The record layer itself, over a socketpair."""

    @staticmethod
    def _pair():
        import socket

        a, b = socket.socketpair()
        a.settimeout(5.0)
        b.settimeout(5.0)
        return a, b

    def test_fragments_are_reassembled(self):
        import struct

        from repro.rpc.transport import _RecordReader

        a, b = self._pair()
        with a, b:
            a.sendall(struct.pack(">I", 3) + b"abc"
                      + struct.pack(">I", 0)
                      + struct.pack(">I", 0x80000000 | 2) + b"de")
            assert _RecordReader(b).read() == b"abcde"

    def test_send_record_frames_one_last_fragment(self):
        import struct

        from repro.rpc.transport import _RecordReader, _send_record

        a, b = self._pair()
        with a, b:
            _send_record(a, b"payload")
            assert b.recv(4) == struct.pack(">I", 0x80000000 | 7)
            _send_record(a, b"")
            assert b.recv(11) == b"payload" + struct.pack(">I", 0x80000000)
            _send_record(a, bytes(range(200)))
            assert _RecordReader(b).read() == bytes(range(200))

    def test_record_without_last_fragment_is_capped(self, monkeypatch):
        """Each fragment is plausible, the record never ends: the cap is
        on what has been assembled, not on the fragment."""
        import struct
        import threading

        from repro.rpc import transport

        monkeypatch.setattr(transport, "MAX_RECORD", 1 << 16)
        a, b = self._pair()
        fragment = struct.pack(">I", 1 << 12) + bytes(1 << 12)  # never "last"

        def flood():
            try:
                for _ in range(64):  # 4x the cap
                    a.sendall(fragment)
            except OSError:
                pass  # the receiver gave up and closed, as it should

        sender = threading.Thread(target=flood, daemon=True)
        with a, b:
            sender.start()
            with pytest.raises(TransportError, match="implausible"):
                transport._RecordReader(b).read()
        sender.join(timeout=5.0)
        assert not sender.is_alive()

    def test_single_oversized_fragment_is_refused_unread(self):
        import struct

        from repro.rpc import transport

        a, b = self._pair()
        with a, b:
            a.sendall(struct.pack(">I", 0x80000000 | (transport.MAX_RECORD + 1)))
            with pytest.raises(TransportError, match="implausible"):
                transport._RecordReader(b).read()
