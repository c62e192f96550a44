"""Unit tests for RPC transports."""

import pytest

from repro.errors import TransportError
from repro.rpc.transport import InProcessTransport, TCPTransport, serve_tcp

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

        from repro.rpc.transport import _recv_record

        a, b = self._pair()
        with a, b:
            a.sendall(struct.pack(">I", 3) + b"abc"
                      + struct.pack(">I", 0)
                      + struct.pack(">I", 0x80000000 | 2) + b"de")
            assert _recv_record(b) == b"abcde"

    def test_send_record_frames_one_last_fragment(self):
        import struct

        from repro.rpc.transport import _recv_record, _send_record

        a, b = self._pair()
        with a, b:
            _send_record(a, b"payload")
            assert b.recv(4) == struct.pack(">I", 0x80000000 | 7)
            _send_record(a, b"")
            assert b.recv(11) == b"payload" + struct.pack(">I", 0x80000000)
            _send_record(a, bytes(range(200)))
            assert _recv_record(b) == bytes(range(200))

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
                transport._recv_record(b)
        sender.join(timeout=5.0)
        assert not sender.is_alive()

    def test_single_oversized_fragment_is_refused_unread(self):
        import struct

        from repro.rpc import transport

        a, b = self._pair()
        with a, b:
            a.sendall(struct.pack(">I", 0x80000000 | (transport.MAX_RECORD + 1)))
            with pytest.raises(TransportError, match="implausible"):
                transport._recv_record(b)
