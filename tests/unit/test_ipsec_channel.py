"""Unit tests for the ESP-like secure channel and SAs."""

import time

import pytest

from repro.crypto.keycodec import encode_public_key
from repro.errors import IntegrityError, SAExpired
from repro.ipsec.channel import (
    _RECORD_OVERHEAD,
    SecureChannelServer,
    SecureTransport,
    _open,
    _seal,
)
from repro.ipsec.ike import IKEInitiator, IKEResponder
from repro.ipsec.sa import DirectionState, SALifetime, SecurityAssociation
from repro.rpc.transport import InProcessTransport


def make_pair(client_key, server_key, handler=None, lifetime=None):
    handler = handler or (lambda req, ident: b"echo:" + req)
    channel_server = SecureChannelServer(IKEResponder(server_key, lifetime), handler)
    transport = SecureTransport(
        InProcessTransport(channel_server.handle), IKEInitiator(client_key)
    )
    return transport, channel_server


class TestSecureTransport:
    def test_lazy_handshake_and_echo(self, alice_key, bob_key):
        transport, _server = make_pair(alice_key, bob_key)
        assert transport.sa is None
        assert transport.call(b"hello") == b"echo:hello"
        assert transport.sa is not None

    def test_identity_delivered_to_handler(self, alice_key, bob_key):
        seen = []
        transport, _server = make_pair(
            alice_key, bob_key, handler=lambda req, ident: seen.append(ident) or b"ok"
        )
        transport.call(b"x")
        assert seen == [encode_public_key(alice_key)]

    def test_many_calls(self, alice_key, bob_key):
        transport, _server = make_pair(alice_key, bob_key)
        for i in range(50):
            payload = f"msg{i}".encode()
            assert transport.call(payload) == b"echo:" + payload

    def test_payload_confidentiality(self, alice_key, bob_key):
        captured = []
        transport, server = make_pair(alice_key, bob_key)
        inner = transport._inner
        original = inner.call

        def spy(data):
            captured.append(data)
            return original(data)

        inner.call = spy
        transport.call(b"SECRET-PAYLOAD")
        assert all(b"SECRET-PAYLOAD" not in c for c in captured)

    def test_rekey_changes_sa(self, alice_key, bob_key):
        transport, server = make_pair(alice_key, bob_key)
        transport.call(b"a")
        old_spi = transport.sa.spi
        transport.rekey()
        transport.call(b"b")
        assert transport.sa.spi != old_spi
        assert len(server.active_sas) == 2  # old SA lingers until revoked/expired

    def test_empty_payloads(self, alice_key, bob_key):
        transport, _server = make_pair(alice_key, bob_key)
        assert transport.call(b"") == b"echo:"


class TestIntegrity:
    def test_flipped_bit_detected(self, alice_key, bob_key):
        transport, server = make_pair(alice_key, bob_key)
        transport.handshake()
        sa = transport.sa
        record = bytearray(_seal(sa.send, sa.spi, b"payload"))
        record[20] ^= 1
        with pytest.raises(IntegrityError):
            server.handle(bytes(record))

    def test_replay_detected(self, alice_key, bob_key):
        transport, server = make_pair(alice_key, bob_key)
        transport.handshake()
        sa = transport.sa
        record = _seal(sa.send, sa.spi, b"payload")
        server.handle(record)
        with pytest.raises(IntegrityError):
            server.handle(record)  # same sequence number

    def test_unknown_spi(self, alice_key, bob_key):
        transport, server = make_pair(alice_key, bob_key)
        transport.handshake()
        sa = transport.sa
        record = bytearray(_seal(sa.send, sa.spi, b"x"))
        record[1:5] = (0xDE, 0xAD, 0xBE, 0xEF)
        with pytest.raises(IntegrityError):
            server.handle(bytes(record))

    def test_truncated_record(self, alice_key, bob_key):
        _transport, server = make_pair(alice_key, bob_key)
        with pytest.raises(IntegrityError):
            server.handle(bytes([16]) + b"\x00" * 10)

    def test_revoke_identity_tears_down(self, alice_key, bob_key):
        transport, server = make_pair(alice_key, bob_key)
        transport.call(b"x")
        n = server.revoke_identity(encode_public_key(alice_key))
        assert n == 1
        with pytest.raises(IntegrityError):
            transport.call(b"y")


class TestSALifetime:
    def _sa(self, lifetime):
        return SecurityAssociation.derive(
            spi=1, shared_secret=b"s", nonce_i=b"i", nonce_r=b"r",
            peer_identity="peer", local_identity="me", is_initiator=True,
            lifetime=lifetime,
        )

    def test_time_expiry(self):
        sa = self._sa(SALifetime(max_seconds=0.0))
        time.sleep(0.01)
        with pytest.raises(SAExpired):
            sa.check_alive()

    def test_message_expiry(self):
        sa = self._sa(SALifetime(max_messages=3))
        for _ in range(4):
            sa.account(sa.send, 10)
        with pytest.raises(SAExpired):
            sa.check_alive()

    def test_byte_expiry(self):
        sa = self._sa(SALifetime(max_bytes=100))
        sa.account(sa.send, 200)
        with pytest.raises(SAExpired):
            sa.check_alive()

    def test_healthy_sa_passes(self):
        sa = self._sa(SALifetime())
        sa.check_alive()


class TestDirectionState:
    def test_sequence_allocation(self):
        d = DirectionState(enc_key=b"k" * 32, mac_key=b"m" * 32)
        assert d.allocate_seq() == 1
        assert d.allocate_seq() == 2

    def test_replay_window(self):
        d = DirectionState(enc_key=b"k" * 32, mac_key=b"m" * 32)
        d.accept_seq(1)
        d.accept_seq(5)
        with pytest.raises(IntegrityError):
            d.accept_seq(5)
        with pytest.raises(IntegrityError):
            d.accept_seq(3)

    def test_seal_open_roundtrip(self):
        send = DirectionState(enc_key=b"k" * 32, mac_key=b"m" * 32)
        recv = DirectionState(enc_key=b"k" * 32, mac_key=b"m" * 32)
        record = _seal(send, 42, b"the payload")
        assert _open(recv, 42, record) == b"the payload"

    def test_no_two_records_share_keystream(self):
        """The same plaintext at every seq in 1..200 gives 200 different
        ciphertexts.  (With the sequence number in the block offset and a
        32-bit block counter, seq and seq + 64 used to collide: a
        two-time pad.)"""
        send = DirectionState(enc_key=b"k" * 32, mac_key=b"m" * 32)
        recv = DirectionState(enc_key=b"k" * 32, mac_key=b"m" * 32)
        payload = b"the same sixty-four bytes of plaintext, every single record...."
        bodies = set()
        for seq in range(1, 201):
            record = _seal(send, 42, payload)
            assert record[:13] == b"\x10" + (42).to_bytes(4, "big") + seq.to_bytes(8, "big")
            assert len(record) == len(payload) + _RECORD_OVERHEAD
            bodies.add(record[13:-32])
            assert _open(recv, 42, record) == payload
        assert len(bodies) == 200

    def test_open_accepts_any_bytes_like_record(self):
        send = DirectionState(enc_key=b"k" * 32, mac_key=b"m" * 32)
        recv = DirectionState(enc_key=b"k" * 32, mac_key=b"m" * 32)
        assert _open(recv, 7, bytearray(_seal(send, 7, b"abc"))) == b"abc"
        assert _open(recv, 7, memoryview(_seal(send, 7, b"def"))) == b"def"
