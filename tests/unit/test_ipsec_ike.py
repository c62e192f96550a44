"""Unit tests for the IKE-style handshake."""

import pytest

from repro.crypto.keycodec import encode_public_key
from repro.errors import HandshakeError
from repro.ipsec import ike
from repro.ipsec.ike import IKEInitiator, IKEResponder, MSG_DONE


def complete_handshake(initiator_key, responder_key):
    initiator = IKEInitiator(initiator_key)
    responder = IKEResponder(responder_key)
    init = initiator.initiate()
    resp = responder.handle_init(init)
    confirm, client_sa = initiator.handle_response(resp)
    done, server_sa = responder.handle_confirm(confirm)
    assert done[0] == MSG_DONE
    return client_sa, server_sa


class TestHandshake:
    def test_mutual_identity_binding(self, alice_key, bob_key):
        client_sa, server_sa = complete_handshake(alice_key, bob_key)
        assert client_sa.peer_identity == encode_public_key(bob_key)
        assert server_sa.peer_identity == encode_public_key(alice_key)
        assert client_sa.spi == server_sa.spi

    def test_keys_agree_crosswise(self, alice_key, bob_key):
        client_sa, server_sa = complete_handshake(alice_key, bob_key)
        assert client_sa.send.enc_key == server_sa.recv.enc_key
        assert client_sa.recv.enc_key == server_sa.send.enc_key
        assert client_sa.send.mac_key == server_sa.recv.mac_key

    def test_directions_have_distinct_keys(self, alice_key, bob_key):
        client_sa, _ = complete_handshake(alice_key, bob_key)
        assert client_sa.send.enc_key != client_sa.recv.enc_key
        assert client_sa.send.enc_key != client_sa.send.mac_key

    def test_fresh_keys_per_handshake(self, alice_key, bob_key):
        sa1, _ = complete_handshake(alice_key, bob_key)
        sa2, _ = complete_handshake(alice_key, bob_key)
        assert sa1.send.enc_key != sa2.send.enc_key

    def test_rsa_identity_works(self, rsa_key, bob_key):
        client_sa, server_sa = complete_handshake(rsa_key, bob_key)
        assert server_sa.peer_identity == encode_public_key(rsa_key)


class TestHandshakeFailures:
    def test_tampered_responder_signature(self, alice_key, bob_key):
        initiator = IKEInitiator(alice_key)
        responder = IKEResponder(bob_key)
        resp = bytearray(responder.handle_init(initiator.initiate()))
        resp[-1] ^= 1
        with pytest.raises(HandshakeError):
            initiator.handle_response(bytes(resp))

    def test_tampered_initiator_signature(self, alice_key, bob_key):
        initiator = IKEInitiator(alice_key)
        responder = IKEResponder(bob_key)
        resp = responder.handle_init(initiator.initiate())
        confirm, _sa = initiator.handle_response(resp)
        tampered = bytearray(confirm)
        tampered[-1] ^= 1
        with pytest.raises(HandshakeError):
            responder.handle_confirm(bytes(tampered))

    def test_unknown_spi_confirm(self, alice_key, bob_key):
        initiator = IKEInitiator(alice_key)
        responder = IKEResponder(bob_key)
        resp = responder.handle_init(initiator.initiate())
        confirm, _sa = initiator.handle_response(resp)
        fresh_responder = IKEResponder(bob_key)
        with pytest.raises(HandshakeError):
            fresh_responder.handle_confirm(confirm)

    def test_confirm_replay_rejected(self, alice_key, bob_key):
        initiator = IKEInitiator(alice_key)
        responder = IKEResponder(bob_key)
        resp = responder.handle_init(initiator.initiate())
        confirm, _sa = initiator.handle_response(resp)
        responder.handle_confirm(confirm)
        with pytest.raises(HandshakeError):  # half-open state consumed
            responder.handle_confirm(confirm)

    def test_wrong_message_types(self, alice_key, bob_key):
        responder = IKEResponder(bob_key)
        with pytest.raises(HandshakeError):
            responder.handle_init(b"\x63garbage")
        with pytest.raises(HandshakeError):
            responder.handle_confirm(b"")
        initiator = IKEInitiator(alice_key)
        initiator.initiate()
        with pytest.raises(HandshakeError):
            initiator.handle_response(b"\x01notresp")

    def test_truncated_messages(self, alice_key, bob_key):
        initiator = IKEInitiator(alice_key)
        responder = IKEResponder(bob_key)
        init = initiator.initiate()
        with pytest.raises(HandshakeError):
            responder.handle_init(init[: len(init) // 2])

    def test_out_of_range_dh_value(self, alice_key, bob_key):
        from repro.ipsec import ike

        responder = IKEResponder(bob_key)
        # INIT with g^x = 1 (degenerate subgroup element)
        nonce = b"n" * 16
        identity = encode_public_key(alice_key).encode()
        body = ike._pack_fields(nonce, b"\x01", identity)
        with pytest.raises(HandshakeError):
            responder.handle_init(bytes([ike.MSG_INIT]) + body)


class TestHalfOpenTable:
    def test_unanswered_inits_leave_a_bounded_table(self, alice_key, bob_key, monkeypatch):
        responder = IKEResponder(bob_key)
        init = IKEInitiator(alice_key).initiate()
        with monkeypatch.context() as cheap:
            # What an INIT costs the responder (two modexps, a signature)
            # is beside the point here; 10 000 of them at full price is
            # most of a minute.
            cheap.setattr(ike.secrets, "randbelow", lambda n: 0)
            cheap.setattr(ike, "_sign", lambda key, message: b"unsigned")
            for _ in range(10_000):
                responder.handle_init(init)
        assert len(responder._half_open) == ike.MAX_HALF_OPEN

        initiator = IKEInitiator(alice_key)
        confirm, client_sa = initiator.handle_response(
            responder.handle_init(initiator.initiate()))
        done, server_sa = responder.handle_confirm(confirm)
        assert done[0] == MSG_DONE
        assert client_sa.send.enc_key == server_sa.recv.enc_key
        assert len(responder._half_open) == ike.MAX_HALF_OPEN - 1

    def test_oldest_half_open_exchange_goes_first(self, alice_key, bob_key, monkeypatch):
        monkeypatch.setattr(ike, "MAX_HALF_OPEN", 2)
        responder = IKEResponder(bob_key)
        pending = []
        for _ in range(3):
            initiator = IKEInitiator(alice_key)
            pending.append(initiator.handle_response(
                responder.handle_init(initiator.initiate()))[0])
        with pytest.raises(HandshakeError):
            responder.handle_confirm(pending[0])  # pushed out by the third
        assert responder.handle_confirm(pending[2])[0][0] == MSG_DONE
        assert responder.handle_confirm(pending[1])[0][0] == MSG_DONE

    def test_initiator_sends_the_dh_value_it_signs(self, alice_key, bob_key, monkeypatch):
        """``handle_response`` reuses g^x from ``initiate``: one modexp
        with the group generator per handshake on the initiator's side."""
        calls = []
        real_pow = pow

        def counting_pow(base, exp, mod):
            calls.append(base)
            return real_pow(base, exp, mod)

        monkeypatch.setattr(ike, "pow", counting_pow, raising=False)
        initiator = IKEInitiator(alice_key)
        responder = IKEResponder(bob_key)
        resp = responder.handle_init(initiator.initiate())
        before = len(calls)
        initiator.handle_response(resp)
        assert len(calls) - before == 1  # the shared secret, nothing else
