"""Hostile DSA key numbers: a verify under them is a refusal, never a crash.

A peer's identity in an IKE exchange and the authorizer of a submitted
credential are public keys the peer chose.  Their ``(p, q, g, y)`` are not
validated (a primality test per verify would cost more than the verify),
so ``DSAPublicKey.verify`` must turn any numbers — a composite ``q`` that
leaves ``s`` without an inverse, a modulus below 2 — into
``InvalidSignature``, which every caller already turns into its own typed
refusal.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.credentials import issue_credential
from repro.core.permissions import PERMISSION_VALUES
from repro.core.policy import PolicyEngine
from repro.crypto.dsa import DSAParameters, DSAPublicKey
from repro.crypto.keycodec import encode_public_key, encode_signature, verify_signature
from repro.errors import CredentialError, HandshakeError, InvalidSignature
from repro.ipsec import ike
from repro.ipsec.ike import MSG_DONE, IKEInitiator, IKEResponder

#: ``q = 4`` is composite and ``s = 2`` has no inverse mod 4.
HOSTILE = DSAPublicKey(DSAParameters(p=23, q=4, g=2), y=3)
HOSTILE_SIGNATURE = encode_signature("dsa", "sha1", (1, 2))


def _verify_or_refuse(verify) -> None:
    try:
        verify()
    except InvalidSignature:
        pass


small = st.integers(min_value=0, max_value=64)


@settings(max_examples=500, deadline=None)
@given(small, small, small, small, small, small)
def test_any_small_key_verifies_or_is_refused(p, q, g, y, r, s):
    identity = encode_public_key(DSAPublicKey(DSAParameters(p=p, q=q, g=g), y))
    _verify_or_refuse(lambda: verify_signature(
        identity, b"message", encode_signature("dsa", "sha1", (r, s))))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(min_value=-8, max_value=1 << 40), min_size=6,
                max_size=6))
def test_any_key_numbers_verify_or_are_refused(numbers):
    """Straight into ``verify``: negative and unencodable numbers too."""
    p, q, g, y, r, s = numbers
    key = DSAPublicKey(DSAParameters(p=p, q=q, g=g), y)
    _verify_or_refuse(lambda: key.verify(b"message", (r, s)))


def test_a_non_invertible_s_is_an_invalid_signature():
    with pytest.raises(InvalidSignature, match="inverse"):
        verify_signature(encode_public_key(HOSTILE), b"m", HOSTILE_SIGNATURE)


@pytest.mark.parametrize("p", [0, 1])
def test_a_modulus_below_two_is_an_invalid_signature(p):
    key = DSAPublicKey(DSAParameters(p=p, q=11, g=2), y=3)
    with pytest.raises(InvalidSignature, match="modulus"):
        verify_signature(encode_public_key(key), b"m",
                         encode_signature("dsa", "sha1", (1, 2)))


def test_ike_confirm_under_a_hostile_identity_is_a_handshake_error(alice_key,
                                                                   bob_key):
    """The initiator names the hostile key in INIT and signs CONFIRM with
    ``(1, 2)``: the responder refuses the exchange, typed, and completes
    the next one."""
    responder = IKEResponder(bob_key)
    initiator = IKEInitiator(alice_key)
    initiator.identity = encode_public_key(HOSTILE)
    resp = responder.handle_init(initiator.initiate())
    confirm, _sa = initiator.handle_response(resp)
    spi, _signature = ike._unpack_fields(confirm[1:], 2)
    forged = bytes([ike.MSG_CONFIRM]) + ike._pack_fields(
        spi, HOSTILE_SIGNATURE.encode("ascii"))
    with pytest.raises(HandshakeError, match="signature invalid"):
        responder.handle_confirm(forged)

    honest = IKEInitiator(alice_key)
    confirm, _sa = honest.handle_response(responder.handle_init(honest.initiate()))
    done, _sa = responder.handle_confirm(confirm)
    assert done[0] == MSG_DONE


def test_credential_under_a_hostile_authorizer_is_a_credential_error(admin_key,
                                                                    alice_key):
    cred = issue_credential(alice_key, "dsa-hex:00", handle="1", rights="R")
    forged = cred.replace(encode_public_key(alice_key), encode_public_key(HOSTILE))
    forged = re.sub(r'sig-dsa-sha1-hex:[0-9a-f]+', HOSTILE_SIGNATURE, forged)
    assert HOSTILE_SIGNATURE in forged
    engine = PolicyEngine(
        f'Authorizer: "POLICY"\nLicensees: "{encode_public_key(admin_key)}"\n',
        PERMISSION_VALUES)
    with pytest.raises(CredentialError, match="signature is invalid"):
        engine.intake(forged)
