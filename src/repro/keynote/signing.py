"""Signed KeyNote assertions (credentials).

A credential is an assertion whose Authorizer is a key and which carries a
``Signature`` field.  The signature covers the assertion text from its
first byte up to and including the colon of the ``Signature:`` label —
so any tampering with fields, whitespace or ordering invalidates it.  The
parser records that exact byte range in ``Assertion.signed_text``.
"""

from __future__ import annotations

from dataclasses import replace

from repro.crypto.dsa import DSAKeyPair
from repro.crypto.keycodec import encode_public_key, encode_signature, verify_signature
from repro.crypto.rsa import RSAKeyPair
from repro.errors import (
    AssertionSyntaxError,
    InvalidKey,
    InvalidSignature,
    SignatureVerificationError,
)
from repro.keynote.ast import Assertion
from repro.keynote.parser import parse_assertion

_SIGNATURE_LABEL = "Signature:"


def sign_assertion(body: str, key: DSAKeyPair | RSAKeyPair, hash_name: str = "sha1",
                   encoding: str = "hex") -> str:
    """Sign an assertion body, returning the complete credential text.

    ``body`` is the assertion without a Signature field; its Authorizer
    must correspond to ``key`` (checked, so you cannot accidentally issue a
    credential the verifier will reject).
    """
    return signed_assertion(body, key, hash_name, encoding).source_text


def signed_assertion(body: str, key: DSAKeyPair | RSAKeyPair, hash_name: str = "sha1",
                     encoding: str = "hex") -> Assertion:
    """:func:`sign_assertion`, returning the credential as ``parse_assertion``
    parses its text: the parse that validated the body, with the signature."""
    body = body.rstrip("\n") + "\n"
    parsed = parse_assertion(body)  # validates syntax early
    if parsed.is_policy:
        raise AssertionSyntaxError("POLICY assertions are never signed")
    if parsed.is_signed:
        raise AssertionSyntaxError("assertion is already signed")
    expected = encode_public_key(key)
    if parsed.authorizer != expected:
        raise SignatureVerificationError(
            "signing key does not match the assertion's Authorizer"
        )
    signed_text = body + _SIGNATURE_LABEL
    raw_signature = key.sign(signed_text.encode("utf-8"), hash_name=hash_name)
    identifier = encode_signature(key.algorithm, hash_name, raw_signature, encoding)
    return replace(parsed, signature=identifier, signed_text=signed_text,
                   source_text=f'{signed_text} "{identifier}"\n')


def verify_assertion(assertion: Assertion) -> None:
    """Verify a signed assertion; raises SignatureVerificationError on failure.

    Policy assertions (unsigned, local) pass trivially — local policy is
    trusted by definition (RFC 2704 section 4.6.7).
    """
    if assertion.is_policy:
        return
    if assertion.signature is None:
        raise SignatureVerificationError("credential carries no Signature field")
    if not assertion.signed_text:
        raise SignatureVerificationError(
            "assertion was not parsed from text; cannot verify"
        )
    try:
        verify_signature(assertion.authorizer,
                         assertion.signed_text.encode("utf-8"), assertion.signature)
    except InvalidKey as exc:
        raise SignatureVerificationError(
            f"authorizer is not a decodable key: {exc}"
        ) from exc
    except InvalidSignature as exc:
        raise SignatureVerificationError(
            f"credential signature is invalid: {exc}") from exc
