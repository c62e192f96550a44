"""KeyNote key and signature encodings.

RFC 2704 represents principals as ``ALGORITHM:ENCODED_BITS`` strings, e.g.::

    "dsa-hex:3081de0240503ca3..."
    "rsa-base64:MIGfMA0GCSqGSIb3..."

and signatures as ``sig-ALGORITHM-HASH-ENCODING:...``, e.g.
``sig-dsa-sha1-hex:302e0215...`` (paper Figure 5 shows both forms).

The original implementation carried ASN.1 DER blobs.  We use a simple
self-describing integer-sequence encoding (length-prefixed big-endian
integers) inside the hex/base64 payload; the *external* identifier syntax —
which is what KeyNote parsing, principal comparison and the paper's
credentials depend on — matches RFC 2704.
"""

from __future__ import annotations

import base64
import binascii

from repro.crypto.dsa import DSAKeyPair, DSAParameters, DSAPublicKey
from repro.crypto.rsa import RSAKeyPair, RSAPublicKey
from repro.errors import InvalidKey, InvalidSignature

__all__ = [
    "encode_public_key",
    "encode_private_key",
    "decode_key",
    "encode_signature",
    "decode_signature",
    "is_key_identifier",
    "signature_scheme",
]


def _pack_ints(values: list[int]) -> bytes:
    """Length-prefixed big-endian integer sequence."""
    out = bytearray()
    for v in values:
        if v < 0:
            raise InvalidKey("cannot encode negative integer")
        raw = v.to_bytes(max(1, (v.bit_length() + 7) // 8), "big")
        out += len(raw).to_bytes(4, "big")
        out += raw
    return bytes(out)


def _unpack_ints(data: bytes) -> list[int]:
    values = []
    pos = 0
    while pos < len(data):
        if pos + 4 > len(data):
            raise InvalidKey("truncated integer sequence")
        length = int.from_bytes(data[pos : pos + 4], "big")
        pos += 4
        if pos + length > len(data):
            raise InvalidKey("truncated integer sequence")
        values.append(int.from_bytes(data[pos : pos + length], "big"))
        pos += length
    return values


def _encode_payload(raw: bytes, encoding: str) -> str:
    if encoding == "hex":
        return raw.hex()
    if encoding == "base64":
        return base64.b64encode(raw).decode("ascii")
    raise InvalidKey(f"unsupported encoding: {encoding!r}")


def _decode_payload(payload: str, encoding: str) -> bytes:
    try:
        if encoding == "hex":
            return bytes.fromhex(payload)
        if encoding == "base64":
            return base64.b64decode(payload.encode("ascii"), validate=True)
    except (ValueError, binascii.Error) as exc:
        raise InvalidKey(f"malformed {encoding} payload") from exc
    raise InvalidKey(f"unsupported encoding: {encoding!r}")


# Payload type tags distinguishing public and private key material.
_TAG_DSA_PUB = 1
_TAG_DSA_PRIV = 2
_TAG_RSA_PUB = 3
_TAG_RSA_PRIV = 4


def encode_public_key(key: DSAPublicKey | DSAKeyPair | RSAPublicKey | RSAKeyPair,
                      encoding: str = "hex") -> str:
    """Encode a public key as a KeyNote principal identifier.

    Key pairs are accepted and their public half is encoded.
    """
    if isinstance(key, DSAKeyPair):
        key = key.public
    if isinstance(key, RSAKeyPair):
        key = key.public
    if isinstance(key, DSAPublicKey):
        raw = _pack_ints([_TAG_DSA_PUB, key.params.p, key.params.q, key.params.g, key.y])
        return f"dsa-{encoding}:{_encode_payload(raw, encoding)}"
    if isinstance(key, RSAPublicKey):
        raw = _pack_ints([_TAG_RSA_PUB, key.n, key.e])
        return f"rsa-{encoding}:{_encode_payload(raw, encoding)}"
    raise InvalidKey(f"cannot encode object of type {type(key).__name__}")


def encode_private_key(key: DSAKeyPair | RSAKeyPair, encoding: str = "hex") -> str:
    """Encode a private key (for key files used by clients/examples)."""
    if isinstance(key, DSAKeyPair):
        raw = _pack_ints(
            [_TAG_DSA_PRIV, key.params.p, key.params.q, key.params.g, key.x, key.y]
        )
        return f"dsa-{encoding}:{_encode_payload(raw, encoding)}"
    if isinstance(key, RSAKeyPair):
        raw = _pack_ints([_TAG_RSA_PRIV, key.n, key.e, key.d, key.p, key.q])
        return f"rsa-{encoding}:{_encode_payload(raw, encoding)}"
    raise InvalidKey(f"cannot encode object of type {type(key).__name__}")


def decode_key(identifier: str):
    """Decode a KeyNote key identifier to a key object.

    Returns a public key or key pair depending on the payload tag.
    """
    identifier = identifier.strip()
    if ":" not in identifier:
        raise InvalidKey(f"not a key identifier: {identifier!r}")
    algo_enc, payload = identifier.split(":", 1)
    parts = algo_enc.lower().split("-")
    if len(parts) != 2:
        raise InvalidKey(f"malformed key algorithm: {algo_enc!r}")
    algorithm, encoding = parts
    raw = _decode_payload(payload, encoding)
    values = _unpack_ints(raw)
    if not values:
        raise InvalidKey("empty key payload")
    tag, rest = values[0], values[1:]
    if algorithm == "dsa" and tag == _TAG_DSA_PUB and len(rest) == 4:
        p, q, g, y = rest
        return DSAPublicKey(params=DSAParameters(p=p, q=q, g=g), y=y)
    if algorithm == "dsa" and tag == _TAG_DSA_PRIV and len(rest) == 5:
        p, q, g, x, y = rest
        return DSAKeyPair(params=DSAParameters(p=p, q=q, g=g), x=x, y=y)
    if algorithm == "rsa" and tag == _TAG_RSA_PUB and len(rest) == 2:
        n, e = rest
        return RSAPublicKey(n=n, e=e)
    if algorithm == "rsa" and tag == _TAG_RSA_PRIV and len(rest) == 5:
        n, e, d, p, q = rest
        return RSAKeyPair(n=n, e=e, d=d, p=p, q=q)
    raise InvalidKey(f"key payload does not match algorithm {algorithm!r}")


def is_key_identifier(text: str) -> bool:
    """True if ``text`` looks like an ``algo-encoding:payload`` principal.

    KeyNote distinguishes keys from opaque principal names by this syntax.
    """
    if ":" not in text:
        return False
    prefix = text.split(":", 1)[0].lower()
    parts = prefix.split("-")
    return len(parts) == 2 and parts[0] in ("dsa", "rsa") and parts[1] in ("hex", "base64")


def encode_signature(algorithm: str, hash_name: str, signature, encoding: str = "hex") -> str:
    """Encode a signature value as ``sig-ALGO-HASH-ENC:payload``."""
    if algorithm == "dsa":
        r, s = signature
        raw = _pack_ints([r, s])
    elif algorithm == "rsa":
        raw = _pack_ints([int(signature)])
    else:
        raise InvalidSignature(f"unsupported signature algorithm: {algorithm!r}")
    return f"sig-{algorithm}-{hash_name}-{encoding}:{_encode_payload(raw, encoding)}"


def signature_scheme(identifier: str) -> tuple[str, str, str]:
    """Split ``sig-ALGO-HASH-ENC:...`` into (algorithm, hash, encoding)."""
    if ":" not in identifier:
        raise InvalidSignature(f"not a signature identifier: {identifier!r}")
    prefix = identifier.split(":", 1)[0].lower()
    parts = prefix.split("-")
    if len(parts) != 4 or parts[0] != "sig":
        raise InvalidSignature(f"malformed signature scheme: {prefix!r}")
    return parts[1], parts[2], parts[3]


def verify_signature(identity: str, message: bytes, signature: str) -> None:
    """Check the signature identifier ``signature`` over ``message``
    against the key identifier ``identity`` (a key pair's public half).

    Raises :class:`InvalidKey` if ``identity`` names no key and
    :class:`InvalidSignature` for any other failure.
    """
    key = decode_key(identity)
    public = getattr(key, "public", key)
    algorithm, hash_name, _enc = signature_scheme(signature)
    if algorithm != public.algorithm:
        raise InvalidSignature(f"signature algorithm {algorithm!r} does not "
                               f"match key type {public.algorithm!r}")
    public.verify(message, decode_signature(signature), hash_name=hash_name)


def decode_signature(identifier: str):
    """Decode a signature identifier to its numeric value(s).

    All malformations raise :class:`InvalidSignature` (never InvalidKey),
    so signature-verification paths need only one except clause.
    """
    algorithm, _hash, encoding = signature_scheme(identifier)
    payload = identifier.split(":", 1)[1]
    try:
        raw = _decode_payload(payload, encoding)
        values = _unpack_ints(raw)
    except InvalidKey as exc:
        raise InvalidSignature(f"malformed signature payload: {exc}") from exc
    if algorithm == "dsa":
        if len(values) != 2:
            raise InvalidSignature("DSA signature must contain (r, s)")
        return (values[0], values[1])
    if algorithm == "rsa":
        if len(values) != 1:
            raise InvalidSignature("RSA signature must contain one integer")
        return values[0]
    raise InvalidSignature(f"unsupported signature algorithm: {algorithm!r}")
