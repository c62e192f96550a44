"""DSA with one ``pow`` per exponentiation: the test-only reference.

This is the signing, verifying, key-generation and validation code
``repro.crypto.dsa`` had before every power of the generator went through
``DSAParameters.gpow`` and its comb table.  It stays here, unchanged in
its arithmetic, as what the table-driven code is compared against
(``tests/property/test_prop_dsa.py``, ``benchmarks/test_ablation_dsa.py``).
The digest truncation and the nonce derivation did not change, so they
are shared with the library.
"""

from __future__ import annotations

from repro.crypto import numbers
from repro.crypto.dsa import (
    DEFAULT_PARAMETERS,
    DSAKeyPair,
    DSAParameters,
    DSAPublicKey,
    _derive_nonce,
    _truncated_digest,
)
from repro.crypto.numbers import RandomBits, default_random_bits
from repro.errors import InvalidKey, InvalidSignature


def reference_validate(params: DSAParameters) -> None:
    """``params.validate()`` with the order check as a ``pow``."""
    if (params.p - 1) % params.q != 0:
        raise InvalidKey("q does not divide p-1")
    if not 1 < params.g < params.p:
        raise InvalidKey("generator out of range")
    if pow(params.g, params.q, params.p) != 1:
        raise InvalidKey("generator does not have order q")


def reference_sign(key: DSAKeyPair, message: bytes,
                   hash_name: str = "sha1") -> tuple[int, int]:
    """``key.sign(message, hash_name)`` with ``r = pow(g, k, p) % q``."""
    p, q, g = key.params.p, key.params.q, key.params.g
    h = _truncated_digest(hash_name, message, q)
    counter = 0
    while True:
        k = _derive_nonce(key.x, h, q, counter)
        counter += 1
        r = pow(g, k, p) % q
        if r == 0:
            continue
        s = (numbers.modinv(k, q) * (h + key.x * r)) % q
        if s == 0:
            continue
        return (r, s)


def reference_verify(key: DSAPublicKey, message: bytes,
                     signature: tuple[int, int], hash_name: str = "sha1") -> None:
    """``key.verify(...)`` with ``g^u1`` as a ``pow``; raises InvalidSignature."""
    p, q, g = key.params.p, key.params.q, key.params.g
    r, s = signature
    if not (0 < r < q and 0 < s < q):
        raise InvalidSignature("signature components out of range")
    h = _truncated_digest(hash_name, message, q)
    w = numbers.modinv(s, q)
    u1 = (h * w) % q
    u2 = (r * w) % q
    v = ((pow(g, u1, p) * pow(key.y, u2, p)) % p) % q
    if v != r:
        raise InvalidSignature("DSA signature mismatch")


def reference_keypair(params: DSAParameters = DEFAULT_PARAMETERS,
                      rand: RandomBits = default_random_bits) -> DSAKeyPair:
    """``generate_dsa_keypair(params, rand)`` with ``y = pow(g, x, p)``."""
    reference_validate(params)
    x = 1 + rand(params.q.bit_length() + 64) % (params.q - 1)
    return DSAKeyPair(params=params, x=x, y=pow(params.g, x, params.p))
