"""RSA signatures (PKCS#1 v1.5 style).

KeyNote (RFC 2704) defines ``rsa-hex:`` keys and ``sig-rsa-sha1-hex:``
signatures alongside DSA; DisCFS can use either.  The benchmark suite uses
both to compare credential-verification costs (see
``benchmarks/test_micro_ops.py``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.crypto import numbers
from repro.crypto.hashes import digest
from repro.crypto.libcrypto import modexp
from repro.crypto.numbers import RandomBits, default_random_bits
from repro.errors import InvalidKey, InvalidSignature

# DigestInfo prefixes for EMSA-PKCS1-v1_5 (RFC 8017 §9.2 notes).
_DIGEST_INFO_PREFIX = {
    "sha1": bytes.fromhex("3021300906052b0e03021a05000414"),
    "sha256": bytes.fromhex("3031300d060960864801650304020105000420"),
    "md5": bytes.fromhex("3020300c06082a864886f70d020505000410"),
}


@dataclass(frozen=True)
class RSAPublicKey:
    """An RSA public key (n, e)."""

    n: int
    e: int

    algorithm = "rsa"

    def verify(self, message: bytes, signature: int, hash_name: str = "sha1") -> None:
        """Verify a PKCS#1 v1.5 signature; raise InvalidSignature on failure."""
        k = (self.n.bit_length() + 7) // 8
        if not 0 <= signature < self.n:
            raise InvalidSignature("signature out of range")
        em = modexp(signature, self.e, self.n).to_bytes(k, "big")
        expected = _emsa_pkcs1_v15(message, k, hash_name)
        if em != expected:
            raise InvalidSignature("RSA signature mismatch")

    def fingerprint(self) -> str:
        material = f"{self.n:x}:{self.e:x}"
        return hashlib.sha256(material.encode("ascii")).hexdigest()[:16]


@dataclass(frozen=True)
class RSAKeyPair:
    """An RSA private key with its public components."""

    n: int
    e: int
    d: int
    p: int
    q: int

    algorithm = "rsa"

    @property
    def public(self) -> RSAPublicKey:
        return RSAPublicKey(n=self.n, e=self.e)

    def sign(self, message: bytes, hash_name: str = "sha1") -> int:
        k = (self.n.bit_length() + 7) // 8
        em = _emsa_pkcs1_v15(message, k, hash_name)
        m = int.from_bytes(em, "big")
        # CRT for speed.
        dp = self.d % (self.p - 1)
        dq = self.d % (self.q - 1)
        qinv = numbers.modinv(self.q, self.p)
        m1 = modexp(m, dp, self.p)
        m2 = modexp(m, dq, self.q)
        h = (qinv * (m1 - m2)) % self.p
        return m2 + h * self.q


def _emsa_pkcs1_v15(message: bytes, em_len: int, hash_name: str) -> bytes:
    """EMSA-PKCS1-v1_5 encoding: 0x00 0x01 FF..FF 0x00 DigestInfo."""
    hash_name = hash_name.lower()
    if hash_name not in _DIGEST_INFO_PREFIX:
        raise InvalidKey(f"unsupported hash for RSA: {hash_name!r}")
    t = _DIGEST_INFO_PREFIX[hash_name] + digest(hash_name, message)
    if em_len < len(t) + 11:
        raise InvalidKey("RSA modulus too small for this digest")
    ps = b"\xff" * (em_len - len(t) - 3)
    return b"\x00\x01" + ps + b"\x00" + t


def generate_rsa_keypair(
    bits: int = 1024, e: int = 65537, rand: RandomBits = default_random_bits
) -> RSAKeyPair:
    """Generate an RSA key pair with modulus of roughly ``bits`` bits."""
    if bits < 512:
        raise InvalidKey("RSA modulus must be at least 512 bits")
    half = bits // 2
    while True:
        p = numbers.generate_prime(half, rand=rand)
        q = numbers.generate_prime(bits - half, rand=rand)
        if p == q:
            continue
        n = p * q
        phi = (p - 1) * (q - 1)
        try:
            d = numbers.modinv(e, phi)
        except ValueError:
            continue
        return RSAKeyPair(n=n, e=e, d=d, p=p, q=q)
