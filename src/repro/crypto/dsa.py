"""DSA signatures (FIPS 186).

DisCFS credentials identify principals by DSA public keys (``dsa-hex:...``)
and are signed with ``sig-dsa-sha1-hex:...`` signatures (paper Figure 5).

Design notes
------------
* Domain parameters: generating (p, q) from scratch is slow in Python, so a
  precomputed 1024/160-bit parameter set is provided
  (:data:`DEFAULT_PARAMETERS`).  Custom parameters can be generated with
  :func:`generate_parameters` when reproducibility across parameter sets is
  being tested.
* Nonces are derived deterministically from (private key, message digest)
  in the spirit of RFC 6979, which makes signatures reproducible and
  removes the catastrophic repeated-k failure mode.
* Every exponentiation on the request path — ``g^k`` in a sign, ``g^u1``
  and ``y^u2`` in a verify, ``g^x`` in key generation — is libcrypto's
  ``BN_mod_exp`` (:func:`repro.crypto.libcrypto.modexp`), about 0.1 ms
  for a 160-bit exponent mod the 1024-bit ``p`` instead of about 0.8 ms
  for ``pow``.  Every parameter set takes the same path, so a key
  holder's own parameters cost what the library group costs and allocate
  nothing that outlives the call.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.crypto import numbers
from repro.crypto.hashes import digest
from repro.crypto.libcrypto import modexp
from repro.crypto.numbers import RandomBits, default_random_bits
from repro.errors import CryptoError, InvalidKey, InvalidSignature


@dataclass(frozen=True)
class DSAParameters:
    """DSA domain parameters (p, q, g)."""

    p: int
    q: int
    g: int

    def validate(self) -> None:
        if (self.p - 1) % self.q != 0:
            raise InvalidKey("q does not divide p-1")
        if not 1 < self.g < self.p:
            raise InvalidKey("generator out of range")
        if self.gpow(self.q) != 1:
            raise InvalidKey("generator does not have order q")

    def gpow(self, e: int) -> int:
        """``g^e mod p`` for ``0 <= e <= q``."""
        if not 0 <= e <= self.q:
            raise CryptoError("generator exponent outside [0, q]")
        return modexp(self.g, e, self.p)


# A fixed, verified 1024/160-bit parameter set (generated once with this
# module's generate_parameters and checked by validate() in the tests).
# Using fixed parameters mirrors common practice (openssl dsaparam reuse)
# and keeps key generation fast.
DEFAULT_PARAMETERS = DSAParameters(
    p=int(
        "818bb68a58223fcde658b748a3295dc39963446957efb856624f6654a9dcbb1d"
        "39251bdfa4e23d5ba1ca9e6a6ba88f97aa87dec589d9ba021ed3eb09facacd9b"
        "0087030e96f9029c33e1e40ecf03ce83980f3724c9627ebe15f8bf922cb107cf"
        "d68693d83b89f68bd98034c7cb191e74a24f661ab166ef03623618081586d0d1",
        16,
    ),
    q=int("87cf54a65faf0baf25d60265b77b9fc34d753c71", 16),
    g=int(
        "4103afb25cf72a9c79592b57f58b324c72e006c5756daed8a8878e81a83f3f6b"
        "041ddc5be10a6d78d85c890db29948d7a039ac5a05b254cea38bb3222b9a07b0"
        "ffad721f98d59128f8f5899d35129b14419ea686d877882028f9ed8374e2e48d"
        "7b198c4b41cf54d6f9d316781ef7b3432f3e0e1af6706dde78ebe561bb687909",
        16,
    ),
)

def generate_parameters(
    pbits: int = 1024, qbits: int = 160, rand: RandomBits = default_random_bits
) -> DSAParameters:
    """Generate fresh DSA domain parameters.

    Slow for 1024-bit p in pure Python (seconds); intended for offline use
    and for tests that exercise non-default parameter sets at small sizes.
    """
    q = numbers.generate_prime(qbits, rand=rand)
    # Find p = k*q + 1 prime with the requested size.
    while True:
        k = rand(pbits - qbits) | (1 << (pbits - qbits - 1))
        p = k * q + 1
        if p.bit_length() == pbits and numbers.is_probable_prime(p, rand=rand):
            break
    # Generator of the order-q subgroup.
    while True:
        h = 2 + rand(pbits) % (p - 3)
        g = pow(h, (p - 1) // q, p)
        if g > 1:
            params = DSAParameters(p=p, q=q, g=g)
            params.validate()
            return params


@dataclass(frozen=True)
class DSAPublicKey:
    """A DSA public key: y = g^x mod p."""

    params: DSAParameters
    y: int

    algorithm = "dsa"

    def verify(self, message: bytes, signature: tuple[int, int], hash_name: str = "sha1") -> None:
        """Verify ``signature`` over ``message``; raise InvalidSignature on
        failure, whatever numbers a submitted (unvalidated) key carries."""
        p, q = self.params.p, self.params.q
        r, s = signature
        if not (0 < r < q and 0 < s < q) or p < 2:
            raise InvalidSignature("signature components or modulus out of range")
        h = _truncated_digest(hash_name, message, q)
        try:
            w = numbers.modinv(s, q)
        except ValueError:  # a composite q
            raise InvalidSignature("s has no inverse mod q") from None
        u1 = (h * w) % q
        u2 = (r * w) % q
        v = ((self.params.gpow(u1) * modexp(self.y, u2, p)) % p) % q
        if v != r:
            raise InvalidSignature("DSA signature mismatch")

    def fingerprint(self) -> str:
        """Short stable identifier used in logs and revocation lists."""
        material = f"{self.params.p:x}:{self.params.q:x}:{self.params.g:x}:{self.y:x}"
        return hashlib.sha256(material.encode("ascii")).hexdigest()[:16]


@dataclass(frozen=True)
class DSAKeyPair:
    """A DSA private/public key pair."""

    params: DSAParameters
    x: int
    y: int

    algorithm = "dsa"

    @property
    def public(self) -> DSAPublicKey:
        return DSAPublicKey(params=self.params, y=self.y)

    def sign(self, message: bytes, hash_name: str = "sha1") -> tuple[int, int]:
        """Sign ``message``, returning (r, s).

        The nonce k is derived deterministically from (x, digest) so equal
        inputs produce equal signatures — convenient for tests and safe
        against nonce reuse across distinct messages.
        """
        q = self.params.q
        h = _truncated_digest(hash_name, message, q)
        counter = 0
        while True:
            k = _derive_nonce(self.x, h, q, counter)
            counter += 1
            r = self.params.gpow(k) % q
            if r == 0:
                continue
            s = (numbers.modinv(k, q) * (h + self.x * r)) % q
            if s == 0:
                continue
            return (r, s)


def _truncated_digest(hash_name: str, message: bytes, q: int) -> int:
    """Leftmost min(hash_bits, qbits) bits of the digest, per FIPS 186-4."""
    d = digest(hash_name, message)
    h = int.from_bytes(d, "big")
    excess = len(d) * 8 - q.bit_length()
    if excess > 0:
        h >>= excess
    return h


def _derive_nonce(x: int, h: int, q: int, counter: int) -> int:
    """Deterministic nonce in [1, q-1] from the private key and digest."""
    material = (
        x.to_bytes((x.bit_length() + 7) // 8 or 1, "big")
        + h.to_bytes((h.bit_length() + 7) // 8 or 1, "big")
        + counter.to_bytes(4, "big")
    )
    out = b""
    i = 0
    nbytes = (q.bit_length() + 7) // 8 + 8  # extra bytes to reduce bias
    while len(out) < nbytes:
        out += hashlib.sha256(material + i.to_bytes(4, "big")).digest()
        i += 1
    return 1 + int.from_bytes(out[:nbytes], "big") % (q - 1)


def generate_dsa_keypair(
    params: DSAParameters = DEFAULT_PARAMETERS,
    rand: RandomBits = default_random_bits,
) -> DSAKeyPair:
    """Generate a DSA key pair under ``params``."""
    params.validate()
    x = 1 + rand(params.q.bit_length() + 64) % (params.q - 1)
    y = params.gpow(x)
    return DSAKeyPair(params=params, x=x, y=y)
