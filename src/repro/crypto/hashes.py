"""Hash and MAC helpers shared by signatures, the channel, and CFS.

Thin, named wrappers over :mod:`hashlib` so the rest of the code refers to
algorithms by the identifiers KeyNote uses ("sha1", "md5", "sha256").
"""

from __future__ import annotations

import hashlib
import hmac

from repro.errors import CryptoError

#: Algorithms accepted in signature identifiers (RFC 2704 defines sha1/md5;
#: we additionally allow sha256 as a modern extension).
SUPPORTED_HASHES = ("sha1", "md5", "sha256")


def digest(algorithm: str, data: bytes) -> bytes:
    """Return the digest of ``data`` under ``algorithm``.

    Raises :class:`CryptoError` for unknown algorithms so that a malformed
    signature identifier in a credential surfaces as a crypto failure, not a
    KeyError deep inside hashlib.
    """
    algorithm = algorithm.lower()
    if algorithm not in SUPPORTED_HASHES:
        raise CryptoError(f"unsupported hash algorithm: {algorithm!r}")
    return hashlib.new(algorithm, data).digest()


def digest_size(algorithm: str) -> int:
    algorithm = algorithm.lower()
    if algorithm not in SUPPORTED_HASHES:
        raise CryptoError(f"unsupported hash algorithm: {algorithm!r}")
    return hashlib.new(algorithm).digest_size


def hmac_digest(key: bytes, data: bytes | memoryview, algorithm: str = "sha256") -> bytes:
    """HMAC of ``data`` under ``key``; used by the ESP-like record layer."""
    algorithm = algorithm.lower()
    if algorithm not in SUPPORTED_HASHES:
        raise CryptoError(f"unsupported hash algorithm: {algorithm!r}")
    return hmac.digest(key, data, algorithm)


def constant_time_equal(a: bytes | memoryview, b: bytes | memoryview) -> bool:
    return hmac.compare_digest(a, b)
