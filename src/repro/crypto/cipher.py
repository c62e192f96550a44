"""Symmetric ciphers for the CFS baseline and the IPsec-like channel.

CFS (Blaze, 1993) encrypted file contents with DES in a two-pass OFB/ECB
construction; our reproduction needs *a* cipher with the same structural
properties (deterministic per-block encryption keyed by a per-file key and
block offset), not DES itself.  We provide:

* :class:`StreamCipher` — ChaCha20 (RFC 8439: 32-bit block counter, 96-bit
  nonce; checked against the RFC's vectors) used by the secure channel
  and the CFS data transform (seekable keystream),
* :class:`BlockCipher` — a small 16-round Feistel block cipher (128-bit
  blocks); the CFS layer chains its ``encrypt_block``/``decrypt_block``
  under a zero IV to encrypt file names.

The keystream is libcrypto's ``EVP_chacha20`` (:mod:`repro.crypto.libcrypto`);
the per-block Python code it replaced is kept as the byte-for-byte oracle
``tests/chacha_reference.py``.

Reproduction-grade: structurally faithful and fully tested, not an audited
primitive.
"""

from __future__ import annotations

import hashlib

from repro.crypto.libcrypto import chacha20
from repro.errors import CryptoError


class StreamCipher:
    """ChaCha20 with a seekable keystream.

    The keystream is a function of (key, nonce, block counter), 64 bytes
    a block, so records can be encrypted/decrypted independently —
    exactly what the ESP-like record layer needs.  The counter is 32
    bits: a request past block 2**32 - 1 raises :class:`CryptoError`, it
    never wraps onto keystream already used.
    """

    BLOCK = 64
    MAX_BLOCKS = 1 << 32

    def __init__(self, key: bytes, nonce: bytes):
        if len(key) != 32:
            raise CryptoError("StreamCipher requires a 32-byte key")
        if len(nonce) != 12:
            raise CryptoError("StreamCipher requires a 12-byte nonce")
        self._key = bytes(key)
        self._nonce = bytes(nonce)

    def keystream(self, offset: int, length: int) -> bytes:
        """Keystream bytes [offset, offset+length) — supports random access."""
        return self.process(bytes(length), offset)

    def process(self, data: bytes | bytearray | memoryview, offset: int = 0) -> bytes:
        """Encrypt or decrypt ``data`` positioned at ``offset`` (XOR cipher)."""
        first, skip = divmod(offset, self.BLOCK)
        return chacha20(self._key, self._nonce, first, bytes(skip) + data)[skip:]


class BlockCipher:
    """A 16-round Feistel cipher on 128-bit blocks with SHA-256 round function.

    Luby-Rackoff tells us >=4 Feistel rounds with a strong PRF yield a strong
    pseudorandom permutation; we use 16.  Slow (Python + hashing per round)
    but only the CFS *encrypting* baseline pays for it — CFS-NE and DisCFS
    never touch it, matching the paper's configuration.
    """

    BLOCK = 16
    ROUNDS = 16

    def __init__(self, key: bytes):
        if len(key) < 16:
            raise CryptoError("BlockCipher requires a key of at least 16 bytes")
        self._round_keys = [
            hashlib.sha256(key + bytes([r])).digest() for r in range(self.ROUNDS)
        ]

    def _round(self, r: int, half: bytes) -> bytes:
        return hashlib.sha256(self._round_keys[r] + half).digest()[:8]

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != self.BLOCK:
            raise CryptoError(f"block must be {self.BLOCK} bytes")
        left, right = block[:8], block[8:]
        for r in range(self.ROUNDS):
            left, right = right, bytes(
                a ^ b for a, b in zip(left, self._round(r, right))
            )
        return right + left  # final swap

    def decrypt_block(self, block: bytes) -> bytes:
        if len(block) != self.BLOCK:
            raise CryptoError(f"block must be {self.BLOCK} bytes")
        # Undo the final swap, then run the rounds backwards.
        right, left = block[:8], block[8:]
        for r in reversed(range(self.ROUNDS)):
            left, right = bytes(
                a ^ b for a, b in zip(right, self._round(r, left))
            ), left
        return left + right



def derive_key(*parts: bytes, length: int = 32, label: bytes = b"repro-kdf-v1") -> bytes:
    """Simple KDF: SHA-256 in counter mode over label || parts."""
    material = label + b"".join(len(p).to_bytes(4, "big") + p for p in parts)
    out = b""
    counter = 0
    while len(out) < length:
        out += hashlib.sha256(material + counter.to_bytes(4, "big")).digest()
        counter += 1
    return out[:length]
