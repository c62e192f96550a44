"""ChaCha20 one block and one word at a time: the test-only reference.

This is the keystream code ``repro.crypto.cipher.StreamCipher`` had before
it computed all the blocks of a call at once.  It stays here, unchanged in
its arithmetic, as what the batched code is compared against
(``tests/property/test_prop_cipher.py``, ``benchmarks/test_ablation_cipher.py``).
"""

from __future__ import annotations

import struct

_MASK32 = 0xFFFFFFFF


def _rotl32(v: int, c: int) -> int:
    return ((v << c) & _MASK32) | (v >> (32 - c))


def reference_block(key: bytes, nonce: bytes, counter: int) -> bytes:
    """Keystream block ``counter`` (taken modulo 2**32)."""
    state = [0x61707865, 0x3320646E, 0x79622D32, 0x6B206574,
             *struct.unpack("<8I", key), counter & _MASK32,
             *struct.unpack("<3I", nonce)]
    working = state[:]

    def quarter(a: int, b: int, c: int, d: int) -> None:
        working[a] = (working[a] + working[b]) & _MASK32
        working[d] = _rotl32(working[d] ^ working[a], 16)
        working[c] = (working[c] + working[d]) & _MASK32
        working[b] = _rotl32(working[b] ^ working[c], 12)
        working[a] = (working[a] + working[b]) & _MASK32
        working[d] = _rotl32(working[d] ^ working[a], 8)
        working[c] = (working[c] + working[d]) & _MASK32
        working[b] = _rotl32(working[b] ^ working[c], 7)

    for _ in range(10):  # 20 rounds = 10 double rounds
        quarter(0, 4, 8, 12)
        quarter(1, 5, 9, 13)
        quarter(2, 6, 10, 14)
        quarter(3, 7, 11, 15)
        quarter(0, 5, 10, 15)
        quarter(1, 6, 11, 12)
        quarter(2, 7, 8, 13)
        quarter(3, 4, 9, 14)
    return struct.pack(
        "<16I", *((working[i] + state[i]) & _MASK32 for i in range(16)))


def reference_keystream(key: bytes, nonce: bytes, offset: int, length: int) -> bytes:
    first, last = offset // 64, (offset + length + 63) // 64
    stream = b"".join(reference_block(key, nonce, c) for c in range(first, last))
    start = offset - first * 64
    return stream[start : start + length]
