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

The keystream is computed for all the blocks of a call at once.  A Python
big int is the only wide register the standard library has, so the state
is held as four of them, one per ChaCha row, each made of 64-bit lanes
with a 32-bit word in the low half: the lanes of a row are its four
columns one after the other, and within a column one lane per block.  A
lane-wise add or rotate is then one big-int expression — the upper half
of every lane absorbs the carry and the bits a shift spills over, and a
mask clears it — and moving a row's columns round for the diagonal half
of a double round is a rotation of the whole int by a quarter.  The
interpreter's cost per operation is paid once per call, not once per
block (1.4 ms/KiB for the per-block code this replaces, about 60 us/KiB
at 4 KiB for this one).

Reproduction-grade: structurally faithful and fully tested, not an audited
primitive.
"""

from __future__ import annotations

import hashlib
import struct

from repro.errors import CryptoError

_CONSTANTS = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)  # "expand 32-byte k"
#: Blocks computed at once: bounds the big-int temporaries at 8 KiB a row.
_BATCH = 256


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
        self._key_words = struct.unpack("<8I", key)
        self._nonce_words = struct.unpack("<3I", nonce)

    def _blocks(self, first: int, n: int) -> bytearray:
        """Blocks ``first`` .. ``first + n - 1`` of the keystream."""
        quarter = 64 * n  # bits in one column of a row
        half, three = 2 * quarter, 3 * quarter
        low1, low2, low3 = (1 << quarter) - 1, (1 << half) - 1, (1 << three) - 1
        mask = int.from_bytes(b"\xff\xff\xff\xff\0\0\0\0" * (4 * n), "little")

        def row(*words: int) -> int:
            return int.from_bytes(
                b"".join(w.to_bytes(8, "little") * n for w in words), "little")

        key = self._key_words
        counters = int.from_bytes(
            struct.pack(f"<{n}Q", *range(first, first + n)), "little")
        a0, b0, c0 = row(*_CONSTANTS), row(*key[:4]), row(*key[4:])
        d0 = counters | row(0, *self._nonce_words)
        a, b, c, d = a0, b0, c0, d0
        # After a column round rows b, c, d move round by 1, 2, 3 columns,
        # which lines the diagonals up as columns; after the diagonal round
        # they move back.  Each entry: how far b moves down and the mask of
        # the bits that wrap to its top, then the same for d.
        turns = ((quarter, low1, three, low3), (three, low3, quarter, low1))
        for right_b, low_b, right_d, low_d in turns * 10:  # 20 rounds
            # Four quarter-rounds, one per column, on every block at once.
            a = (a + b) & mask
            d ^= a
            d = (d << 16 | d >> 16) & mask
            c = (c + d) & mask
            b ^= c
            b = (b << 12 | b >> 20) & mask
            a = (a + b) & mask
            d ^= a
            d = (d << 8 | d >> 24) & mask
            c = (c + d) & mask
            b ^= c
            b = (b << 7 | b >> 25) & mask
            b = b >> right_b | (b & low_b) << right_d
            c = c >> half | (c & low2) << half
            d = d >> right_d | (d & low_d) << right_b
        # Back to block order: a block is 16 words, row after row.  Two
        # neighbouring columns of a row fold into one 8-byte lane, and a
        # strided copy puts lane i of each where block i wants it.
        out = bytearray(64 * n)
        lanes = memoryview(out).cast("Q")
        for r, (x, x0) in enumerate(((a, a0), (b, b0), (c, c0), (d, d0))):
            x = (x + x0) & mask
            x |= x >> (quarter - 32)
            for pair, folded in enumerate((x & low1, x >> half & low1)):
                lanes[2 * r + pair :: 8] = memoryview(
                    folded.to_bytes(8 * n, "little")).cast("Q")
        return out

    def keystream(self, offset: int, length: int) -> bytes:
        """Keystream bytes [offset, offset+length) — supports random access."""
        first = offset // self.BLOCK
        end = -(-(offset + length) // self.BLOCK)
        if offset < 0 or end > self.MAX_BLOCKS:
            raise CryptoError(
                f"keystream [{offset}, {offset + length}) runs past the "
                f"32-bit block counter")
        stream = b"".join(self._blocks(at, min(_BATCH, end - at))
                          for at in range(first, end, _BATCH))
        start = offset - first * self.BLOCK
        return stream[start : start + length]

    def process(self, data: bytes | bytearray | memoryview, offset: int = 0) -> bytes:
        """Encrypt or decrypt ``data`` positioned at ``offset`` (XOR cipher)."""
        pad = self.keystream(offset, len(data))
        return (int.from_bytes(data, "little")
                ^ int.from_bytes(pad, "little")).to_bytes(len(pad), "little")


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
