"""Unit tests for the libcrypto binding: ChaCha20 and modular exponentiation.

The oracles are the pure-Python code the binding replaced:
``tests/chacha_reference.py`` for the keystream and Python's ``pow`` for
exponentiation.  Records sealed and files written by that code must still
open and read back, byte for byte.
"""

import hashlib
import threading

import pytest
from chacha_reference import reference_keystream  # tests/chacha_reference.py

from repro.cfs.cipher_layer import EncryptingVFS
from repro.crypto import libcrypto
from repro.crypto.cipher import StreamCipher
from repro.crypto.dsa import DEFAULT_PARAMETERS
from repro.crypto.hashes import hmac_digest
from repro.crypto.libcrypto import chacha20, modexp
from repro.errors import CryptoError
from repro.fs.ffs import FFS
from repro.fs.vfs import FileId
from repro.ipsec.channel import _HEADER, MSG_DATA, _open, _seal
from repro.ipsec.sa import DirectionState

KEY = bytes(range(32))
P, Q, G = DEFAULT_PARAMETERS.p, DEFAULT_PARAMETERS.q, DEFAULT_PARAMETERS.g
LAST = (1 << 32) - 1  # the last block the 32-bit counter names


class TestChaCha20:
    def test_rfc8439_block_function_2_3_2(self):
        nonce = bytes.fromhex("000000090000004a00000000")
        assert chacha20(KEY, nonce, 1, bytes(64)) == bytes.fromhex(
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e")

    def test_rfc8439_encryption_2_4_2(self):
        nonce = bytes.fromhex("000000000000004a00000000")
        plaintext = (
            b"Ladies and Gentlemen of the class of '99: If I could offer you "
            b"only one tip for the future, sunscreen would be it.")
        assert chacha20(KEY, nonce, 1, plaintext) == bytes.fromhex(
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
            "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
            "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
            "5af90bbf74a35be6b40b8eedf2785e42874d")

    @pytest.mark.parametrize("counter,length", [(0, 1), (0, 64), (7, 4200), (LAST, 64),
                                                (LAST, 1), (LAST - 1, 128)])
    def test_equals_the_per_block_reference(self, counter, length):
        nonce = bytes(range(100, 112))
        assert chacha20(KEY, nonce, counter, bytes(length)) == \
            reference_keystream(KEY, nonce, counter * 64, length)

    def test_empty_data_is_empty_even_past_the_counter(self):
        nonce = bytes(12)
        assert chacha20(KEY, nonce, 1 << 32, b"") == b""
        assert StreamCipher(KEY, nonce).keystream(1 << 38, 0) == \
            reference_keystream(KEY, nonce, 1 << 38, 0) == b""

    @pytest.mark.parametrize("counter,length", [(LAST, 65), (1 << 32, 1), (-1, 1)])
    def test_refuses_to_run_past_the_counter(self, counter, length):
        """OpenSSL would carry into the first nonce word instead."""
        with pytest.raises(CryptoError, match="32-bit block counter"):
            chacha20(KEY, bytes(12), counter, bytes(length))

    @pytest.mark.parametrize("key,nonce", [(bytes(31), bytes(12)), (bytes(33), bytes(12)),
                                           (KEY, bytes(11)), (KEY, bytes(16))])
    def test_refuses_wrong_key_or_nonce_sizes(self, key, nonce):
        with pytest.raises(CryptoError):
            chacha20(key, nonce, 0, b"x")


class TestModexp:
    @pytest.mark.parametrize("base,exp,mod", [
        (G, Q, P), (G, 0, P), (P + 5, Q - 1, P), (-3, 12345, P),
        (7, 1 << 300, 1 << 64), (2**1100 + 3, 65537, 1000), (5, 3, 1), (0, 0, 7),
        (0, 5, 7), (123, 0, 1),
    ])
    def test_equals_pow(self, base, exp, mod):
        assert modexp(base, exp, mod) == pow(base, exp, mod)

    @pytest.mark.parametrize("mod", [0, -1, -P])
    def test_refuses_a_modulus_below_one(self, mod):
        with pytest.raises(CryptoError, match="modulus"):
            modexp(2, 3, mod)

    def test_refuses_a_negative_exponent(self):
        with pytest.raises(CryptoError, match="exponent"):
            modexp(2, -1, P)


class TestBinding:
    def test_a_missing_symbol_is_an_import_error(self):
        with pytest.raises(ImportError, match="no_such_symbol"):
            libcrypto._bind("no_such_symbol", None)

    def test_calls_from_many_threads_return_the_oracles_values(self):
        """8 threads x 200 mixed calls: no state is shared between calls."""
        nonce = bytes(range(12))
        streams = [(c, n, reference_keystream(KEY, nonce, c * 64, n))
                   for c, n in ((0, 100), (3, 4200), (LAST, 64), (1000, 1))]
        powers = [(b, e, pow(b, e, P)) for b, e in ((G, Q - 1), (P - 2, Q), (3, 65537))]
        wrong = []

        def work(seed: int) -> None:
            for i in range(200):
                if (i + seed) % 2:
                    c, n, want = streams[(i + seed) % len(streams)]
                    got = chacha20(KEY, nonce, c, bytes(n))
                else:
                    b, e, want = powers[(i + seed) % len(powers)]
                    got = modexp(b, e, P)
                if got != want:
                    wrong.append((seed, i))

        threads = [threading.Thread(target=work, args=(s,)) for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []


def _reference_seal(direction: DirectionState, spi: int, seq: int, payload: bytes) -> bytes:
    """A DATA record as the per-block keystream sealed it."""
    nonce = spi.to_bytes(4, "big") + seq.to_bytes(8, "big")
    pad = reference_keystream(direction.enc_key, nonce, 0, len(payload))
    sealed = _HEADER.pack(MSG_DATA, spi, seq) + bytes(a ^ b for a, b in zip(payload, pad))
    return sealed + hmac_digest(direction.mac_key, sealed)


class TestWireAndDiskCompatibility:
    PAYLOADS = [b"", b"x", bytes(range(256)) * 3, b"\xa5" * 4200]

    def direction(self) -> DirectionState:
        return DirectionState(enc_key=bytes(range(1, 33)), mac_key=b"m" * 32)

    def test_a_record_sealed_by_the_reference_opens(self):
        recv = self.direction()
        for seq, payload in enumerate(self.PAYLOADS, start=1):
            assert _open(recv, 0xBEEF, _reference_seal(self.direction(), 0xBEEF, seq,
                                                       payload)) == payload

    def test_a_sealed_record_is_the_reference_bytes(self):
        send = self.direction()
        for seq, payload in enumerate(self.PAYLOADS, start=1):
            assert _seal(send, 0xBEEF, payload) == \
                _reference_seal(self.direction(), 0xBEEF, seq, payload)

    def test_a_cfs_file_keeps_its_ciphertext(self):
        """The ciphertext digest was taken from the per-block keystream's
        output; the file must read back through the new one."""
        evfs = EncryptingVFS(FFS(), master_key=b"0123456789abcdef")
        f = evfs.create(evfs.root, "golden")
        fid = FileId.of(f)
        data = bytes(i * 7 & 0xFF for i in range(10000))
        evfs.write(fid, 0, data)
        evfs.write(fid, 4097, b"unaligned patch")
        raw = evfs.fs.read(f.ino, 0, 10000)
        assert hashlib.sha256(raw).hexdigest() == \
            "22482974175174930bb4d692cd6c5251db4a793b0a555356a46902c752370ded"
        assert evfs.read(fid, 0, 10000) == data[:4097] + b"unaligned patch" + data[4112:]
