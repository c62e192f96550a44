"""Unit tests for the symmetric ciphers and KDF."""

import pytest

from repro.crypto.cipher import BlockCipher, StreamCipher, derive_key
from repro.errors import CryptoError


class TestStreamCipher:
    def make(self, key=b"k" * 32, nonce=b"n" * 12):
        return StreamCipher(key, nonce)

    def test_roundtrip(self):
        sc = self.make()
        pt = b"the quick brown fox" * 100
        assert sc.process(sc.process(pt)) == pt

    def test_random_access_consistency(self):
        sc = self.make()
        full = sc.keystream(0, 1000)
        assert sc.keystream(137, 200) == full[137:337]
        assert sc.keystream(999, 1) == full[999:1000]

    def test_offset_encryption_matches_slices(self):
        sc = self.make()
        pt = bytes(range(256)) * 4
        whole = sc.process(pt, offset=0)
        assert sc.process(pt[100:200], offset=100) == whole[100:200]

    def test_different_keys_differ(self):
        a = self.make(key=b"a" * 32).process(b"\x00" * 64)
        b = self.make(key=b"b" * 32).process(b"\x00" * 64)
        assert a != b

    def test_different_nonces_differ(self):
        a = self.make(nonce=b"a" * 12).process(b"\x00" * 64)
        b = self.make(nonce=b"b" * 12).process(b"\x00" * 64)
        assert a != b

    def test_keystream_not_trivially_weak(self):
        ks = self.make().keystream(0, 4096)
        assert len(set(ks)) > 200  # all byte values essentially present

    def test_key_size_enforced(self):
        with pytest.raises(CryptoError):
            StreamCipher(b"short", b"n" * 12)

    def test_nonce_size_enforced(self):
        with pytest.raises(CryptoError):
            StreamCipher(b"k" * 32, b"short")

    def test_empty_input(self):
        assert self.make().process(b"") == b""

    def test_bytes_like_input(self):
        sc = self.make()
        pt = bytes(range(200))
        assert sc.process(memoryview(pt)[10:150], 7) == sc.process(pt[10:150], 7)
        assert sc.process(bytearray(pt)) == sc.process(pt)

    def test_counter_overflow_raises_instead_of_wrapping(self):
        sc = self.make()
        end = StreamCipher.MAX_BLOCKS * StreamCipher.BLOCK
        assert len(sc.keystream(end - 100, 100)) == 100  # the last block is usable
        with pytest.raises(CryptoError):
            sc.keystream(end - 100, 101)
        with pytest.raises(CryptoError):
            sc.process(b"x", offset=end)
        with pytest.raises(CryptoError):
            sc.keystream(-1, 10)


class TestRFC8439Vectors:
    """ChaCha20 as specified: the keystream is the RFC's, byte for byte."""

    KEY = bytes(range(32))

    def test_block_function_2_3_2(self):
        nonce = bytes.fromhex("000000090000004a00000000")
        block = StreamCipher(self.KEY, nonce).keystream(1 * 64, 64)
        assert block == bytes.fromhex(
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e")

    def test_sunscreen_2_4_2(self):
        nonce = bytes.fromhex("000000000000004a00000000")
        plaintext = (
            b"Ladies and Gentlemen of the class of '99: If I could offer you "
            b"only one tip for the future, sunscreen would be it.")
        assert len(plaintext) == 114
        # The RFC starts the message at block counter 1.
        ciphertext = StreamCipher(self.KEY, nonce).process(plaintext, offset=64)
        assert ciphertext == bytes.fromhex(
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
            "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
            "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
            "5af90bbf74a35be6b40b8eedf2785e42874d")


class TestBlockCipher:
    def make(self):
        return BlockCipher(derive_key(b"bc-test-key"))

    def test_roundtrip_single_block(self):
        bc = self.make()
        block = bytes(range(16))
        assert bc.decrypt_block(bc.encrypt_block(block)) == block

    def test_roundtrip_many_blocks(self):
        bc = self.make()
        for i in range(64):
            block = bytes((i * j) & 0xFF for j in range(16))
            assert bc.decrypt_block(bc.encrypt_block(block)) == block

    def test_permutation_property(self):
        bc = self.make()
        blocks = {bytes((i,)) + bytes(15) for i in range(256)}
        images = {bc.encrypt_block(b) for b in blocks}
        assert len(images) == 256  # injective on this set

    def test_avalanche(self):
        bc = self.make()
        a = bc.encrypt_block(bytes(16))
        b = bc.encrypt_block(b"\x01" + bytes(15))
        differing = sum(bin(x ^ y).count("1") for x, y in zip(a, b))
        assert differing > 30  # ~half of 128 bits expected

    def test_wrong_block_size(self):
        bc = self.make()
        with pytest.raises(CryptoError):
            bc.encrypt_block(b"short")
        with pytest.raises(CryptoError):
            bc.decrypt_block(b"x" * 17)

    def test_key_size_enforced(self):
        with pytest.raises(CryptoError):
            BlockCipher(b"tiny")


class TestDeriveKey:
    def test_length(self):
        assert len(derive_key(b"a")) == 32
        assert len(derive_key(b"a", length=64)) == 64
        assert len(derive_key(b"a", length=7)) == 7

    def test_deterministic(self):
        assert derive_key(b"x", b"y") == derive_key(b"x", b"y")

    def test_part_boundaries_matter(self):
        assert derive_key(b"ab", b"c") != derive_key(b"a", b"bc")

    def test_label_separates_domains(self):
        assert derive_key(b"k", label=b"one") != derive_key(b"k", label=b"two")
