"""Unit tests for DSA signatures."""

import sys
import threading

import pytest

from repro.core.credentials import issue_credential
from repro.core.permissions import PERMISSION_VALUES
from repro.core.policy import PolicyEngine
from repro.crypto import dsa
from repro.crypto.dsa import (
    DEFAULT_PARAMETERS,
    DSAParameters,
    generate_dsa_keypair,
    generate_parameters,
)
from repro.crypto.keycodec import decode_key, encode_public_key
from repro.crypto.numbers import seeded_random_bits
from repro.errors import CredentialError, CryptoError, InvalidKey, InvalidSignature


class TestParameters:
    def test_default_parameters_valid(self):
        DEFAULT_PARAMETERS.validate()

    def test_default_sizes(self):
        assert DEFAULT_PARAMETERS.p.bit_length() == 1024
        assert DEFAULT_PARAMETERS.q.bit_length() == 160

    def test_invalid_parameters_rejected(self):
        with pytest.raises(InvalidKey):
            DSAParameters(p=23, q=7, g=2).validate()  # 7 does not divide 22

    def test_bad_generator_rejected(self):
        params = DSAParameters(p=DEFAULT_PARAMETERS.p, q=DEFAULT_PARAMETERS.q, g=1)
        with pytest.raises(InvalidKey):
            params.validate()

    def test_generate_small_parameters(self):
        params = generate_parameters(
            pbits=256, qbits=80, rand=seeded_random_bits(b"small-params")
        )
        params.validate()
        assert params.p.bit_length() == 256


class TestSignatures:
    @pytest.fixture(scope="class")
    def keypair(self):
        return generate_dsa_keypair(rand=seeded_random_bits(b"dsa-sign"))

    def test_sign_verify_roundtrip(self, keypair):
        sig = keypair.sign(b"message")
        keypair.public.verify(b"message", sig)

    def test_wrong_message_rejected(self, keypair):
        sig = keypair.sign(b"message")
        with pytest.raises(InvalidSignature):
            keypair.public.verify(b"massage", sig)

    def test_wrong_key_rejected(self, keypair):
        other = generate_dsa_keypair(rand=seeded_random_bits(b"other"))
        sig = keypair.sign(b"message")
        with pytest.raises(InvalidSignature):
            other.public.verify(b"message", sig)

    def test_deterministic_signatures(self, keypair):
        assert keypair.sign(b"same input") == keypair.sign(b"same input")

    def test_distinct_messages_distinct_nonces(self, keypair):
        r1, _ = keypair.sign(b"one")
        r2, _ = keypair.sign(b"two")
        assert r1 != r2  # same r would mean a reused nonce

    def test_signature_components_in_range(self, keypair):
        r, s = keypair.sign(b"range")
        q = keypair.params.q
        assert 0 < r < q and 0 < s < q

    def test_out_of_range_signature_rejected(self, keypair):
        q = keypair.params.q
        with pytest.raises(InvalidSignature):
            keypair.public.verify(b"x", (0, 1))
        with pytest.raises(InvalidSignature):
            keypair.public.verify(b"x", (1, q))

    def test_sha256_hash_variant(self, keypair):
        sig = keypair.sign(b"m", hash_name="sha256")
        keypair.public.verify(b"m", sig, hash_name="sha256")
        with pytest.raises(InvalidSignature):
            keypair.public.verify(b"m", sig, hash_name="sha1")

    def test_empty_message(self, keypair):
        sig = keypair.sign(b"")
        keypair.public.verify(b"", sig)

    def test_large_message(self, keypair):
        msg = b"x" * 1_000_000
        keypair.public.verify(msg, keypair.sign(msg))


class TestKeyGeneration:
    def test_seeded_keygen_deterministic(self):
        k1 = generate_dsa_keypair(rand=seeded_random_bits(b"kg"))
        k2 = generate_dsa_keypair(rand=seeded_random_bits(b"kg"))
        assert k1.x == k2.x and k1.y == k2.y

    def test_public_consistency(self):
        kp = generate_dsa_keypair(rand=seeded_random_bits(b"pc"))
        assert pow(kp.params.g, kp.x, kp.params.p) == kp.y
        assert kp.public.y == kp.y

    def test_fingerprint_stable_and_distinct(self):
        k1 = generate_dsa_keypair(rand=seeded_random_bits(b"f1"))
        k2 = generate_dsa_keypair(rand=seeded_random_bits(b"f2"))
        assert k1.public.fingerprint() == k1.public.fingerprint()
        assert k1.public.fingerprint() != k2.public.fingerprint()


#: Entries of the library group's comb table: a row of 2^w per w-bit digit of q.
TABLE_LEN = -(-DEFAULT_PARAMETERS.q.bit_length() // dsa._W) << dsa._W


class TestGeneratorTable:
    """Only the library group gets the comb table; a key holder's own
    parameters go through ``pow`` and allocate nothing."""

    @pytest.fixture(scope="class")
    def hostile(self):
        return generate_parameters(512, 160, rand=seeded_random_bits(b"hostile-512"))

    @pytest.fixture()
    def empty_table(self, monkeypatch):
        table: list[int] = []
        monkeypatch.setattr(dsa, "_COMB", table)
        return table

    def test_library_group_fills_the_table_once(self, empty_table):
        assert DEFAULT_PARAMETERS.gpow(DEFAULT_PARAMETERS.q) == 1
        assert len(empty_table) == TABLE_LEN
        assert empty_table[1] == DEFAULT_PARAMETERS.g
        before = list(empty_table)
        DEFAULT_PARAMETERS.gpow(12345)
        assert empty_table == before

    def test_racing_first_uses_all_see_a_whole_table(self, empty_table):
        """Threads that find the table empty may each build it; every
        power must still be right and the table one table long."""
        exponents = [DEFAULT_PARAMETERS.q - 1 - 7919 * i for i in range(8)]
        wrong = []

        def power(e):
            if DEFAULT_PARAMETERS.gpow(e) != pow(DEFAULT_PARAMETERS.g, e, DEFAULT_PARAMETERS.p):
                wrong.append(e)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=power, args=(e,)) for e in exponents]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        assert len(empty_table) == TABLE_LEN

    def test_decoded_library_parameters_share_the_table(self, empty_table):
        """keycodec builds a fresh DSAParameters per key: equality is by value."""
        key = generate_dsa_keypair(rand=seeded_random_bits(b"decoded"))
        empty_table.clear()
        decoded = decode_key(encode_public_key(key))
        assert decoded.params is not DEFAULT_PARAMETERS
        decoded.verify(b"m", key.sign(b"m"))
        assert empty_table

    def test_hostile_credentials_verify_without_a_table(self, hostile, empty_table,
                                                        admin_key):
        engine = PolicyEngine(
            f'Authorizer: "POLICY"\nLicensees: "{encode_public_key(admin_key)}"\n',
            PERMISSION_VALUES)
        for i in range(4):
            key = generate_dsa_keypair(hostile, rand=seeded_random_bits(b"h%d" % i))
            cred = issue_credential(key, "dsa-hex:00", handle=str(i), rights="R")
            assert len(engine.intake(cred)) == 1
            tampered = cred.replace(f'HANDLE == "{i}"', f'HANDLE == "{i + 1}"')
            assert tampered != cred
            with pytest.raises(CredentialError, match="signature"):
                engine.intake(tampered)
        assert empty_table == []

    def test_gpow_on_other_parameters_is_pow(self, hostile, empty_table):
        for e in (0, 1, 2, hostile.q - 1, hostile.q):
            assert hostile.gpow(e) == pow(hostile.g, e, hostile.p)
        assert empty_table == []

    @pytest.mark.parametrize("params", ["library", "hostile"])
    def test_exponent_outside_0_q_is_refused(self, params, hostile):
        group = DEFAULT_PARAMETERS if params == "library" else hostile
        for e in (-1, -(1 << 200), group.q + 1, 1 << 200):
            with pytest.raises(CryptoError, match=r"outside \[0, q\]"):
                group.gpow(e)
