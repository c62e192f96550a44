"""Unit tests for DSA signatures."""

import pytest

from repro.core.credentials import issue_credential
from repro.core.permissions import PERMISSION_VALUES
from repro.core.policy import PolicyEngine
from repro.crypto.dsa import (
    DEFAULT_PARAMETERS,
    DSAParameters,
    DSAPublicKey,
    generate_dsa_keypair,
    generate_parameters,
)
from repro.crypto.keycodec import encode_public_key
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


class TestOtherParameters:
    """A key holder's own parameters take the library group's path: their
    powers are ``pow``'s and their credentials verify and refuse as the
    library group's do."""

    @pytest.fixture(scope="class")
    def hostile(self):
        return generate_parameters(512, 160, rand=seeded_random_bits(b"hostile-512"))

    def test_hostile_credentials_verify_and_refuse_tampering(self, hostile, admin_key):
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

    def test_a_zero_modulus_is_a_credential_error(self, admin_key):
        """The key's parameters are the submitter's: ``p = 0`` must come
        out of intake as a refusal, not as an untyped ``ValueError``."""
        key = generate_dsa_keypair(rand=seeded_random_bits(b"zero-p"))
        cred = issue_credential(key, "dsa-hex:00", handle="1", rights="R")
        zero_p = DSAPublicKey(DSAParameters(p=0, q=key.params.q, g=key.params.g), key.y)
        engine = PolicyEngine(
            f'Authorizer: "POLICY"\nLicensees: "{encode_public_key(admin_key)}"\n',
            PERMISSION_VALUES)
        with pytest.raises(CredentialError):
            engine.intake(cred.replace(encode_public_key(key), encode_public_key(zero_p)))

    def test_gpow_on_other_parameters_is_pow(self, hostile):
        for e in (0, 1, 2, hostile.q - 1, hostile.q):
            assert hostile.gpow(e) == pow(hostile.g, e, hostile.p)

    @pytest.mark.parametrize("params", ["library", "hostile"])
    def test_exponent_outside_0_q_is_refused(self, params, hostile):
        group = DEFAULT_PARAMETERS if params == "library" else hostile
        for e in (-1, -(1 << 200), group.q + 1, 1 << 200):
            with pytest.raises(CryptoError, match=r"outside \[0, q\]"):
                group.gpow(e)
