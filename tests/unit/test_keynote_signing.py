"""Unit tests for signed assertions."""

import pytest

from repro.crypto.keycodec import encode_public_key
from repro.errors import AssertionSyntaxError, SignatureVerificationError
from repro.keynote.parser import parse_assertion
from repro.keynote.signing import sign_assertion, signed_assertion, verify_assertion


def body_for(key, licensee="alice"):
    return (
        f'Authorizer: "{encode_public_key(key)}"\n'
        f'Licensees: "{licensee}"\n'
        'Conditions: x == "1" -> "true";\n'
    )


class TestSigning:
    def test_sign_and_verify(self, bob_key):
        text = sign_assertion(body_for(bob_key), bob_key)
        verify_assertion(parse_assertion(text))

    def test_rsa_signing(self, rsa_key):
        text = sign_assertion(body_for(rsa_key), rsa_key)
        assert "sig-rsa-sha1-hex:" in text
        verify_assertion(parse_assertion(text))

    def test_sha256_signing(self, bob_key):
        text = sign_assertion(body_for(bob_key), bob_key, hash_name="sha256")
        assert "sig-dsa-sha256-hex:" in text
        verify_assertion(parse_assertion(text))

    def test_base64_signature_encoding(self, bob_key):
        text = sign_assertion(body_for(bob_key), bob_key, encoding="base64")
        assert "sig-dsa-sha1-base64:" in text
        verify_assertion(parse_assertion(text))

    def test_wrong_signer_rejected_at_signing(self, bob_key, alice_key):
        with pytest.raises(SignatureVerificationError):
            sign_assertion(body_for(bob_key), alice_key)

    def test_policy_cannot_be_signed(self, bob_key):
        with pytest.raises(AssertionSyntaxError):
            sign_assertion('Authorizer: "POLICY"\nLicensees: "x"\n', bob_key)


class TestSignedAssertion:
    """What signing returns parsed is what parsing the credential gives."""

    @pytest.mark.parametrize("options", [{}, {"encoding": "base64"}, {"hash_name": "sha256"}])
    def test_is_the_parse_of_its_text(self, bob_key, options):
        credential = signed_assertion(body_for(bob_key) + "Comment: c\n\n\n", bob_key, **options)
        assert credential == parse_assertion(credential.source_text)
        verify_assertion(credential)

    def test_a_signed_body_is_refused(self, bob_key):
        with pytest.raises(AssertionSyntaxError, match="already signed"):
            signed_assertion(sign_assertion(body_for(bob_key), bob_key), bob_key)


class TestVerification:
    def test_policy_passes_trivially(self):
        verify_assertion(parse_assertion('Authorizer: "POLICY"\n'))

    def test_unsigned_credential_rejected(self, bob_key):
        assertion = parse_assertion(body_for(bob_key))
        with pytest.raises(SignatureVerificationError):
            verify_assertion(assertion)

    def test_tampered_conditions_rejected(self, bob_key):
        text = sign_assertion(body_for(bob_key), bob_key)
        tampered = text.replace('x == "1"', 'x == "2"')
        with pytest.raises(SignatureVerificationError):
            verify_assertion(parse_assertion(tampered))

    def test_tampered_licensee_rejected(self, bob_key):
        text = sign_assertion(body_for(bob_key, "alice"), bob_key)
        tampered = text.replace('"alice"', '"mallory"')
        with pytest.raises(SignatureVerificationError):
            verify_assertion(parse_assertion(tampered))

    def test_swapped_signature_rejected(self, bob_key, alice_key):
        t1 = sign_assertion(body_for(bob_key), bob_key)
        t2 = sign_assertion(body_for(alice_key), alice_key)
        sig2 = t2[t2.rindex("Signature:"):]
        frankenstein = t1[: t1.rindex("Signature:")] + sig2
        with pytest.raises(SignatureVerificationError):
            verify_assertion(parse_assertion(frankenstein))

    def test_non_key_authorizer_rejected(self):
        assertion = parse_assertion(
            'Authorizer: "not-a-key"\nSignature: "sig-dsa-sha1-hex:0011"\n'
        )
        with pytest.raises(SignatureVerificationError):
            verify_assertion(assertion)

    def test_algorithm_mismatch_rejected(self, bob_key):
        text = sign_assertion(body_for(bob_key), bob_key)
        tampered = text.replace("sig-dsa-sha1-hex", "sig-rsa-sha1-hex")
        with pytest.raises(SignatureVerificationError):
            verify_assertion(parse_assertion(tampered))

    def test_whitespace_change_invalidates(self, bob_key):
        text = sign_assertion(body_for(bob_key), bob_key)
        tampered = text.replace("Licensees: ", "Licensees:  ", 1)
        with pytest.raises(SignatureVerificationError):
            verify_assertion(parse_assertion(tampered))
