"""Unit tests for DisCFS credential issuance and delegation."""

import pytest

from repro.core.credentials import (
    CredentialIssuer,
    CredentialSpec,
    extract_grant,
    issue_credential,
)
from repro.core.permissions import Permission
from repro.errors import CredentialError
from repro.keynote.ast import ComplianceValues
from repro.keynote.parser import parse_assertion
from repro.keynote.signing import verify_assertion

OCTAL = ComplianceValues(["false", "X", "W", "WX", "R", "RX", "RW", "RWX"])


def evaluate(credential_text, attrs):
    assertion = parse_assertion(credential_text)
    return assertion.conditions.evaluate(attrs, OCTAL)


class TestIssuance:
    def test_figure5_shape(self, admin_key, bob_id):
        text = issue_credential(admin_key, bob_id, handle="666240",
                                rights="RWX", comment="testdir")
        assert 'Conditions: (app_domain == "DisCFS") && (HANDLE == "666240") '\
               '-> "RWX";' in text
        assert "Comment: testdir" in text
        assert "Signature:" in text
        verify_assertion(parse_assertion(text))

    def test_conditions_evaluate(self, admin_key, bob_id):
        text = issue_credential(admin_key, bob_id, handle="42.1", rights="RX")
        assert evaluate(text, {"app_domain": "DisCFS", "HANDLE": "42.1"}) == "RX"
        assert evaluate(text, {"app_domain": "DisCFS", "HANDLE": "43.1"}) == "false"
        assert evaluate(text, {"app_domain": "other", "HANDLE": "42.1"}) == "false"

    def test_rights_as_permission_object(self, admin_key, bob_id):
        text = issue_credential(admin_key, bob_id, handle="1",
                                rights=Permission.from_string("W"))
        assert '-> "W";' in text

    def test_zero_rights_rejected(self, admin_key, bob_id):
        with pytest.raises(CredentialError):
            issue_credential(admin_key, bob_id, handle="1", rights=Permission.none())

    def test_licensee_expression_passthrough(self, admin_key, bob_id, alice_id):
        text = issue_credential(
            admin_key, f'"{bob_id}" && "{alice_id}"', handle="1", rights="R"
        )
        assertion = parse_assertion(text)
        assert len(assertion.licensee_principals()) == 2


class TestTimeConditions:
    def test_expiry(self, admin_key, bob_id):
        text = issue_credential(admin_key, bob_id, handle="1", rights="R",
                                expires_at=1_000_000)
        base = {"app_domain": "DisCFS", "HANDLE": "1"}
        assert evaluate(text, {**base, "now": "999999"}) == "R"
        assert evaluate(text, {**base, "now": "1000000"}) == "false"

    def test_not_before(self, admin_key, bob_id):
        text = issue_credential(admin_key, bob_id, handle="1", rights="R",
                                not_before=500)
        base = {"app_domain": "DisCFS", "HANDLE": "1"}
        assert evaluate(text, {**base, "now": "499"}) == "false"
        assert evaluate(text, {**base, "now": "500"}) == "R"

    def test_office_hours_window(self, admin_key, bob_id):
        text = issue_credential(admin_key, bob_id, handle="1", rights="R",
                                hours=(9, 17))
        base = {"app_domain": "DisCFS", "HANDLE": "1"}
        assert evaluate(text, {**base, "hour": "12"}) == "R"
        assert evaluate(text, {**base, "hour": "8"}) == "false"
        assert evaluate(text, {**base, "hour": "17"}) == "false"

    def test_invalid_hours_rejected(self, admin_key, bob_id):
        with pytest.raises(CredentialError):
            issue_credential(admin_key, bob_id, handle="1", rights="R",
                             hours=(17, 9))

    def test_extra_condition(self, admin_key, bob_id):
        text = issue_credential(admin_key, bob_id, handle="1", rights="R",
                                extra_condition='OPERATION == "read"')
        base = {"app_domain": "DisCFS", "HANDLE": "1"}
        assert evaluate(text, {**base, "OPERATION": "read"}) == "R"
        assert evaluate(text, {**base, "OPERATION": "write"}) == "false"


class TestSubtree:
    def test_subtree_matches_ancestors(self, admin_key, bob_id):
        text = issue_credential(admin_key, bob_id, handle="7.1", rights="RWX",
                                subtree=True)
        base = {"app_domain": "DisCFS"}
        assert evaluate(text, {**base, "HANDLE": "7.1"}) == "RWX"
        assert evaluate(text, {**base, "HANDLE": "99.1",
                               "ANCESTORS": "1.1 7.1 12.1"}) == "RWX"
        assert evaluate(text, {**base, "HANDLE": "99.1",
                               "ANCESTORS": "1.1 12.1"}) == "false"

    def test_subtree_no_substring_false_positives(self, admin_key, bob_id):
        text = issue_credential(admin_key, bob_id, handle="7.1", rights="RWX",
                                subtree=True)
        base = {"app_domain": "DisCFS", "HANDLE": "0.0"}
        # "17.1" and "7.11" must not match "7.1"
        assert evaluate(text, {**base, "ANCESTORS": "17.1"}) == "false"
        assert evaluate(text, {**base, "ANCESTORS": "7.11"}) == "false"
        assert evaluate(text, {**base, "ANCESTORS": "7.1"}) == "RWX"


class TestDelegation:
    def test_delegate_narrows(self, admin_key, bob_key, bob_id, alice_id):
        original = issue_credential(admin_key, bob_id, handle="5.2", rights="RWX")
        bob = CredentialIssuer(bob_key)
        delegated = bob.delegate(original, alice_id, rights="RX")
        assertion = parse_assertion(delegated)
        verify_assertion(assertion)
        handle, rights, _subtree = extract_grant(assertion)
        assert handle == "5.2"
        assert rights.value == "RX"

    def test_delegate_defaults_to_original_rights(self, admin_key, bob_key,
                                                  bob_id, alice_id):
        original = issue_credential(admin_key, bob_id, handle="5.2", rights="RW")
        delegated = CredentialIssuer(bob_key).delegate(original, alice_id)
        _h, rights, _s = extract_grant(parse_assertion(delegated))
        assert rights.value == "RW"

    def test_grant_helper(self, bob_key, alice_id):
        issuer = CredentialIssuer(bob_key)
        text = issuer.grant(alice_id, handle="9", rights="X", comment="peek")
        assertion = parse_assertion(text)
        assert assertion.authorizer == issuer.identity
        verify_assertion(assertion)


class TestExtraction:
    def test_extract_missing_handle(self, admin_key, bob_key):
        from repro.crypto.keycodec import encode_public_key
        from repro.keynote.signing import sign_assertion

        body = (
            f'Authorizer: "{encode_public_key(bob_key)}"\n'
            'Licensees: "x"\nConditions: true -> "RWX";\n'
        )
        assertion = parse_assertion(sign_assertion(body, bob_key))
        with pytest.raises(CredentialError):
            extract_grant(assertion)

    def test_extract_no_conditions(self, bob_key):
        from repro.crypto.keycodec import encode_public_key
        from repro.keynote.signing import sign_assertion

        body = f'Authorizer: "{encode_public_key(bob_key)}"\nLicensees: "x"\n'
        assertion = parse_assertion(sign_assertion(body, bob_key))
        with pytest.raises(CredentialError):
            extract_grant(assertion)


class TestConditionsText:
    def test_spec_composition(self):
        spec = CredentialSpec(
            handle="1.1", rights=Permission.from_string("R"),
            expires_at=100, hours=(9, 17),
        )
        text = spec.conditions_text()
        assert "@now < 100" in text
        assert "@hour >= 9" in text
        assert '-> "R";' in text
