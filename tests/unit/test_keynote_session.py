"""Unit tests for KeyNote sessions."""

import pytest

from repro.errors import KeyNoteError, SignatureVerificationError
from repro.keynote import compliance
from repro.keynote.parser import parse_assertion
from repro.keynote.session import KeyNoteSession
from repro.keynote.signing import sign_assertion


class TestPolicyManagement:
    def test_add_policy(self):
        s = KeyNoteSession()
        s.add_policy('Authorizer: "POLICY"\nLicensees: "alice"\n')
        assert len(s.policies) == 1
        assert s.query({}, ["alice"]) == "true"

    def test_non_policy_rejected_as_policy(self, bob_id):
        s = KeyNoteSession()
        with pytest.raises(KeyNoteError):
            s.add_policy(f'Authorizer: "{bob_id}"\nLicensees: "x"\n')

    def test_add_policies_multi(self):
        s = KeyNoteSession()
        added = s.add_policies(
            'Authorizer: "POLICY"\nLicensees: "a"\n'
            "\n"
            'Authorizer: "POLICY"\nLicensees: "b"\n'
        )
        assert len(added) == 2
        assert s.query({}, ["b"]) == "true"


class TestCredentialManagement:
    def test_add_valid_credential(self, bob_key, bob_id):
        s = KeyNoteSession()
        s.add_policy(f'Authorizer: "POLICY"\nLicensees: "{bob_id}"\n')
        cred = sign_assertion(
            f'Authorizer: "{bob_id}"\nLicensees: "alice"\n', bob_key
        )
        s.add_credential(cred)
        assert s.query({}, ["alice"]) == "true"

    def test_invalid_signature_rejected_at_add(self, bob_key, bob_id):
        s = KeyNoteSession()
        cred = sign_assertion(
            f'Authorizer: "{bob_id}"\nLicensees: "alice"\n', bob_key
        )
        with pytest.raises(SignatureVerificationError):
            s.add_credential(cred.replace('"alice"', '"eve"'))

    def test_policy_rejected_as_credential(self):
        s = KeyNoteSession()
        with pytest.raises(KeyNoteError):
            s.add_credential('Authorizer: "POLICY"\nLicensees: "x"\n')

    def test_verified_mark_does_not_outlive_the_credential(self, bob_key, bob_id,
                                                            monkeypatch):
        """A removed credential leaves nothing behind that a later object
        with the same ``id()`` could inherit."""
        lazily_verified = []
        real = compliance.verify_assertion

        def counting(assertion):
            lazily_verified.append(assertion)
            real(assertion)

        monkeypatch.setattr(compliance, "verify_assertion", counting)
        s = KeyNoteSession()
        s.add_policy(f'Authorizer: "POLICY"\nLicensees: "{bob_id}"\n')
        cred = s.add_credential(
            sign_assertion(f'Authorizer: "{bob_id}"\nLicensees: "alice"\n', bob_key))
        assert s.query({}, ["alice"]) == "true"
        assert lazily_verified == []  # intake verified it; the query did not
        assert s.remove_credential(cred)
        # The same object, so certainly the same id(), now saying something
        # bob never signed — what id() reuse after a revocation amounts to.
        forged = parse_assertion(cred.source_text.replace('"alice"', '"eve"'))
        cred.licensees, cred.signed_text = forged.licensees, forged.signed_text
        s._checker.add_assertion(cred)
        assert s.query({}, ["eve"]) == "false"
        assert lazily_verified == [cred]

    def test_remove_credential(self, bob_key, bob_id):
        s = KeyNoteSession()
        s.add_policy(f'Authorizer: "POLICY"\nLicensees: "{bob_id}"\n')
        cred = s.add_credential(
            sign_assertion(f'Authorizer: "{bob_id}"\nLicensees: "alice"\n', bob_key)
        )
        assert s.query({}, ["alice"]) == "true"
        assert s.remove_credential(cred)
        assert s.query({}, ["alice"]) == "false"
        assert not s.remove_credential(cred)

    def test_unverified_mode(self, bob_id):
        s = KeyNoteSession(verify_signatures=False)
        s.add_policy(f'Authorizer: "POLICY"\nLicensees: "{bob_id}"\n')
        s.add_credential(f'Authorizer: "{bob_id}"\nLicensees: "alice"\n')
        assert s.query({}, ["alice"]) == "true"


class TestActionAttributes:
    """A query's action attributes are exactly the ones it is given: the
    session keeps none between queries."""

    def _session(self, conditions):
        s = KeyNoteSession()
        s.add_policy(
            f'Authorizer: "POLICY"\nLicensees: "a"\nConditions: {conditions};\n'
        )
        return s

    def test_attributes_do_not_outlive_their_query(self):
        s = self._session('x == "q"')
        assert s.query({"x": "q"}, ["a"]) == "true"
        assert s.query({}, ["a"]) == "false"
        assert s.query(None, ["a"]) == "false"

    def test_values_are_compared_as_strings(self):
        s = self._session('n == "5" && @n + 1 == 6')
        assert s.query({"n": 5}, ["a"]) == "true"
        assert s.query({"n": "5"}, ["a"]) == "true"
        assert s.query({"n": 6}, ["a"]) == "false"

    def test_caller_action_is_left_alone(self):
        s = self._session('n == "5"')
        action = {"n": 5}
        assert s.query_with_trace(action, ["a"])[0] == "true"
        assert action == {"n": 5}


class TestQueryDefaults:
    def test_default_values_are_boolean(self):
        s = KeyNoteSession()
        s.add_policy('Authorizer: "POLICY"\nLicensees: "a"\n')
        assert s.query(action_authorizers=["a"]) == "true"
        assert s.query(action_authorizers=["b"]) == "false"

    def test_custom_value_order(self, bob_id):
        s = KeyNoteSession()
        s.add_policy(
            'Authorizer: "POLICY"\nLicensees: "a"\nConditions: true -> "W";\n'
        )
        octal = ["false", "X", "W", "WX", "R", "RX", "RW", "RWX"]
        assert s.query({}, ["a"], octal) == "W"


class TestIntakeWork:
    """What is worked out once, when an assertion is installed."""

    @pytest.fixture()
    def compiles(self, monkeypatch):
        import re

        calls = []
        real = re.compile

        def counting(pattern, flags=0):
            calls.append(pattern)
            return real(pattern, flags)

        monkeypatch.setattr(re, "compile", counting)
        return calls

    def test_literal_patterns_are_compiled_with_the_program(self, compiles):
        """More subtree credentials than ``re``'s cache of 512 patterns
        holds: a query still compiles none of them."""
        import re

        s = KeyNoteSession(verify_signatures=False)
        for i in range(600):
            s.add_policy(
                'Authorizer: "POLICY"\nLicensees: "u"\n'
                f'Conditions: (HANDLE == "h{i}") || '
                f'(ANCESTORS ~= "(^| )h{i}( |$)") -> "{"RX" if i else "R"}";\n')
        assert len(compiles) == 600
        re.purge()
        del compiles[:]
        values = ["false", "R", "RX", "RWX"]
        action = {"HANDLE": "leaf", "ANCESTORS": "h0 h7 h599"}
        for _ in range(5):
            assert s.query(action, ["u"], values) == "RX"
        assert s.query({"HANDLE": "leaf", "ANCESTORS": "h0"}, ["u"], values) == "R"
        assert compiles == []

    def test_pattern_from_attributes_is_compiled_when_evaluated(self, compiles):
        s = KeyNoteSession(verify_signatures=False)
        s.add_policy('Authorizer: "POLICY"\nLicensees: "u"\n'
                     'Conditions: name ~= ("^" . prefix);\n')
        assert compiles == []
        assert s.query({"name": "src/a.c", "prefix": "src/"}, ["u"]) == "true"
        assert s.query({"name": "doc/a", "prefix": "src/"}, ["u"]) == "false"
        assert s.query({"name": "x", "prefix": "("}, ["u"]) == "false"
        assert compiles == ["^src/", "^src/", "^("]

    def test_reads_follows_the_installed_assertions(self, bob_key, bob_id):
        s = KeyNoteSession()
        s.add_policy(f'Authorizer: "POLICY"\nLicensees: "{bob_id}"\n'
                     'Conditions: app_domain == "DisCFS";\n')
        assert s.reads("app_domain") and not s.reads("OPERATION")
        cred = s.add_credential(sign_assertion(
            f'Authorizer: "{bob_id}"\nLicensees: "alice"\n'
            'Conditions: OPERATION == "read" -> { HANDLE == "1"; };\n', bob_key))
        assert s.reads("OPERATION") and s.reads("HANDLE")
        s.remove_credential(cred)
        assert not s.reads("OPERATION") and not s.reads("HANDLE")
        cred = s.add_credential(sign_assertion(
            f'Authorizer: "{bob_id}"\nLicensees: "alice"\n'
            'Conditions: $which == "1";\n', bob_key))
        assert s.reads("OPERATION")  # a dereference may name anything
        s.remove_credential(cred)
        assert not s.reads("OPERATION") and not s.reads("which")
