"""Unit tests for the policy engine (attribute set construction + queries)."""

import time

import pytest

from repro.core.credentials import issue_credential
from repro.core.permissions import PERMISSION_VALUES, Permission
from repro.core.policy import PolicyEngine
from repro.crypto.keycodec import encode_public_key
from repro.errors import InvalidArgument, RevokedError


def engine_with(admin_key, *credentials, clock=time.time):
    engine = PolicyEngine(
        f'Authorizer: "POLICY"\nLicensees: "{encode_public_key(admin_key)}"\n',
        PERMISSION_VALUES, clock=clock,
    )
    for cred in credentials:
        engine.accept(cred)
    return engine


def rights(engine, principal, handle, operation, extra=None):
    """The DisCFS server's question: the rights over a handle."""
    action = {"app_domain": "DisCFS", "HANDLE": handle,
              "OPERATION": operation, **(extra or {})}
    return Permission.from_value(engine.query(principal, action)[0])


class TestEvaluation:
    def test_granted_rights(self, admin_key, bob_id):
        cred = issue_credential(admin_key, bob_id, handle="42.1", rights="RX")
        engine = engine_with(admin_key, cred)
        assert rights(engine, bob_id, "42.1", "read").value == "RX"
        assert rights(engine, bob_id, "43.1", "read").value == "false"

    def test_unknown_principal(self, admin_key, alice_id):
        engine = engine_with(admin_key)
        assert rights(engine, alice_id, "1", "read").bits == 0

    def test_operation_attribute_visible(self, admin_key, bob_id):
        cred = issue_credential(admin_key, bob_id, handle="1", rights="RW",
                                extra_condition='OPERATION == "read"')
        engine = engine_with(admin_key, cred)
        assert rights(engine, bob_id, "1", "read").value == "RW"
        assert rights(engine, bob_id, "1", "write").value == "false"

    def test_extra_attributes_merged(self, admin_key, bob_id):
        cred = issue_credential(admin_key, bob_id, handle="child",
                                rights="R", subtree=False)
        sub = issue_credential(admin_key, bob_id, handle="top", rights="R",
                               subtree=True)
        engine = engine_with(admin_key, cred, sub)
        p = rights(engine, bob_id, "other", "read",
                   {"ANCESTORS": "root top mid"})
        assert p.value == "R"

    def test_query_counter(self, admin_key, bob_id):
        engine = engine_with(admin_key)
        rights(engine, bob_id, "1", "read")
        rights(engine, bob_id, "1", "read")
        assert engine.queries == 2


class TestClockInjection:
    def test_expired_credential(self, admin_key, bob_id):
        cred = issue_credential(admin_key, bob_id, handle="1", rights="R",
                                expires_at=1000)
        early = engine_with(admin_key, cred, clock=lambda: 999.0)
        late = engine_with(admin_key, cred, clock=lambda: 1001.0)
        assert rights(early, bob_id, "1", "read").value == "R"
        assert rights(late, bob_id, "1", "read").value == "false"

    def test_hour_window(self, admin_key, bob_id):
        cred = issue_credential(admin_key, bob_id, handle="1", rights="R",
                                hours=(9, 17))
        # Clock fixed to 12:00 vs 20:00 local time on 2020-06-01.
        noon = time.mktime((2020, 6, 1, 12, 0, 0, 0, 0, -1))
        evening = time.mktime((2020, 6, 1, 20, 0, 0, 0, 0, -1))
        assert rights(engine_with(admin_key, cred, clock=lambda: noon),
                      bob_id, "1", "read").value == "R"
        assert rights(engine_with(admin_key, cred, clock=lambda: evening),
                      bob_id, "1", "read").value == "false"

    def test_attribute_set_contents(self, admin_key):
        engine = engine_with(admin_key, clock=lambda: 0.0)
        attrs = engine._clock_attributes()
        assert attrs["now"] == "0"
        assert 0 <= int(attrs["hour"]) < 24
        assert 0 <= int(attrs["weekday"]) < 7


class TestIntake:
    def test_policy_text_needs_a_policy_assertion(self):
        with pytest.raises(InvalidArgument, match="no POLICY"):
            PolicyEngine("", PERMISSION_VALUES)

    def test_a_resubmitted_credential_costs_a_hash(self, admin_key, bob_id,
                                                   monkeypatch):
        import repro.core.policy as policy

        verified = []
        real = policy.verify_assertion
        monkeypatch.setattr(policy, "verify_assertion",
                            lambda a: verified.append(a) or real(a))
        cred = issue_credential(admin_key, bob_id, handle="1", rights="R")
        engine = engine_with(admin_key, cred, cred)
        assert len(verified) == 1
        assert len(engine.session.credentials) == 2  # each submission counts

    def test_revocation_is_checked_on_every_intake(self, admin_key, bob_id):
        cred = issue_credential(admin_key, bob_id, handle="1", rights="R")
        engine = engine_with(admin_key, cred)
        engine.revoke(f"key {bob_id}")
        assert engine.session.credentials == []
        with pytest.raises(RevokedError):
            engine.accept(cred)

    def test_presented_credentials_are_scoped_to_their_query(self, admin_key,
                                                             bob_id):
        cred = issue_credential(admin_key, bob_id, handle="1", rights="R")
        engine = engine_with(admin_key)
        presented = engine.intake(cred)
        action = {"app_domain": "DisCFS", "HANDLE": "1", "OPERATION": "read"}
        assert engine.query_presenting(bob_id, action, presented)[0] == "R"
        assert engine.session.credentials == []
        assert engine.query(bob_id, action)[0] == "false"
