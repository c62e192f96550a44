"""Unit tests for the revocation store."""

import time

from repro.core.revocation import RevocationStore
from repro.crypto.keycodec import encode_public_key
from repro.keynote.parser import parse_assertion
from repro.keynote.signing import sign_assertion


def make_credential(signer, licensee="someone"):
    body = (
        f'Authorizer: "{encode_public_key(signer)}"\n'
        f'Licensees: "{licensee}"\n'
    )
    return parse_assertion(sign_assertion(body, signer))


class TestKeyRevocation:
    def test_revoke_and_check(self, bob_id):
        store = RevocationStore()
        assert not store.key_revoked(bob_id)
        store.revoke_key(bob_id)
        assert store.key_revoked(bob_id)

    def test_normalization(self, bob_key):
        from repro.crypto.keycodec import encode_public_key

        store = RevocationStore()
        store.revoke_key(encode_public_key(bob_key, "base64"))
        assert store.key_revoked(encode_public_key(bob_key, "hex"))

    def test_revoked_keys_listing(self, bob_id, alice_id):
        store = RevocationStore()
        store.revoke_key(bob_id)
        store.revoke_key(alice_id)
        assert set(store.revoked_keys) == {bob_id, alice_id}


class TestCredentialRevocation:
    def test_by_signature(self, bob_key):
        store = RevocationStore()
        cred = make_credential(bob_key)
        assert not store.credential_revoked(cred)
        store.revoke_credential(cred.signature)
        assert store.credential_revoked(cred)

    def test_by_authorizer_key(self, bob_key, bob_id):
        store = RevocationStore()
        cred = make_credential(bob_key)
        store.revoke_key(bob_id)
        assert store.credential_revoked(cred)

    def test_by_licensee_key(self, bob_key, alice_id):
        store = RevocationStore()
        cred = make_credential(bob_key, licensee=alice_id)
        store.revoke_key(alice_id)
        assert store.credential_revoked(cred)

    def test_unrelated_credential_unaffected(self, bob_key, alice_key):
        store = RevocationStore()
        store.revoke_credential(make_credential(alice_key).signature)
        assert not store.credential_revoked(make_credential(bob_key))


class TestShortLivedForgetting:
    def test_entries_age_out(self, bob_id):
        store = RevocationStore()
        store.revoke_key(bob_id, forget_after=0.0)
        time.sleep(0.005)
        assert not store.key_revoked(bob_id)
        assert len(store) == 0  # aged entry removed

    def test_permanent_by_default(self, bob_id):
        store = RevocationStore()
        store.revoke_key(bob_id)
        time.sleep(0.005)
        assert store.key_revoked(bob_id)

    def test_credential_forgetting(self, bob_key):
        store = RevocationStore()
        cred = make_credential(bob_key)
        store.revoke_credential(cred.signature, forget_after=0.0)
        time.sleep(0.005)
        assert not store.credential_revoked(cred)

    def test_entries_age_on_the_injected_clock(self, bob_key, bob_id):
        now = [1_000.0]
        store = RevocationStore(clock=lambda: now[0])
        cred = make_credential(bob_key, licensee="carol")
        store.revoke_key(bob_id, forget_after=60.0)
        now[0] += 59.0
        assert store.key_revoked(bob_id) and store.credential_revoked(cred)
        now[0] += 2.0
        assert not store.key_revoked(bob_id)
        assert not store.credential_revoked(cred)

    def test_server_revocations_age_on_the_server_clock(self, administrator,
                                                        bob_id):
        """The clock the server's ``@now`` policies and cache see."""
        from repro.core.server import DisCFSServer

        now = [1_000_000.0]
        server = DisCFSServer(admin_identity=administrator.identity,
                              clock=lambda: now[0])
        server.revocations.revoke_key(bob_id, forget_after=3600.0)
        assert server.revocations.key_revoked(bob_id)
        now[0] += 3601.0
        assert not server.revocations.key_revoked(bob_id)


class TestEpoch:
    def test_every_revocation_bumps_the_epoch(self, bob_key, bob_id):
        store = RevocationStore()
        assert store.epoch == 0
        store.revoke_key(bob_id)
        store.revoke_credential(make_credential(bob_key).signature)
        assert store.epoch == 2
