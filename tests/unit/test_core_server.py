"""Unit tests for the DisCFS server (controller, minting, revocation)."""

import pytest

from repro.core.admin import identity_of
from repro.core.client import DisCFSClient
from repro.core.handles import HandleScheme
from repro.core.permissions import Permission
from repro.core.server import DisCFSServer
from repro.errors import NFSError
from repro.nfs.protocol import FileHandle, NFSStat


@pytest.fixture()
def bob(discfs, bob_key):
    client = DisCFSClient.connect(discfs, bob_key, secure=False)
    client.attach("/")
    return client


class TestAccessControl:
    def test_everything_denied_without_credentials(self, discfs, bob):
        root = bob.root
        with pytest.raises(NFSError) as excinfo:
            bob.readdir(root)
        assert excinfo.value.status == NFSStat.NFSERR_ACCES
        with pytest.raises(NFSError):
            bob.create(root, "f")

    def test_getattr_always_allowed_but_shows_rights(self, discfs, bob,
                                                     administrator, bob_id):
        attr = bob.getattr(bob.root)
        assert attr.permission_bits == 0  # paper: perms are 000 pre-credential
        cred = administrator.grant_inode(
            bob_id, discfs.fs.iget(discfs.fs.root_ino), rights="RX",
            scheme=discfs.handle_scheme)
        bob.submit_credential(cred)
        assert bob.getattr(bob.root).permission_bits == 0o500

    def test_rights_enforced_per_operation(self, discfs, bob, administrator,
                                           bob_id):
        root_inode = discfs.fs.iget(discfs.fs.root_ino)
        cred = administrator.grant_inode(bob_id, root_inode, rights="RX",
                                         scheme=discfs.handle_scheme,
                                         subtree=True)
        bob.submit_credential(cred)
        bob.readdir(bob.root)  # R on dir: ok
        with pytest.raises(NFSError):
            bob.create(bob.root, "f")  # needs WX

    def test_no_identity_denied(self, discfs):
        from repro.nfs.client import NFSClient
        from repro.nfs.mount import MountClient

        transport = discfs.in_process_transport(identity=None)
        root = MountClient(transport).mount("/")
        client = NFSClient(transport, root)
        with pytest.raises(NFSError):
            client.readdir_all(root)

    def test_cache_populated(self, discfs, bob, administrator, bob_id):
        cred = administrator.grant_inode(
            bob_id, discfs.fs.iget(discfs.fs.root_ino), rights="RWX",
            scheme=discfs.handle_scheme, subtree=True)
        bob.submit_credential(cred)
        discfs.cache.stats.reset()
        for _ in range(5):
            bob.readdir(bob.root)
        assert discfs.cache.stats.hits >= 4


class TestCreatorCredentials:
    def _grant_root(self, discfs, administrator, who):
        cred = administrator.grant_inode(
            who, discfs.fs.iget(discfs.fs.root_ino), rights="RWX",
            scheme=discfs.handle_scheme, subtree=True)
        return cred

    def test_create_returns_credential(self, discfs, bob, administrator, bob_id):
        bob.submit_credential(self._grant_root(discfs, administrator, bob_id))
        fh, cred = bob.create(bob.root, "mine.txt")
        assert cred is not None
        assert "creator credential" in cred
        from repro.keynote.parser import parse_assertion
        assertion = parse_assertion(cred)
        assert assertion.authorizer == discfs.issuer_identity
        assert bob_id in assertion.licensee_principals()

    def test_mkdir_returns_credential(self, discfs, bob, administrator, bob_id):
        bob.submit_credential(self._grant_root(discfs, administrator, bob_id))
        _fh, cred = bob.mkdir(bob.root, "dir")
        assert cred is not None

    def test_creator_can_use_file_immediately(self, discfs, bob, administrator,
                                              bob_id):
        bob.submit_credential(self._grant_root(discfs, administrator, bob_id))
        fh, _cred = bob.create(bob.root, "f")
        bob.write(fh, 0, b"mine")
        assert bob.read(fh, 0, 4) == b"mine"


class TestRevocationRPC:
    def test_only_admin_may_revoke(self, discfs, bob, bob_id):
        with pytest.raises(NFSError):
            bob.nfs.revoke(f"key {bob_id}")

    def test_admin_revokes_key(self, discfs, administrator, bob, bob_key, bob_id):
        cred = administrator.grant_inode(
            bob_id, discfs.fs.iget(discfs.fs.root_ino), rights="RWX",
            scheme=discfs.handle_scheme, subtree=True)
        bob.submit_credential(cred)
        bob.readdir(bob.root)

        admin_client = DisCFSClient.connect(discfs, administrator.key, secure=False)
        admin_client.attach("/")
        admin_client.nfs.revoke(f"key {bob_id}")

        with pytest.raises(NFSError):
            bob.readdir(bob.root)
        # resubmission also refused
        with pytest.raises(NFSError):
            bob.submit_credential(cred)

    def test_revoke_single_credential(self, discfs, administrator, bob, bob_id):
        from repro.keynote.parser import parse_assertion

        cred = administrator.grant_inode(
            bob_id, discfs.fs.iget(discfs.fs.root_ino), rights="RWX",
            scheme=discfs.handle_scheme, subtree=True)
        bob.submit_credential(cred)
        bob.readdir(bob.root)
        signature = parse_assertion(cred).signature

        admin_client = DisCFSClient.connect(discfs, administrator.key, secure=False)
        admin_client.attach("/")
        admin_client.nfs.revoke(f"credential {signature}")
        with pytest.raises(NFSError):
            bob.readdir(bob.root)

    def test_bad_payloads(self, discfs, administrator):
        admin_client = DisCFSClient.connect(discfs, administrator.key, secure=False)
        admin_client.attach("/")
        with pytest.raises(NFSError):
            admin_client.nfs.revoke("frobnicate xyz")
        with pytest.raises(NFSError):
            admin_client.nfs.revoke("key ")


class TestCredentialSubmission:
    def test_malformed_rejected(self, discfs, bob):
        with pytest.raises(NFSError):
            bob.nfs.submit_credential("this is not keynote")

    def test_bad_signature_rejected(self, discfs, bob, administrator, bob_id):
        cred = administrator.grant_inode(
            bob_id, discfs.fs.iget(discfs.fs.root_ino), rights="RWX",
            scheme=discfs.handle_scheme)
        tampered = cred.replace('"RWX"', '"RW"')  # changes signed bytes? no—
        # conditions RWX appears in rights value; replace changes text
        with pytest.raises(NFSError):
            bob.nfs.submit_credential(tampered)

    def test_list_credentials(self, discfs, bob, administrator, bob_id):
        baseline = len(bob.nfs.list_credentials())  # server-trust credential
        cred = administrator.grant_inode(
            bob_id, discfs.fs.iget(discfs.fs.root_ino), rights="RWX",
            scheme=discfs.handle_scheme)
        bob.submit_credential(cred)
        assert len(bob.nfs.list_credentials()) == baseline + 1


class TestVerifyOnce:
    """A credential's signature is checked at intake and nowhere else."""

    @pytest.fixture()
    def verifies(self, monkeypatch):
        from repro.crypto.dsa import DSAPublicKey

        calls = []
        real = DSAPublicKey.verify

        def counting(self, message, signature, hash_name="sha1"):
            calls.append(message)
            return real(self, message, signature, hash_name=hash_name)

        monkeypatch.setattr(DSAPublicKey, "verify", counting)
        return calls

    def _requests(self, discfs, bob, rounds=5):
        """Authorised and denied requests, each one a fresh KeyNote query."""
        for _ in range(rounds):
            discfs.cache.flush()
            bob.readdir(bob.root)
            discfs.cache.flush()
            with pytest.raises(NFSError):
                bob.create(bob.root, "f")

    def test_one_verify_per_submitted_credential(self, discfs, bob, administrator,
                                                 bob_id, verifies):
        cred = administrator.grant_inode(
            bob_id, discfs.fs.iget(discfs.fs.root_ino), rights="RX",
            scheme=discfs.handle_scheme, subtree=True)
        assert discfs.accept_credential(cred) == "credential accepted"
        self._requests(discfs, bob)
        assert len(verifies) == 1

    def test_minted_creator_credential_is_not_verified(self, discfs, bob,
                                                       administrator, bob_id,
                                                       verifies):
        discfs.accept_credential(administrator.grant_inode(
            bob_id, discfs.fs.iget(discfs.fs.root_ino), rights="RWX",
            scheme=discfs.handle_scheme))
        fh, cred = bob.create(bob.root, "f")
        bob.write(fh, 0, b"x")  # authorised by the creator credential alone
        assert bob.read(fh, 0, 1) == b"x"
        assert len(verifies) == 1  # the root grant; the server signed ``cred``
        assert cred in {a.source_text for a in discfs.session.credentials}

    def test_flipped_signature_byte_refused_at_both_doors(self, discfs, bob,
                                                          administrator, bob_id,
                                                          verifies):
        from repro.keynote.parser import parse_assertion
        from repro.nfs.server import AccessDeniedSignal

        cred = administrator.grant_inode(
            bob_id, discfs.fs.iget(discfs.fs.root_ino), rights="RX",
            scheme=discfs.handle_scheme, subtree=True)
        at = cred.rindex('"') - 1  # last hex digit of the signature
        tampered = cred[:at] + ("0" if cred[at] != "0" else "1") + cred[at + 1:]
        with pytest.raises(AccessDeniedSignal):
            discfs.accept_credential(tampered)
        assert len(verifies) == 1
        # Past the session's intake, straight into the checker: verified
        # lazily by the first query that reaches it, and left out.
        discfs.session._checker.add_assertion(parse_assertion(tampered))
        with pytest.raises(NFSError):
            bob.readdir(bob.root)
        assert len(verifies) == 2


class TestHandleSchemes:
    def test_inode_scheme_server(self, administrator, bob_key):
        server = DisCFSServer(admin_identity=administrator.identity,
                              handle_scheme=HandleScheme.INODE)
        administrator.trust_server(server)
        client = DisCFSClient.connect(server, bob_key, secure=False)
        client.attach("/")
        cred = administrator.grant_inode(
            identity_of(bob_key), server.fs.iget(server.fs.root_ino),
            rights="RWX", scheme=HandleScheme.INODE, subtree=True)
        client.submit_credential(cred)
        fh, _ = client.create(client.root, "f")
        client.write(fh, 0, b"x")
        assert client.read(fh, 0, 1) == b"x"


class TestRightsForCorners:
    def test_revoked_identity_gets_nothing(self, discfs, administrator, bob_id):
        discfs.revocations.revoke_key(bob_id)
        fh = FileHandle(ino=discfs.fs.root_ino,
                        generation=discfs.fs.iget(discfs.fs.root_ino).generation)
        granted = discfs.rights_for(bob_id, fh, "read",
                                    discfs.fs.iget(discfs.fs.root_ino))
        assert granted == Permission.none()


class TestPolicyCacheKey:
    """The cache key carries the operation only while some installed
    assertion reads ``OPERATION``."""

    @pytest.fixture()
    def shared(self, discfs, bob, administrator, bob_id):
        """A file of bob's, under Figure-5-style credentials only."""
        bob.submit_credential(administrator.grant_inode(
            bob_id, discfs.fs.iget(discfs.fs.root_ino), rights="RWX",
            scheme=discfs.handle_scheme))
        fh, _cred = bob.create(bob.root, "f")
        bob.write(fh, 0, b"data")
        return fh

    def test_one_query_answers_every_operation_on_a_file(self, discfs, bob,
                                                         shared):
        assert not discfs.session.reads("OPERATION")
        discfs.cache.flush()
        discfs.cache.stats.reset()
        before = discfs.engine.queries
        # One decision per call: READ's and WRITE's replies take their mode
        # bits from the check, and GETATTR, which needs no rights, decides
        # them alone.
        assert bob.read(shared, 0, 4) == b"data"
        bob.getattr(shared)
        bob.write(shared, 0, b"DATA")
        assert discfs.engine.queries - before == 1
        assert discfs.cache.stats.lookups == 3
        assert len(discfs.cache) == 1

    def test_operation_is_keyed_while_a_credential_reads_it(
            self, discfs, bob, shared, administrator, alice_key, alice_id):
        alice = DisCFSClient.connect(discfs, alice_key, secure=False)
        alice.attach("/")
        inode = discfs.fs.iget(shared.ino)
        cred = administrator.grant_inode(
            alice_id, inode, rights="RW", scheme=discfs.handle_scheme,
            extra_condition='OPERATION == "read"')
        alice.submit_credential(cred)
        assert discfs.session.reads("OPERATION")
        for first in ("read", "write"):
            discfs.cache.flush()
            for op in (first, "write", "read", "write"):
                if op == "read":
                    assert alice.read(shared, 0, 4) == b"data"
                else:
                    with pytest.raises(NFSError) as excinfo:
                        alice.write(shared, 0, b"nope")
                    assert excinfo.value.status == NFSStat.NFSERR_ACCES
        assert {key[2] for key in discfs.cache._entries} >= {"read", "write"}

        from repro.keynote.parser import parse_assertion
        admin_client = DisCFSClient.connect(discfs, administrator.key,
                                            secure=False)
        admin_client.attach("/")
        admin_client.nfs.revoke(f"credential {parse_assertion(cred).signature}")
        assert not discfs.session.reads("OPERATION")
        assert bob.read(shared, 0, 4) == b"data"
        bob.getattr(shared)
        assert {key[2] for key in discfs.cache._entries} == {""}
        with pytest.raises(NFSError):
            alice.read(shared, 0, 4)


class TestRenameFlushesAncestry:
    """A subtree grant stops at the subtree: a file moved out of it is
    refused, also when the grant was cached before the move."""

    @pytest.fixture()
    def moved(self, discfs, bob, administrator, bob_id):
        fs = discfs.fs
        a, b = fs.mkdir(fs.root_ino, "a"), fs.mkdir(fs.root_ino, "b")
        f = fs.create(a.ino, "f")
        fs.write(f.ino, 0, b"data")
        bob.submit_credential(administrator.grant_inode(
            bob_id, a, rights="R", scheme=discfs.handle_scheme, subtree=True))
        fh = FileHandle.of(f)
        assert bob.read(fh, 0, 4) == b"data"  # granted, and now cached
        return a, b, fh

    def _refused(self, bob, fh):
        with pytest.raises(NFSError) as excinfo:
            bob.read(fh, 0, 4)
        assert excinfo.value.status == NFSStat.NFSERR_ACCES

    def test_fs_rename(self, discfs, bob, moved):
        a, b, fh = moved
        discfs.fs.rename(a.ino, "f", b.ino, "f")
        self._refused(bob, fh)

    def test_nfs_rename(self, discfs, bob, moved, administrator):
        a, b, fh = moved
        admin = DisCFSClient.connect(discfs, administrator.key, secure=False)
        admin.attach("/")
        admin.nfs.rename(FileHandle.of(a), "f", FileHandle.of(b), "f")
        self._refused(bob, fh)

    def test_rename_back_grants_again(self, discfs, bob, moved):
        a, b, fh = moved
        discfs.fs.rename(a.ino, "f", b.ino, "f")
        self._refused(bob, fh)
        discfs.fs.rename(b.ino, "f", a.ino, "f")
        assert bob.read(fh, 0, 4) == b"data"


class TestStaleSecondHandle:
    """RENAME and LINK check each handle before the next resolves: a
    requester without rights is refused, and audited, whatever the second
    handle is."""

    STALE = FileHandle(ino=999, generation=1)

    def _refused_once(self, discfs, bob_id, call, operation):
        discfs.audit.clear()
        with pytest.raises(NFSError) as excinfo:
            call()
        assert excinfo.value.status == NFSStat.NFSERR_ACCES
        [record] = discfs.audit.records()
        assert (record.principal, record.operation, record.allowed) == \
            (bob_id, operation, False)

    def test_rename(self, discfs, bob, bob_id):
        discfs.fs.mkdir(discfs.fs.root_ino, "a")
        self._refused_once(discfs, bob_id, lambda: bob.nfs.rename(
            bob.root, "a", self.STALE, "x"), "rename")

    def test_link(self, discfs, bob, bob_id):
        target = FileHandle.of(discfs.fs.create(discfs.fs.root_ino, "f"))
        self._refused_once(discfs, bob_id, lambda: bob.nfs.link(
            target, self.STALE, "x"), "link_target")


class TestDecisionsAreBounded:
    def test_chains_live_and_die_with_their_cache_entries(self, discfs,
                                                          administrator, bob_id):
        """Ten thousand files touched, a 128-entry cache: what the server
        remembers about them is 128 decisions, chains included."""
        from repro.keynote.signing import sign_assertion

        discfs.accept_credential(sign_assertion(
            f'Authorizer: "{administrator.identity}"\nLicensees: "{bob_id}"\n'
            'Conditions: app_domain == "DisCFS" -> "RX";\n', administrator.key))
        for i in range(10_000):
            granted, chain = discfs.decision_for(bob_id, f"{i}.1", "read", None)
            assert granted.value == "RX" and chain == (administrator.identity,)
        assert len(discfs.cache) == 128
        assert discfs.cache.get(bob_id, "9999.1", "") == (granted, chain)
        grown = {name: len(value) for name, value in vars(discfs).items()
                 if isinstance(value, (dict, list, set)) and len(value) > 128}
        assert grown == {}


class TestCacheFollowsTheServerClock:
    def test_ttl_expires_by_the_clock_the_policies_see(self, administrator,
                                                       bob_key, bob_id):
        now = [1_000_000.0]
        server = DisCFSServer(admin_identity=administrator.identity,
                              clock=lambda: now[0], cache_ttl=50.0)
        administrator.trust_server(server)
        bob = DisCFSClient.connect(server, bob_key, secure=False)
        bob.attach("/")
        bob.submit_credential(administrator.grant_inode(
            bob_id, server.fs.iget(server.fs.root_ino), rights="RX",
            scheme=server.handle_scheme, expires_at=int(now[0]) + 100))
        bob.readdir(bob.root)
        queries = server.engine.queries
        now[0] += 30  # inside the TTL: answered from the cache
        bob.readdir(bob.root)
        assert server.engine.queries == queries
        now[0] += 170  # past the TTL and past the credential's expiry
        with pytest.raises(NFSError) as excinfo:
            bob.readdir(bob.root)
        assert excinfo.value.status == NFSStat.NFSERR_ACCES
        assert server.engine.queries == queries + 1
