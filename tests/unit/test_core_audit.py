"""Unit + integration tests for audit logging."""

import pytest

from repro.core.audit import AuditLog
from repro.core.client import DisCFSClient
from repro.errors import NFSError


class TestAuditLogUnit:
    def test_record_and_query(self):
        log = AuditLog(capacity=10)
        log.record("keyA", "read", "7.1", "RX", True, ["keyB"])
        log.record("keyA", "write", "7.1", "RX", False, ["keyB"])
        log.record("keyC", "read", "9.1", "RWX", True, [])
        assert len(log) == 3
        assert len(log.by_principal("keyA")) == 2
        assert len(log.denials()) == 1
        assert log.denials()[0].operation == "write"
        assert len(log.authorized_through("keyB")) == 2

    def test_ring_buffer_bound(self):
        log = AuditLog(capacity=5)
        for i in range(12):
            log.record("k", "read", str(i), "R", True)
        assert len(log) == 5
        assert log.records()[0].target == "7"

    def test_chain_deduplication(self):
        log = AuditLog()
        entry = log.record("k", "read", "1", "R", True, ["b", "b", "c"])
        assert entry.authorized_by == ("b", "c")

    def test_format(self):
        log = AuditLog()
        entry = log.record("key-of-alice", "read", "7.1", "RX", True,
                           ["key-of-bob"])
        line = entry.format()
        assert "ALLOW" in line and "read" in line
        assert "key-of-alice" in line and "key-of-bob" in line
        denied = log.record("key-of-eve", "write", "7.1", "false", False)
        assert "DENY" in denied.format()
        assert "(policy)" in denied.format()

    def test_clear(self):
        log = AuditLog()
        log.record("k", "read", "1", "R", True)
        log.clear()
        assert len(log) == 0


class TestServerAuditIntegration:
    def test_paper_quote_key_a_used_key_b_authorized(self, discfs,
                                                     administrator, bob_key,
                                                     alice_key, bob_id,
                                                     alice_id):
        """Section 4.2: "it can log that key A (Alice's key) was used and
        that key B (Bob's key) authorized the operation."
        """
        testdir = discfs.fs.mkdir(discfs.fs.root_ino, "testdir")
        discfs.fs.write_file("/testdir/paper.tex", b"content")
        bob_cred = administrator.grant_inode(
            bob_id, testdir, rights="RWX",
            scheme=discfs.handle_scheme, subtree=True)

        bob = DisCFSClient.connect(discfs, bob_key, secure=False)
        bob.attach("/testdir")
        bob.submit_credential(bob_cred)
        alice_cred = bob.issuer.delegate(bob_cred, alice_id, rights="RX")

        alice = DisCFSClient.connect(discfs, alice_key, secure=False)
        alice.attach("/testdir")
        alice.submit_credential(alice_cred)
        alice.read_path("/paper.tex")

        reads = [r for r in discfs.audit.by_principal(alice_id)
                 if r.operation == "read" and r.allowed]
        assert reads, "alice's read should be logged"
        # The chain names Bob's key (and the admin's) as authorizers.
        assert any(bob_id in r.authorized_by for r in reads)
        assert any(administrator.identity in r.authorized_by for r in reads)

    def test_denials_logged(self, discfs, bob_key, bob_id):
        bob = DisCFSClient.connect(discfs, bob_key, secure=False)
        bob.attach("/")
        with pytest.raises(NFSError):
            bob.readdir(bob.root)
        denials = discfs.audit.denials()
        assert denials
        assert denials[-1].principal == bob_id
        assert denials[-1].operation == "readdir"
        assert denials[-1].granted == "false"

    def test_cached_operations_still_carry_chain(self, discfs, administrator,
                                                 bob_key, bob_id):
        testdir = discfs.fs.mkdir(discfs.fs.root_ino, "d")
        discfs.fs.write_file("/d/f", b"x" * 100)
        cred = administrator.grant_inode(bob_id, testdir, rights="RX",
                                         scheme=discfs.handle_scheme,
                                         subtree=True)
        bob = DisCFSClient.connect(discfs, bob_key, secure=False)
        bob.attach("/d")
        bob.submit_credential(cred)
        for _ in range(5):  # later reads hit the policy cache
            bob.read_path("/f")
        reads = [r for r in discfs.audit.by_principal(bob_id)
                 if r.operation == "read"]
        assert len(reads) == 5
        assert all(administrator.identity in r.authorized_by for r in reads)

    def test_authorized_through_view(self, discfs, administrator, bob_key,
                                     bob_id):
        testdir = discfs.fs.mkdir(discfs.fs.root_ino, "t")
        cred = administrator.grant_inode(bob_id, testdir, rights="RWX",
                                         scheme=discfs.handle_scheme,
                                         subtree=True)
        bob = DisCFSClient.connect(discfs, bob_key, secure=False)
        bob.attach("/t")
        bob.submit_credential(cred)
        bob.readdir(bob.root)
        flowed = discfs.audit.authorized_through(administrator.identity)
        assert any(r.principal == bob_id for r in flowed)


class TestAuditRPC:
    def test_admin_fetches_audit_over_rpc(self, discfs, administrator,
                                          bob_key, bob_id):
        bob = DisCFSClient.connect(discfs, bob_key, secure=False)
        bob.attach("/")
        with pytest.raises(NFSError):
            bob.readdir(bob.root)  # generates a denial record

        admin_client = DisCFSClient.connect(discfs, administrator.key,
                                            secure=False)
        admin_client.attach("/")
        lines = admin_client.nfs.audit_log(limit=50)
        assert any("DENY" in line and "readdir" in line for line in lines)

    def test_non_admin_denied_audit(self, discfs, bob_key):
        bob = DisCFSClient.connect(discfs, bob_key, secure=False)
        bob.attach("/")
        with pytest.raises(NFSError):
            bob.nfs.audit_log()

    def test_limit_respected(self, discfs, administrator, bob_key):
        bob = DisCFSClient.connect(discfs, bob_key, secure=False)
        bob.attach("/")
        for _ in range(10):
            with pytest.raises(NFSError):
                bob.readdir(bob.root)
        admin_client = DisCFSClient.connect(discfs, administrator.key,
                                            secure=False)
        admin_client.attach("/")
        assert len(admin_client.nfs.audit_log(limit=3)) == 3


class TestAuditDisabled:
    def test_zero_capacity_records_nothing(self):
        log = AuditLog(capacity=0)
        assert log.record("k", "read", "1", "R", True) is None
        assert len(log) == 0

    def test_server_with_audit_disabled(self, administrator, bob_key, bob_id):
        from repro.core.server import DisCFSServer

        server = DisCFSServer(admin_identity=administrator.identity,
                              audit_capacity=0)
        administrator.trust_server(server)
        cred = administrator.grant_inode(
            bob_id, server.fs.iget(server.fs.root_ino), rights="RWX",
            scheme=server.handle_scheme, subtree=True)
        bob = DisCFSClient.connect(server, bob_key, secure=False)
        bob.attach("/")
        bob.submit_credential(cred)
        bob.readdir(bob.root)
        assert len(server.audit) == 0
