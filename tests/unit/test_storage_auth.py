"""The credential-gated storage plane: sessions, tenants, quotas, audit.

DisCFS's thesis — *credentials, not host identity, decide access* — now
applies to ``store-serve`` too.  These tests drive the KeyNote handshake
end to end over real TCP (``serve_store`` with a ``StoreAuthGate``),
then cover the tenant view, the quota/rate machinery and the CLI
surface in isolation.
"""

from __future__ import annotations

import json
import io

import pytest

from repro.crypto.dsa import generate_dsa_keypair
from repro.crypto.keycodec import (
    encode_private_key,
    encode_public_key,
)
from repro.crypto.numbers import seeded_random_bits
from repro.errors import (
    AuthError,
    InvalidArgument,
    NoSpace,
    QuotaExceeded,
    RateLimited,
    StoreUnavailable,
)
from repro.storage import MemoryBlockStore, open_store
from repro.core.audit import AuditLog
from repro.storage.auth import (
    StoreAuthGate,
    TenantQuota,
    issue_store_credential,
    sign_session_request,
)
from repro.storage.net import RemoteBlockStore, serve_store
from repro.storage.tenant import TenantBlockStore, TokenBucket

BLOCKS = 64
BS = 512


# -- deterministic principals (DSA keygen once per run) ----------------------


@pytest.fixture(scope="module")
def keys():
    return {
        name: generate_dsa_keypair(rand=seeded_random_bits(name.encode()))
        for name in ("op", "alice", "bob", "mallory")
    }


@pytest.fixture(scope="module")
def policy(keys):
    """Trust root: the operator key may do anything in the store domain."""
    return (
        'Authorizer: "POLICY"\n'
        f'Licensees: "{encode_public_key(keys["op"])}"\n'
        'Conditions: (app_domain == "discfs-store") -> "admin";\n'
    )


@pytest.fixture
def gated(keys, policy):
    """A gated TCP server with two tenants; yields a connect helper."""
    gate = StoreAuthGate(
        policy,
        tenants=[
            TenantQuota(name="alice", blocks=16, quota_bytes=None),
            TenantQuota(name="bob", blocks=16, quota_bytes=4 * BS),
        ],
        audit=AuditLog(stream=io.StringIO()),
    )
    server = serve_store(MemoryBlockStore(BLOCKS, BS), gate=gate)
    host, port = server.address
    mounts = []

    def connect(**kwargs):
        store = RemoteBlockStore.connect(host, port, **kwargs)
        mounts.append(store)
        return store

    yield type("G", (), {"gate": gate, "server": server,
                         "connect": staticmethod(connect),
                         "address": (host, port)})
    for mount in mounts:
        try:
            mount.close()
        except Exception:
            pass
    server.close()


def cred_for(keys, who: str, tenant, rights="rw", **kwargs) -> str:
    return issue_store_credential(
        keys["op"], encode_public_key(keys[who]), tenant, rights=rights,
        **kwargs)


# -- the handshake over real TCP ---------------------------------------------


class TestSessionHandshake:
    def test_authenticated_mount_sees_its_tenant_region(self, gated, keys):
        store = gated.connect(key=keys["alice"],
                              credentials=[cred_for(keys, "alice", "alice")],
                              tenant="alice")
        assert store.num_blocks == 16       # the view, not the ring
        assert store.session_rights == "rw"
        store.write(0, b"hello")
        assert store.read(0)[:5] == b"hello"

    def test_operator_key_needs_no_credential(self, gated, keys):
        store = gated.connect(key=keys["op"], rights="admin")
        assert store.num_blocks == BLOCKS   # whole-store session
        assert store.session_rights == "admin"
        assert store.remote_stats().extra["auth_tenants"] == 2.0

    def test_unauthenticated_mount_is_refused(self, gated):
        with pytest.raises(AuthError, match="no authenticated session"):
            gated.connect()

    def test_every_proc_requires_a_session(self, gated, keys):
        """Walk the full surface with a forged token: each proc must
        raise the *typed* auth error, never serve data."""
        store = gated.connect(key=keys["op"], rights="admin")
        store._token = b"\xde\xad\xbe\xef" * 4   # forge after the handshake
        surface = [
            lambda: store.read(0),
            lambda: store.write(0, b"x"),
            lambda: store.read_many([0, 1]),
            lambda: store.write_many([(0, b"x")]),
            lambda: store.flush(),
            lambda: store.used_blocks(),
            lambda: store._contains(0),
            lambda: store.used_block_numbers(),
            lambda: store.remote_stats(),
        ]
        for op in surface:
            with pytest.raises(AuthError):
                op()
        assert gated.gate.auth_denied >= len(surface)

    def test_null_ping_stays_open_for_health_checks(self, gated):
        """NULL keeps the RPC-wide convention: reachable without a
        session, so monitoring works against gated and open nodes."""
        from repro.rpc.client import RPCClient
        from repro.rpc.transport import TCPTransport
        from repro.storage.net import BLOCKSTORE_PROGRAM, BLOCKSTORE_VERSION

        host, port = gated.address
        transport = TCPTransport(host, port, timeout=10.0)
        try:
            RPCClient(transport, BLOCKSTORE_PROGRAM,
                      BLOCKSTORE_VERSION).call(0, b"").done()
        finally:
            transport.close()

    def test_wrong_key_cannot_use_someone_elses_credential(self, gated,
                                                           keys):
        """mallory presents alice's credential but signs with her own
        key: the compliance query authorizes the *session key*, which
        the chain never delegates to."""
        with pytest.raises(AuthError, match="policy grants 'none'"):
            gated.connect(key=keys["mallory"],
                          credentials=[cred_for(keys, "alice", "alice")],
                          tenant="alice")

    def test_expired_credential_is_dead(self, gated, keys):
        stale = cred_for(keys, "alice", "alice", expires_at=1)  # 1970
        with pytest.raises(AuthError, match="policy grants 'none'"):
            gated.connect(key=keys["alice"], credentials=[stale],
                          tenant="alice")

    def test_tampered_credential_is_rejected_at_submission(self, gated,
                                                           keys):
        good = cred_for(keys, "alice", "alice")
        forged = good.replace('-> "rw"', '-> "admin"')
        with pytest.raises(AuthError, match="credential rejected"):
            gated.connect(key=keys["alice"], credentials=[forged],
                          tenant="alice")

    def test_unsigned_credential_is_rejected(self, gated, keys):
        unsigned = (
            f'Authorizer: "{encode_public_key(keys["op"])}"\n'
            f'Licensees: "{encode_public_key(keys["alice"])}"\n'
            'Conditions: (app_domain == "discfs-store") -> "rw";\n'
        )
        with pytest.raises(AuthError, match="credential rejected"):
            gated.connect(key=keys["alice"], credentials=[unsigned],
                          tenant="alice")

    def test_rights_escalation_is_refused(self, gated, keys):
        """A chain granting rw cannot open an admin session."""
        with pytest.raises(AuthError, match="policy grants 'rw'"):
            gated.connect(key=keys["alice"],
                          credentials=[cred_for(keys, "alice", "alice")],
                          tenant="alice", rights="admin")

    def test_read_session_cannot_write(self, gated, keys):
        store = gated.connect(key=keys["alice"],
                              credentials=[cred_for(keys, "alice", "alice")],
                              tenant="alice", rights="r")
        assert store.read(0) == b"\x00" * BS
        with pytest.raises(AuthError, match="needs 'rw' rights"):
            store.write(0, b"x")

    def test_unknown_tenant_is_refused(self, gated, keys):
        with pytest.raises(AuthError, match="unknown tenant"):
            gated.connect(key=keys["op"],
                          credentials=[cred_for(keys, "alice", "carol")],
                          tenant="carol")

    def test_nonce_cannot_be_replayed(self, gated, keys):
        """The challenge is popped on first use: replaying the same
        signed SESSION_OPEN bytes must fail, even though the signature
        still verifies — the wire is plain TCP."""
        gate, key = gated.gate, keys["op"]
        identity = encode_public_key(key)
        nonce = gate.issue_nonce()
        signature = sign_session_request(key, nonce, identity, "", "rw")
        gate.open_session(identity, "", "rw", [], nonce, signature)
        with pytest.raises(AuthError, match="replayed"):
            gate.open_session(identity, "", "rw", [], nonce, signature)

    def test_expired_nonce_is_refused(self, keys, policy):
        clock = [1000.0]
        gate = StoreAuthGate(policy, clock=lambda: clock[0], nonce_ttl=5.0)
        gate.bind(MemoryBlockStore(BLOCKS, BS))
        key = keys["op"]
        identity = encode_public_key(key)
        nonce = gate.issue_nonce()
        clock[0] += 6.0
        signature = sign_session_request(key, nonce, identity, "", "rw")
        with pytest.raises(AuthError, match="expired"):
            gate.open_session(identity, "", "rw", [], nonce, signature)

    def test_session_expiry_forces_reauthentication(self, keys, policy):
        clock = [1000.0]
        gate = StoreAuthGate(policy, clock=lambda: clock[0],
                             session_ttl=60.0)
        gate.bind(MemoryBlockStore(BLOCKS, BS))
        key = keys["op"]
        identity = encode_public_key(key)
        nonce = gate.issue_nonce()
        session = gate.open_session(
            identity, "", "rw", [], nonce,
            sign_session_request(key, nonce, identity, "", "rw"))
        assert gate.authorize(session.token, "READ", "r") is session
        clock[0] += 61.0
        with pytest.raises(AuthError, match="no authenticated session"):
            gate.authorize(session.token, "READ", "r")

    def test_auth_errors_are_not_availability_errors(self):
        """replica:// treats StoreUnavailable as a down node and fails
        over; a denial must never be mistaken for that."""
        for exc_type in (AuthError, QuotaExceeded, RateLimited):
            assert not issubclass(exc_type, StoreUnavailable)

    def test_unknown_rights_word_is_denied_like_any_other(self, keys, policy):
        """Denied through the gate's one path: counted and audited."""
        stream = io.StringIO()
        gate = StoreAuthGate(policy, audit=AuditLog(stream=stream))
        gate.bind(MemoryBlockStore(BLOCKS, BS))
        key = keys["op"]
        identity = encode_public_key(key)
        nonce = gate.issue_nonce()
        with pytest.raises(AuthError, match="superuser"):
            gate.open_session(
                identity, "", "superuser", [], nonce,
                sign_session_request(key, nonce, identity, "", "superuser"))
        assert gate.auth_denied == 1
        [line] = [json.loads(ln) for ln in stream.getvalue().splitlines()]
        assert (line["operation"], line["allowed"]) == ("SESSION_OPEN", False)
        assert "superuser" in line["reason"]


# -- one authority: intake cost and revocation --------------------------------


def count_calls(monkeypatch, fn, keep=lambda *args: True) -> list:
    """Record the calls of module-level ``fn`` made through any name a
    ``repro`` module binds it by (``keep`` filters by arguments)."""
    import sys

    calls: list = []

    def counting(*args, **kwargs):
        if keep(*args):
            calls.append(args)
        return fn(*args, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro"):
            for name, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, name, counting)
    return calls


class TestOneAuthority:
    def test_ten_opens_verify_the_credential_once_and_never_reparse_policy(
            self, keys, policy, monkeypatch):
        from repro.keynote.parser import parse_assertions
        from repro.keynote.signing import verify_assertion

        gate = StoreAuthGate(policy, tenants=[TenantQuota("alice", 16)])
        gate.bind(MemoryBlockStore(BLOCKS, BS))
        verifies = count_calls(monkeypatch, verify_assertion)
        policy_parses = count_calls(monkeypatch, parse_assertions,
                                    keep=lambda text: text == policy)
        key = keys["alice"]
        identity = encode_public_key(key)
        credential = cred_for(keys, "alice", "alice")
        for _ in range(10):
            nonce = gate.issue_nonce()
            gate.open_session(
                identity, "alice", "rw", [credential], nonce,
                sign_session_request(key, nonce, identity, "alice", "rw"))
        assert len(verifies) == 1
        assert len(policy_parses) == 0
        # Each credential stayed scoped to its own query.
        assert gate.engine.session.credentials == []

    def test_concurrent_opens_leave_the_session_as_they_found_it(
            self, keys, policy):
        """Presented credentials are installed and removed under the
        gate's lock: with many threads opening and authorizing at once,
        every open succeeds and none leaves a credential behind."""
        import sys
        import threading

        gate = StoreAuthGate(policy, tenants=[TenantQuota("alice", 16)])
        gate.bind(MemoryBlockStore(BLOCKS, BS))
        key = keys["alice"]
        identity = encode_public_key(key)
        credential = cred_for(keys, "alice", "alice")
        errors: list[Exception] = []

        def worker():
            try:
                for _ in range(4):
                    nonce = gate.issue_nonce()
                    session = gate.open_session(
                        identity, "alice", "rw", [credential], nonce,
                        sign_session_request(key, nonce, identity, "alice",
                                             "rw"))
                    gate.authorize(session.token, "WRITE", "rw")
            except Exception as exc:  # reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert gate.sessions_opened == 32
        assert gate.engine.session.credentials == []

    def test_revoked_key_stops_the_next_read(self, gated, keys):
        alice = gated.connect(key=keys["alice"],
                              credentials=[cred_for(keys, "alice", "alice")],
                              tenant="alice")
        alice.write(0, b"before")
        op = gated.connect(key=keys["op"], rights="admin")
        assert op.revoke(f"key {encode_public_key(keys['alice'])}") \
            .startswith("revoked key")
        with pytest.raises(AuthError, match="session revoked"):
            alice.read(0)
        with pytest.raises(AuthError, match="no authenticated session"):
            alice.read(0)   # the session is gone, not just refused once
        with pytest.raises(AuthError, match="revoked"):
            gated.connect(key=keys["alice"],
                          credentials=[cred_for(keys, "alice", "alice")],
                          tenant="alice")

    def test_revoked_credential_kills_the_tenant_session_only(self, gated,
                                                              keys):
        from repro.keynote.parser import parse_assertion

        credential = cred_for(keys, "alice", "alice")
        alice = gated.connect(key=keys["alice"], credentials=[credential],
                              tenant="alice")
        op = gated.connect(key=keys["op"], rights="admin")
        alice.read(0)
        op.revoke(f"credential {parse_assertion(credential).signature}")
        with pytest.raises(AuthError, match="session revoked"):
            alice.read(0)
        op.write(0, b"operator")        # decided again, and still admin
        assert op.read(0)[:8] == b"operator"

    def test_revocation_needs_admin_and_the_grammar(self, gated, keys):
        alice = gated.connect(key=keys["alice"],
                              credentials=[cred_for(keys, "alice", "alice")],
                              tenant="alice")
        with pytest.raises(AuthError, match="needs 'admin'"):
            alice.revoke(f"key {encode_public_key(keys['bob'])}")
        op = gated.connect(key=keys["op"], rights="admin")
        for bad in ("key", "certificate 12", ""):
            with pytest.raises(AuthError, match="revocation"):
                op.revoke(bad)


# -- tenant isolation over one shared ring -----------------------------------


class TestTenantIsolation:
    def test_tenants_cannot_see_each_others_blocks(self, gated, keys):
        alice = gated.connect(key=keys["alice"],
                              credentials=[cred_for(keys, "alice", "alice")],
                              tenant="alice")
        bob = gated.connect(key=keys["bob"],
                            credentials=[cred_for(keys, "bob", "bob")],
                            tenant="bob")
        alice.write(0, b"alice secret")
        # Same block number, disjoint namespaces.
        assert bob.read(0) == b"\x00" * BS
        bob.write(0, b"bob data")
        assert alice.read(0)[:12] == b"alice secret"
        # Enumeration is confined too: bob lists only his own block.
        assert bob.used_block_numbers() == [0]
        assert alice.used_block_numbers() == [0]

    def test_tenant_cannot_address_outside_its_region(self, gated, keys):
        alice = gated.connect(key=keys["alice"],
                              credentials=[cred_for(keys, "alice", "alice")],
                              tenant="alice")
        with pytest.raises(NoSpace):
            alice.read(16)   # one past the 16-block view

    def test_cross_tenant_credential_is_refused(self, gated, keys):
        """bob holds a credential for *bob* but asks for alice's
        namespace: the tenant action attribute fails the query."""
        with pytest.raises(AuthError, match="policy grants 'none'"):
            gated.connect(key=keys["bob"],
                          credentials=[cred_for(keys, "bob", "bob")],
                          tenant="alice")

    def test_quota_breach_raises_typed_error_over_the_wire(self, gated,
                                                           keys):
        bob = gated.connect(key=keys["bob"],
                            credentials=[cred_for(keys, "bob", "bob")],
                            tenant="bob")
        for i in range(4):                      # budget: 4 blocks of bytes
            bob.write(i, b"x" * BS)
        with pytest.raises(QuotaExceeded):
            bob.write(4, b"x" * BS)
        # The denial is accounted, and the region's data survived.
        assert gated.gate.extra_stats()["tenant:bob:quota_denied"] == 1.0
        assert bob.read(0) == b"x" * BS


# -- the tenant view in isolation --------------------------------------------


class TestTenantBlockStore:
    def test_region_maps_onto_child_offset(self):
        child = MemoryBlockStore(BLOCKS, BS)
        view = TenantBlockStore(child, "t", offset=8, num_blocks=4,
                                owns_child=False)
        view.write(0, b"data")
        assert child.read(8)[:4] == b"data"
        assert view.num_blocks == 4
        with pytest.raises(NoSpace):
            view.read(4)
        view.close()
        child.close()

    def test_block_quota_counts_distinct_blocks(self):
        view = TenantBlockStore(MemoryBlockStore(BLOCKS, BS), "t",
                                quota_blocks=2)
        view.write(0, b"a")
        view.write(0, b"b")          # rewrite is free
        view.write(1, b"c")
        with pytest.raises(QuotaExceeded):
            view.write(2, b"d")
        assert view.snapshot().extra["tenant:t:quota_denied"] == 1.0
        view.close()

    def test_byte_budget_is_cumulative(self):
        view = TenantBlockStore(MemoryBlockStore(BLOCKS, BS), "t",
                                quota_bytes=3 * BS)
        view.write_many([(0, b"x" * BS), (1, b"x" * BS)])
        view.write(2, b"x" * BS)
        with pytest.raises(QuotaExceeded):
            view.write(3, b"x")
        view.close()

    def test_rate_limit_refills_with_the_clock(self):
        clock = [0.0]
        view = TenantBlockStore(MemoryBlockStore(BLOCKS, BS), "t",
                                rate_ops=10.0, burst=2.0,
                                clock=lambda: clock[0])
        view.read(0)
        view.read(0)
        with pytest.raises(RateLimited):
            view.read(0)
        clock[0] += 0.1              # one token refilled
        view.read(0)
        assert view.snapshot().extra["tenant:t:rate_denied"] == 1.0
        view.close()

    def test_oversized_write_rejected_before_charging_quota(self):
        view = TenantBlockStore(MemoryBlockStore(BLOCKS, BS), "t",
                                quota_blocks=1)
        with pytest.raises(InvalidArgument):
            view.write(0, b"x" * (BS + 1))
        view.write(0, b"fits")       # the failed write consumed nothing
        view.close()

    def test_tenant_uri_scheme_builds_the_view(self):
        store = open_store("tenant://mem://?blocks=32#name=x&offset=8"
                           "&blocks=8&quota=4&rate=100",
                           num_blocks=BLOCKS, block_size=BS)
        assert isinstance(store, TenantBlockStore)
        assert store.num_blocks == 8
        store.write(0, b"y")
        assert store.used_blocks() == 1
        store.close()

    def test_token_bucket_burst_and_refill(self):
        clock = [0.0]
        bucket = TokenBucket(rate=2.0, burst=4.0, clock=lambda: clock[0])
        assert all(bucket.try_take(1) for _ in range(4))
        assert not bucket.try_take(1)
        clock[0] += 1.0              # 2 tokens back
        assert bucket.try_take(2)
        assert not bucket.try_take(1)


# -- quota grammar, audit trail, gate construction ---------------------------


class TestGatePlumbing:
    def test_tenant_quota_grammar(self):
        assert TenantQuota.parse("a=8") == TenantQuota("a", 8)
        assert TenantQuota.parse("a=8:4096") == TenantQuota("a", 8, 4096)
        assert TenantQuota.parse("a=8:4096:2.5") == \
            TenantQuota("a", 8, 4096, 2.5)
        assert TenantQuota.parse("a=8::5") == TenantQuota("a", 8, None, 5.0)
        for bad in ("a", "=8", "a=", "a=0", "a=x", "a=8:1:2:3"):
            with pytest.raises(InvalidArgument):
                TenantQuota.parse(bad)

    def test_gate_rejects_broken_configuration(self, policy):
        with pytest.raises(InvalidArgument, match="no POLICY"):
            StoreAuthGate("")
        with pytest.raises(InvalidArgument, match="duplicate tenant"):
            StoreAuthGate(policy, tenants=[TenantQuota("a", 8),
                                           TenantQuota("a", 8)])
        gate = StoreAuthGate(policy, tenants=[TenantQuota("a", BLOCKS + 1)])
        with pytest.raises(InvalidArgument, match="exceed"):
            gate.bind(MemoryBlockStore(BLOCKS, BS))

    def test_audit_log_records_structured_verdicts(self, keys, policy):
        stream = io.StringIO()
        gate = StoreAuthGate(policy, audit=AuditLog(stream=stream))
        gate.bind(MemoryBlockStore(BLOCKS, BS))
        key = keys["op"]
        identity = encode_public_key(key)
        nonce = gate.issue_nonce()
        session = gate.open_session(
            identity, "", "rw", [], nonce,
            sign_session_request(key, nonce, identity, "", "rw"))
        gate.authorize(session.token, "WRITE", "rw")
        with pytest.raises(AuthError):
            gate.authorize(b"bogus", "READ", "r")
        lines = [json.loads(line) for line in
                 stream.getvalue().splitlines()]
        assert [(ln["operation"], ln["allowed"]) for ln in lines] == [
            ("SESSION_OPEN", True),
            ("WRITE", True),
            ("READ", False),
        ]
        assert lines[0]["granted"] == "admin"   # what policy delegates
        assert lines[0]["principal"] == identity
        assert "no authenticated session" in lines[2]["reason"]
        assert all("ts" in ln for ln in lines)

    def test_denials_surface_in_stats(self, gated, keys):
        with pytest.raises(AuthError):
            gated.connect()
        op = gated.connect(key=keys["op"], rights="admin")
        extra = op.remote_stats().extra
        assert extra["auth_denied"] >= 1.0
        assert extra["auth_sessions"] >= 1.0


# -- CLI surface -------------------------------------------------------------


class TestCLI:
    def test_store_serve_refuses_public_bind_without_policy(self, capsys):
        from repro.cli import main

        rc = main(["store-serve", "--host", "0.0.0.0", "--oneshot"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--policy" in err and "--insecure" in err

    def test_store_serve_insecure_overrides_refusal(self, capsys):
        from repro.cli import main

        rc = main(["store-serve", "--host", "0.0.0.0", "--insecure",
                   "--oneshot"])
        assert rc == 0
        assert "auth open" in capsys.readouterr().out

    def test_store_serve_gated_announces_tenants(self, tmp_path, capsys,
                                                 policy):
        from repro.cli import main

        policy_file = tmp_path / "policy.txt"
        policy_file.write_text(policy)
        rc = main(["store-serve", "--policy", str(policy_file),
                   "--tenant-quota", "alice=8", "--tenant-quota", "bob=8:99",
                   "--oneshot"])
        assert rc == 0
        assert "auth keynote, 2 tenant(s)" in capsys.readouterr().out

    def test_store_serve_tenant_quota_needs_policy(self):
        from repro.cli import main

        rc = main(["store-serve", "--tenant-quota", "a=8", "--oneshot"])
        assert rc == 1   # ReproError path

    def test_store_issue_roundtrips_through_the_gate(self, tmp_path, keys,
                                                     policy, capsys):
        from repro.cli import main
        from repro.keynote.parser import parse_assertion
        from repro.keynote.signing import verify_assertion

        key_file = tmp_path / "op.key"
        key_file.write_text(encode_private_key(keys["op"]) + "\n")
        out = tmp_path / "alice.cred"
        rc = main(["store-issue", "--key", str(key_file),
                   "--licensee", encode_public_key(keys["alice"]),
                   "--tenant", "alice", "--rights", "rw",
                   "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        verify_assertion(parse_assertion(text))   # raises on a bad signature
        assert 'tenant == "alice"' in text

    def test_store_inspect_renders_tenant_table(self, gated, keys, tmp_path,
                                                capsys):
        from repro.cli import main

        alice = gated.connect(key=keys["alice"],
                              credentials=[cred_for(keys, "alice", "alice")],
                              tenant="alice")
        alice.write(0, b"x")
        host, port = gated.address
        key_file = tmp_path / "op.key"
        key_file.write_text(encode_private_key(keys["op"]) + "\n")
        rc = main(["store-inspect",
                   f"remote://{host}:{port}#key={key_file}&rights=admin"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "tenant" in out and "alice" in out and "bob" in out
        assert "[0,16)" in out and "[16,32)" in out
