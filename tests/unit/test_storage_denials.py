"""A typed denial is an answer, on every composite, by construction.

``AuthError``, ``QuotaExceeded`` and ``RateLimited`` say something about
the *caller*; ``StoreUnavailable`` says something about a *node*.  Every
layer that wraps or fans out over another store must hand a denial up
unchanged, and ``replica://`` must never count one as a child failure
and outvote it with the siblings that said yes — that would let a node
that missed a ``REVOKE`` (or enforces no quota) overrule the one that
applied it.

The matrix below runs every composite scheme the spec registry knows
(both fan-out modes of ``replica://``; ``remote://``
over an in-process ``store-serve``, so the wire's in-band status codes
are exercised, with ``replica://`` on either side of the wire, and once
mounted while its node was down, so the denial comes back from the
operation that makes first contact) over a
test-local child that answers every operation
with one typed denial.  ``test_matrix_covers_every_composite_scheme``
fails when a new wrapper scheme is registered without a row here.
"""

from __future__ import annotations

import io
from dataclasses import fields

import pytest

from held_store import HeldBlockStore  # tests/held_store.py
from repro.core.audit import AuditLog
from repro.crypto.keycodec import encode_private_key, encode_public_key
from repro.errors import AuthError, QuotaExceeded, RateLimited, StoreUnavailable
from repro.storage import (
    CachedBlockStore,
    DelayedBlockStore,
    FailingBlockStore,
    InstrumentedBlockStore,
    JournalBlockStore,
    MemoryBlockStore,
    RemoteBlockStore,
    ReplicatedBlockStore,
    TenantBlockStore,
    open_store,
    serve_store,
)
from repro.storage.auth import StoreAuthGate, TenantQuota, issue_store_credential
from repro.storage.base import BlockStore, WrapperBlockStore
from repro.storage.spec import SPEC_TYPES

BLOCKS = 64
BS = 512
DENIALS = [AuthError, QuotaExceeded, RateLimited]


class _Denying(MemoryBlockStore):
    """A child that answers every operation with ``error`` (None lets
    operations through, so teardown can flush and close)."""

    def __init__(self, error: type[Exception] | None):
        super().__init__(BLOCKS, BS)
        self.error = error

    def _deny(self) -> None:
        if self.error is not None:
            raise self.error(f"test child answers {self.error.__name__}")

    def _get(self, block_no: int) -> bytes | None:
        self._deny()
        return super()._get(block_no)

    def _put(self, block_no: int, data: bytes) -> None:
        self._deny()
        super()._put(block_no, data)

    def flush(self) -> None:
        self._deny()

    def used_blocks(self) -> int:
        self._deny()
        return super().used_blocks()

    def used_block_numbers(self) -> list[int]:
        self._deny()
        return super().used_block_numbers()


def _served(child: BlockStore, servers: list) -> BlockStore:
    server = serve_store(child)
    servers.append(server)
    host, port = server.address
    return RemoteBlockStore.connect(host, port)


def _served_after_mount(child: BlockStore, servers: list) -> BlockStore:
    """A ``remote://`` mount made while its node is down, whose node
    then comes up: first contact happens inside the first operation."""
    probe = serve_store(MemoryBlockStore(BLOCKS, BS))
    host, port = probe.address
    probe.close()
    store = RemoteBlockStore.connect(host, port, num_blocks=BLOCKS,
                                     block_size=BS)
    servers.append(serve_store(child, host=host, port=port))
    return store


#: Row id -> build(make_child, tmp_path, servers).  The scheme is the id
#: up to ``#``; the fragment names the fan-out mode, or the layer across
#: the wire when a denial crosses it between ``replica://`` and its
#: children.
STACKS = {
    "replica": lambda child, tmp, servers: ReplicatedBlockStore(
        [child() for _ in range(3)], write_quorum=2, read_quorum=2),
    "replica#fanout=1": lambda child, tmp, servers: ReplicatedBlockStore(
        [child() for _ in range(3)], write_quorum=2, read_quorum=2,
        fanout=1),
    "replica#children=remote": lambda child, tmp, servers:
        ReplicatedBlockStore([_served(child(), servers) for _ in range(3)],
                             write_quorum=2, read_quorum=2),
    "cached": lambda child, tmp, servers: CachedBlockStore(child()),
    "metered": lambda child, tmp, servers: InstrumentedBlockStore(child()),
    "failing": lambda child, tmp, servers: FailingBlockStore(child()),
    "journal": lambda child, tmp, servers: JournalBlockStore(
        child(), journal_path=str(tmp / "denials.journal")),
    "slow": lambda child, tmp, servers: DelayedBlockStore(child()),
    "tenant": lambda child, tmp, servers: TenantBlockStore(child(), "t"),
    "remote": lambda child, tmp, servers: _served(child(), servers),
    "remote#child=replica": lambda child, tmp, servers: _served(
        ReplicatedBlockStore([child() for _ in range(3)], write_quorum=2,
                             read_quorum=2), servers),
    "remote#down-at-mount": lambda child, tmp, servers: _served_after_mount(
        child(), servers),
}

#: Operations a caller issues; a write-back layer surfaces its child's
#: answer to a write at ``flush``.
OPS = {
    "read": lambda store: store.read(3),
    "write": lambda store: store.write(3, b"w"),
    "read_many": lambda store: store.read_many([1, 2, 3, 40]),
    "write_many": lambda store: store.write_many(
        [(block_no, b"m") for block_no in (1, 2, 3, 40)]),
}


def _composite_schemes() -> set[str]:
    """Registered schemes whose spec holds a child or a child list, plus
    ``remote`` (its child is the served store across the wire)."""
    return {
        scheme for scheme, spec_cls in SPEC_TYPES.items()
        if any(f.metadata.get("role") in ("child", "children")
               for f in fields(spec_cls))
    } | {"remote"}


def test_matrix_covers_every_composite_scheme():
    assert {row.partition("#")[0] for row in STACKS} == _composite_schemes()


@pytest.fixture
def stack(tmp_path):
    """Builds ``STACKS[row]`` over denying children; disarms them before
    teardown flushes and closes."""
    children: list[_Denying] = []
    servers: list = []
    built: list[BlockStore] = []

    def build(row: str, error: type[Exception]) -> BlockStore:
        def child() -> _Denying:
            children.append(_Denying(error))
            return children[-1]

        built.append(STACKS[row](child, tmp_path, servers))
        return built[-1]

    yield build
    for child in children:
        child.error = None
    for store in built:
        store.close()
    for server in servers:
        server.close()
        server.store.close()


@pytest.mark.parametrize("op", sorted(OPS))
@pytest.mark.parametrize("error", DENIALS, ids=lambda e: e.__name__)
@pytest.mark.parametrize("row", sorted(STACKS))
def test_denial_surfaces_unchanged(stack, row, error, op):
    store = stack(row, error)
    with pytest.raises(error) as raised:
        OPS[op](store)
        if op.startswith("write") and getattr(store, "buffers_writes", False):
            store.flush()
    assert type(raised.value) is error
    if isinstance(store, ReplicatedBlockStore):
        stats = store.replica_stats
        assert (stats.child_failures, stats.degraded_reads,
                stats.degraded_writes) == (0, 0, 0)


@pytest.mark.parametrize("call", [
    lambda store: store._contains(5),
    lambda store: store.flush(),
    lambda store: store.used_blocks(),
    lambda store: store.used_block_numbers(),
], ids=["contains", "flush", "used_blocks", "used_block_numbers"])
def test_replica_introspection_does_not_swallow_a_denial(call):
    store = ReplicatedBlockStore(
        [_Denying(AuthError), MemoryBlockStore(BLOCKS, BS),
         MemoryBlockStore(BLOCKS, BS)], write_quorum=2, read_quorum=2)
    with pytest.raises(AuthError):
        call(store)
    assert store.replica_stats.child_failures == 0
    store.children[0].error = None
    store.close()


class TestNotOutvoted:
    """One replica's denial binds even when the others would say yes."""

    URI = "replica://tenant://mem://#name=a&quota=1;mem://;mem://#w=2&r=1"

    def test_quota_binds_in_sequential_mode(self):
        store = open_store(self.URI + "&fanout=1", num_blocks=BLOCKS,
                           block_size=BS)
        store.write(0, b"first block")
        with pytest.raises(QuotaExceeded):
            store.write(1, b"second distinct block")
        stats = store.replica_stats
        assert (stats.child_failures, stats.degraded_writes) == (0, 0)
        store.close()

    def test_quota_binds_while_the_others_are_still_writing(self):
        """The same stack, concurrent: the two children that would
        accept are held, so the denial is certainly the first answer."""
        yes = [HeldBlockStore(MemoryBlockStore(BLOCKS, BS)) for _ in range(2)]
        store = ReplicatedBlockStore(
            [TenantBlockStore(MemoryBlockStore(BLOCKS, BS), "a",
                              quota_blocks=1), *yes],
            write_quorum=2, read_quorum=1)
        try:
            store.write(0, b"first block")
            store.drain()
            for held in yes:
                held.hold()
            with pytest.raises(QuotaExceeded):
                store.write(1, b"second distinct block")
            stats = store.replica_stats
            assert (stats.child_failures, stats.degraded_writes) == (0, 0)
        finally:
            for held in yes:
                held.release()
            store.close()

    def test_a_node_that_applied_revoke_is_not_outvoted(
            self, tmp_path, admin_key, admin_id, alice_key, alice_id):
        policy = (
            'Authorizer: "POLICY"\n'
            f'Licensees: "{admin_id}"\n'
            'Conditions: (app_domain == "discfs-store") -> "admin";\n'
        )
        key_file = tmp_path / "alice.key"
        key_file.write_text(encode_private_key(alice_key))
        cred_file = tmp_path / "alice.cred"
        cred_file.write_text(
            issue_store_credential(admin_key, alice_id, "alice"))
        nodes = []
        for _ in range(3):
            held = HeldBlockStore(MemoryBlockStore(BLOCKS, BS))
            gate = StoreAuthGate(policy, tenants=[TenantQuota("alice", 16)],
                                 audit=AuditLog(stream=io.StringIO()))
            nodes.append((serve_store(held, gate=gate), held))
        store = None
        try:
            store = open_store("replica://" + ";".join(
                f"remote://{server.address[0]}:{server.address[1]}"
                f"#cred={cred_file}&key={key_file}&tenant=alice"
                for server, _held in nodes) + "#w=2&r=2")
            store.write(0, b"before the revocation")
            store.drain()
            host, port = nodes[0][0].address
            operator = RemoteBlockStore.connect(host, port, key=admin_key,
                                                rights="admin")
            operator.revoke(f"key {encode_public_key(alice_key)}")
            operator.close()
            for _server, held in nodes[1:]:
                held.hold()  # the nodes that missed the REVOKE
            with pytest.raises(AuthError, match="revoked"):
                store.write(1, b"after the revocation")
            assert store.replica_stats.child_failures == 0
        finally:
            for server, held in nodes:
                held.release()
            if store is not None:
                store.close()
            for server, _held in nodes:
                server.close()


class _Node(WrapperBlockStore):
    """A replica child that can be down (an outage) or mounted with
    read-only rights (writes answer ``AuthError``)."""

    def __init__(self, child: BlockStore):
        super().__init__(child)
        self.down = False
        self.read_only = False

    def around(self, op, fn):
        if self.down:
            raise StoreUnavailable("node down")
        if self.read_only and op in ("write", "write_many"):
            raise AuthError("session grants 'r', write needs 'rw'")
        return fn()


@pytest.mark.parametrize("fanout", [None, 1])
def test_read_repair_skips_a_child_that_refuses_the_write_back(fanout):
    """The caller asked to read: a lagging child whose session cannot
    write is left behind, and the read still returns the newest copy."""
    lagging = _Node(MemoryBlockStore(BLOCKS, BS))
    store = ReplicatedBlockStore(
        [MemoryBlockStore(BLOCKS, BS), MemoryBlockStore(BLOCKS, BS), lagging],
        write_quorum=2, read_quorum=3, fanout=fanout)
    store.write(5, b"old")
    store.drain()
    lagging.down = True
    store.write(5, b"newest")  # degraded: the lagging child misses it
    store.drain()
    lagging.down = False
    lagging.read_only = True
    assert store.read(5).startswith(b"newest")
    assert store.replica_stats.repaired_blocks == 0
    assert store.replica_stats.child_failures == 2  # the outage + the refusal
    assert lagging.child._get(5).startswith(b"old")
    store.close()
