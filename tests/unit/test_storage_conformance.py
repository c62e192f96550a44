"""Conformance suite for every registered storage-backend URI scheme.

One parametrized battery runs against each backend the registry can
resolve, so a new scheme gets the full read/write/round-trip contract
checked by adding a single URI template here.  Backend-specific behaviour
(persistence across close/reopen, cache write-back) is covered below the
shared battery.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import InvalidArgument, NoSpace
from repro.fs.ffs import FFS
from repro.fs import persist
from repro.storage import (
    CachedBlockStore,
    open_device,
    open_store,
    registered_schemes,
    split_uri,
)
from repro.storage.base import BlockDeviceStats

BLOCKS = 64
BS = 512

#: One URI template per registered scheme; ``{tmp}`` is filled with a
#: per-test temporary directory and ``{remote}``/``{remote2}`` with the
#: ``host:port`` of a fresh in-process ``store-serve`` (real TCP sockets).
#: The conformance battery runs on all of them, including composed stacks.
URI_TEMPLATES = {
    "mem": "mem://",
    "file": "file://{tmp}/blocks.img",
    "cached": "cached://mem://#capacity=16",
    "remote": "remote://{remote}",
    "replica": "replica://3?w=2&r=2",
    "failing": "failing://mem://",
    "journal": "journal://file://{tmp}/journaled.img",
    "slow": "slow://mem://#ms=0",
    "tenant": "tenant://mem://#name=conf",
    "metered": "metered://mem://",
}

EXTRA_COMPOSITES = [
    "cached://replica://2#capacity=8",
    "cached://file://{tmp}/nested.img#capacity=8",
    "remote://{remote}?batch=off",
    "cached://remote://{remote}#capacity=8",
    "replica://remote://{remote};remote://{remote2}#w=1&r=1",
    "replica://2/failing://mem://#w=2&r=1",
    "journal://mem://#path={tmp}/mem.journal&cap=8",
    "cached://journal://file://{tmp}/cached-journal.img#capacity=8",
    "replica://2/journal://file://{tmp}/jrep-{i}.img#w=2&r=1",
    "replica://mem://;mem://;mem://#fanout=1",
    "replica://slow://mem://#ms=1;mem://;mem://#w=2&r=2",
    "replica://remote://{remote}?workers=2;remote://{remote2}?workers=2"
    "#w=2&r=1",
    "replica://2?base=file&dir={tmp}/conf-replicas",
    "replica://mem://;file://{tmp}/mixed.img;file://{tmp}/mixed-2.img#w=2&r=2",
    "replica://2/cached://mem://#w=2&r=1",
    "replica://remote://{remote};remote://{remote2}#w=2&r=1",
    "tenant://replica://2?blocks=128#name=carve&offset=64",
    "journal://replica://2?base=file&dir={tmp}/jreplicas"
    "#path={tmp}/jreplicas.journal",
    "tenant://mem://?blocks=128#name=carve&offset=64",
    "metered://cached://mem://#capacity=8",
    "metered://remote://{remote}#slow_ms=250&ring=64",
    "journal://remote://{remote}#path={tmp}/remote.journal",
    "tenant://file://{tmp}/tenant.img#name=conf-file",
    # Nodes that are down when the store mounts: ``{late}`` comes up
    # after ``open_store`` returns and before the first operation, so
    # first contact happens inside that operation (on either transport);
    # ``{down}`` never comes up, and the quorum serves without it.
    "remote://{late}",
    "remote://{late}?workers=2",
    "replica://remote://{remote};remote://{remote2};remote://{down}#w=2&r=2",
    # The full battery over an *authenticated* session against a
    # KeyNote-gated server: proves authorization is transparent to the
    # storage contract, not a layer that changes semantics.
    "remote://{secure}#cred={authdir}/alice.cred&key={authdir}/alice.key"
    "&tenant=alice",
]

ALL_TEMPLATES = list(URI_TEMPLATES.values()) + EXTRA_COMPOSITES


def test_every_registered_scheme_is_covered():
    covered = {split_uri(t)[0] for t in URI_TEMPLATES.values()}
    assert covered == set(registered_schemes()), (
        "conformance suite must cover every registered URI scheme"
    )


@pytest.fixture(scope="session")
def auth_material(tmp_path_factory):
    """Deterministic keys, a KeyNote policy and a signed tenant
    credential for the ``{secure}`` gated server (written once: DSA
    keygen is the expensive part)."""
    from repro.crypto.dsa import generate_dsa_keypair
    from repro.crypto.keycodec import encode_private_key, encode_public_key
    from repro.crypto.numbers import seeded_random_bits
    from repro.storage.auth import issue_store_credential

    directory = tmp_path_factory.mktemp("store-auth")
    admin = generate_dsa_keypair(rand=seeded_random_bits(b"conformance-admin"))
    alice = generate_dsa_keypair(rand=seeded_random_bits(b"conformance-alice"))
    policy = (
        'Authorizer: "POLICY"\n'
        f'Licensees: "{encode_public_key(admin)}"\n'
        'Conditions: (app_domain == "discfs-store") -> "admin";\n'
    )
    (directory / "alice.key").write_text(encode_private_key(alice) + "\n")
    (directory / "alice.cred").write_text(
        issue_store_credential(admin, encode_public_key(alice),
                               "alice", rights="rw"))
    return {"dir": str(directory), "policy": policy}


@pytest.fixture
def remote_servers(auth_material):
    """Start in-process TCP block-store servers on demand, keyed by
    placeholder name (``remote``, ``remote2``, or ``secure`` for a
    KeyNote-gated one with an ``alice`` tenant); closed at teardown.
    ``down`` and ``late`` name an endpoint with no listener; ``late``
    gets its server from ``endpoint.start_late()``."""
    from repro.storage import MemoryBlockStore
    from repro.storage.auth import StoreAuthGate, TenantQuota
    from repro.storage.net import serve_store

    servers = {}
    reserved = {}

    def reserve(name: str) -> str:
        if name not in reserved:
            probe = serve_store(MemoryBlockStore(BLOCKS, BS))
            reserved[name] = probe.address
            probe.close()
        host, port = reserved[name]
        return f"{host}:{port}"

    def start_late() -> None:
        if "late" in reserved and "late" not in servers:
            host, port = reserved["late"]
            servers["late"] = serve_store(MemoryBlockStore(BLOCKS, BS),
                                          host=host, port=port)

    def endpoint(name: str) -> str:
        if name in ("down", "late"):
            return reserve(name)
        if name not in servers:
            if name == "secure":
                gate = StoreAuthGate(
                    auth_material["policy"],
                    tenants=[TenantQuota(name="alice", blocks=BLOCKS)],
                )
                servers[name] = serve_store(
                    MemoryBlockStore(BLOCKS * 2, BS), gate=gate)
            else:
                servers[name] = serve_store(MemoryBlockStore(BLOCKS, BS))
        host, port = servers[name].address
        return f"{host}:{port}"

    endpoint.start_late = start_late
    yield endpoint
    for server in servers.values():
        server.close()


def fill_template(template: str, tmp_path, endpoint, authdir="") -> str:
    uri = template.replace("{tmp}", str(tmp_path))
    uri = uri.replace("{authdir}", authdir)
    # longest-first per prefix
    for name in ("remote2", "remote", "secure", "down", "late"):
        uri = uri.replace("{%s}" % name, endpoint(name)) \
            if "{%s}" % name in uri else uri
    return uri


@pytest.fixture(params=ALL_TEMPLATES, ids=lambda t: t.replace("{tmp}/", ""))
def store(request, tmp_path, remote_servers, auth_material):
    uri = fill_template(request.param, tmp_path, remote_servers,
                        authdir=auth_material["dir"])
    s = open_store(uri, num_blocks=BLOCKS, block_size=BS)
    remote_servers.start_late()
    yield s
    s.close()


class TestConformance:
    def test_geometry(self, store):
        assert store.num_blocks == BLOCKS
        assert store.block_size == BS
        assert store.capacity_bytes == BLOCKS * BS

    def test_unwritten_blocks_read_zero(self, store):
        assert store.read(BLOCKS - 1) == bytes(BS)

    def test_write_read_roundtrip(self, store):
        payload = bytes(range(256)) * 2
        store.write(5, payload)
        assert store.read(5) == payload

    def test_short_writes_zero_padded(self, store):
        store.write(0, b"x")
        assert store.read(0) == b"x" + bytes(BS - 1)

    def test_overwrite_replaces(self, store):
        store.write(2, b"first")
        store.write(2, b"second")
        assert store.read(2).startswith(b"second")

    def test_every_block_addressable(self, store):
        for block_no in range(BLOCKS):
            store.write(block_no, block_no.to_bytes(2, "big"))
        for block_no in range(BLOCKS):
            assert store.read(block_no)[:2] == block_no.to_bytes(2, "big")
        store.flush()
        assert store.used_blocks() == BLOCKS

    def test_oversized_write_rejected(self, store):
        with pytest.raises(InvalidArgument):
            store.write(0, b"y" * (BS + 1))

    def test_out_of_range_rejected(self, store):
        with pytest.raises(NoSpace):
            store.read(BLOCKS)
        with pytest.raises(NoSpace):
            store.write(-1, b"")

    def test_stats_counted(self, store):
        store.write(1, b"a")
        store.read(1)
        store.read(3)
        assert store.stats.writes == 1
        assert store.stats.reads == 2
        assert store.stats.bytes_written == BS
        assert store.stats.bytes_read == 2 * BS
        assert isinstance(store.stats, BlockDeviceStats)

    def test_flush_is_idempotent(self, store):
        store.write(4, b"flush me")
        store.flush()
        store.flush()
        assert store.read(4).startswith(b"flush me")

    def test_ffs_runs_on_backend(self, store):
        """The whole filesystem stack works over every backend."""
        fs = FFS(open_device_like(store))
        fs.write_file("/hello.txt", b"hello backend")
        fs.makedirs("/a/b")
        fs.write_file("/a/b/deep.txt", b"nested")
        assert fs.read_file("/hello.txt") == b"hello backend"
        assert fs.read_file("/a/b/deep.txt") == b"nested"


def open_device_like(store):
    from repro.storage import StoreBlockDevice

    return StoreBlockDevice(store)


# ---------------------------------------------------------------------------
# Scheme-specific behaviour
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_unknown_scheme_rejected(self):
        with pytest.raises(InvalidArgument, match="unknown storage scheme"):
            open_store("bogus://")

    def test_typo_scheme_gets_a_suggestion(self):
        with pytest.raises(InvalidArgument, match="did you mean 'replica'"):
            open_store("replicas://2")
        with pytest.raises(InvalidArgument, match="did you mean 'replica'"):
            open_store("replcia://3")

    def test_unrecognizable_scheme_gets_no_suggestion(self):
        with pytest.raises(InvalidArgument) as excinfo:
            open_store("zzqq://")
        assert "did you mean" not in str(excinfo.value)

    def test_malformed_uri_rejected(self):
        with pytest.raises(InvalidArgument):
            open_store("not-a-uri")

    def test_geometry_query_overrides(self):
        s = open_store("mem://?blocks=7&bs=1024")
        assert (s.num_blocks, s.block_size) == (7, 1024)

    def test_open_device_adapter(self):
        dev = open_device("mem://", num_blocks=BLOCKS, block_size=BS)
        dev.write_block(1, b"via device")
        assert dev.read_block(1).startswith(b"via device")
        assert dev.stats.reads == 1 and dev.stats.writes == 1
        # The wrapped store counts the same physical traffic.
        assert dev.store.stats.reads == 1 and dev.store.stats.writes == 1

    def test_replica_count_form_and_explicit_children_agree(self):
        by_count = open_store("replica://3", num_blocks=BLOCKS, block_size=BS)
        explicit = open_store(
            "replica://mem://;mem://;mem://", num_blocks=BLOCKS, block_size=BS
        )
        assert by_count.describe() == explicit.describe()
        assert [c.describe() for c in by_count.child_stores()] == \
            [c.describe() for c in explicit.child_stores()]


@pytest.mark.parametrize("template", [
    "file://{tmp}/persist.img",
    "replica://2?base=file&dir={tmp}/replicas",
    "cached://file://{tmp}/cached-persist.img#capacity=4",
    "journal://file://{tmp}/jpersist.img",
    "tenant://file://{tmp}/tpersist.img?blocks=72#name=p&offset=8",
    "replica://file://{tmp}/rp-a.img;file://{tmp}/rp-b.img#w=2&r=2",
    "journal://replica://2?base=file&dir={tmp}/jrp#path={tmp}/jrp.journal",
], ids=["file", "replica-file", "cached-file", "journal-file", "tenant-file",
        "replica-explicit-file", "journal-replica-file"])
def test_blocks_persist_across_close_and_reopen(template, tmp_path):
    uri = template.format(tmp=tmp_path)
    s = open_store(uri, num_blocks=BLOCKS, block_size=BS)
    for block_no in (0, 1, 31, BLOCKS - 1):
        s.write(block_no, f"block-{block_no}".encode())
    s.close()

    reopened = open_store(uri, num_blocks=BLOCKS, block_size=BS)
    for block_no in (0, 1, 31, BLOCKS - 1):
        assert reopened.read(block_no).startswith(f"block-{block_no}".encode())
    reopened.close()


@pytest.mark.parametrize("template", [
    "file://{tmp}/fsck.img",
    "journal://file://{tmp}/fsck-j.img",
    "replica://2?base=file&dir={tmp}/fsck-replicas",
    "cached://file://{tmp}/fsck-c.img#capacity=8",
], ids=["file", "journal-file", "replica-file", "cached-file"])
def test_filesystem_checkpoint_survives_reopen(template, tmp_path):
    """FFS + persist.sync on a URI backend, reloaded by URI."""
    uri = template.format(tmp=tmp_path)
    fs = FFS(uri)
    fs.write_file("/survives.txt", b"still here after reopen")
    persist.sync(fs)
    fs.device.close()

    restored = persist.load(open_device(uri))
    assert restored.read_file("/survives.txt") == b"still here after reopen"
    restored.device.close()


@pytest.mark.parametrize("template", [
    "file://{tmp}/geom.img",
    "journal://file://{tmp}/geom-j.img",
], ids=["file", "journal-file"])
def test_block_size_mismatch_on_reopen_rejected(template, tmp_path):
    uri = template.format(tmp=tmp_path)
    open_store(uri, block_size=512).close()
    with pytest.raises(InvalidArgument, match="block size"):
        open_store(uri, block_size=1024)


@pytest.mark.parametrize("template", [
    "file://{tmp}/grow.img",
    "journal://file://{tmp}/grow-j.img",
], ids=["file", "journal-file"])
def test_reopen_never_shrinks_capacity(template, tmp_path):
    """A store reopened with a smaller num_blocks keeps its created size,
    so checkpoints referencing high block numbers stay readable."""
    uri = template.format(tmp=tmp_path)
    s = open_store(uri, num_blocks=128, block_size=BS)
    s.write(100, b"high block")
    s.close()
    reopened = open_store(uri, num_blocks=BLOCKS, block_size=BS)  # 64 < 128
    assert reopened.num_blocks == 128
    assert reopened.read(100).startswith(b"high block")
    reopened.close()


class TestFileStoreMeta:
    def test_failed_data_open_leaves_no_meta(self, tmp_path):
        """The sidecar is written only after the data file opens, so a
        failed open can't orphan a meta file that poisons later opens."""
        (tmp_path / "is-a-dir").mkdir()
        with pytest.raises(OSError):
            open_store(f"file://{tmp_path}/is-a-dir")
        assert not (tmp_path / "is-a-dir.meta").exists()

    def test_failed_sidecar_write_releases_data_fd(self, tmp_path, monkeypatch):
        import os

        import repro.storage.filestore as filestore_mod

        def boom(_src, _dst):
            raise OSError("simulated replace failure")

        monkeypatch.setattr(filestore_mod.os, "replace", boom)
        fds_before = len(os.listdir("/proc/self/fd"))
        with pytest.raises(OSError, match="simulated"):
            open_store(f"file://{tmp_path}/boom.img")
        assert len(os.listdir("/proc/self/fd")) == fds_before  # fd closed
        assert not (tmp_path / "boom.img.meta").exists()
        assert not (tmp_path / "boom.img.meta.tmp").exists()
        monkeypatch.undo()
        open_store(f"file://{tmp_path}/boom.img").close()  # recoverable

    def test_meta_written_atomically(self, tmp_path):
        s = open_store(f"file://{tmp_path}/clean.img", num_blocks=BLOCKS,
                       block_size=BS)
        s.close()
        assert not (tmp_path / "clean.img.meta.tmp").exists()
        with open(tmp_path / "clean.img.meta", encoding="utf-8") as f:
            assert json.load(f) == {"block_size": BS, "num_blocks": BLOCKS}


class TestFileStoreHoles:
    """A never-written block below the file's high-water mark is a hole,
    not content: the pre-fix ``_contains`` treated everything under the
    current extent as written, which skewed ``replica://`` divergence
    checks, ``cached://`` introspection and the logical-vs-physical
    ablation."""

    def test_holes_below_the_extent_are_not_contained(self, tmp_path):
        s = open_store(f"file://{tmp_path}/holes.img",
                       num_blocks=2048, block_size=BS)
        s.write(1000, b"high block")
        assert s._contains(1000)
        assert not s._contains(0)
        assert not s._contains(999)
        assert s._get(500) is None       # a hole, not a zero block
        assert s.read(500) == bytes(BS)  # but still reads as zeros
        assert s.used_blocks() == 1
        s.close()

    def test_used_blocks_counts_written_not_extent(self, tmp_path):
        s = open_store(f"file://{tmp_path}/sparse.img",
                       num_blocks=2048, block_size=BS)
        for block_no in (3, 700, 1500):
            s.write(block_no, b"x")
        assert s.used_blocks() == 3  # pre-fix: extent bound said 1501
        s.close()

    def test_cached_over_file_counts_holes_correctly(self, tmp_path):
        s = open_store(f"cached://file://{tmp_path}/ch.img#capacity=4",
                       num_blocks=2048, block_size=BS)
        s.write(1000, b"high")
        s.flush()
        s.write(5, b"low, dirty")  # cache-resident, child holds a hole
        # used_blocks = child's 1 + the genuinely-new dirty block; the
        # old extent heuristic said block 5 was already on the child.
        assert s.used_blocks() == 2
        s.close()

    def test_used_blocks_zero_after_close(self, tmp_path):
        s = open_store(f"file://{tmp_path}/closed.img",
                       num_blocks=BLOCKS, block_size=BS)
        s.write(1, b"x")
        s.close()
        assert s.used_blocks() == 0

    def test_reopened_file_recovers_hole_map(self, tmp_path):
        uri = f"file://{tmp_path}/reopen.img"
        s = open_store(uri, num_blocks=2048, block_size=BS)
        s.write(1000, b"persisted")
        s.close()
        reopened = open_store(uri, num_blocks=2048, block_size=BS)
        assert reopened._contains(1000)
        if reopened.used_blocks() < 1501:
            # The host filesystem reports holes: blocks far from the
            # written extent must not count (granularity may round the
            # single written block up to one fs extent).
            assert not reopened._contains(10)
            assert reopened._get(10) is None
        reopened.close()


class TestFailingForwarding:
    """failing:// is stats-transparent: it forwards to the child's
    internal hooks, so one logical operation bumps the child's counters
    zero times (the wrapper's own stats carry the layer count) and holes
    stay ``None`` instead of being zero-filled."""

    def test_child_stats_not_double_counted(self):
        s = open_store("failing://mem://", num_blocks=BLOCKS, block_size=BS)
        s.write(1, b"x")
        s.read(1)
        s.read_many([1, 2])
        s.write_many([(3, b"y")])
        assert (s.stats.reads, s.stats.writes) == (3, 2)
        assert (s.child.stats.reads, s.child.stats.writes) == (0, 0)
        # The wrapper stands in for the child in the leaf-stats
        # contract, so physical I/O is still visible to the ablations.
        assert s.leaf_stores() == [s]
        leaf = s.leaf_stores()[0]
        assert (leaf.stats.reads, leaf.stats.writes) == (3, 2)

    def test_holes_stay_none_through_the_wrapper(self):
        s = open_store("failing://mem://", num_blocks=BLOCKS, block_size=BS)
        s.write(1, b"x")
        assert s._get(5) is None
        assert s._get_many([1, 5])[1] is None
        assert not s._contains(5)
        assert s.read(5) == bytes(BS)  # public API still zero-fills


class TestLeafStores:
    def test_leaf_store_is_itself(self):
        s = open_store("mem://")
        assert s.leaf_stores() == [s]

    def test_composites_descend_to_physical_leaves(self):
        s = open_store("cached://replica://3#capacity=8")
        leaves = s.leaf_stores()
        assert len(leaves) == 3
        assert all(leaf.scheme == "mem" for leaf in leaves)

    def test_cache_absorbs_physical_reads(self):
        s = open_store("cached://mem://#capacity=8")
        s.write(1, b"hot")
        for _ in range(10):
            s.read(1)
        logical_reads = s.stats.reads
        physical_reads = sum(leaf.stats.reads for leaf in s.leaf_stores())
        assert logical_reads == 10
        assert physical_reads == 0  # written-through cache entry, never missed

    #: single-child scheme -> (reads, writes) that reach backing storage
    #: after write(1), read(1), read(2).  cached:// absorbs the write and
    #: the read it can serve from it; every other layer passes all three.
    SINGLE_CHILD = {
        "failing://mem://": (2, 1),
        "slow://mem://#ms=0": (2, 1),
        "metered://mem://": (2, 1),
        "tenant://mem://#name=a": (2, 1),
        "journal://mem://#path={tmp}/leaf.journal": (2, 1),
        "cached://mem://#capacity=8": (1, 0),
    }

    def test_every_single_child_scheme_is_in_the_leaf_table(self):
        from repro.storage.spec import SPEC_TYPES, _WrapperSpec

        single_child = {scheme for scheme, cls in SPEC_TYPES.items()
                        if issubclass(cls, _WrapperSpec)}
        assert {split_uri(t)[0] for t in self.SINGLE_CHILD} == single_child

    @pytest.mark.parametrize("template", sorted(SINGLE_CHILD))
    def test_leaf_stats_equal_what_reached_backing_storage(
            self, template, tmp_path):
        """The leaf-stats contract: whichever store a layer reports as
        its leaf, the summed leaf counters are the physical I/O — so
        ``bench/report.py``'s logical-vs-physical tables never
        under-count a stack (``tenant://`` used to report 0/0)."""
        s = open_store(template.replace("{tmp}", str(tmp_path)),
                       num_blocks=BLOCKS, block_size=BS)
        try:
            s.write(1, b"x")
            s.read(1)
            s.read(2)
            leaves = s.leaf_stores()
            assert (sum(leaf.stats.reads for leaf in leaves),
                    sum(leaf.stats.writes for leaf in leaves)) \
                == self.SINGLE_CHILD[template]
        finally:
            s.close()


class TestBatchedIO:
    """read_many/write_many: same semantics as looping, fewer backend ops."""

    @pytest.mark.parametrize("uri", ["mem://",
                                     "cached://mem://#capacity=16",
                                     "replica://3?w=2&r=2"])
    def test_matches_per_block_semantics(self, uri):
        batched = open_store(uri, num_blocks=BLOCKS, block_size=BS)
        looped = open_store(uri, num_blocks=BLOCKS, block_size=BS)
        items = [(i, f"payload-{i}".encode()) for i in (0, 7, 3, 63)]
        batched.write_many(items)
        for block_no, data in items:
            looped.write(block_no, data)
        nos = [0, 3, 5, 7, 63]  # includes an unwritten block (5)
        assert batched.read_many(nos) == [looped.read(n) for n in nos]
        assert batched.stats.reads == looped.stats.reads
        assert batched.stats.writes == looped.stats.writes

    def test_empty_batches_are_noops(self):
        s = open_store("mem://", num_blocks=BLOCKS, block_size=BS)
        assert s.read_many([]) == []
        s.write_many([])
        assert s.stats.reads == 0 and s.stats.writes == 0

    def test_batch_validation_matches_single(self):
        s = open_store("mem://", num_blocks=BLOCKS, block_size=BS)
        with pytest.raises(NoSpace):
            s.read_many([0, BLOCKS])
        with pytest.raises(InvalidArgument):
            s.write_many([(0, b"x" * (BS + 1))])

    def test_cached_batch_read_fetches_misses_in_one_child_call(self):
        s: CachedBlockStore = open_store("cached://mem://#capacity=32")
        s.write_many([(i, b"warm") for i in range(4)])   # resident + dirty
        s.flush()
        s2: CachedBlockStore = open_store("cached://mem://#capacity=32")
        for i in range(8):
            s2.child.write(i, b"cold")
        s2.child.stats.reset()
        datas = s2.read_many(list(range(8)))
        assert all(d.startswith(b"cold") for d in datas)
        assert s2.cache_stats.misses == 8
        # All eight misses hit the child as reads, and a repeat batch is
        # served from the overlay entirely.
        assert s2.child.stats.reads == 8
        s2.read_many(list(range(8)))
        assert s2.child.stats.reads == 8
        assert s2.cache_stats.hits == 8

    def test_duplicate_blocks_in_one_batch_count_like_the_looped_path(self):
        """read_many([3, 3]) on a cold cache == read(3); read(3):
        one miss (the fetch) then one hit (the just-filled entry)."""
        s: CachedBlockStore = open_store("cached://mem://#capacity=8")
        s.child.write(3, b"cold")
        datas = s.read_many([3, 3])
        assert all(d.startswith(b"cold") for d in datas)
        assert s.cache_stats.misses == 1
        assert s.cache_stats.hits == 1
        assert s.child.stats.reads == 1


class TestCacheBehaviour:
    def test_hits_avoid_child_reads(self):
        s: CachedBlockStore = open_store("cached://mem://#capacity=8")
        s.write(1, b"hot")
        child_reads_before = s.child.stats.reads
        for _ in range(5):
            assert s.read(1).startswith(b"hot")
        assert s.child.stats.reads == child_reads_before
        assert s.cache_stats.hits == 5

    def test_writeback_only_on_eviction_or_flush(self):
        s: CachedBlockStore = open_store("cached://mem://#capacity=4")
        for i in range(4):
            s.write(i, b"dirty")
        assert s.child.stats.writes == 0  # all resident, nothing forced out
        s.write(4, b"evictor")
        assert s.child.stats.writes == 1  # LRU victim written back
        s.flush()
        assert s.child.used_blocks() == 5

    def test_used_blocks_does_not_flush(self):
        """Introspection mid-run must not write back dirty blocks — it
        would inflate the child's physical-write stats and skew the
        logical-vs-physical comparison the ablation measures."""
        s: CachedBlockStore = open_store("cached://mem://#capacity=8")
        for i in range(5):
            s.write(i, b"dirty")
        assert s.used_blocks() == 5
        assert s.child.stats.writes == 0
        assert s.child.used_blocks() == 0  # nothing reached the child
        assert len(s._dirty) == 5  # still dirty, still cache-resident
        s.flush()
        s.write(2, b"dirty again")  # re-dirty a block the child now holds
        assert s.used_blocks() == 5  # counted once, not double

    def test_capacity_bounds_residency(self):
        s: CachedBlockStore = open_store("cached://mem://#capacity=4")
        for i in range(32):
            s.write(i, b"x")
        assert len(s._entries) <= 4
        assert s.cache_stats.evictions == 28


# ---------------------------------------------------------------------------
# remote:// — the RPC block store
# ---------------------------------------------------------------------------


class TestRemoteStore:
    @pytest.fixture
    def served(self):
        from repro.storage import MemoryBlockStore
        from repro.storage.net import serve_store

        backing = MemoryBlockStore(BLOCKS, BS)
        server = serve_store(backing)
        yield backing, server
        server.close()

    def test_geometry_comes_from_server(self, served):
        backing, server = served
        host, port = server.address
        s = open_store(f"remote://{host}:{port}", num_blocks=9999,
                       block_size=4096)  # local hints ignored
        assert (s.num_blocks, s.block_size) == (BLOCKS, BS)
        assert "remote://" in s.describe()
        s.close()

    def test_writes_reach_the_served_store(self, served):
        backing, server = served
        host, port = server.address
        s = open_store(f"remote://{host}:{port}")
        s.write(3, b"landed")
        assert backing.read(3).startswith(b"landed")
        assert s.used_blocks() == 1
        s.close()

    def test_batched_ops_cut_round_trips(self, served):
        """READ_MANY/WRITE_MANY are one RPC each; ?batch=off loops."""
        from repro.rpc.transport import InProcessTransport
        from repro.storage.net import RemoteBlockStore

        backing, server = served
        items = [(i, f"b{i}".encode()) for i in range(16)]

        batched_tp = InProcessTransport(server.handler)
        batched = RemoteBlockStore(batched_tp)
        calls0 = batched_tp.stats.calls  # GEOM
        batched.write_many(items)
        batched.read_many([i for i, _ in items])
        assert batched_tp.stats.calls == calls0 + 2

        looped_tp = InProcessTransport(server.handler)
        looped = RemoteBlockStore(looped_tp, batch=False)
        calls0 = looped_tp.stats.calls
        looped.write_many(items)
        looped.read_many([i for i, _ in items])
        assert looped_tp.stats.calls == calls0 + 2 * len(items)

    def test_dead_server_surfaces_store_unavailable(self, served):
        from repro.errors import StoreUnavailable

        backing, server = served
        host, port = server.address
        s = open_store(f"remote://{host}:{port}")
        server.close()
        with pytest.raises(StoreUnavailable):
            for _ in range(3):  # first call may still drain a live socket
                s.read(0)
        s.close()

    def test_connect_refused_surfaces_store_unavailable(self):
        """A refused node does not fail ``open_store`` (the mount makes
        first contact on a later call), but its first operation raises —
        and ``FFS`` still fails at mount, since it writes the root
        directory in its constructor."""
        import socket

        from repro.errors import StoreUnavailable

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        s = open_store(f"remote://127.0.0.1:{free_port}")
        with pytest.raises(StoreUnavailable):
            s.read(0)
        s.close()
        with pytest.raises(StoreUnavailable):
            FFS(f"remote://127.0.0.1:{free_port}")

    def test_malformed_endpoint_rejected(self):
        with pytest.raises(InvalidArgument, match="host:port"):
            open_store("remote://no-port-here")

    def test_batch_window_respects_byte_budget(self):
        """Large-block stores must split batches so one message stays
        under the transport's record sanity limit."""
        from repro.rpc.transport import InProcessTransport
        from repro.storage import MemoryBlockStore
        from repro.storage.net import (MAX_BATCH_BYTES, BlockStoreProgram,
                                       RemoteBlockStore)
        from repro.rpc.server import RPCServer

        backing = MemoryBlockStore(2048, 64 * 1024)  # 64 KiB blocks
        rpc = RPCServer()
        rpc.register(BlockStoreProgram(backing))
        transport = InProcessTransport(rpc.handler_for(None))
        s = RemoteBlockStore(transport)
        assert s._batch_window == MAX_BATCH_BYTES // (64 * 1024)
        window = s._batch_window
        calls0 = transport.stats.calls
        s.read_many(list(range(2 * window)))  # needs exactly two messages
        assert transport.stats.calls == calls0 + 2

    def test_contains_is_stats_free_on_the_server(self, served):
        """cached://remote:// introspection must not inflate the served
        store's physical counters (same invariant as local children)."""
        backing, server = served
        host, port = server.address
        s = open_store(f"cached://remote://{host}:{port}#capacity=4")
        for i in range(6):
            s.write(i, b"dirty")
        reads_before = backing.stats.reads
        s.used_blocks()  # probes _contains over the wire
        assert backing.stats.reads == reads_before
        s.close()


# ---------------------------------------------------------------------------
# replica:// — quorums, degraded mode, read-repair
# ---------------------------------------------------------------------------


def make_replica(n=3, w=2, r=2):
    from repro.storage import (FailingBlockStore, MemoryBlockStore,
                               ReplicatedBlockStore)

    children = [FailingBlockStore(MemoryBlockStore(BLOCKS, BS))
                for _ in range(n)]
    return ReplicatedBlockStore(children, write_quorum=w, read_quorum=r), \
        children


class TestReplicaQuorums:
    def test_write_fans_out_to_all_children(self):
        rep, children = make_replica()
        rep.write(4, b"everywhere")
        rep.drain()  # the third copy of a w=2 write lands in the background
        for child in children:
            assert child.child.read(4).startswith(b"everywhere")

    def test_one_node_outage_stays_available(self):
        """The acceptance case: replica://3?w=2&r=2 with one child down
        keeps serving reads and writes with no errors."""
        rep, children = make_replica(n=3, w=2, r=2)
        rep.write(1, b"before outage")
        children[1].fail()
        rep.write(1, b"during outage")
        rep.write(2, b"new block")
        assert rep.read(1).startswith(b"during outage")
        assert rep.read(2).startswith(b"new block")
        assert rep.replica_stats.degraded_writes == 2

    def test_write_quorum_not_met_raises(self):
        from repro.errors import QuorumError

        rep, children = make_replica(n=3, w=2, r=2)
        children[0].fail()
        children[1].fail()
        with pytest.raises(QuorumError, match="write quorum"):
            rep.write(0, b"x")

    def test_read_quorum_not_met_raises(self):
        from repro.errors import QuorumError

        rep, children = make_replica(n=3, w=2, r=2)
        rep.write(0, b"x")
        children[0].fail()
        children[1].fail()
        with pytest.raises(QuorumError, match="read quorum"):
            rep.read(0)

    def test_invalid_quorums_rejected(self):
        with pytest.raises(InvalidArgument, match="write quorum"):
            open_store("replica://3?w=4")
        with pytest.raises(InvalidArgument, match="read quorum"):
            open_store("replica://3?r=0")
        with pytest.raises(InvalidArgument, match="count must be positive"):
            open_store("replica://0")

    @pytest.mark.parametrize("n, w, r", [
        (3, 0, 1), (3, 4, 1), (3, -1, 1),      # w outside 1..n
        (3, 2, 0), (3, 2, 4), (1, None, 2),    # r outside 1..n
    ])
    def test_quorum_cannot_be_built_out_of_range(self, n, w, r):
        """The cases the retired ``quorum-arithmetic`` lint fed its
        fixtures, asked of the value type itself: there is no path to a
        stored quorum that skips the bounds."""
        from repro.storage.replica import Quorum, ReplicatedBlockStore

        what = "read quorum" if w in (2, None) else "write quorum"
        with pytest.raises(InvalidArgument, match=what):
            Quorum(n, w, r)
        children = [open_store("mem://", num_blocks=BLOCKS, block_size=BS)
                    for _ in range(n)]
        with pytest.raises(InvalidArgument, match=what):
            ReplicatedBlockStore(children, write_quorum=w, read_quorum=r)

    @pytest.mark.parametrize("n, w, r, consistent", [
        (3, None, None, True),   # write-all / read-one
        (3, 2, 2, True),
        (3, 1, 1, False),        # accepted: the fan-out latency mode
        (3, 2, 1, False),
        (1, 1, 1, True),
    ])
    def test_overlap_is_classified_not_rejected(self, n, w, r, consistent):
        from repro.storage.replica import Quorum, ReplicatedBlockStore

        quorum = Quorum(n, w, r)
        assert 1 <= quorum.w <= n and 1 <= quorum.r <= n
        assert quorum.consistent is consistent
        children = [open_store("mem://", num_blocks=BLOCKS, block_size=BS)
                    for _ in range(n)]
        rep = ReplicatedBlockStore(children, write_quorum=w, read_quorum=r)
        assert (rep.write_quorum, rep.read_quorum) == (quorum.w, quorum.r)
        assert rep.consistent_quorums is consistent
        assert rep.snapshot().extra["consistent_quorums"] == float(consistent)

    def test_spec_and_store_state_the_bound_once(self):
        """``ReplicaSpec._check`` and the store constructor reject the
        same values with the same words (one adds its scheme)."""
        from repro.storage import SpecError, parse_spec

        with pytest.raises(SpecError,
                           match=r"replica:// read quorum r=5 outside 1\.\.3"):
            parse_spec("replica://3?r=5")
        with pytest.raises(SpecError,
                           match=r"replica:// write quorum w=0 outside 1\.\.2"):
            parse_spec("replica://mem://;mem://#w=0")

    def test_grammar_forms_agree(self):
        by_count = open_store("replica://2?w=1&r=2",
                              num_blocks=BLOCKS, block_size=BS)
        explicit = open_store("replica://mem://;mem://#w=1&r=2",
                              num_blocks=BLOCKS, block_size=BS)
        template = open_store("replica://2/mem://#w=1&r=2",
                              num_blocks=BLOCKS, block_size=BS)
        for rep in (by_count, explicit, template):
            assert len(rep.children) == 2
            assert (rep.write_quorum, rep.read_quorum) == (1, 2)

    def test_template_form_substitutes_replica_index(self, tmp_path):
        rep = open_store(f"replica://2/file://{tmp_path}/copy-{{i}}.img#w=2",
                         num_blocks=BLOCKS, block_size=BS)
        rep.write(0, b"twice")
        rep.close()
        assert (tmp_path / "copy-0.img").exists()
        assert (tmp_path / "copy-1.img").exists()

    def test_defaults_are_write_all_read_one(self):
        rep = open_store("replica://3", num_blocks=BLOCKS, block_size=BS)
        assert (rep.write_quorum, rep.read_quorum) == (3, 1)


class TestReadRepair:
    def test_lagging_replica_is_repaired_on_read(self):
        """A child that missed writes while down is rewritten with the
        winning copy the first time a read sees the divergence —
        asserted on the leaf store underneath the failure wrapper."""
        rep, children = make_replica(n=3, w=2, r=2)
        rep.write(9, b"v1")
        children[0].fail()
        rep.write(9, b"v2-during-outage")
        assert children[0].child.read(9).startswith(b"v1")  # stale on disk
        children[0].heal()
        assert rep.read(9).startswith(b"v2-during-outage")
        # Leaf-store inspection: the lagging replica now holds the winner.
        assert children[0].child.read(9).startswith(b"v2-during-outage")
        assert rep.replica_stats.repaired_blocks >= 1

    def test_last_write_wins_even_when_stale_child_answers_first(self):
        rep, children = make_replica(n=3, w=2, r=2)
        rep.write(5, b"old")
        children[0].fail()
        rep.write(5, b"new")
        children[0].heal()
        # Child 0 answers first in index order with the stale copy; the
        # version stamps pick child 1's newer copy anyway.
        assert rep.read(5).startswith(b"new")

    def test_repair_waits_until_the_child_heals(self):
        rep, children = make_replica(n=3, w=2, r=2)
        rep.write(2, b"v1")
        rep.drain()  # child 2 holds v1 before it goes down
        children[2].fail()
        rep.write(2, b"v2")
        # Reads while the child is down must not crash on the failed
        # repair attempt; the repair lands after healing.
        assert rep.read(2).startswith(b"v2")
        assert children[2].child.read(2).startswith(b"v1")
        children[2].heal()
        rep.read(2)
        assert children[2].child.read(2).startswith(b"v2")

    def test_batched_reads_repair_all_lagging_blocks_at_once(self):
        rep, children = make_replica(n=3, w=2, r=2)
        rep.write_many([(i, b"v1") for i in range(8)])
        children[1].fail()
        rep.write_many([(i, b"v2") for i in range(8)])
        rep.drain()  # child 1's lane must fail v2 before the heal, not after
        children[1].heal()
        datas = rep.read_many(list(range(8)))
        assert all(d.startswith(b"v2") for d in datas)
        assert rep.replica_stats.repaired_blocks == 8
        for i in range(8):
            assert children[1].child.read(i).startswith(b"v2")

    def test_read_one_never_serves_locally_known_staleness(self):
        """With r=1 the read set can be exactly a just-healed stale
        child; the version stamps say a newer copy exists elsewhere, so
        the store must fetch it rather than serve what it knows is old."""
        rep, children = make_replica(n=3, w=2, r=1)
        rep.write(5, b"old")
        children[0].fail()
        rep.write(5, b"new")
        children[0].heal()
        # Child 0 is the only responder consulted (r=1) and holds "old".
        assert rep.read(5).startswith(b"new")
        # And the divergence it surfaced was repaired.
        assert children[0].child.read(5).startswith(b"new")

    def test_contains_ors_across_diverged_children(self):
        """A block held only by a later replica (children reopened with
        independent histories, stamps empty) must still be reported."""
        from repro.storage import MemoryBlockStore, ReplicatedBlockStore

        children = [MemoryBlockStore(BLOCKS, BS), MemoryBlockStore(BLOCKS, BS)]
        children[1].write(7, b"only on replica 1")
        rep = ReplicatedBlockStore(children, write_quorum=1, read_quorum=1)
        assert rep._contains(7)
        assert not rep._contains(8)

    def test_failure_injection_via_uri(self):
        rep = open_store("replica://failing://mem://#fail=1;mem://;mem://#w=2&r=1",
                         num_blocks=BLOCKS, block_size=BS)
        rep.write(0, b"works despite one dead child")
        assert rep.read(0).startswith(b"works")
        assert rep.children[0].failing
        assert rep.replica_stats.degraded_writes == 1


# ---------------------------------------------------------------------------
# The uniform control-plane protocol (spec redesign PR)
# ---------------------------------------------------------------------------


class TestUniformProtocol:
    """Every backend — leaf, wrapper or fan-out — answers the typed
    protocol: spec round-trip, capabilities, snapshot, child_stores and
    block enumeration.  This is what replaced the old duck-typed
    probing (``thread_safe`` attributes, per-class stats objects)."""

    def test_capabilities_shape(self, store):
        caps = store.capabilities()
        assert isinstance(caps.thread_safe, bool)
        assert isinstance(caps.durable, bool)
        assert isinstance(caps.networked, bool)
        assert isinstance(caps.composite, bool)
        # composite iff the store exposes live children
        if store.child_stores():
            assert caps.composite

    def test_snapshot_counts_logical_traffic(self, store):
        store.write(1, b"snap")
        store.read(1)
        snap = store.snapshot()
        assert snap.scheme == store.scheme
        assert snap.reads == 1 and snap.writes == 1
        assert snap.bytes_written == BS and snap.bytes_read == BS
        assert isinstance(snap.extra, dict)
        assert snap.description == store.describe()

    def test_used_block_numbers_matches_contains(self, store):
        for block_no in (2, 3, 60):
            store.write(block_no, b"enumerated")
        numbers = store.used_block_numbers()
        assert {2, 3, 60} <= set(numbers)
        assert numbers == sorted(numbers)
        for block_no in numbers:
            assert store._contains(block_no)

    def test_describe_tree_covers_every_layer(self, store):
        from repro.storage import describe, iter_stores

        tree = describe(store)
        nodes = list(tree.walk())
        stores = list(iter_stores(store))
        assert len(nodes) == len(stores)
        assert [n.scheme for n in nodes] == [s.scheme for s in stores]


class TestSpecPipeline:
    """open_store is now parse_spec + build; the two entry points must
    agree for every conformance template."""

    @pytest.mark.parametrize("template", ALL_TEMPLATES,
                             ids=lambda t: t.replace("{tmp}/", ""))
    def test_uri_and_canonical_spec_open_the_same_store(
        self, template, tmp_path, remote_servers, auth_material
    ):
        from repro.storage import parse_spec

        uri = fill_template(template, tmp_path, remote_servers,
                            authdir=auth_material["dir"])
        spec = parse_spec(uri)
        assert parse_spec(spec.to_uri()) == spec
        # the canonical form opens too (distinct scratch state is fine;
        # the point is the grammar agrees with itself)
        reopened = open_store(spec, num_blocks=BLOCKS, block_size=BS)
        try:
            assert reopened.scheme == split_uri(spec.to_uri())[0]
            assert reopened.block_size == BS
        finally:
            reopened.close()


class TestQuorumClassification:
    """The replica records, before keeping the quorums, whether they
    overlap (W + R > N) — the invariant that makes reads see the latest
    acknowledged write.  Non-overlapping configs are still a supported
    mode (fast, eventually-consistent), but they must be labelled."""

    def test_overlapping_quorums_classified_consistent(self):
        rep, _ = make_replica(n=3, w=2, r=2)
        assert rep.consistent_quorums is True

    def test_non_overlapping_quorums_classified_inconsistent(self):
        rep, _ = make_replica(n=3, w=1, r=1)
        assert rep.consistent_quorums is False

    def test_classification_surfaces_in_stats(self):
        rep, _ = make_replica(n=3, w=2, r=2)
        weak, _ = make_replica(n=2, w=1, r=1)
        assert rep._extra_stats()["consistent_quorums"] == 1.0
        assert weak._extra_stats()["consistent_quorums"] == 0.0
