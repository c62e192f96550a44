"""Unit tests for filesystem checkpoint persistence."""

import pytest

from repro.errors import FSError, InvalidArgument
from repro.fs.ffs import FFS
from repro.fs.inode import FileType
from repro.fs.persist import load, sync
from repro.storage import (
    CachedBlockStore,
    MemoryBlockStore,
    StoreBlockDevice,
    open_device,
)
from repro.storage.base import WrapperBlockStore


def populate(fs):
    fs.makedirs("/a/b")
    fs.write_file("/a/b/deep.txt", b"deep content")
    fs.write_file("/top.bin", bytes(range(256)) * 50)
    fs.symlink(fs.root_ino, "ln", "/top.bin")
    target = fs.namei("/top.bin")
    fs.link(fs.root_ino, "hard.bin", target.ino)
    fs.setattr(fs.namei("/a/b/deep.txt").ino, mode=0o640, uid=7, gid=9)


class TestRoundtrip:
    def test_memory_device_roundtrip(self):
        device = open_device("mem://", num_blocks=2048)
        fs = FFS(device)
        populate(fs)
        sync(fs)
        restored = load(device)
        assert restored.read_file("/a/b/deep.txt") == b"deep content"
        assert restored.read_file("/top.bin") == bytes(range(256)) * 50
        assert restored.read_file("/ln") == bytes(range(256)) * 50
        assert restored.namei("/hard.bin").nlink == 2
        attr = restored.namei("/a/b/deep.txt")
        assert (attr.mode, attr.uid, attr.gid) == (0o640, 7, 9)

    def test_file_device_survives_reopen(self, tmp_path):
        path = str(tmp_path / "disk.img")
        with open_device(f"file://{path}", num_blocks=2048) as device:
            fs = FFS(device)
            populate(fs)
            sync(fs)
        with open_device(f"file://{path}", num_blocks=2048) as device:
            restored = load(device)
            assert restored.read_file("/a/b/deep.txt") == b"deep content"
            names = {n for n, _ in restored.readdir(restored.root_ino)}
            assert {"a", "top.bin", "ln", "hard.bin"} <= names

    def test_generations_survive(self):
        device = open_device("mem://", num_blocks=2048)
        fs = FFS(device)
        f = fs.create(fs.root_ino, "victim")
        ino, gen = f.ino, f.generation
        fs.remove(fs.root_ino, "victim")
        sync(fs)
        restored = load(device)
        recycled = restored.create(restored.root_ino, "squatter")
        if recycled.ino == ino:
            assert recycled.generation > gen  # generation counter persisted

    def test_allocator_state_survives(self):
        device = open_device("mem://", num_blocks=64)
        fs = FFS(device)
        fs.write_file("/f", b"x" * (10 * fs.block_size))
        free_before = fs.free_block_count()
        sync(fs)
        restored = load(device)
        # Continue writing without clobbering existing data blocks.
        restored.write_file("/g", b"y" * (5 * restored.block_size))
        assert restored.read_file("/f") == b"x" * (10 * restored.block_size)
        assert restored.read_file("/g") == b"y" * (5 * restored.block_size)
        assert free_before >= restored.free_block_count()

    def test_continued_use_after_restore(self):
        device = open_device("mem://", num_blocks=2048)
        fs = FFS(device)
        populate(fs)
        sync(fs)
        restored = load(device)
        restored.write_file("/new.txt", b"post-restore")
        restored.remove(restored.root_ino, "top.bin")
        assert restored.read_file("/new.txt") == b"post-restore"
        assert restored.read_file("/hard.bin")  # survives via hard link

    def test_repeated_sync_does_not_leak(self):
        """Checkpoints are double-buffered: the old one's blocks are not
        reused until the new superblock is durable, so after a one-time
        settling sync the free count is constant forever."""
        device = open_device("mem://", num_blocks=256)
        fs = FFS(device)
        fs.write_file("/f", b"data")
        sync(fs)
        sync(fs)  # settle: the second buffer's blocks are now allocated
        free_after_settling = fs.free_block_count()
        next_block_after_settling = fs._next_block
        for _ in range(20):
            sync(fs)
        assert fs.free_block_count() == free_after_settling
        assert fs._next_block == next_block_after_settling


class TestFailureModes:
    def test_load_uncheckpointed_device(self):
        with pytest.raises(InvalidArgument):
            load(open_device("mem://", num_blocks=64))

    def test_corrupted_metadata_detected(self):
        device = open_device("mem://", num_blocks=2048)
        fs = FFS(device)
        populate(fs)
        sync(fs)
        # Find a metadata block via the superblock and corrupt it.
        from repro.fs.persist import _read_superblock

        _length, _digest, blocks = _read_superblock(device)
        block = blocks[0]
        raw = bytearray(device.read_block(block))
        raw[10] ^= 0xFF
        device.write_block(block, bytes(raw))
        with pytest.raises(FSError):
            load(device)

    def test_dirty_changes_lost_without_sync(self):
        """Checkpoint (not journal) semantics, as documented."""
        device = open_device("mem://", num_blocks=2048)
        fs = FFS(device)
        fs.write_file("/committed", b"saved")
        sync(fs)
        fs.write_file("/dirty", b"not saved")
        restored = load(device)
        assert restored.read_file("/committed") == b"saved"
        from repro.errors import FileNotFound

        with pytest.raises(FileNotFound):
            restored.namei("/dirty")


class TestCrashWindows:
    """Regressions for the sync-time crash window: the old checkpoint
    used to be released (and its blocks immediately reused for the new
    payload) *before* the new superblock was durable, so a crash
    mid-sync corrupted the only checkpoint the device had."""

    def test_crash_before_superblock_update_keeps_old_checkpoint(self):
        device = open_device("mem://", num_blocks=256)
        fs = FFS(device)
        fs.write_file("/keep.txt", b"checkpointed")
        sync(fs)
        fs.write_file("/more.txt", b"since the checkpoint")

        real_write = device.write_block

        def crash_on_superblock(block_no, data):
            if block_no == 0:
                raise RuntimeError("simulated crash before commit point")
            return real_write(block_no, data)

        device.write_block = crash_on_superblock
        with pytest.raises(RuntimeError):
            sync(fs)
        device.write_block = real_write

        restored = load(device)  # the old checkpoint is fully intact
        assert restored.read_file("/keep.txt") == b"checkpointed"

    def test_interrupted_sync_then_successful_sync_recovers(self):
        """After a failed sync the filesystem must still checkpoint
        cleanly (no double-released blocks, no corrupted free list)."""
        device = open_device("mem://", num_blocks=256)
        fs = FFS(device)
        fs.write_file("/a.txt", b"v1")
        sync(fs)

        real_write = device.write_block

        def crash_on_superblock(block_no, data):
            if block_no == 0:
                raise RuntimeError("crash")
            return real_write(block_no, data)

        device.write_block = crash_on_superblock
        with pytest.raises(RuntimeError):
            sync(fs)
        device.write_block = real_write

        fs.write_file("/b.txt", b"v2")
        sync(fs)
        assert len(set(fs._free_blocks)) == len(fs._free_blocks)  # no dup frees
        restored = load(device)
        assert restored.read_file("/a.txt") == b"v1"
        assert restored.read_file("/b.txt") == b"v2"

    def test_restored_fs_never_allocates_over_its_checkpoint(self):
        """The serialized allocator state predates the checkpoint's own
        blocks; load must quarantine them or post-restore writes can
        overwrite the only checkpoint before the next sync."""
        device = open_device("mem://", num_blocks=2048)
        fs = FFS(device)
        fs.write_file("/base.txt", b"v1")
        sync(fs)

        restored = load(device)
        # Burn through lots of blocks without syncing: with the old
        # allocator state these reused the checkpoint's blocks.
        restored.write_file("/big.bin", b"x" * (60 * restored.block_size))

        again = load(device)  # must still verify and restore
        assert again.read_file("/base.txt") == b"v1"


class Crash(Exception):
    """The process died."""


class CrashingStore(WrapperBlockStore):
    """Dies at its ``crash_at``-th mutating operation (write, write_many or
    flush), counting from ``mutations = 0``: that operation never reaches
    the child, and nothing after it does either."""

    MUTATING = frozenset({"write", "write_many", "flush"})

    def __init__(self, child):
        super().__init__(child)
        self.crash_at = None
        self.mutations = 0
        self.dead = False

    def around(self, op, fn):
        if op in self.MUTATING:
            self.mutations += 1
            self.dead = self.dead or self.mutations == self.crash_at
        if self.dead:
            raise Crash(op)
        return fn()


def inodes(fs):
    """Inode for inode, what a checkpoint holds: the metadata, and the
    bytes each file and link holds (directory entries are data blocks,
    rewritten in place, so they are not a checkpoint's to keep)."""
    out = {}
    for inode in fs._inodes.all_inodes():
        data = fs.read(inode.ino, 0, inode.size) \
            if inode.ftype is FileType.REGULAR else inode.link_target
        out[inode.ino] = (inode.ftype, inode.mode, inode.uid, inode.gid,
                          inode.size, inode.nlink, inode.generation, data)
    return out


#: The store stacks swept, each over the ``mem://`` leaf that survives
#: the crash.  Under ``cached://`` the crash sits between the cache and
#: the leaf: what the cache held and had not written back is lost.
STACKS = {
    "mem://": lambda leaf: CrashingStore(leaf),
    "cached://mem://": lambda leaf: CachedBlockStore(CrashingStore(leaf),
                                                     capacity=4),
}


def checkpointed_twice(stack, crash_at):
    """A filesystem checkpointed once, grown since (only adding: no block
    the first checkpoint names is freed), then synced again with a crash
    at mutation ``crash_at`` (None: no crash).  Returns the two
    checkpoints' inodes, the surviving leaf and the mutations counted."""
    leaf = MemoryBlockStore(num_blocks=1024, block_size=512)
    top = STACKS[stack](leaf)
    crashing = top if isinstance(top, CrashingStore) else top.child
    fs = FFS(StoreBlockDevice(top))
    populate(fs)
    for i in range(40):
        fs.write_file(f"/a/f{i:02d}", bytes([i]) * (100 + 37 * i))
    sync(fs)
    before = inodes(fs)
    fs.makedirs("/new/deeper")
    for i in range(40):
        fs.write_file(f"/new/deeper/g{i:02d}", bytes([i + 1]) * (50 + 29 * i))
    fs.write(fs.namei("/top.bin").ino, 256 * 50, b"appended")
    fs.setattr(fs.namei("/a/f07").ino, mode=0o600, uid=3)
    after = inodes(fs)
    crashing.mutations, crashing.crash_at = 0, crash_at
    try:
        sync(fs)
    except Crash:
        pass
    return before, after, leaf, crashing.mutations


class TestCrashPoints:
    """Every crash point of one ``sync``: the reopened leaf loads as the
    previous checkpoint or the new one, never anything else."""

    @pytest.mark.parametrize("stack", sorted(STACKS))
    def test_every_crash_point_loads_one_whole_checkpoint(self, stack):
        *_, points = checkpointed_twice(stack, crash_at=None)
        assert points >= 4  # payload write(s), flush, superblock, flush
        seen = []
        for crash_at in range(1, points + 2):  # points + 1: no crash
            before, after, leaf, _ = checkpointed_twice(stack, crash_at)
            restored = inodes(load(StoreBlockDevice(leaf)))
            assert restored in (before, after), (stack, crash_at, points)
            seen.append("new" if restored == after else "old")
        # Old until the superblock reaches the leaf, new from there on.
        assert seen == sorted(seen, reverse=True)
        assert seen[0] == "old" and seen[-1] == "new"


class TestServerRestart:
    def test_discfs_server_restart_with_persistence(self, administrator,
                                                    bob_key, tmp_path):
        """A DisCFS server restart: data survives; credentials are
        re-submitted by clients (the server holds no durable user state —
        exactly the paper's state-minimization requirement)."""
        from repro.core.admin import identity_of
        from repro.core.client import DisCFSClient
        from repro.core.server import DisCFSServer

        path = str(tmp_path / "server.img")
        with open_device(f"file://{path}", num_blocks=2048) as device:
            fs = FFS(device)
            server = DisCFSServer(admin_identity=administrator.identity, fs=fs)
            administrator.trust_server(server)
            share = server.fs.mkdir(server.fs.root_ino, "share")
            server.fs.write_file("/share/doc.txt", b"persistent")
            cred = administrator.grant_inode(
                identity_of(bob_key), share, rights="RX",
                scheme=server.handle_scheme, subtree=True)
            sync(fs)

        with open_device(f"file://{path}", num_blocks=2048) as device:
            fs2 = load(device)
            server2 = DisCFSServer(admin_identity=administrator.identity, fs=fs2)
            administrator.trust_server(server2)
            bob = DisCFSClient.connect(server2, bob_key, secure=False)
            bob.attach("/share")
            bob.submit_credential(cred)  # same credential still valid:
            # the handle (ino+generation) survived the restart.
            assert bob.read_path("/doc.txt") == b"persistent"
