"""Unit tests for the FFS filesystem."""

import pytest

from repro.errors import (
    DirectoryNotEmpty,
    FileExists,
    FileNotFound,
    InvalidArgument,
    IsADirectory,
    NameTooLong,
    NoSpace,
    NotADirectory,
)
from repro.fs.ffs import FFS
from repro.storage import open_device


@pytest.fixture()
def fs():
    return FFS(open_device("mem://", num_blocks=512))


class TestCreateAndLookup:
    def test_create_file(self, fs):
        f = fs.create(fs.root_ino, "a.txt")
        assert fs.lookup(fs.root_ino, "a.txt").ino == f.ino
        assert f.size == 0 and f.nlink == 1

    def test_duplicate_rejected(self, fs):
        fs.create(fs.root_ino, "a")
        with pytest.raises(FileExists):
            fs.create(fs.root_ino, "a")
        with pytest.raises(FileExists):
            fs.mkdir(fs.root_ino, "a")

    def test_lookup_missing(self, fs):
        with pytest.raises(FileNotFound):
            fs.lookup(fs.root_ino, "ghost")

    def test_lookup_in_file_rejected(self, fs):
        f = fs.create(fs.root_ino, "f")
        with pytest.raises(NotADirectory):
            fs.lookup(f.ino, "x")

    @pytest.mark.parametrize("bad", ["", ".", "..", "a/b", "a\x00b"])
    def test_invalid_names(self, fs, bad):
        with pytest.raises(InvalidArgument):
            fs.create(fs.root_ino, bad)

    def test_name_too_long(self, fs):
        with pytest.raises(NameTooLong):
            fs.create(fs.root_ino, "x" * 256)

    def test_unicode_names(self, fs):
        fs.create(fs.root_ino, "café.txt")
        assert fs.lookup(fs.root_ino, "café.txt").is_regular

    def test_parent_tracking(self, fs):
        d = fs.mkdir(fs.root_ino, "d")
        f = fs.create(d.ino, "f")
        assert f.parent_ino == d.ino
        assert d.parent_ino == fs.root_ino


class TestReadWrite:
    def test_roundtrip(self, fs):
        f = fs.create(fs.root_ino, "f")
        fs.write(f.ino, 0, b"hello world")
        assert fs.read(f.ino, 0, 11) == b"hello world"

    def test_cross_block_write(self, fs):
        f = fs.create(fs.root_ino, "f")
        data = bytes(i & 0xFF for i in range(3 * fs.block_size + 100))
        fs.write(f.ino, 0, data)
        assert fs.read(f.ino, 0, len(data)) == data
        assert f.size == len(data)

    def test_unaligned_overwrite(self, fs):
        f = fs.create(fs.root_ino, "f")
        fs.write(f.ino, 0, b"a" * 10000)
        fs.write(f.ino, 5000, b"b" * 100)
        out = fs.read(f.ino, 0, 10000)
        assert out[4999] == ord("a")
        assert out[5000:5100] == b"b" * 100
        assert out[5100] == ord("a")

    def test_sparse_holes_read_zero(self, fs):
        f = fs.create(fs.root_ino, "f")
        fs.write(f.ino, 3 * fs.block_size, b"tail")
        assert f.size == 3 * fs.block_size + 4
        assert fs.read(f.ino, 0, 10) == bytes(10)
        assert fs.read(f.ino, 3 * fs.block_size, 4) == b"tail"

    def test_read_past_eof_is_short(self, fs):
        f = fs.create(fs.root_ino, "f")
        fs.write(f.ino, 0, b"abc")
        assert fs.read(f.ino, 2, 100) == b"c"
        assert fs.read(f.ino, 3, 100) == b""
        assert fs.read(f.ino, 99, 1) == b""

    def test_negative_args_rejected(self, fs):
        f = fs.create(fs.root_ino, "f")
        with pytest.raises(InvalidArgument):
            fs.read(f.ino, -1, 4)
        with pytest.raises(InvalidArgument):
            fs.write(f.ino, -1, b"x")

    def test_write_to_directory_rejected(self, fs):
        d = fs.mkdir(fs.root_ino, "d")
        with pytest.raises(IsADirectory):
            fs.write(d.ino, 0, b"x")
        with pytest.raises(IsADirectory):
            fs.read(d.ino, 0, 1)

    def test_empty_write_is_noop(self, fs):
        f = fs.create(fs.root_ino, "f")
        assert fs.write(f.ino, 100, b"") == 0
        assert f.size == 0

    def test_mtime_updated_on_write(self, fs):
        f = fs.create(fs.root_ino, "f")
        before = f.mtime
        fs.write(f.ino, 0, b"x")
        assert f.mtime >= before


class TestTruncate:
    def test_shrink(self, fs):
        f = fs.create(fs.root_ino, "f")
        fs.write(f.ino, 0, b"0123456789")
        fs.truncate(f.ino, 4)
        assert f.size == 4
        assert fs.read(f.ino, 0, 100) == b"0123"

    def test_shrink_frees_blocks(self, fs):
        f = fs.create(fs.root_ino, "f")
        fs.write(f.ino, 0, b"x" * (4 * fs.block_size))
        free_before = fs.free_block_count()
        fs.truncate(f.ino, 1)
        assert fs.free_block_count() == free_before + 3

    def test_grow_after_shrink_reads_zeros(self, fs):
        f = fs.create(fs.root_ino, "f")
        fs.write(f.ino, 0, b"x" * 100)
        fs.truncate(f.ino, 10)
        fs.write(f.ino, 50, b"y")
        assert fs.read(f.ino, 10, 40) == bytes(40)

    def test_grow_via_truncate(self, fs):
        f = fs.create(fs.root_ino, "f")
        fs.write(f.ino, 0, b"ab")
        fs.truncate(f.ino, 10)
        assert f.size == 10
        assert fs.read(f.ino, 0, 10) == b"ab" + bytes(8)


class TestRemove:
    def test_remove_file(self, fs):
        fs.create(fs.root_ino, "f")
        fs.remove(fs.root_ino, "f")
        with pytest.raises(FileNotFound):
            fs.lookup(fs.root_ino, "f")

    def test_remove_frees_blocks(self, fs):
        f = fs.create(fs.root_ino, "f")
        fs.write(f.ino, 0, b"x" * (2 * fs.block_size))
        free_before = fs.free_block_count()
        fs.remove(fs.root_ino, "f")
        assert fs.free_block_count() == free_before + 2

    def test_remove_directory_rejected(self, fs):
        fs.mkdir(fs.root_ino, "d")
        with pytest.raises(IsADirectory):
            fs.remove(fs.root_ino, "d")

    def test_rmdir(self, fs):
        fs.mkdir(fs.root_ino, "d")
        fs.rmdir(fs.root_ino, "d")
        with pytest.raises(FileNotFound):
            fs.lookup(fs.root_ino, "d")

    def test_rmdir_nonempty_rejected(self, fs):
        d = fs.mkdir(fs.root_ino, "d")
        fs.create(d.ino, "f")
        with pytest.raises(DirectoryNotEmpty):
            fs.rmdir(fs.root_ino, "d")

    def test_rmdir_file_rejected(self, fs):
        fs.create(fs.root_ino, "f")
        with pytest.raises(NotADirectory):
            fs.rmdir(fs.root_ino, "f")

    def test_nlink_on_rmdir(self, fs):
        root_nlink = fs.iget(fs.root_ino).nlink
        fs.mkdir(fs.root_ino, "d")
        assert fs.iget(fs.root_ino).nlink == root_nlink + 1
        fs.rmdir(fs.root_ino, "d")
        assert fs.iget(fs.root_ino).nlink == root_nlink


class TestLinks:
    def test_hard_link(self, fs):
        f = fs.create(fs.root_ino, "a")
        fs.write(f.ino, 0, b"shared")
        fs.link(fs.root_ino, "b", f.ino)
        assert f.nlink == 2
        assert fs.lookup(fs.root_ino, "b").ino == f.ino
        fs.remove(fs.root_ino, "a")
        assert fs.read(f.ino, 0, 6) == b"shared"
        fs.remove(fs.root_ino, "b")
        assert f.ino not in fs._inodes

    def test_link_to_directory_rejected(self, fs):
        d = fs.mkdir(fs.root_ino, "d")
        with pytest.raises(IsADirectory):
            fs.link(fs.root_ino, "dlink", d.ino)

    def test_symlink_and_readlink(self, fs):
        fs.create(fs.root_ino, "target")
        link = fs.symlink(fs.root_ino, "sym", "/target")
        assert fs.readlink(link.ino) == "/target"
        assert link.size == len("/target")

    def test_readlink_on_file_rejected(self, fs):
        f = fs.create(fs.root_ino, "f")
        with pytest.raises(InvalidArgument):
            fs.readlink(f.ino)

    def test_namei_follows_symlinks(self, fs):
        fs.write_file("/real", b"data")
        fs.symlink(fs.root_ino, "ln", "/real")
        assert fs.read_file("/ln") == b"data"

    def test_namei_intermediate_symlink(self, fs):
        fs.makedirs("/a/b")
        fs.write_file("/a/b/f", b"deep")
        fs.symlink(fs.root_ino, "shortcut", "/a/b")
        assert fs.read_file("/shortcut/f") == b"deep"


class TestRename:
    def test_simple_rename(self, fs):
        fs.write_file("/old", b"data")
        fs.rename(fs.root_ino, "old", fs.root_ino, "new")
        assert fs.read_file("/new") == b"data"
        with pytest.raises(FileNotFound):
            fs.namei("/old")

    def test_rename_into_subdir(self, fs):
        d = fs.mkdir(fs.root_ino, "d")
        fs.write_file("/f", b"x")
        fs.rename(fs.root_ino, "f", d.ino, "f2")
        assert fs.read_file("/d/f2") == b"x"
        assert fs.namei("/d/f2").parent_ino == d.ino

    def test_rename_replaces_file(self, fs):
        fs.write_file("/a", b"aaa")
        fs.write_file("/b", b"bbb")
        fs.rename(fs.root_ino, "a", fs.root_ino, "b")
        assert fs.read_file("/b") == b"aaa"

    def test_rename_dir_updates_dotdot(self, fs):
        d1 = fs.mkdir(fs.root_ino, "d1")
        d2 = fs.mkdir(fs.root_ino, "d2")
        sub = fs.mkdir(d1.ino, "sub")
        fs.rename(d1.ino, "sub", d2.ino, "sub")
        assert fs._dir_entries(sub)[".."] == d2.ino
        assert fs.iget(d1.ino).nlink == 2
        assert fs.iget(d2.ino).nlink == 3

    def test_rename_dir_over_empty_dir(self, fs):
        fs.mkdir(fs.root_ino, "src")
        fs.mkdir(fs.root_ino, "dst")
        fs.rename(fs.root_ino, "src", fs.root_ino, "dst")
        assert fs.namei("/dst").is_dir

    def test_rename_dir_over_nonempty_rejected(self, fs):
        fs.mkdir(fs.root_ino, "src")
        dst = fs.mkdir(fs.root_ino, "dst")
        fs.create(dst.ino, "occupant")
        with pytest.raises(DirectoryNotEmpty):
            fs.rename(fs.root_ino, "src", fs.root_ino, "dst")

    def test_rename_file_over_dir_rejected(self, fs):
        fs.create(fs.root_ino, "f")
        fs.mkdir(fs.root_ino, "d")
        with pytest.raises(IsADirectory):
            fs.rename(fs.root_ino, "f", fs.root_ino, "d")

    def test_rename_into_own_subtree_rejected(self, fs):
        d = fs.mkdir(fs.root_ino, "d")
        sub = fs.mkdir(d.ino, "sub")
        with pytest.raises(InvalidArgument):
            fs.rename(fs.root_ino, "d", sub.ino, "evil")

    def test_rename_to_self_is_noop(self, fs):
        fs.write_file("/f", b"x")
        fs.rename(fs.root_ino, "f", fs.root_ino, "f")
        assert fs.read_file("/f") == b"x"


class TestReaddirAndPaths:
    def test_readdir_includes_dot_entries(self, fs):
        fs.create(fs.root_ino, "z")
        fs.create(fs.root_ino, "a")
        names = [n for n, _ in fs.readdir(fs.root_ino)]
        assert names[:2] == [".", ".."]
        assert names[2:] == ["a", "z"]  # sorted

    def test_makedirs(self, fs):
        fs.makedirs("/x/y/z")
        assert fs.namei("/x/y/z").is_dir
        fs.makedirs("/x/y/z")  # idempotent

    def test_namei_root(self, fs):
        assert fs.namei("/").ino == fs.root_ino

    def test_namei_through_file_rejected(self, fs):
        fs.write_file("/f", b"")
        with pytest.raises(NotADirectory):
            fs.namei("/f/sub")

    def test_write_file_overwrites(self, fs):
        fs.write_file("/f", b"long original content")
        fs.write_file("/f", b"new")
        assert fs.read_file("/f") == b"new"


class TestSetattr:
    def test_mode_uid_gid(self, fs):
        f = fs.create(fs.root_ino, "f")
        fs.setattr(f.ino, mode=0o600, uid=42, gid=43)
        assert f.mode == 0o600 and f.uid == 42 and f.gid == 43

    def test_size_truncates(self, fs):
        f = fs.create(fs.root_ino, "f")
        fs.write(f.ino, 0, b"0123456789")
        fs.setattr(f.ino, size=3)
        assert fs.read(f.ino, 0, 100) == b"012"

    def test_times(self, fs):
        f = fs.create(fs.root_ino, "f")
        fs.setattr(f.ino, atime=1000.0, mtime=2000.0)
        assert f.atime == 1000.0 and f.mtime == 2000.0


class TestSpaceExhaustion:
    def test_enospc(self):
        fs = FFS(open_device("mem://", num_blocks=4))
        f = fs.create(fs.root_ino, "big")
        with pytest.raises(NoSpace):
            fs.write(f.ino, 0, b"x" * (10 * fs.block_size))

    def test_freed_space_reusable(self):
        fs = FFS(open_device("mem://", num_blocks=6))
        f = fs.create(fs.root_ino, "a")
        fs.write(f.ino, 0, b"x" * (3 * fs.block_size))
        fs.remove(fs.root_ino, "a")
        g = fs.create(fs.root_ino, "b")
        fs.write(g.ino, 0, b"y" * (3 * fs.block_size))  # must not raise
        assert fs.read(g.ino, 0, 1) == b"y"


class TestDirectoryPersistenceThroughBlocks:
    def test_dir_entries_survive_cache_drop(self, fs):
        d = fs.mkdir(fs.root_ino, "d")
        for i in range(50):
            fs.create(d.ino, f"file{i:03}")
        fs._dir_cache.pop(d.ino)  # simulate cache eviction: reparse from blocks
        names = [n for n, _ in fs.readdir(d.ino)]
        assert len(names) == 52
        assert "file049" in names


class TestSymlinkLoops:
    def test_two_link_cycle_raises_eloop(self, fs):
        fs.symlink(fs.root_ino, "a", "/b")
        fs.symlink(fs.root_ino, "b", "/a")
        with pytest.raises(InvalidArgument):
            fs.namei("/a")

    def test_self_loop(self, fs):
        fs.symlink(fs.root_ino, "me", "/me")
        with pytest.raises(InvalidArgument):
            fs.namei("/me")

    def test_deep_but_legal_chain(self, fs):
        fs.write_file("/real", b"end of chain")
        previous = "/real"
        for i in range(fs.MAX_SYMLINK_DEPTH):
            fs.symlink(fs.root_ino, f"link{i}", previous)
            previous = f"/link{i}"
        assert fs.read_file(previous) == b"end of chain"

    def test_chain_one_past_limit_rejected(self, fs):
        fs.write_file("/real", b"x")
        previous = "/real"
        for i in range(fs.MAX_SYMLINK_DEPTH + 1):
            fs.symlink(fs.root_ino, f"link{i}", previous)
            previous = f"/link{i}"
        with pytest.raises(InvalidArgument):
            fs.namei(previous)

    def test_loop_through_nfs_is_clean_error(self):
        """Over the wire the loop surfaces as NFSERR_INVAL, not a hang."""
        from repro.fs.vfs import VFS
        from repro.nfs.client import NFSClient
        from repro.nfs.mount import MountClient, MountProgram
        from repro.nfs.server import NFSProgram
        from repro.rpc.server import RPCServer
        from repro.rpc.transport import InProcessTransport
        from repro.errors import NFSError

        fs = FFS()
        fs.symlink(fs.root_ino, "a", "/b")
        fs.symlink(fs.root_ino, "b", "/a")
        vfs = VFS(fs)
        server = RPCServer()
        server.register(NFSProgram(vfs))
        server.register(MountProgram(vfs))
        t = InProcessTransport(server.handler_for("u"))
        client = NFSClient(t, MountClient(t).mount("/"))
        # NFS clients resolve symlinks themselves via READLINK; the loop
        # manifests client-side as a bounded walk, server-side namei is
        # only reachable through mount paths:
        with pytest.raises(NFSError):
            MountClient(t).mount("/a/x")
