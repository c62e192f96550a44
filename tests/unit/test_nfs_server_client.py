"""Unit tests for the NFS server + client pair (over in-process RPC)."""

import pytest

from repro.errors import NFSError
from repro.fs.ffs import FFS
from repro.fs.vfs import VFS
from repro.nfs.client import NFSClient
from repro.nfs.mount import MountClient, MountProgram
from repro.nfs.protocol import MAX_DATA, NFSStat, SAttr
from repro.nfs.server import NFSProgram
from repro.rpc.server import RPCServer
from repro.rpc.transport import InProcessTransport


@pytest.fixture()
def stack():
    fs = FFS()
    vfs = VFS(fs)
    server = RPCServer()
    server.register(NFSProgram(vfs))
    server.register(MountProgram(vfs))
    transport = InProcessTransport(server.handler_for("unit-test"))
    root = MountClient(transport).mount("/")
    return fs, NFSClient(transport, root)


class TestFileOperations:
    def test_create_write_read(self, stack):
        fs, client = stack
        fh, attr, _cred = client.create(client.root, "f")
        client.write(fh, 0, b"hello")
        assert client.read(fh, 0, 5) == b"hello"
        assert client.getattr(fh).size == 5

    def test_create_with_mode(self, stack):
        _fs, client = stack
        fh, attr, _ = client.create(client.root, "f", SAttr(mode=0o600))
        assert attr.permission_bits == 0o600

    def test_write_size_limit(self, stack):
        _fs, client = stack
        fh, _, _ = client.create(client.root, "f")
        with pytest.raises(NFSError):
            client.write(fh, 0, b"x" * (MAX_DATA + 1))

    def test_read_size_limit(self, stack):
        _fs, client = stack
        fh, _, _ = client.create(client.root, "f")
        from repro.errors import RPCError
        with pytest.raises((NFSError, RPCError)):
            client.read(fh, 0, MAX_DATA + 1)

    def test_setattr_truncate(self, stack):
        _fs, client = stack
        fh, _, _ = client.create(client.root, "f")
        client.write(fh, 0, b"0123456789")
        attr = client.setattr(fh, SAttr(size=4))
        assert attr.size == 4

    def test_lookup_missing(self, stack):
        _fs, client = stack
        with pytest.raises(NFSError) as excinfo:
            client.lookup(client.root, "ghost")
        assert excinfo.value.status == NFSStat.NFSERR_NOENT

    def test_remove_then_stale(self, stack):
        _fs, client = stack
        fh, _, _ = client.create(client.root, "f")
        client.remove(client.root, "f")
        with pytest.raises(NFSError) as excinfo:
            client.read(fh, 0, 1)
        assert excinfo.value.status == NFSStat.NFSERR_STALE

    def test_rename(self, stack):
        _fs, client = stack
        fh, _, _ = client.create(client.root, "old")
        client.rename(client.root, "old", client.root, "new")
        fh2, _ = client.lookup(client.root, "new")
        assert fh2 == fh

    def test_link(self, stack):
        _fs, client = stack
        fh, _, _ = client.create(client.root, "a")
        client.link(fh, client.root, "b")
        assert client.getattr(fh).nlink == 2

    def test_symlink_readlink(self, stack):
        _fs, client = stack
        client.symlink(client.root, "ln", "/somewhere")
        fh, attr = client.lookup(client.root, "ln")
        assert client.readlink(fh) == "/somewhere"

    def test_statfs(self, stack):
        _fs, client = stack
        info = client.statfs()
        assert info["bsize"] == 8192
        assert info["bfree"] <= info["blocks"]


class TestDirectories:
    def test_mkdir_rmdir(self, stack):
        _fs, client = stack
        fh, attr, _ = client.mkdir(client.root, "d")
        assert attr.is_dir
        client.rmdir(client.root, "d")
        with pytest.raises(NFSError):
            client.lookup(client.root, "d")

    def test_readdir_all(self, stack):
        _fs, client = stack
        for i in range(10):
            client.create(client.root, f"f{i}")
        names = {name for _id, name in client.readdir_all(client.root)}
        assert {f"f{i}" for i in range(10)} <= names
        assert "." in names and ".." in names

    def test_readdir_pagination(self, stack):
        _fs, client = stack
        for i in range(50):
            client.create(client.root, f"file-with-a-longish-name-{i:04}")
        entries, eof = client.readdir(client.root, cookie=0, count=256)
        assert not eof  # must not fit in 256 bytes
        all_names = {n for _i, n in client.readdir_all(client.root)}
        assert len(all_names) == 52

    def test_walk(self, stack):
        fs, client = stack
        fs.makedirs("/a/b")
        fs.write_file("/a/b/f", b"deep")
        fh, attr = client.walk("/a/b/f")
        assert client.read(fh, 0, 4) == b"deep"


class TestMount:
    def test_mount_subdirectory(self, stack):
        fs, client = stack
        fs.makedirs("/exports/data")

    def test_restricted_exports(self):
        fs = FFS()
        fs.makedirs("/public")
        fs.makedirs("/private")
        vfs = VFS(fs)
        server = RPCServer()
        server.register(NFSProgram(vfs))
        server.register(MountProgram(vfs, exports=["/public"]))
        transport = InProcessTransport(server.handler_for())
        mc = MountClient(transport)
        mc.mount("/public")
        with pytest.raises(NFSError):
            mc.mount("/private")
        with pytest.raises(NFSError):
            mc.mount("/")

    def test_mount_missing_path(self):
        fs = FFS()
        vfs = VFS(fs)
        server = RPCServer()
        server.register(MountProgram(vfs))
        transport = InProcessTransport(server.handler_for())
        with pytest.raises(NFSError):
            MountClient(transport).mount("/nonexistent")

    def test_unmount(self, stack):
        _fs, client = stack
        # UMNT is advisory; just verify the call completes.
        # (client fixture's transport is shared with the mount client)


class TestRemoteFile:
    def test_putc_getc(self, stack):
        _fs, client = stack
        fh, _, _ = client.create(client.root, "f")
        f = client.open(fh)
        for ch in b"abc":
            f.putc(ch)
        f.flush()
        f.seek(0)
        assert f.getc() == ord("a")
        assert f.read(2) == b"bc"
        assert f.getc() is None

    def test_buffering_reduces_rpcs(self, stack):
        _fs, client = stack
        fh, _, _ = client.create(client.root, "f")
        transport = client._rpc.transport
        f = client.open(fh)
        calls_before = transport.stats.calls
        for i in range(MAX_DATA - 1):
            f.putc(i & 0x7F)
        assert transport.stats.calls == calls_before  # all buffered
        f.putc(0)  # hits the buffer boundary -> exactly one WRITE
        assert transport.stats.calls == calls_before + 1

    def test_interleaved_seek_write_read(self, stack):
        _fs, client = stack
        fh, _, _ = client.create(client.root, "f")
        f = client.open(fh)
        f.write(b"0123456789")
        f.seek(4)
        f.write(b"XY")
        f.seek(0)
        assert f.read(10) == b"0123XY6789"

    def test_context_manager_flushes(self, stack):
        _fs, client = stack
        fh, _, _ = client.create(client.root, "f")
        with client.open(fh) as f:
            f.write(b"buffered")
        assert client.getattr(fh).size == 8


class TestOverTCP:
    """The same pair over real sockets: records arrive in the
    transport's receive buffers, and nothing the filesystem keeps may
    alias one."""

    @pytest.mark.parametrize("workers", [0, 2])
    def test_back_to_back_writes_stay_distinct(self, workers):
        from repro.rpc.transport import TCPTransport, serve_tcp

        program = NFSProgram(VFS(FFS("mem://")))
        server = RPCServer()
        server.register(program)
        server.register(MountProgram(program.vfs))
        tcp = serve_tcp(server.handler_for(None), workers=workers)
        try:
            transport = TCPTransport(*tcp.address, timeout=5.0)
            client = NFSClient(transport, MountClient(transport).mount("/"))
            fh, _, _ = client.create(client.root, "f")
            first = bytes(range(256)) * (MAX_DATA // 256)
            second = first[::-1]
            client.write(fh, 0, first)
            client.write(fh, MAX_DATA, second)
            # What the store holds is what matters: read it there too.
            assert program.vfs.fs.read_file("/f") == first + second
            got_first = client.read(fh, 0, MAX_DATA)
            got_second = client.read(fh, MAX_DATA, MAX_DATA)
            assert (got_first, got_second) == (first, second)
            assert type(got_first) is bytes
            transport.close()
        finally:
            tcp.close()


class TestReportedMode:
    def test_reported_mode_does_not_touch_the_inode(self, stack):
        """GETATTR reports the controller's mode; the stored one stays,
        also while the reply is being packed."""
        fs, client = stack
        fh, _, _ = client.create(client.root, "f", SAttr(mode=0o640))

        class Masking:
            def __getattr__(self, name):
                return getattr(self.inner, name)

            def effective_mode(self, ctx, inode):
                assert inode.mode & 0o7777 == 0o640  # never swapped in
                return 0o400

        program = NFSProgram(VFS(fs))
        masking = Masking()
        masking.inner = program.controller
        program.controller = masking
        server = RPCServer()
        server.register(program)
        masked = NFSClient(InProcessTransport(server.handler_for(None)),
                           client.root)
        assert masked.getattr(fh).permission_bits == 0o400
        assert fs.namei("/f").mode & 0o7777 == 0o640
