"""Integration tests for the multi-server federation client."""

import pytest

from repro.core.admin import identity_of, make_user_keypair
from repro.core.federation import DisCFSFederation
from repro.core.server import DisCFSServer
from repro.errors import DisCFSError, NFSError, NotAttached


@pytest.fixture()
def federation(administrator):
    key = make_user_keypair(b"federated-user")
    fed = DisCFSFederation(key)
    servers = {}
    for name in ("east", "west"):
        server = DisCFSServer(admin_identity=administrator.identity)
        administrator.trust_server(server)
        share = server.fs.mkdir(server.fs.root_ino, "share")
        server.fs.write_file("/share/origin.txt", name.encode())
        cred = administrator.grant_inode(
            identity_of(key), share, rights="RWX",
            scheme=server.handle_scheme, subtree=True)
        fed.mount(f"/{name}", server, attach="/share", secure=False)
        fed.submit_credential(f"/{name}", cred)
        servers[name] = server
    return fed, servers


class TestRouting:
    def test_reads_route_by_prefix(self, federation):
        fed, _servers = federation
        assert fed.read("/east/origin.txt") == b"east"
        assert fed.read("/west/origin.txt") == b"west"

    def test_root_lists_mounts(self, federation):
        fed, _servers = federation
        assert fed.listdir("/") == ["east", "west"]

    def test_listdir_inside_mount(self, federation):
        fed, _servers = federation
        assert "origin.txt" in fed.listdir("/east")

    def test_unrouted_path_rejected(self, federation):
        fed, _servers = federation
        with pytest.raises(NotAttached):
            fed.read("/north/x")

    def test_longest_prefix_wins(self, federation, administrator):
        fed, _servers = federation
        key = fed.key
        nested = DisCFSServer(admin_identity=administrator.identity)
        administrator.trust_server(nested)
        nested.fs.write_file("/marker", b"nested")
        cred = administrator.grant_inode(
            identity_of(key), nested.fs.iget(nested.fs.root_ino),
            rights="RWX", scheme=nested.handle_scheme, subtree=True)
        fed.mount("/east/deep", nested, secure=False)
        fed.submit_credential("/east/deep", cred)
        assert fed.read("/east/deep/marker") == b"nested"
        assert fed.read("/east/origin.txt") == b"east"


class TestWritesAndCopies:
    def test_write_routes(self, federation):
        fed, servers = federation
        fed.write("/east/new.txt", b"created via federation")
        assert servers["east"].fs.read_file("/share/new.txt") == \
            b"created via federation"

    def test_cross_server_copy(self, federation, administrator):
        fed, servers = federation
        fed.write("/east/data.bin", b"payload" * 100)
        n = fed.copy("/east/data.bin", "/west/data.bin")
        assert n == 700
        assert servers["west"].fs.read_file("/share/data.bin") == b"payload" * 100

    def test_remove(self, federation):
        fed, _servers = federation
        fed.write("/west/tmp.txt", b"x")
        fed.remove("/west/tmp.txt")
        assert "tmp.txt" not in fed.listdir("/west")


class TestIsolation:
    def test_credentials_are_per_server(self, federation, administrator):
        """A credential submitted to east grants nothing on west."""
        fed, servers = federation
        key2 = make_user_keypair(b"second-user")
        fed2 = DisCFSFederation(key2)
        for name, server in servers.items():
            fed2.mount(f"/{name}", server, attach="/share", secure=False)
        east_share = servers["east"].fs.namei("/share")
        cred = administrator.grant_inode(
            identity_of(key2), east_share, rights="RX",
            scheme=servers["east"].handle_scheme, subtree=True)
        fed2.submit_credential("/east", cred)
        assert fed2.read("/east/origin.txt") == b"east"
        with pytest.raises(NFSError):
            fed2.read("/west/origin.txt")

    def test_revocation_is_per_server(self, federation, administrator):
        fed, servers = federation
        user_id = identity_of(fed.key)
        servers["east"].revocations.revoke_key(user_id)
        servers["east"].cache.flush()
        with pytest.raises(NFSError):
            fed.read("/east/origin.txt")
        assert fed.read("/west/origin.txt") == b"west"  # untouched


class TestMountManagement:
    def test_duplicate_prefix_rejected(self, federation, administrator):
        fed, servers = federation
        with pytest.raises(DisCFSError):
            fed.mount("/east", servers["west"], secure=False)

    def test_root_prefix_rejected(self, federation, administrator):
        fed, servers = federation
        with pytest.raises(DisCFSError):
            fed.mount("/", servers["east"], secure=False)

    def test_unmount(self, federation):
        fed, _servers = federation
        fed.unmount("/east")
        with pytest.raises(NotAttached):
            fed.read("/east/origin.txt")
        with pytest.raises(NotAttached):
            fed.unmount("/east")

    def test_close(self, federation):
        fed, _servers = federation
        fed.close()
        assert fed.mounts == {}
