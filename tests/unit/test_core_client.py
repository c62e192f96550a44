"""Unit tests for the DisCFS client (wallet, path helpers, lifecycle)."""

import pytest

from repro.core.admin import identity_of
from repro.core.client import DisCFSClient
from repro.errors import NFSError, NotAttached
from repro.nfs.protocol import NFSStat


@pytest.fixture()
def granted_bob(discfs, administrator, bob_key, bob_id):
    """Bob with full subtree rights on the server root."""
    cred = administrator.grant_inode(
        bob_id, discfs.fs.iget(discfs.fs.root_ino), rights="RWX",
        scheme=discfs.handle_scheme, subtree=True)
    bob = DisCFSClient.connect(discfs, bob_key, secure=False)
    bob.attach("/")
    bob.submit_credential(cred)
    return bob


class TestLifecycle:
    def test_operations_require_attach(self, discfs, bob_key):
        client = DisCFSClient.connect(discfs, bob_key, secure=False)
        with pytest.raises(NotAttached):
            client.readdir(None)
        with pytest.raises(NotAttached):
            _ = client.root

    def test_detach(self, granted_bob):
        granted_bob.detach()
        with pytest.raises(NotAttached):
            _ = granted_bob.root

    def test_identity_matches_key(self, discfs, bob_key, bob_id):
        client = DisCFSClient.connect(discfs, bob_key, secure=False)
        assert client.identity == bob_id

    def test_secure_and_raw_variants(self, discfs, bob_key):
        secure = DisCFSClient.connect(discfs, bob_key, secure=True)
        raw = DisCFSClient.connect(discfs, bob_key, secure=False)
        from repro.ipsec.channel import SecureTransport

        assert isinstance(secure.transport, SecureTransport)
        assert not isinstance(raw.transport, SecureTransport)


class TestWallet:
    def test_submitted_credentials_remembered(self, granted_bob):
        assert len(granted_bob.wallet) == 1

    def test_no_duplicate_wallet_entries(self, granted_bob):
        text = granted_bob.wallet[0]
        granted_bob.submit_credential(text)
        assert granted_bob.wallet.count(text) == 1

    def test_creator_credentials_collected(self, granted_bob):
        before = len(granted_bob.wallet)
        granted_bob.create(granted_bob.root, "a.txt")
        granted_bob.mkdir(granted_bob.root, "d")
        assert len(granted_bob.wallet) == before + 2

    def test_submit_credentials_batch(self, discfs, administrator, alice_key,
                                      alice_id):
        d1 = discfs.fs.mkdir(discfs.fs.root_ino, "dir1")
        d2 = discfs.fs.mkdir(discfs.fs.root_ino, "dir2")
        creds = [
            administrator.grant_inode(alice_id, d, rights="RX",
                                      scheme=discfs.handle_scheme)
            for d in (d1, d2)
        ]
        alice = DisCFSClient.connect(discfs, alice_key, secure=False)
        alice.attach("/")
        messages = alice.submit_credentials(creds)
        assert messages == ["credential accepted"] * 2


def _signed(key, conditions):
    """A credential from ``key`` to itself, signed as is: no parse first."""
    from repro.crypto.keycodec import encode_signature

    identity = identity_of(key)
    body = (f'KeyNote-Version: 2\nAuthorizer: "{identity}"\n'
            f'Licensees: "{identity}"\nConditions: {conditions}\nSignature:')
    signature = encode_signature("dsa", "sha1", key.sign(body.encode("utf-8")))
    return f'{body} "{signature}"\n'


class TestMalformedSubmissions:
    """A credential that does not parse is a denial (``NFSERR_ACCES``),
    whatever is wrong with it — never a server error."""

    @pytest.mark.parametrize("conditions", [
        '(a == 1e+) -> "RWX";',  # a numeral with no exponent digits
        '(a == ²) -> "RWX";',    # a digit that is not a decimal digit
        '(a == "x" -> "RWX";',   # a missing bracket
    ])
    def test_refused_as_access_denied(self, discfs, alice_key, conditions):
        alice = DisCFSClient.connect(discfs, alice_key, secure=False)
        alice.attach("/")
        with pytest.raises(NFSError) as info:
            alice.submit_credentials([_signed(alice_key, conditions)])
        assert info.value.status == NFSStat.NFSERR_ACCES


class TestPathHelpers:
    def test_write_then_read_path(self, granted_bob):
        data = bytes(range(256)) * 100  # 25.6 KB, spans several RPCs
        granted_bob.write_path("/blob.bin", data)
        assert granted_bob.read_path("/blob.bin") == data

    def test_write_path_overwrites(self, granted_bob):
        granted_bob.write_path("/f.txt", b"original longer content")
        granted_bob.write_path("/f.txt", b"short")
        assert granted_bob.read_path("/f.txt") == b"short"

    def test_write_path_in_subdirectory(self, granted_bob):
        granted_bob.mkdir(granted_bob.root, "sub")
        granted_bob.write_path("/sub/deep.txt", b"below")
        assert granted_bob.read_path("/sub/deep.txt") == b"below"

    def test_read_path_missing(self, granted_bob):
        with pytest.raises(NFSError):
            granted_bob.read_path("/ghost")

    def test_open_buffered(self, granted_bob):
        fh, _ = granted_bob.create(granted_bob.root, "buf.txt")
        with granted_bob.open(fh) as f:
            f.write(b"buffered write")
        assert granted_bob.read(fh, 0, 100) == b"buffered write"

    def test_rename_and_remove(self, granted_bob):
        granted_bob.write_path("/x", b"1")
        granted_bob.rename(granted_bob.root, "x", granted_bob.root, "y")
        assert granted_bob.read_path("/y") == b"1"
        granted_bob.remove(granted_bob.root, "y")
        with pytest.raises(NFSError):
            granted_bob.read_path("/y")

    def test_rmdir(self, granted_bob):
        granted_bob.mkdir(granted_bob.root, "empty")
        granted_bob.rmdir(granted_bob.root, "empty")
        names = [n for _i, n in granted_bob.readdir(granted_bob.root)]
        assert "empty" not in names


class TestDelegationHelper:
    def test_delegate_from_wallet(self, granted_bob, discfs, alice_key,
                                  alice_id):
        _fh, cred = granted_bob.create(granted_bob.root, "shared.txt")
        granted_bob.write_path("/shared.txt", b"to share")
        delegated = granted_bob.delegate(cred, alice_id, rights="RX")
        alice = DisCFSClient.connect(discfs, alice_key, secure=False)
        alice.attach("/")
        alice.submit_credential(delegated)
        fh, _ = alice.walk("/shared.txt")
        assert alice.read(fh, 0, 100) == b"to share"


class TestWalletPersistence:
    def test_save_and_load_roundtrip(self, granted_bob, discfs, bob_key,
                                     tmp_path):
        granted_bob.create(granted_bob.root, "w1.txt")
        granted_bob.create(granted_bob.root, "w2.txt")
        path = str(tmp_path / "wallet.creds")
        saved = granted_bob.save_wallet(path)
        assert saved == len(granted_bob.wallet) >= 3

        # A fresh client (server restartless) reloads and resubmits.
        fresh = DisCFSClient.connect(discfs, bob_key, secure=False)
        fresh.attach("/")
        loaded = fresh.load_wallet(path)
        assert loaded == saved
        assert len(fresh.wallet) == saved
        fh, _ = fresh.walk("/w1.txt")
        assert fh is not None

    def test_load_without_submit(self, granted_bob, discfs, bob_key,
                                 tmp_path):
        path = str(tmp_path / "wallet.creds")
        granted_bob.save_wallet(path)
        offline = DisCFSClient(discfs.in_process_transport("x"), bob_key)
        n = offline.load_wallet(path, submit=False)
        assert n == len(offline.wallet)

    def test_wallet_survives_server_restart_with_persistence(
            self, administrator, bob_key, tmp_path):
        """The full durability story: filesystem checkpoint + client
        wallet = everything needed to resume after both sides restart."""
        from repro.core.server import DisCFSServer
        from repro.fs.ffs import FFS
        from repro.fs.persist import load, sync
        from repro.storage import open_device
        from repro.core.admin import identity_of

        disk = f"file://{tmp_path / 'srv.img'}"
        wallet = str(tmp_path / "wallet.creds")

        with open_device(disk, num_blocks=2048) as device:
            fs = FFS(device)
            server = DisCFSServer(admin_identity=administrator.identity, fs=fs)
            administrator.trust_server(server)
            share = server.fs.mkdir(server.fs.root_ino, "share")
            cred = administrator.grant_inode(
                identity_of(bob_key), share, rights="RWX",
                scheme=server.handle_scheme, subtree=True)
            bob = DisCFSClient.connect(server, bob_key, secure=False)
            bob.attach("/share")
            bob.submit_credential(cred)
            fh, _ = bob.create(bob.root, "durable.txt")
            bob.write(fh, 0, b"survives restarts")
            bob.save_wallet(wallet)
            sync(fs)

        with open_device(disk, num_blocks=2048) as device:
            fs2 = load(device)
            server2 = DisCFSServer(admin_identity=administrator.identity,
                                   fs=fs2)
            administrator.trust_server(server2)
            bob2 = DisCFSClient.connect(server2, bob_key, secure=False)
            bob2.attach("/share")
            bob2.load_wallet(wallet)
            assert bob2.read_path("/durable.txt") == b"survives restarts"
