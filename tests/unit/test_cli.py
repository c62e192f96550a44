"""End-to-end tests for the ``discfs`` CLI.

Each test drives ``repro.cli.main`` in-process.  The server tests start a
real TCP server in a background thread via the library (the CLI ``serve``
command's blocking loop is exercised only in --oneshot form) and then run
client commands against it.
"""

import threading

import pytest

from repro.cli import main
from repro.core.admin import Administrator
from repro.core.server import DisCFSServer
from repro.crypto.keycodec import decode_key
from repro.rpc.transport import serve_tcp


def run(argv):
    return main(argv)


@pytest.fixture()
def keyfile(tmp_path):
    path = str(tmp_path / "user.key")
    assert run(["keygen", "--out", path, "--seed", "cli-user"]) == 0
    return path


@pytest.fixture()
def admin_keyfile(tmp_path):
    path = str(tmp_path / "admin.key")
    assert run(["keygen", "--out", path, "--seed", "cli-admin"]) == 0
    return path


def identity_of_file(path, capsys):
    assert run(["identity", "--key", path]) == 0
    return capsys.readouterr().out.strip()


class TestKeyCommands:
    def test_keygen_writes_private_key(self, keyfile):
        key = decode_key(open(keyfile).read().strip())
        assert hasattr(key, "sign")

    def test_keygen_rsa(self, tmp_path):
        path = str(tmp_path / "rsa.key")
        assert run(["keygen", "--out", path, "--algorithm", "rsa",
                    "--bits", "768", "--seed", "cli-rsa"]) == 0
        key = decode_key(open(path).read().strip())
        assert key.algorithm == "rsa"

    def test_identity(self, keyfile, capsys):
        identity = identity_of_file(keyfile, capsys)
        assert identity.startswith("dsa-hex:")

    def test_identity_missing_file(self, tmp_path):
        assert run(["identity", "--key", str(tmp_path / "nope.key")]) == 1


class TestCredentialCommands:
    def test_issue_inspect_verify(self, admin_keyfile, keyfile, tmp_path,
                                  capsys):
        user_id = identity_of_file(keyfile, capsys)
        cred = str(tmp_path / "cred.txt")
        assert run(["issue", "--key", admin_keyfile, "--licensee", user_id,
                    "--handle", "42.1", "--rights", "RX",
                    "--comment", "testdir", "--out", cred]) == 0
        assert run(["verify", "--credential", cred]) == 0
        assert run(["inspect", "--credential", cred]) == 0
        out = capsys.readouterr().out
        assert "handle     : 42.1" in out
        assert "rights     : RX" in out
        assert "comment    : testdir" in out

    def test_issue_licensee_from_file(self, admin_keyfile, keyfile, tmp_path,
                                      capsys):
        user_id = identity_of_file(keyfile, capsys)
        id_file = tmp_path / "user.id"
        id_file.write_text(user_id + "\n")
        cred = str(tmp_path / "cred.txt")
        assert run(["issue", "--key", admin_keyfile,
                    "--licensee", str(id_file),
                    "--handle", "1", "--out", cred]) == 0
        assert run(["verify", "--credential", cred]) == 0

    def test_issue_subtree_and_hours(self, admin_keyfile, keyfile, tmp_path,
                                     capsys):
        user_id = identity_of_file(keyfile, capsys)
        cred = str(tmp_path / "cred.txt")
        assert run(["issue", "--key", admin_keyfile, "--licensee", user_id,
                    "--handle", "7.1", "--subtree", "--hours", "9-17",
                    "--out", cred]) == 0
        text = open(cred).read()
        assert "ANCESTORS" in text and "@hour" in text

    def test_delegate(self, admin_keyfile, keyfile, tmp_path, capsys):
        user_id = identity_of_file(keyfile, capsys)
        original = str(tmp_path / "orig.txt")
        run(["issue", "--key", admin_keyfile, "--licensee", user_id,
             "--handle", "5.1", "--rights", "RWX", "--out", original])
        delegated = str(tmp_path / "deleg.txt")
        assert run(["delegate", "--key", keyfile, "--credential", original,
                    "--licensee", "some-principal", "--rights", "RX",
                    "--out", delegated]) == 0
        capsys.readouterr()
        assert run(["inspect", "--credential", delegated]) == 0
        assert "rights     : RX" in capsys.readouterr().out

    def test_verify_tampered(self, admin_keyfile, keyfile, tmp_path, capsys):
        user_id = identity_of_file(keyfile, capsys)
        cred = tmp_path / "cred.txt"
        run(["issue", "--key", admin_keyfile, "--licensee", user_id,
             "--handle", "1", "--rights", "RX", "--out", str(cred)])
        cred.write_text(cred.read_text().replace('"RX"', '"RWX"'))
        assert run(["verify", "--credential", str(cred)]) == 1

    def test_issue_with_public_key_fails(self, admin_keyfile, keyfile,
                                         tmp_path, capsys):
        user_id = identity_of_file(keyfile, capsys)
        pub_file = tmp_path / "pub.key"
        pub_file.write_text(user_id)
        assert run(["issue", "--key", str(pub_file), "--licensee", user_id,
                    "--handle", "1"]) == 1


class TestServeSigterm:
    def test_sigterm_checkpoints_durable_backend(self, tmp_path):
        """`discfs serve` under a process manager gets SIGTERM, not Ctrl-C;
        the durable backend must still hold the checkpoint afterwards."""
        import os
        import signal
        import subprocess
        import sys

        import repro.cli
        from repro.fs import persist
        from repro.storage import open_device

        src = tmp_path / "content"
        src.mkdir()
        (src / "keep.txt").write_text("survives sigterm")
        backend = f"file://{tmp_path}/state.img"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(
            os.path.dirname(os.path.abspath(repro.cli.__file__))
        )
        proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.cli", "serve",
             "--admin-identity", "admin-principal",
             "--import-dir", str(src), "--backend", backend, "--port", "0"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            # Watch stdout from a thread: readline() has no timeout, and a
            # hung server must fail the test at the deadline, not stall it.
            started = threading.Event()

            def _watch():
                for line in proc.stdout:
                    if "DisCFS serving on" in line:
                        started.set()
                        return

            threading.Thread(target=_watch, daemon=True).start()
            assert started.wait(timeout=60), "server never reported serving"
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        restored = persist.load(open_device(backend))
        assert restored.read_file("/keep.txt") == b"survives sigterm"
        restored.device.close()


class TestServeOneshot:
    def test_serve_starts_and_exits(self, admin_keyfile, tmp_path, capsys):
        run(["identity", "--key", admin_keyfile])
        admin_id = capsys.readouterr().out.strip()
        src = tmp_path / "content"
        src.mkdir()
        (src / "a.txt").write_text("imported")
        (src / "sub").mkdir()
        (src / "sub" / "b.txt").write_text("nested")
        assert run(["serve", "--admin-identity", admin_id,
                    "--trust-key", admin_keyfile,
                    "--import-dir", str(src), "--oneshot"]) == 0
        out = capsys.readouterr().out
        assert "imported 2 files" in out
        assert "DisCFS serving on" in out


@pytest.fixture()
def live_server(admin_keyfile, keyfile, tmp_path, capsys):
    """A real DisCFS TCP server plus an issued credential for the user."""
    admin = Administrator(decode_key(open(admin_keyfile).read().strip()))
    server = DisCFSServer(admin_identity=admin.identity)
    admin.trust_server(server)
    share = server.fs.mkdir(server.fs.root_ino, "share")
    server.fs.write_file("/share/hello.txt", b"hi from the server\n")

    user_id = identity_of_file(keyfile, capsys)
    cred_path = str(tmp_path / "share.cred")
    open(cred_path, "w").write(admin.grant_inode(
        user_id, share, rights="RWX", scheme=server.handle_scheme,
        subtree=True,
    ))
    tcp = serve_tcp(server.secure_channel().handle)
    yield f"{tcp.address[0]}:{tcp.address[1]}", cred_path, server, admin_keyfile
    tcp.close()


class TestClientCommands:
    def test_ls_cat_put_rm_stat(self, live_server, keyfile, tmp_path, capsys):
        address, cred, _server, _admin = live_server
        base = ["--server", address, "--key", keyfile,
                "--attach", "/share", "--credential", cred]

        assert run(["ls", *base, "/"]) == 0
        assert "hello.txt" in capsys.readouterr().out

        assert run(["cat", *base, "/hello.txt"]) == 0
        assert "hi from the server" in capsys.readouterr().out

        local = tmp_path / "upload.bin"
        local.write_bytes(b"uploaded bytes")
        saved = str(tmp_path / "creator.cred")
        assert run(["put", *base, str(local), "/upload.bin",
                    "--save-credential", saved]) == 0
        assert "creator credential saved" in capsys.readouterr().out
        assert "Signature" in open(saved).read()

        assert run(["stat", *base, "/upload.bin"]) == 0
        out = capsys.readouterr().out
        assert "handle     :" in out and "size       : 14" in out

        assert run(["rm", *base, "/upload.bin"]) == 0

    def test_submit_command(self, live_server, keyfile, capsys):
        address, cred, _server, _admin = live_server
        assert run(["submit", "--server", address, "--key", keyfile,
                    "--attach", "/share", cred]) == 0
        assert "credential accepted" in capsys.readouterr().out

    def test_access_denied_without_credential(self, live_server, keyfile):
        address, _cred, _server, _admin = live_server
        assert run(["ls", "--server", address, "--key", keyfile,
                    "--attach", "/share", "/"]) == 1

    def test_admin_revoke_key(self, live_server, keyfile, tmp_path, capsys):
        address, cred, _server, admin_keyfile = live_server
        user_id = identity_of_file(keyfile, capsys)
        # Revocation must come from the admin's channel.
        assert run(["revoke", "--server", address, "--key", admin_keyfile,
                    "key", user_id]) == 0
        assert "revoked key" in capsys.readouterr().out
        assert run(["ls", "--server", address, "--key", keyfile,
                    "--attach", "/share", "--credential", cred, "/"]) == 1


class TestControlPlaneCommands:
    """``store-inspect`` and ``reshard`` — the CLI over the control
    plane (``repro.storage.control``)."""

    def test_store_inspect_renders_topology(self, capsys):
        assert run(["store-inspect", "cached://shard://2#capacity=8",
                    "--exercise"]) == 0
        out = capsys.readouterr().out
        assert "backend: cached://shard://mem://;mem://#capacity=8" in out
        assert "caps:" in out and "mem://" in out
        assert "hits=1" in out  # --exercise reads twice: miss then hit

    def test_store_inspect_exercise_never_writes(self, tmp_path):
        """Inspection must not mutate the backend: block 0 of a real
        image is the superblock."""
        from repro.storage import open_store

        uri = f"file://{tmp_path}/precious.img?blocks=64&bs=512"
        seeded = open_store(uri)
        seeded.write(0, b"superblock!")
        seeded.flush()
        seeded.close()
        assert run(["store-inspect", uri, "--exercise"]) == 0
        reopened = open_store(uri)
        try:
            assert reopened.read(0).startswith(b"superblock!")
        finally:
            reopened.close()

    def test_store_inspect_json(self, capsys):
        import json

        assert run(["store-inspect", "replica://mem://;mem://#w=2&r=1",
                    "--json"]) == 0
        tree = json.loads(capsys.readouterr().out)
        assert tree["scheme"] == "replica"
        assert len(tree["children"]) == 2
        assert tree["capabilities"]["composite"] is True

    def test_store_inspect_json_exposes_per_layer_latency(self, capsys):
        """--json carries the metered layer's histogram readback under
        the stable ``lat:<layer>:<op>:<quantile>`` key namespace."""
        import json

        assert run(["store-inspect", "metered://mem://", "--exercise",
                    "--json"]) == 0
        tree = json.loads(capsys.readouterr().out)
        assert tree["scheme"] == "metered"
        extra = tree["stats"]["extra"]
        assert extra["lat:mem:read:count"] == 2.0
        for quantile in ("p50", "p95", "p99"):
            assert f"lat:mem:read:{quantile}" in extra

    def test_store_inspect_renders_latency_table(self, capsys):
        assert run(["store-inspect", "metered://mem://", "--exercise"]) == 0
        out = capsys.readouterr().out
        assert "p50(ms)" in out and "p99(ms)" in out
        assert "mem    read" in out

    def test_store_inspect_parse_only(self, capsys):
        assert run(["store-inspect", "shard://3", "--parse"]) == 0
        assert "spec ok: shard://mem://;mem://;mem://" in \
            capsys.readouterr().out

    def test_store_inspect_rejects_typos_with_suggestion(self, capsys):
        assert run(["store-inspect", "cached://mem://#capasity=8"]) == 1
        err = capsys.readouterr().err
        assert "capacity" in err  # the did-you-mean hint

    def test_reshard_three_to_four_file_ring(self, tmp_path, capsys):
        old = f"shard://3?base=file&dir={tmp_path}&bs=512&blocks=512"
        new = f"shard://4?base=file&dir={tmp_path}&bs=512&blocks=512"
        seeded = run_store_writes(old, blocks=256)
        assert run(["reshard", old, new]) == 0
        out = capsys.readouterr().out
        assert "moved" in out and "verified   : yes" in out
        # and the data still reads back through the new layout
        from repro.storage import open_store

        store = open_store(new, num_blocks=512, block_size=512)
        try:
            for block_no, data in seeded.items():
                assert store.read(block_no).startswith(data)
        finally:
            store.close()

    def test_reshard_rejects_non_shard_specs(self, capsys):
        assert run(["reshard", "mem://", "shard://4"]) == 1
        assert "shard:// specs" in capsys.readouterr().err


def run_store_writes(uri, blocks):
    """Seed a backend with recognizable payloads; returns {block: data}."""
    from repro.storage import open_store

    store = open_store(uri, num_blocks=512, block_size=512)
    payload = {}
    try:
        for block_no in range(blocks):
            data = b"cli-%d" % block_no
            payload[block_no] = data
            store.write(block_no, data)
        store.flush()
    finally:
        store.close()
    return payload
