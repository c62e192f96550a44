#!/usr/bin/env python3
"""Quickstart: a DisCFS server, one user, one credential.

Demonstrates the core loop of the paper in ~40 lines:

1. the administrator bootstraps a server (policy trusts only her key),
2. a user connects over the secure channel — identified purely by his
   public key, no account creation,
3. the attached directory shows permissions 000,
4. the administrator's credential (emailed, in the paper's story) is
   submitted, and the files appear.

Run:  python examples/quickstart.py [--backend URI]

``--backend`` picks the storage layer the server's filesystem lives on
(default ``mem://``; try ``sqlite:///tmp/quickstart.db`` or
``cached://shard://4``).
"""

import argparse

from repro.core import Administrator, DisCFSClient, DisCFSServer
from repro.core.admin import identity_of, make_user_keypair


def main(backend: str = "mem://") -> None:
    # --- server bootstrap (one-time administrator involvement) ---------
    admin = Administrator.generate(seed=b"quickstart-admin")
    server = DisCFSServer(admin_identity=admin.identity, device=backend)
    admin.trust_server(server)
    print(f"server storage backend: {backend}")

    # Seed some content server-side.
    testdir = server.fs.mkdir(server.fs.root_ino, "testdir")
    server.fs.write_file("/testdir/hello.txt", b"hello from DisCFS\n")

    # --- a user, known only by his key ---------------------------------
    bob_key = make_user_keypair(b"quickstart-bob")
    credential = admin.grant_inode(
        identity_of(bob_key), testdir, rights="RWX",
        scheme=server.handle_scheme, subtree=True, comment="testdir",
    )
    print("credential issued by the administrator (first 3 lines):")
    print("\n".join(credential.splitlines()[:3])[:200], "...\n")

    # --- connect (IKE binds bob's key), attach, observe 000 ------------
    bob = DisCFSClient.connect(server, bob_key, secure=True)
    root = bob.attach("/testdir")
    print(f"permissions before credentials: {bob.getattr(root).permission_bits:03o}")

    # --- submit the credential; the directory comes alive --------------
    bob.submit_credential(credential)
    print(f"permissions after credentials:  {bob.getattr(root).permission_bits:03o}")
    print("listing:", [name for _ino, name in bob.readdir(root)])
    print("read:", bob.read_path("/hello.txt").decode().strip())

    # --- create a file; the server returns a creator credential --------
    fh, creator_cred = bob.create(root, "notes.txt")
    bob.write(fh, 0, b"bob's notes\n")
    print("creator credential received:", creator_cred is not None)
    print("wallet size:", len(bob.wallet))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--backend", default="mem://", metavar="URI",
                        help="storage backend URI (default mem://)")
    main(parser.parse_args().backend)
