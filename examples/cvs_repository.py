#!/usr/bin/env python3
"""The CVS repository anecdote (paper section 4.2).

"The administrator of the host that we were using for editing the paper
had failed to create a group for all of us.  ...  the only way for all of
us to be able to access the CVS repository with the files was to make
them world writable.  If the central server supported DisCFS then the
owner of the repository would simply need to issue read-write
certificates to all the other authors."

This example does exactly that: five authors, one repository owner, zero
administrator tickets — and a sixth "reviewer" who gets read-only access.

Run:  python examples/cvs_repository.py [--backend URI]

``--backend`` picks the storage layer the repository lives on (default
``mem://``).  For a repository that survives restarts, combine a durable
backend with checkpointing: ``repro.fs.persist.sync``/``load``, or
``discfs serve --backend file:///path``, which checkpoints on shutdown
and restores on start.
"""

import argparse

from repro.core import Administrator, DisCFSClient, DisCFSServer
from repro.core.admin import identity_of, make_user_keypair
from repro.errors import NFSError

AUTHORS = ("miltchev", "prevelakis", "sotiris", "angelos", "jms")


def main(backend: str = "mem://") -> None:
    admin = Administrator.generate(seed=b"host-admin")
    server = DisCFSServer(admin_identity=admin.identity, device=backend)
    admin.trust_server(server)
    print(f"repository storage backend: {backend}")

    # The owner sets up the repository under a one-time admin delegation.
    owner_key = make_user_keypair(b"repo-owner")
    cvsroot = server.fs.mkdir(server.fs.root_ino, "cvsroot")
    owner_cred = admin.grant_inode(
        identity_of(owner_key), cvsroot, rights="RWX",
        scheme=server.handle_scheme, subtree=True, comment="cvsroot",
    )
    owner = DisCFSClient.connect(server, owner_key, secure=True)
    owner.attach("/cvsroot")
    owner.submit_credential(owner_cred)

    fh, _ = owner.create(owner.root, "paper.tex,v")
    owner.write(fh, 0, b"head 1.1;\naccess;\nsymbols;\n")
    print("repository initialized by its owner")

    # Read-write certificates for every co-author — issued by the owner.
    for author in AUTHORS:
        key = make_user_keypair(author.encode())
        cred = owner.issuer.delegate(owner_cred, identity_of(key), rights="RWX")
        client = DisCFSClient.connect(server, key, secure=True)
        client.attach("/cvsroot")
        client.submit_credential(cred)

        # Each author commits a revision (append to the ,v file).
        fh, attr = client.walk("/paper.tex,v")
        client.write(fh, attr.size, f"% revision by {author}\n".encode())
        print(f"  {author}: committed")

    # A reviewer gets read-only access: can check out, cannot commit.
    reviewer_key = make_user_keypair(b"shepherd")
    reviewer_cred = owner.issuer.delegate(
        owner_cred, identity_of(reviewer_key), rights="RX",
        comment="read-only for the shepherd",
    )
    reviewer = DisCFSClient.connect(server, reviewer_key, secure=True)
    reviewer.attach("/cvsroot")
    reviewer.submit_credential(reviewer_cred)
    checkout = reviewer.read_path("/paper.tex,v")
    print(f"reviewer checked out {len(checkout)} bytes")
    assert all(f"% revision by {a}".encode() in checkout for a in AUTHORS)
    try:
        fh, attr = reviewer.walk("/paper.tex,v")
        reviewer.write(fh, attr.size, b"% sneaky edit\n")
        raise AssertionError("reviewer write should be denied")
    except NFSError:
        print("reviewer commit attempt: denied (RX only)")

    print("\nno group was created, no sysadmin was paged, "
          "and nothing is world-writable.")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--backend", default="mem://", metavar="URI",
                        help="storage backend URI (default mem://)")
    main(parser.parse_args().backend)
