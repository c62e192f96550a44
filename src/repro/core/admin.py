"""Administrator utilities.

The administrator is the root of every DisCFS trust chain: the server's
policy trusts only the administrator's key, and everything else — internal
users, external users, the server's own issuer key — holds authority
through credentials chaining back to it.

The administrator's involvement is *one-time* (the paper's requirement:
"no involvement of the administrators in the process of allowing external
users access"): install the policy, delegate to the server's issuer key
and to internal users; after that users share files among themselves.
"""

from __future__ import annotations

from repro.core.credentials import CredentialIssuer, issue_credential
from repro.core.handles import HandleScheme
from repro.core.permissions import Permission
from repro.crypto.dsa import DSAKeyPair, generate_dsa_keypair
from repro.crypto.keycodec import encode_public_key
from repro.crypto.numbers import seeded_random_bits
from repro.crypto.rsa import RSAKeyPair
from repro.fs.inode import Inode
from repro.nfs.protocol import FileHandle


class Administrator(CredentialIssuer):
    """The administrator principal: a keypair plus delegation helpers."""

    def __init__(self, key: DSAKeyPair | RSAKeyPair):
        super().__init__(key)

    @classmethod
    def generate(cls, seed: bytes | None = None) -> "Administrator":
        """Create an administrator with a fresh (or seeded) DSA keypair."""
        if seed is None:
            return cls(generate_dsa_keypair())
        return cls(generate_dsa_keypair(rand=seeded_random_bits(seed)))

    # -- server bootstrap ---------------------------------------------------

    def trust_server(self, server) -> str:
        """Delegate subtree authority over the whole filesystem to the
        server's issuer key, so creator credentials minted on CREATE/MKDIR
        carry a complete chain.  Returns the delegation credential text.
        """
        root_inode = server.fs.iget(server.fs.root_ino)
        text = self.grant_inode(
            server.issuer_identity,
            root_inode,
            rights=Permission.all(),
            scheme=server.handle_scheme,
            subtree=True,
            comment="administrator delegation to DisCFS server issuer",
        )
        server.accept_credential(text)
        return text

    # -- convenience issuance ----------------------------------------------

    def grant_inode(self, licensee: str, inode: Inode,
                    rights: Permission | str = "RWX",
                    scheme: HandleScheme = HandleScheme.INODE_GENERATION,
                    **options) -> str:
        """Issue a credential for an inode (rather than a handle string)."""
        handle = scheme.render(FileHandle.of(inode))
        return issue_credential(self.key, licensee, handle, rights, **options)


def make_user_keypair(seed: bytes | None = None) -> DSAKeyPair:
    """A user keypair for examples and tests (seeded => reproducible)."""
    if seed is None:
        return generate_dsa_keypair()
    return generate_dsa_keypair(rand=seeded_random_bits(seed))


def identity_of(key: DSAKeyPair | RSAKeyPair) -> str:
    """The canonical principal identifier of a keypair's public half."""
    return encode_public_key(key)
