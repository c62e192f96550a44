"""The DisCFS server.

Assembles the full stack of the paper's prototype:

* an FFS-backed VFS (the local file storage),
* a user-level NFS server whose every procedure is gated by a
  KeyNote-backed :class:`DisCFSController`,
* the authority (:class:`~repro.core.policy.PolicyEngine`) seeded with
  the administrator's policy, with a 128-entry policy cache per the
  evaluation; the server adds only handles, ``ANCESTORS`` and the cache key,
* extension RPC procedures: SUBMITCRED, REVOKE, LISTCREDS, AUDITLOG,
* the credential minted and returned on CREATE/MKDIR (the paper's added
  procedures), signed by the server's *issuer key* — a key the
  administrator has delegated authority to (see
  :meth:`repro.core.admin.Administrator.trust_server`).

Identity: every request carries ``peer_identity``, the public key proven
during the IKE handshake.  Requests arriving with no identity (e.g. over a
raw transport) are denied everything that requires rights.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable

from repro.core.audit import AuditLog
from repro.core.credentials import APP_DOMAIN, CredentialIssuer, CredentialSpec, issued_credential
from repro.core.handles import HandleScheme, ancestor_chain
from repro.core.permissions import PERMISSION_VALUES, Permission, required_permission
from repro.core.policy import Decision, PolicyEngine
from repro.crypto.dsa import DSAKeyPair, generate_dsa_keypair
from repro.crypto.rsa import RSAKeyPair
from repro.errors import CredentialError
from repro.fs.ffs import FFS
from repro.fs.inode import Inode
from repro.fs.vfs import VFS
from repro.ipsec.channel import SecureChannelServer
from repro.ipsec.ike import IKEResponder
from repro.keynote.ast import normalize_principal
# Not called here: the end-to-end benchmark's tracer finds it by this name.
from repro.keynote.parser import parse_assertion  # noqa: F401
from repro.nfs.mount import MountProgram
from repro.nfs.protocol import FileHandle
from repro.nfs.server import AccessDeniedSignal, NFSProgram
from repro.rpc.server import CallContext, RPCServer
from repro.rpc.transport import InProcessTransport

if TYPE_CHECKING:
    from repro.storage.adapter import StoreBlockDevice
    from repro.storage.spec import SpecLike


#: What a revoked key holds: nothing, authorized by nobody.
NO_RIGHTS: Decision = (Permission.none(), ())


class DisCFSController:
    """The access controller gluing NFS procedures to KeyNote."""

    def __init__(self, server: "DisCFSServer"):
        self._server = server

    # -- the hot path ----------------------------------------------------

    def check(self, ctx: CallContext, op: str, fh: FileHandle,
              inode: Inode | None) -> None:
        required = required_permission(op)
        if required.bits == 0:
            return
        server = self._server
        identity = server.principal_for(ctx)
        if identity is None:
            raise AccessDeniedSignal("no authenticated identity on this channel")
        handle = server.handle_scheme.render(fh)
        granted, chain = server.decision_for(identity, handle, op, inode)
        allowed = granted.covers(required)
        reason = "" if allowed else (f"operation {op} requires {required.value}, "
                                     f"principal holds {granted.value}")
        server.audit.record(identity, op, handle, granted.value, allowed,
                            chain, reason)
        if not allowed:
            raise AccessDeniedSignal(reason)

    def check_lookup(self, ctx: CallContext, dir_fh: FileHandle,
                     dir_inode: Inode, child: Inode) -> None:
        """Allow lookup via X on the directory OR any rights on the child.

        The paper's attach flow depends on the second arm: submitting a
        credential for a *file* makes it appear under the mount point,
        without the directory itself granting anything.
        """
        server = self._server
        identity = server.principal_for(ctx)
        if identity is None:
            raise AccessDeniedSignal("no authenticated identity on this channel")
        handle = server.handle_scheme.render(dir_fh)
        granted, chain = server.decision_for(identity, handle, "lookup",
                                             dir_inode)
        allowed = granted.can_execute
        if not allowed:
            handle = server.handle_scheme.render_inode(child)
            granted, chain = server.decision_for(identity, handle, "lookup",
                                                 child)
            allowed = granted.bits != 0
        reason = "" if allowed else \
            "lookup requires X on the directory or rights on the target"
        server.audit.record(identity, "lookup", handle, granted.value, allowed,
                            chain, reason)
        if not allowed:
            raise AccessDeniedSignal(reason)

    def effective_mode(self, ctx: CallContext, inode: Inode) -> int:
        """Report the requester's granted rights as the permission bits.

        Before any credentials are submitted this is 000 — exactly the
        paper's behaviour for freshly attached directories.
        """
        identity = self._server.principal_for(ctx)
        if identity is None:
            return 0
        handle = self._server.handle_scheme.render_inode(inode)
        granted, _chain = self._server.decision_for(identity, handle,
                                                    "getattr", inode)
        return granted.octal << 6  # owner triplet

    # -- extension procedures --------------------------------------------

    def on_create(self, ctx: CallContext, inode: Inode) -> str | None:
        # Guests get creator credentials for the guest principal: any
        # anonymous user can then use the file, which is the only
        # consistent meaning of anonymous creation.
        return self._server.mint_creator_credential(
            self._server.principal_for(ctx), inode
        )

    def submit_credential(self, ctx: CallContext, text: str) -> str:
        return self._server.accept_credential(text)

    def revoke(self, ctx: CallContext, payload: str) -> str:
        return self._server.handle_revocation(ctx.peer_identity, payload)

    def list_credentials(self, ctx: CallContext) -> list[str]:
        return [a.source_text for a in self._server.session.credentials]

    def list_audit(self, ctx: CallContext, limit: int) -> list[str]:
        # Audit data names keys and files; only the administrator reads it.
        if ctx.peer_identity != self._server.admin_identity:
            raise AccessDeniedSignal("only the administrator may read the audit log")
        records = self._server.audit.records()
        if limit:
            records = records[-limit:]
        return [r.format() for r in records]


class DisCFSServer:
    """A complete DisCFS daemon.

    Parameters
    ----------
    admin_identity:
        The administrator's principal.  The server installs the root
        policy ``POLICY -> admin`` automatically (the paper: "the server
        would trust only the administrator's key").
    issuer_key:
        Keypair the server signs creator credentials with.  The
        administrator must delegate to it (``Administrator.trust_server``)
        before those credentials carry authority.
    handle_scheme:
        INODE_GENERATION (default) or the prototype's bare INODE.
    device:
        What the server's filesystem is built on when no ``fs`` is
        given: a device, or a storage-backend URI or spec (``mem://``,
        ``file://``, ``sqlite://``, ``shard://``, ``cached://``) — see
        :class:`~repro.fs.ffs.FFS`.  Default ``mem://``.
    cache_capacity / cache_ttl:
        Policy cache parameters (paper evaluation: 128 entries).
    clock:
        Injectable time source for time-of-day policies.
    guest_principal:
        Optional opaque principal name (e.g. ``"GUEST"``) that requests
        arriving *without* an authenticated channel identity act as.
        Implements the paper's future-work scenario of "untrusted users
        characteristic of the WWW": the administrator publishes content by
        issuing credentials whose licensee is the guest name, and anyone
        can browse anonymously.  Default None — anonymous requests hold
        no rights, the prototype's behaviour.
    """

    def __init__(
        self,
        admin_identity: str,
        fs: FFS | None = None,
        device: StoreBlockDevice | SpecLike | None = None,
        issuer_key: DSAKeyPair | RSAKeyPair | None = None,
        server_key: DSAKeyPair | RSAKeyPair | None = None,
        handle_scheme: HandleScheme = HandleScheme.INODE_GENERATION,
        cache_capacity: int = 128,
        cache_ttl: float | None = None,
        clock: Callable[[], float] = time.time,
        guest_principal: str | None = None,
        audit_capacity: int = 10_000,
    ):
        self.fs = fs if fs is not None else FFS(device)
        self.vfs = VFS(self.fs)
        self.admin_identity = normalize_principal(admin_identity)
        self.handle_scheme = handle_scheme
        self.guest_principal = guest_principal

        self.engine = engine = PolicyEngine(
            f'Authorizer: "POLICY"\nLicensees: "{self.admin_identity}"\n',
            PERMISSION_VALUES, clock, index_attribute="HANDLE",
            cache_capacity=cache_capacity, cache_ttl=cache_ttl,
            audit=AuditLog(capacity=audit_capacity),
        )
        #: The engine's, bound here for the hot path.  The cache holds each
        #: verdict with the keys that authorized it, so audit entries on
        #: the cached fast path carry the chain.
        self.session, self.cache = engine.session, engine.cache
        self.revocations, self.audit = engine.revocations, engine.audit

        self.issuer = CredentialIssuer(
            issuer_key if issuer_key is not None else generate_dsa_keypair()
        )
        #: Channel key: what the server authenticates *itself* with in IKE.
        self.server_key = server_key if server_key is not None else self.issuer.key

        self.controller = DisCFSController(self)
        self.rpc = RPCServer()
        self.nfs_program = NFSProgram(self.vfs, controller=self.controller)
        self.mount_program = MountProgram(self.vfs)
        self.rpc.register(self.nfs_program)
        self.rpc.register(self.mount_program)
        self._channel_server: SecureChannelServer | None = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def secure_channel(self) -> SecureChannelServer:
        """The IKE/ESP front end; create lazily, one per server."""
        if self._channel_server is None:
            self._channel_server = SecureChannelServer(
                IKEResponder(self.server_key),
                lambda request, identity: self.rpc.handle(
                    request, peer_identity=identity
                ),
            )
        return self._channel_server

    def handler(self, identity: str | None = None):
        """Raw (unencrypted) entry point with a fixed identity — used by
        tests and benchmarks that bypass the channel."""
        return self.rpc.handler_for(identity)

    def in_process_transport(self, identity: str | None = None) -> InProcessTransport:
        return InProcessTransport(self.handler(identity))

    @property
    def issuer_identity(self) -> str:
        return self.issuer.identity

    # ------------------------------------------------------------------
    # Authorization core
    # ------------------------------------------------------------------

    def principal_for(self, ctx: CallContext) -> str | None:
        """The principal a request acts as: its channel identity, or the
        guest principal for anonymous requests (if enabled)."""
        if ctx.peer_identity is not None:
            return ctx.peer_identity
        return self.guest_principal

    def rights_for(self, identity: str, fh: FileHandle, op: str,
                   inode: Inode | None) -> Permission:
        """Cached KeyNote evaluation of a principal's rights over a file."""
        return self.decision_for(
            identity, self.handle_scheme.render(fh), op, inode)[0]

    def decision_for(self, identity: str, handle: str, op: str,
                     inode: Inode | None) -> Decision:
        """The rights ``identity`` holds over ``handle`` and the keys that
        authorized them, from the cache or from KeyNote.

        A query's answer depends on the assertion set, the requester and
        the action attributes the assertions read.  While none of them
        reads ``OPERATION``, every operation on a file gets the same
        answer, and the cache key leaves it out.  Installing or removing
        an assertion flushes the cache, so entries keyed one way never
        answer lookups keyed the other.  A revoked key is refused before
        the cache, which a revocation made directly on the store does not
        flush.
        """
        if self.revocations.key_revoked(identity):
            return NO_RIGHTS
        keyed_op = op if self.session.reads("OPERATION") else ""
        cached = self.cache.get(identity, handle, keyed_op)
        if cached is not None:
            return cached
        action = {"app_domain": APP_DOMAIN, "HANDLE": handle, "OPERATION": op}
        if inode is not None:
            anchor = inode.ino if inode.is_dir else inode.parent_ino
            action["ANCESTORS"] = ancestor_chain(self.fs, anchor, self.handle_scheme)
        value, chain = self.engine.query(identity, action)
        decision = (Permission.from_value(value), chain)
        self.cache.put(identity, handle, keyed_op, decision)
        return decision

    # ------------------------------------------------------------------
    # Credential intake / minting / revocation
    # ------------------------------------------------------------------

    def accept_credential(self, text: str) -> str:
        """Validate and add a submitted credential to the session."""
        try:
            self.engine.accept(text)
        except CredentialError as exc:
            raise AccessDeniedSignal(str(exc)) from exc
        return "credential accepted"

    def mint_creator_credential(self, identity: str | None,
                                inode: Inode) -> str | None:
        """The paper's extension: CREATE/MKDIR return full access to the
        creator (otherwise the new file would be unreachable)."""
        if identity is None:
            return None
        spec = CredentialSpec(handle=self.handle_scheme.render_inode(inode),
                              rights=Permission.all())
        credential = issued_credential(
            self.issuer.key, identity, spec,
            comment=f"creator credential for inode {inode.ino}")
        # The server trusts its own issuance (it has just signed it, so
        # there is nothing to verify, and signing parsed it); install it so
        # the creator can use the file immediately without re-submitting.
        self.engine.trust(credential)
        return credential.source_text

    def handle_revocation(self, requester: str | None, payload: str) -> str:
        """REVOKE RPC: only the administrator may revoke; a revoked key
        also loses its IKE security associations."""
        if requester != self.admin_identity:
            raise AccessDeniedSignal("only the administrator may revoke")
        try:
            reply, key = self.engine.revoke(payload)
        except CredentialError as exc:
            raise AccessDeniedSignal(str(exc)) from exc
        if key is not None and self._channel_server is not None:
            self._channel_server.revoke_identity(key)
        return reply


def make_admin_keypair(seed: bytes | None = None) -> DSAKeyPair:
    """Convenience for examples/tests: a (seeded) administrator keypair."""
    if seed is None:
        return generate_dsa_keypair()
    from repro.crypto.numbers import seeded_random_bits

    return generate_dsa_keypair(rand=seeded_random_bits(seed))


__all__ = ["DisCFSServer", "DisCFSController", "make_admin_keypair"]
