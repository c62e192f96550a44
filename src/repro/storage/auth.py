"""Credential-gated sessions for served block stores.

DisCFS's central idea is that *credentials, not host identity* decide
access (conf_usenix_MiltchevPIIKS03).  This module brings the NFS
layer's model to the block plane, so a `store-serve` ring can sit on a
shared network and admit only principals a policy file trusts.  The
deciding — policy, credential intake, revocation, audit — is the
authority's (:class:`~repro.core.policy.PolicyEngine`);
:class:`StoreAuthGate` adds the handshake, the session table, tenant
views and the rights ladder ``none < r < rw < admin``.

The handshake (procs ``CHALLENGE`` + ``SESSION_OPEN`` in
:mod:`repro.storage.net`): the client fetches a single-use nonce, signs
``context || nonce || identity || tenant || rights`` and sends that with
its credentials.  The server pops the nonce (replay-safe over plain
TCP), checks the signature against the claimed key, and asks the
authority whether policy plus the presented credentials — installed for
that one query — grant ``rights`` to the key for ``app_domain
"discfs-store"`` and ``tenant``.  If so it mints an opaque token; every
later proc carries it, is held to the session's rights and confined to
the tenant's :class:`~repro.storage.tenant.TenantBlockStore` view.  A
revocation (proc ``REVOKE``) reaches a live session on its next proc:
one opened before it is decided again, and dropped if it no longer
holds its rights.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from repro.core.audit import AuditLog
from repro.core.policy import PolicyEngine
from repro.crypto.keycodec import encode_public_key, encode_signature, verify_signature
from repro.errors import AuthError, CredentialError, CryptoError, InvalidArgument
from repro.keynote.ast import Assertion
from repro.keynote.signing import sign_assertion
from repro.storage.base import BlockStore
from repro.storage.tenant import TenantBlockStore, TenantQuota, carve_regions

#: The ``app_domain`` action attribute every store query carries.
APP_DOMAIN = "discfs-store"

#: Ordered compliance values for store queries, least to most.
RIGHTS_LADDER = ("none", "r", "rw", "admin")

#: Domain-separation context for session-open signatures.
SIGN_CONTEXT = b"discfs-store-session"

#: How long an issued challenge nonce stays redeemable (seconds).
NONCE_TTL = 120.0
#: How many outstanding nonces the server keeps before shedding.
MAX_NONCES = 1024
#: How long a session token stays valid (seconds).
SESSION_TTL = 3600.0


def rights_rank(rights: str) -> int:
    """Position of ``rights`` on the ladder; raises AuthError if unknown."""
    try:
        return RIGHTS_LADDER.index(rights)
    except ValueError:
        raise AuthError(
            f"unknown rights {rights!r} (expected one of "
            f"{', '.join(RIGHTS_LADDER[1:])})"
        ) from None


def session_signature_payload(nonce: bytes, identity: str, tenant: str,
                              rights: str) -> bytes:
    """The exact bytes a client signs to open a session."""
    return b"\x00".join(
        [SIGN_CONTEXT, nonce, identity.encode("utf-8"),
         tenant.encode("utf-8"), rights.encode("utf-8")]
    )


def sign_session_request(key, nonce: bytes, identity: str, tenant: str,
                         rights: str) -> str:
    """Client half of the handshake: sign the challenge, return the
    encoded signature identifier."""
    payload = session_signature_payload(nonce, identity, tenant, rights)
    raw = key.sign(payload, hash_name="sha1")
    return encode_signature(key.algorithm, "sha1", raw, "hex")


def issue_store_credential(
    issuer,
    licensee: str,
    tenant: Optional[str],
    rights: str = "rw",
    expires_at: Optional[int] = None,
    comment: str = "",
) -> str:
    """Sign a store credential: *licensee may use ``tenant`` at ``rights``*.

    ``tenant=None`` omits the tenant clause — a whole-store grant (the
    operator mount).  ``expires_at`` appends an ``@now`` expiry, the
    paper's suggested revocation aid.
    """
    rights_rank(rights)  # validate early
    clauses = [f'(app_domain == "{APP_DOMAIN}")']
    if tenant is not None:
        escaped = tenant.replace("\\", "\\\\").replace('"', '\\"')
        clauses.append(f'(tenant == "{escaped}")')
    if expires_at is not None:
        clauses.append(f"(@now < {int(expires_at)})")
    conditions = " && ".join(clauses) + f' -> "{rights}";'
    body = f'Authorizer: "{encode_public_key(issuer)}"\n'
    body += f'Licensees: "{licensee}"\n'
    body += f"Conditions: {conditions}\n"
    if comment:
        body += f"Comment: {comment}\n"
    return sign_assertion(body, issuer)


@dataclass
class Session:
    """An authenticated client session on a served store."""

    token: bytes
    identity: str
    tenant: str
    rights: str
    expires: float
    store: BlockStore
    #: The authority's revocation epoch this session was last decided at.
    epoch: int = 0
    #: The credentials it presented, kept to decide it again.
    credentials: tuple[Assertion, ...] = ()


class StoreAuthGate:
    """Tenant table + session state for one served store, deciding
    through its own :class:`~repro.core.policy.PolicyEngine` (used under
    the gate's lock only).

    Construct with configuration only; :meth:`bind` attaches the served
    store (after ``serve_store`` has decided whether to serialize it).
    ``BlockStoreProgram`` consults :meth:`authorize` on every gated proc.
    """

    def __init__(
        self,
        policy_text: str,
        tenants: Iterable[TenantQuota] = (),
        audit: Optional[AuditLog] = None,
        clock: Callable[[], float] = time.time,
        session_ttl: float = SESSION_TTL,
        nonce_ttl: float = NONCE_TTL,
    ):
        # Built at startup so a broken policy file fails loudly before
        # the server ever binds a socket.
        self.engine = PolicyEngine(policy_text, RIGHTS_LADDER, clock,
                                   audit=audit)
        self.tenants = list(tenants)
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise InvalidArgument(f"duplicate tenant names in {names}")
        self._session_ttl = session_ttl
        self._nonce_ttl = nonce_ttl
        self._lock = threading.RLock()
        self._nonces: dict[bytes, float] = {}
        self._sessions: dict[bytes, Session] = {}
        self._store: Optional[BlockStore] = None
        self._views: dict[str, TenantBlockStore] = {}
        #: Denied decisions (sessions + procs), surfaced as ``auth_denied``.
        self.auth_denied = 0
        self.sessions_opened = 0

    # -- binding -----------------------------------------------------------

    def bind(self, store: BlockStore) -> None:
        """Attach the served store and carve the tenant regions."""
        self._views = carve_regions(store, self.tenants)
        self._store = store

    # -- challenge/session lifecycle ---------------------------------------

    def issue_nonce(self) -> bytes:
        now = self.engine.clock()
        nonce = os.urandom(16)
        with self._lock:
            self._nonces = {
                n: exp for n, exp in self._nonces.items() if exp > now
            }
            if len(self._nonces) >= MAX_NONCES:
                oldest = min(self._nonces, key=self._nonces.__getitem__)
                del self._nonces[oldest]
            self._nonces[nonce] = now + self._nonce_ttl
        return nonce

    def _deny(self, principal: str, operation: str, target: str,
              reason: str, granted: str = "none") -> AuthError:
        with self._lock:
            self.auth_denied += 1
        self.engine.audit.record(principal, operation, target, granted,
                                 False, reason=reason)
        return AuthError(reason)

    def _query(self, identity: str, tenant: str, rights: str,
               presented: tuple[Assertion, ...]) -> tuple[str, tuple[str, ...]]:
        """Does policy + ``presented`` delegate ``rights`` on ``tenant``
        to this key?  (Under the lock.)"""
        return self.engine.query_presenting(
            identity,
            {"app_domain": APP_DOMAIN, "tenant": tenant, "rights": rights},
            presented)

    def open_session(
        self,
        identity: str,
        tenant: str,
        rights: str,
        credentials: list[str],
        nonce: bytes,
        signature: str,
    ) -> Session:
        """Verify the handshake and mint a session; raises AuthError."""
        def deny(reason: str, granted: str = "none") -> AuthError:
            return self._deny(identity, "SESSION_OPEN", tenant, reason, granted)

        now = self.engine.clock()
        with self._lock:
            expiry = self._nonces.pop(nonce, None)
        if expiry is None or expiry <= now:
            raise deny("unknown, expired or replayed challenge nonce")
        if rights not in RIGHTS_LADDER[1:]:
            raise deny(f"cannot request {rights!r} (expected one of "
                       f"{', '.join(RIGHTS_LADDER[1:])})")

        # 1. Proof of possession: the signature binds this very request
        #    (nonce, identity, tenant, rights) to the claimed key.
        try:
            verify_signature(identity, session_signature_payload(
                nonce, identity, tenant, rights), signature)
        except CryptoError as exc:
            raise deny(f"challenge signature invalid: {exc}") from exc

        # 2. Tenant resolution: with a tenant table, the name must be
        #    declared (or empty for a whole-store operator session).
        if tenant and not self._views:
            raise deny(f"server has no tenant table; cannot grant tenant "
                       f"{tenant!r}")
        if tenant and tenant not in self._views:
            raise deny(f"unknown tenant {tenant!r}")
        if self._store is None:
            raise deny("gate not bound to a store")

        # 3. The authority's decision.
        with self._lock:
            try:
                presented = tuple(a for text in credentials
                                  for a in self.engine.intake(text))
            except CredentialError as exc:
                raise deny(str(exc)) from exc
            epoch = self.engine.revocations.epoch
            granted, chain = self._query(identity, tenant, rights, presented)
        if rights_rank(granted) < rights_rank(rights):
            raise deny(f"policy grants {granted!r}, session requested "
                       f"{rights!r}", granted)

        token = os.urandom(16)
        session = Session(
            token=token, identity=identity, tenant=tenant, rights=rights,
            expires=now + self._session_ttl,
            store=self._views[tenant] if tenant else self._store,
            epoch=epoch, credentials=presented,
        )
        with self._lock:
            self._sessions = {
                t: s for t, s in self._sessions.items() if s.expires > now
            }
            self._sessions[token] = session
            self.sessions_opened += 1
        self.engine.audit.record(identity, "SESSION_OPEN", tenant, granted,
                                 True, chain)
        return session

    # -- per-proc authorization --------------------------------------------

    def authorize(self, token: bytes, proc_name: str,
                  required: str) -> Session:
        """Return the live session iff it holds ``required`` rights."""
        now = self.engine.clock()
        with self._lock:
            session = self._sessions.get(token)
            if session is None or session.expires <= now:
                raise self._deny(
                    "", proc_name, "", f"{proc_name}: no authenticated "
                    "session (open one with SESSION_OPEN)")
            if session.epoch != self.engine.revocations.epoch:
                self._recheck(session, proc_name)
        if rights_rank(session.rights) < rights_rank(required):
            raise self._deny(
                session.identity, proc_name, session.tenant,
                f"{proc_name} needs {required!r} rights, session has "
                f"{session.rights!r}", session.rights)
        self.engine.audit.record(session.identity, proc_name, session.tenant,
                                 session.rights, True)
        return session

    def _recheck(self, session: Session, proc_name: str) -> None:
        """Decide a session again after a revocation (under the lock):
        the same query over its unrevoked credentials — a revoked key
        gets nothing — must still carry its rights, or it is dropped."""
        revocations = self.engine.revocations
        epoch = revocations.epoch
        kept = tuple(a for a in session.credentials
                     if not revocations.credential_revoked(a))
        granted, _chain = self._query(session.identity, session.tenant,
                                      session.rights, kept)
        if rights_rank(granted) < rights_rank(session.rights):
            del self._sessions[session.token]
            raise self._deny(
                session.identity, proc_name, session.tenant,
                f"{proc_name}: session revoked (policy now grants "
                f"{granted!r})", granted)
        session.epoch, session.credentials = epoch, kept

    def revoke(self, payload: str) -> str:
        """``REVOKE``: apply a ``key <principal>`` / ``credential
        <signature>`` notice; the sessions it touches fail their next proc."""
        with self._lock:
            try:
                return self.engine.revoke(payload)[0]
            except CredentialError as exc:
                raise self._deny("", "REVOKE", "", str(exc)) from exc

    # -- introspection -----------------------------------------------------

    def extra_stats(self) -> dict[str, float]:
        """Gate counters + per-tenant usage, flat-keyed for StoreStats."""
        with self._lock:
            out = {
                "auth_denied": float(self.auth_denied),
                "auth_sessions": float(self.sessions_opened),
                "auth_tenants": float(len(self._views)),
            }
        for view in self._views.values():
            out.update(view.snapshot().extra)
        return out

    def close(self) -> None:
        self.engine.audit.close()
