"""The one authority: policy, credentials, decisions, revocations, audit.

The paper's access model is one persistent KeyNote session holding every
submitted credential (section 5), revocation by notifying the server that
stores the file (4.1) and an audit trail of "key A was used, key B
authorized it" (4.2).  Both planes — the DisCFS server's NFS procedures
(:mod:`repro.core.server`) and a store node's block procedures
(:mod:`repro.storage.auth`) — get it from one :class:`PolicyEngine`,
built from the policy text (POLICY assertions plus pre-trusted signed
credentials, parsed once), the ordered compliance values its queries
answer in, and the clock.  It owns the session; credential intake —
parse, refuse anything revoked, verify each signature once and remember
the text by digest, so a resubmitted credential costs a hash; the
policy cache; the revocation store and its ``key <principal>`` /
``credential <signature>`` grammar; and the audit log.  Queries are
stamped with the clock (``now``, local ``hour`` / ``minute`` /
``weekday``), which the cache and revocation entries age on too.  The
planes add only their own action attributes and session bookkeeping.
"""

from __future__ import annotations

import hashlib
import time
from typing import Callable, Iterable, Mapping, Sequence

from repro.core.audit import AuditLog, Chain
from repro.core.cache import PolicyCache
from repro.core.permissions import Permission
from repro.core.revocation import RevocationStore
from repro.errors import CredentialError, CryptoError, InvalidArgument, KeyNoteError, RevokedError
from repro.keynote.ast import Assertion, ComplianceValues, normalize_principal
from repro.keynote.parser import parse_assertions
from repro.keynote.session import KeyNoteSession
from repro.keynote.signing import verify_assertion

#: What a DisCFS query decides: the rights, and the keys that authorized
#: them (credential authorizers on the delegation path) — the audit log's
#: "key B authorized" data.
Decision = tuple[Permission, tuple[str, ...]]

#: Credential texts whose signatures intake remembers as verified.
_VERIFIED_MEMO_LIMIT = 4096


def _digest(text: str) -> bytes:
    return hashlib.sha256(text.encode("utf-8")).digest()


class PolicyEngine:
    """The KeyNote session and everything that decides against it."""

    def __init__(self, policy_text: str, values: Sequence[str],
                 clock: Callable[[], float] = time.time, *,
                 index_attribute: str | None = None,
                 cache_capacity: int = 128, cache_ttl: float | None = None,
                 audit: AuditLog | None = None):
        self.values = ComplianceValues(list(values))
        self.clock = clock
        self.session = KeyNoteSession(index_attribute=index_attribute)
        self.cache: PolicyCache[Decision] = PolicyCache(
            capacity=cache_capacity, ttl_seconds=cache_ttl, clock=clock)
        self.revocations = RevocationStore(clock)
        self.audit = audit if audit is not None else AuditLog()
        self.queries = 0  # number of actual KeyNote evaluations
        #: digest of a credential text -> its assertions, signatures verified.
        self._verified: dict[bytes, tuple[Assertion, ...]] = {}
        assertions = parse_assertions(policy_text)
        if not any(a.is_policy for a in assertions):
            raise InvalidArgument("policy text contains no POLICY assertions")
        for assertion in assertions:
            if assertion.is_policy:
                self.session.add_policy(assertion)
            else:  # pre-trusted; a bad signature fails construction loudly
                self.session.add_credential(assertion)
                self._remember(assertion.source_text, (assertion,))

    # -- credentials -------------------------------------------------------

    def intake(self, text: str) -> tuple[Assertion, ...]:
        """The assertions of a submitted credential text (one credential or
        a blank-line-separated chain), signatures verified — not installed.

        Raises :class:`~repro.errors.CredentialError`: malformed, revoked
        (checked on every intake) or a bad signature (checked once per
        text)."""
        digest = _digest(text)
        known = self._verified.get(digest)
        if known is None:
            try:
                assertions = tuple(parse_assertions(text))
            except KeyNoteError as exc:
                raise CredentialError(f"malformed credential: {exc}") from exc
            if not assertions:
                raise CredentialError("malformed credential: no assertion")
        else:
            assertions = known
        if any(self.revocations.credential_revoked(a) for a in assertions):
            raise RevokedError("credential or one of its keys is revoked")
        if known is None:
            try:
                for assertion in assertions:
                    if assertion.is_policy:
                        raise KeyNoteError(
                            "credentials cannot be authorized by POLICY")
                    verify_assertion(assertion)
            except (KeyNoteError, CryptoError) as exc:
                raise CredentialError(f"credential rejected: {exc}") from exc
            self._remember(text, assertions)
        return assertions

    def accept(self, text: str) -> None:
        """Intake ``text`` and add it to the session for good."""
        for assertion in self.intake(text):
            self.session.add_credential(assertion, verified=True)
        self.cache.flush()

    def trust(self, assertion: Assertion) -> None:
        """Add a credential this process signed itself: nothing to verify,
        and when its holder submits it back, intake finds it known."""
        self.session.add_credential(assertion, verified=True)
        self._remember(assertion.source_text, (assertion,))
        self.cache.flush()

    def _remember(self, text: str, assertions: tuple[Assertion, ...]) -> None:
        memo = self._verified
        if len(memo) >= _VERIFIED_MEMO_LIMIT:
            del memo[next(iter(memo))]  # the oldest
        memo[_digest(text)] = assertions

    # -- decisions ---------------------------------------------------------

    def query(self, principal: str,
              action: Mapping[str, str]) -> tuple[str, tuple[str, ...]]:
        """The compliance value ``principal`` holds for ``action`` (stamped
        with the clock attributes), and the keys that authorized it.  A
        revoked key holds the minimum."""
        if self.revocations.key_revoked(principal):
            return self.values.minimum, Chain()
        self.queries += 1
        value, assertions = self.session.query_with_trace(
            action={**action, **self._clock_attributes()},
            action_authorizers=[principal],
            values=self.values,
        )
        return value, Chain(dict.fromkeys(
            a.authorizer for a in assertions if not a.is_policy))

    def query_presenting(
        self, principal: str, action: Mapping[str, str],
        presented: Iterable[Assertion],
    ) -> tuple[str, tuple[str, ...]]:
        """:meth:`query` with ``presented`` credentials in the session for
        this one query: those not already resident are added before and
        removed after, so a presenter cannot grow the session.  The caller
        serializes."""
        resident = {id(a) for a in self.session.credentials}
        added = [a for a in presented if id(a) not in resident]
        for assertion in added:
            self.session.add_credential(assertion, verified=True)
        try:
            return self.query(principal, action)
        finally:
            for assertion in added:
                self.session.remove_credential(assertion)

    def _clock_attributes(self) -> dict[str, str]:
        now = self.clock()
        local = time.localtime(now)
        return {
            "now": str(int(now)),
            "hour": str(local.tm_hour),
            "minute": str(local.tm_min),
            "weekday": str(local.tm_wday),
        }

    # -- revocation --------------------------------------------------------

    def revoke(self, payload: str) -> tuple[str, str | None]:
        """Apply a revocation notice, ``key <principal>`` or ``credential
        <signature>``: remember it, drop every revoked credential from the
        session, flush the cache.  Returns the reply text and the revoked
        key (None for a credential); raises CredentialError."""
        kind, _, value = payload.partition(" ")
        value = value.strip()
        if not value:
            raise CredentialError("empty revocation payload")
        key = None
        if kind == "key":
            key = value = normalize_principal(value)
            self.revocations.revoke_key(value)
            reply = f"revoked key {value[:32]}..."
        elif kind == "credential":
            self.revocations.revoke_credential(value)
            reply = "revoked credential"
        else:
            raise CredentialError(f"unknown revocation kind {kind!r}")
        for assertion in self.session.credentials:
            if self.revocations.credential_revoked(assertion):
                self.session.remove_credential(assertion)
        self.cache.flush()
        return reply, key
