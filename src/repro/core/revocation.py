"""Revocation of keys and credentials.

Paper, section 4.1: "the traditional problem of credential revocation is
fairly straightforward to address: since the credentials related to a
specific file have to be examined by the DisCFS server where the file is
stored, revocation (especially if it is infrequent) can be done by
notifying the server about bad keys or credentials.  If the credentials
are relatively short-lived, the server need only remember such information
for a short period of time."

We implement exactly that: a server-side store of bad keys (by canonical
principal identifier) and bad credentials (by signature, which is unique
per credential), with optional forget-after horizons so entries for
already-expired credentials can be aged out — on the clock the policies
are evaluated against.  Every revocation bumps :attr:`RevocationStore.epoch`,
so a decision taken earlier (a store node's open session) can be retaken.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.keynote.ast import Assertion, normalize_principal


class RevocationStore:
    """Bad keys and bad credentials, with optional expiry of the entries."""

    def __init__(self, clock: Callable[[], float] = time.time) -> None:
        self.clock = clock
        #: principal / signature -> when to forget it (None = never)
        self._keys: dict[str, float | None] = {}
        self._credentials: dict[str, float | None] = {}
        #: How many revocations there have been.
        self.epoch = 0

    # -- marking -----------------------------------------------------------

    def revoke_key(self, principal: str, forget_after: float | None = None) -> None:
        """Declare a public key bad; all delegation through it dies."""
        self._keys[normalize_principal(principal)] = self._forget_at(forget_after)

    def revoke_credential(self, signature: str,
                          forget_after: float | None = None) -> None:
        """Declare one credential bad, identified by its signature string."""
        self._credentials[signature] = self._forget_at(forget_after)

    def _forget_at(self, forget_after: float | None) -> float | None:
        self.epoch += 1
        return None if forget_after is None else self.clock() + forget_after

    # -- checking ----------------------------------------------------------

    def key_revoked(self, principal: str) -> bool:
        return self._check(self._keys, normalize_principal(principal))

    def credential_revoked(self, assertion: Assertion) -> bool:
        """A credential is revoked if listed, or if its authorizer or any
        licensee key is revoked."""
        if assertion.signature is not None and self._check(
            self._credentials, assertion.signature
        ):
            return True
        if self._check(self._keys, assertion.authorizer):
            return True
        return any(
            self._check(self._keys, p) for p in assertion.licensee_principals()
        )

    def _check(self, table: dict[str, float | None], key: str) -> bool:
        if key not in table:
            return False
        forget_at = table[key]
        if forget_at is not None and self.clock() > forget_at:
            del table[key]  # aged out (short-lived credential has expired)
            return False
        return True

    # -- introspection ----------------------------------------------------

    @property
    def revoked_keys(self) -> list[str]:
        return [k for k in list(self._keys) if self._check(self._keys, k)]

    def __len__(self) -> int:
        return len(self._keys) + len(self._credentials)
