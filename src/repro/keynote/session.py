"""Persistent KeyNote sessions, in the style of the keynote(3) C API.

The DisCFS daemon keeps one long-lived session: the administrator's policy
is installed at startup, users submit credentials over RPC ("successfully
submitted credential assertions are added to a persistent KeyNote
session", paper section 5), and every NFS operation triggers a query.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.errors import KeyNoteError
from repro.keynote.ast import Assertion, ComplianceValues
from repro.keynote.compliance import ComplianceChecker
from repro.keynote.parser import parse_assertion, parse_assertions
from repro.keynote.signing import verify_assertion


class KeyNoteSession:
    """A mutable set of policies + credentials with a query interface.

    Parameters
    ----------
    verify_signatures:
        When True (default), ``add_credential`` rejects credentials whose
        signature does not verify.  That is the one verification a
        credential gets: the checker is told it has been done.
    index_attribute:
        Optional attribute name for the compliance checker's sound pruning
        index (see :class:`~repro.keynote.compliance.ComplianceChecker`).
        DisCFS sessions index on ``HANDLE``.
    """

    def __init__(self, verify_signatures: bool = True,
                 index_attribute: str | None = None):
        self._checker = ComplianceChecker(verify_signatures=verify_signatures,
                                          index_attribute=index_attribute)
        self._policies: list[Assertion] = []
        self._credentials: list[Assertion] = []

    # -- policy & credential management --------------------------------

    def add_policy(self, text: str | Assertion) -> Assertion:
        """Install a local policy assertion (Authorizer must be POLICY)."""
        assertion = text if isinstance(text, Assertion) else parse_assertion(text)
        if not assertion.is_policy:
            raise KeyNoteError("policy assertions must be authorized by POLICY")
        self._checker.add_assertion(assertion)
        self._policies.append(assertion)
        return assertion

    def add_policies(self, text: str) -> list[Assertion]:
        """Install every assertion in a blank-line-separated policy file."""
        added = []
        for assertion in parse_assertions(text):
            added.append(self.add_policy(assertion))
        return added

    def add_credential(self, text: str | Assertion,
                       verified: bool = False) -> Assertion:
        """Add a signed credential; raises SignatureVerificationError if bad.

        ``verified`` is for a caller that made the signature itself a
        moment ago (the server minting a creator credential).
        """
        assertion = text if isinstance(text, Assertion) else parse_assertion(text)
        if assertion.is_policy:
            raise KeyNoteError("credentials cannot be authorized by POLICY")
        if self._checker.verify_signatures and not verified:
            verify_assertion(assertion)
            verified = True
        self._checker.add_assertion(assertion, verified=verified)
        self._credentials.append(assertion)
        return assertion

    def remove_credential(self, assertion: Assertion) -> bool:
        """Remove a credential (e.g. upon revocation); True if it was
        present.  Identity, not equality, names it, as in the checker."""
        for i, held in enumerate(self._credentials):
            if held is assertion:
                del self._credentials[i]
                return self._checker.remove_assertion(assertion)
        return False

    def reads(self, attribute: str) -> bool:
        """Whether any installed assertion's Conditions can depend on the
        action attribute ``attribute``.  While none does, two queries that
        differ only in it have the same answer."""
        return self._checker.reads(attribute)

    @property
    def policies(self) -> list[Assertion]:
        return list(self._policies)

    @property
    def credentials(self) -> list[Assertion]:
        return list(self._credentials)

    # -- query -------------------------------------------------------------

    def query(
        self,
        action: Mapping[str, str] | None = None,
        action_authorizers: Iterable[str] = (),
        values: ComplianceValues | list[str] = ("false", "true"),
    ) -> str:
        """Run a compliance query; returns one of ``values``."""
        return self.query_with_trace(action, action_authorizers, values)[0]

    def query_with_trace(
        self,
        action: Mapping[str, str] | None = None,
        action_authorizers: Iterable[str] = (),
        values: ComplianceValues | list[str] = ("false", "true"),
    ) -> tuple[str, list[Assertion]]:
        """Query returning the contributing assertions (for audit logs)."""
        if not isinstance(values, ComplianceValues):
            values = ComplianceValues(list(values))
        attributes = {k: str(v) for k, v in action.items()} if action else {}
        return self._checker.query_with_trace(attributes, action_authorizers,
                                              values)
