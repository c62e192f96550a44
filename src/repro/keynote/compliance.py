"""The KeyNote compliance checker (RFC 2704 query semantics).

A query asks: *at what compliance value does local policy authorize this
action, requested by these principals, given these credentials?*

Semantics
---------
Each principal p has a compliance value CV(p):

* if p signed the request (p is an *action authorizer*), CV(p) is the
  maximum value — the requester vouches for its own request;
* otherwise CV(p) is the maximum, over assertions authored by p, of
  ``min(value(Conditions), value(Licensees))`` — p delegates at most what
  its conditions allow, and no more than its licensees support.

The licensee expression value replaces each principal q with CV(q), with
``&&`` = minimum, ``||`` = maximum, ``K-of`` = K-th largest.  The query
result is CV(POLICY).  Delegation graphs may be cyclic; a cycle contributes
the minimum value (a chain of trust must bottom out at a requester).

Per the paper, DisCFS runs these queries with the octal-ordered value set
``false < X < W < WX < R < RX < RW < RWX`` and treats the result as a unix
permission triple.

Where signatures are verified
-----------------------------
Once per credential, at intake.  An assertion is parsed once and never
changes afterwards, and a signature over its ``signed_text`` is valid or
invalid for good, so :meth:`KeyNoteSession.add_credential
<repro.keynote.session.KeyNoteSession.add_credential>` verifies it on
submission and hands it to the checker marked verified; queries never
verify it again.  An assertion added to a checker directly, unmarked, is
still verified lazily by the first query that reaches it.  The mark lives
exactly as long as the assertion is in the checker.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.errors import SignatureVerificationError
from repro.keynote.ast import POLICY_PRINCIPAL, Assertion, ComplianceValues, normalize_principal
from repro.keynote.signing import verify_assertion

#: Reserved attribute names injected into every query (RFC 2704 section 8).
RESERVED_MIN = "_MIN_TRUST"
RESERVED_MAX = "_MAX_TRUST"
RESERVED_VALUES = "_VALUES"
RESERVED_AUTHORIZERS = "_ACTION_AUTHORIZERS"


class ComplianceChecker:
    """Evaluates queries against a set of policies and credentials.

    ``verify_signatures`` controls whether credentials are checked before
    being considered (the DisCFS server always verifies; some tests disable
    it to exercise the evaluator in isolation).  Invalid credentials are
    excluded, matching the reference implementation's behaviour of simply
    not considering them.

    ``index_attribute`` enables a sound pruning index: if every clause of
    an assertion's Conditions *requires* ``index_attribute == "literal"``
    as a conjunct, the assertion can only contribute when the query's
    attribute equals one of those literals — so it is skipped otherwise
    without evaluation.  DisCFS indexes on ``HANDLE``: a server holding
    thousands of per-file creator credentials still evaluates only the
    handful relevant to each request (semantics are unchanged; the skipped
    assertions would have evaluated to the minimum value anyway).
    """

    def __init__(self, verify_signatures: bool = True,
                 index_attribute: str | None = None):
        self.verify_signatures = verify_signatures
        self.index_attribute = index_attribute
        self._assertions_by_authorizer: dict[str, list[Assertion]] = {}
        #: assertion id -> frozenset of literals its conditions require the
        #: index attribute to equal (absent = unguarded, always evaluated).
        self._guards: dict[int, frozenset[str]] = {}
        #: ids of the credentials whose signature has been verified.  Only
        #: assertions held in the buckets above are in it (removal drops
        #: the id), so an id cannot be reused while it is.
        self._verified: set[int] = set()

    # -- assertion management -------------------------------------------

    def add_assertion(self, assertion: Assertion, verified: bool = False) -> None:
        """Add a policy or credential to the checker.

        ``verified`` says the caller has already verified the signature.
        Otherwise a signed credential is verified on first use (lazily)
        unless verification is disabled.
        """
        self._assertions_by_authorizer.setdefault(assertion.authorizer, []).append(
            assertion
        )
        if verified:
            self._verified.add(id(assertion))
        if self.index_attribute is not None:
            guard = _conditions_guard(assertion, self.index_attribute)
            if guard is not None:
                self._guards[id(assertion)] = guard

    def remove_assertion(self, assertion: Assertion) -> bool:
        """Remove a previously added assertion; returns True if found."""
        bucket = self._assertions_by_authorizer.get(assertion.authorizer, [])
        for i, existing in enumerate(bucket):
            if existing is assertion:
                del bucket[i]
                self._guards.pop(id(assertion), None)
                self._verified.discard(id(assertion))
                return True
        return False

    def assertions(self) -> list[Assertion]:
        return [a for bucket in self._assertions_by_authorizer.values() for a in bucket]

    # -- query ------------------------------------------------------------

    def query(
        self,
        action: Mapping[str, str],
        action_authorizers: Iterable[str],
        values: ComplianceValues | list[str],
    ) -> str:
        """Return the compliance value of the action (CV of POLICY)."""
        value, _trace = self.query_with_trace(action, action_authorizers, values)
        return value

    def query_with_trace(
        self,
        action: Mapping[str, str],
        action_authorizers: Iterable[str],
        values: ComplianceValues | list[str],
    ) -> tuple[str, list[Assertion]]:
        """Like :meth:`query`, also returning the assertions that
        contributed authority (the authorization path of the paper's audit
        story: "key A was used and key B authorized the operation")."""
        if not isinstance(values, ComplianceValues):
            values = ComplianceValues(values)
        requesters = {normalize_principal(p) for p in action_authorizers}

        attributes = dict(action)
        attributes.setdefault(RESERVED_MIN, values.minimum)
        attributes.setdefault(RESERVED_MAX, values.maximum)
        attributes.setdefault(RESERVED_VALUES, " ".join(values.values))
        attributes.setdefault(RESERVED_AUTHORIZERS, ",".join(sorted(requesters)))

        memo: dict[str, str] = {}
        visiting: set[str] = set()
        contributors: list[Assertion] = []
        index_value = (
            attributes.get(self.index_attribute)
            if self.index_attribute is not None else None
        )

        def cv(principal: str) -> str:
            if principal in requesters:
                return values.maximum
            if principal in memo:
                return memo[principal]
            if principal in visiting:
                return values.minimum  # delegation cycle
            visiting.add(principal)
            best = values.minimum
            for assertion in self._assertions_by_authorizer.get(principal, ()):
                guard = self._guards.get(id(assertion))
                if guard is not None and index_value not in guard:
                    continue  # conditions can only evaluate to minimum
                contribution = self._assertion_value(assertion, attributes, values, cv)
                if contribution != values.minimum:
                    contributors.append(assertion)
                best = values.max_of(best, contribution)
                if best == values.maximum:
                    break  # cannot improve further
            visiting.discard(principal)
            memo[principal] = best
            return best

        result = cv(POLICY_PRINCIPAL)
        if result == values.minimum:
            return result, []
        return result, contributors

    # -- internals ----------------------------------------------------------

    def _assertion_value(
        self,
        assertion: Assertion,
        attributes: Mapping[str, str],
        values: ComplianceValues,
        cv,
    ) -> str:
        if not self._credential_acceptable(assertion):
            return values.minimum
        if assertion.licensees is None:
            return values.minimum  # delegates to nobody
        # Local-Constants shadow action attributes inside this assertion.
        if assertion.local_constants:
            attributes = {**attributes, **assertion.local_constants}
        if assertion.conditions is None:
            conditions_value = values.maximum
        else:
            conditions_value = assertion.conditions.evaluate(attributes, values)
        if conditions_value == values.minimum:
            return values.minimum  # short-circuit: licensees cannot help
        licensees_value = assertion.licensees.evaluate(cv, values)
        return values.min_of(conditions_value, licensees_value)

    def _credential_acceptable(self, assertion: Assertion) -> bool:
        """Verify a credential's signature once, caching the result."""
        if assertion.is_policy or not self.verify_signatures:
            return True
        key = id(assertion)
        if key in self._verified:
            return True
        try:
            verify_assertion(assertion)
        except SignatureVerificationError:
            return False
        self._verified.add(key)
        return True


def _conditions_guard(assertion: Assertion, attribute: str) -> frozenset[str] | None:
    """Literals ``attribute`` must equal for the conditions to be non-minimal.

    Returns None when no sound guard exists (unguarded assertions are
    always evaluated).  A guard is sound when *every* top-level clause's
    test contains, as a conjunct, a comparison ``attribute == "literal"``:
    with any other attribute value, every clause test is false and the
    program evaluates to the minimum compliance value.
    """
    from repro.keynote.expr import And, Attr, Compare, StrLit

    if assertion.conditions is None:
        return None  # empty conditions mean maximum trust: never skip
    if attribute in assertion.local_constants:
        return None  # shadowed: the action attribute is not what's tested

    def required_literal(test) -> str | None:
        if isinstance(test, Compare) and test.op == "==":
            left, right = test.left, test.right
            if isinstance(left, Attr) and left.name == attribute and \
                    isinstance(right, StrLit):
                return right.value
            if isinstance(right, Attr) and right.name == attribute and \
                    isinstance(left, StrLit):
                return left.value
            return None
        if isinstance(test, And):
            return required_literal(test.left) or required_literal(test.right)
        return None  # Or / Not / bool literals: no sound requirement

    literals: set[str] = set()
    for clause in assertion.conditions.clauses:
        literal = required_literal(clause.test)
        if literal is None:
            return None
        literals.add(literal)
    return frozenset(literals)
