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

What is worked out at intake
----------------------------
Assertions arrive a few at a time and are queried thousands of times, so
everything about an assertion that no query can change is computed when
it is added, and unwound when it is removed:

* its Conditions are already compiled (:mod:`repro.keynote.expr`);
* it is filed under its authorizer as *unguarded*, or under each literal
  its Conditions require the index attribute to equal, so a query reads
  one dict entry for its own literal instead of scanning;
* the principals its Licensees name become reverse edges of the delegation
  graph (licensee -> authorizers), counted so that removal takes away
  exactly what was added;
* the attribute names its Conditions mention are counted, which makes
  :meth:`ComplianceChecker.reads` a dict probe.

Per query — remembered per requester set until the assertion set next
changes — the reverse edges give the *reach*: the principals with a
delegation path to a requester.  CV(p) is the minimum for every p outside
it, and an assertion all of whose licensees are outside it is skipped
without evaluating its Conditions.  This is sound by induction on the
semantics above: ``&&``, ``||`` and ``K-of`` of all-minimum values are
the minimum, the minimum of that and any Conditions value is the minimum,
and a principal all of whose assertions yield the minimum has CV minimum;
a cycle was already cut at the minimum.  What a skipped assertion would
have contributed is therefore the minimum, which neither raises a
maximum nor counts as a contribution, so values and contributor lists
are those of the full walk (``tests/keynote_reference.py`` is that walk;
``tests/property/test_prop_keynote.py`` compares the two).

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

from operator import attrgetter
from typing import Iterable, Mapping

from repro.errors import SignatureVerificationError
from repro.keynote.ast import POLICY_PRINCIPAL, Assertion, ComplianceValues, normalize_principal
from repro.keynote.signing import verify_assertion

#: Reserved attribute names injected into every query (RFC 2704 section 8).
RESERVED_MIN = "_MIN_TRUST"
RESERVED_MAX = "_MAX_TRUST"
RESERVED_VALUES = "_VALUES"
RESERVED_AUTHORIZERS = "_ACTION_AUTHORIZERS"


#: Requester sets whose reach is remembered between changes of the
#: assertion set.  A DisCFS server sees one per connected key.
_REACH_MEMO_LIMIT = 256


class _Entry:
    """An installed assertion with what intake worked out about it."""

    __slots__ = ("assertion", "order", "principals", "guard", "verified")

    def __init__(self, assertion: Assertion, order: int,
                 guard: frozenset[str] | None, verified: bool):
        self.assertion = assertion
        #: Position in the order assertions were added, which is the order
        #: a query considers an authorizer's assertions in.
        self.order = order
        self.principals = tuple(assertion.licensee_principals())
        #: Literals the conditions require the index attribute to equal
        #: (None = unguarded, always considered).
        self.guard = guard
        #: The signature needs no (further) verification.
        self.verified = verified


class _Bucket:
    """One authorizer's entries: those every query must consider, and those
    only a query with the right index-attribute value can match."""

    __slots__ = ("unguarded", "by_literal")

    def __init__(self) -> None:
        self.unguarded: list[_Entry] = []
        self.by_literal: dict[str, list[_Entry]] = {}

    def _homes(self, entry: _Entry) -> list[list[_Entry]]:
        if entry.guard is None:
            return [self.unguarded]
        return [self.by_literal.setdefault(literal, []) for literal in entry.guard]

    def add(self, entry: _Entry) -> None:
        for home in self._homes(entry):
            home.append(entry)

    def pop(self, assertion: Assertion) -> _Entry | None:
        """Take out the earliest entry holding ``assertion``, if any."""
        for entries in (self.unguarded, *self.by_literal.values()):
            for entry in entries:
                if entry.assertion is assertion:
                    for home in self._homes(entry):
                        home.remove(entry)
                    for literal in entry.guard or ():
                        if not self.by_literal[literal]:
                            del self.by_literal[literal]
                    return entry
        return None

    def candidates(self, index_value: str | None) -> list[_Entry]:
        """The entries a query must consider, in the order they were added."""
        matched = self.by_literal.get(index_value) if index_value is not None else None
        if not matched:
            return self.unguarded
        if not self.unguarded:
            return matched
        return sorted(self.unguarded + matched, key=_BY_ORDER)

    def entries(self) -> set[_Entry]:
        return {e for home in (self.unguarded, *self.by_literal.values()) for e in home}

    def __bool__(self) -> bool:
        return bool(self.unguarded or self.by_literal)


_BY_ORDER = attrgetter("order")


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
    attribute equals one of those literals — so it is filed under those
    literals and a query looks up only its own.  DisCFS indexes on
    ``HANDLE``: a server holding thousands of per-file creator credentials
    still evaluates only the handful relevant to each request (semantics
    are unchanged; the others would have evaluated to the minimum value
    anyway).
    """

    def __init__(self, verify_signatures: bool = True,
                 index_attribute: str | None = None):
        self.verify_signatures = verify_signatures
        self.index_attribute = index_attribute
        self._buckets: dict[str, _Bucket] = {}
        self._added = 0
        #: licensee -> authorizer -> how many of the authorizer's installed
        #: assertions name the licensee: the delegation graph, reversed.
        self._delegators: dict[str, dict[str, int]] = {}
        #: requester set -> the principals with a delegation path to one of
        #: them.  Replaced, not cleared, whenever the assertion set changes:
        #: a query that began before the change fills the old dict.
        self._reach_memo: dict[frozenset[str], set[str]] = {}
        #: attribute name -> how many installed assertions mention it.
        self._readers: dict[str, int] = {}
        #: How many installed assertions dereference (``$``), and so may
        #: read any attribute at all.
        self._dereferencing = 0

    # -- assertion management -------------------------------------------

    def add_assertion(self, assertion: Assertion, verified: bool = False) -> None:
        """Add a policy or credential to the checker.

        ``verified`` says the caller has already verified the signature.
        Otherwise a signed credential is verified on first use (lazily)
        unless verification is disabled.
        """
        guard = None
        if self.index_attribute is not None:
            guard = _conditions_guard(assertion, self.index_attribute)
        entry = _Entry(
            assertion, self._added, guard,
            verified or assertion.is_policy or not self.verify_signatures,
        )
        self._added += 1
        self._buckets.setdefault(assertion.authorizer, _Bucket()).add(entry)
        self._count(entry, +1)

    def remove_assertion(self, assertion: Assertion) -> bool:
        """Remove a previously added assertion; returns True if found."""
        bucket = self._buckets.get(assertion.authorizer)
        entry = bucket.pop(assertion) if bucket is not None else None
        if entry is None:
            return False
        if not bucket:
            del self._buckets[assertion.authorizer]
        self._count(entry, -1)
        return True

    def _count(self, entry: _Entry, step: int) -> None:
        """Add ``entry`` to (+1) or take it out of (-1) the derived tables."""
        authorizer = entry.assertion.authorizer
        for licensee in entry.principals:
            _bump(self._delegators.setdefault(licensee, {}), authorizer, step)
            if not self._delegators[licensee]:
                del self._delegators[licensee]
        conditions = entry.assertion.conditions
        if conditions is not None:
            for name in conditions.reads:
                _bump(self._readers, name, step)
            if conditions.dereferences:
                self._dereferencing += step
        self._reach_memo = {}  # after the edges: see the attribute's comment

    def assertions(self) -> list[Assertion]:
        """Every installed assertion, in the order they were added."""
        entries = {e for bucket in self._buckets.values() for e in bucket.entries()}
        return [e.assertion for e in sorted(entries, key=_BY_ORDER)]

    def reads(self, attribute: str) -> bool:
        """Whether the Conditions of any installed assertion can depend on
        the action attribute ``attribute``: one mentions it by name, or
        one dereferences a name it computes."""
        return self._dereferencing > 0 or attribute in self._readers

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
        minimum, maximum = values.minimum, values.maximum
        requesters = frozenset(normalize_principal(p) for p in action_authorizers)
        reach = self._reach(requesters)
        if POLICY_PRINCIPAL not in reach:
            return minimum, []  # no delegation path from policy to a requester

        attributes = {  # the action's own attributes win, as with setdefault
            RESERVED_MIN: minimum,
            RESERVED_MAX: maximum,
            RESERVED_VALUES: " ".join(values.values),
            RESERVED_AUTHORIZERS: ",".join(sorted(requesters)),
            **action,
        }

        buckets = self._buckets
        memo: dict[str, str] = {}
        visiting: set[str] = set()
        contributors: list[Assertion] = []
        index_value = (
            attributes.get(self.index_attribute)
            if self.index_attribute is not None else None
        )

        def cv(principal: str) -> str:
            if principal in requesters:
                return maximum
            if principal not in reach:
                return minimum  # nothing it says can lead to a requester
            known = memo.get(principal)
            if known is not None:
                return known
            if principal in visiting:
                return minimum  # delegation cycle
            visiting.add(principal)
            best = minimum
            bucket = buckets.get(principal)
            for entry in bucket.candidates(index_value) if bucket is not None else ():
                if reach.isdisjoint(entry.principals):
                    continue  # every licensee is at minimum, so the assertion is
                if not (entry.verified or self._verify(entry)):
                    continue
                assertion = entry.assertion
                if assertion.licensees is None:
                    continue  # (names no principal, so skipped above: for mypy)
                if assertion.conditions is None:
                    value = maximum
                else:
                    # Local-Constants shadow action attributes inside
                    # this assertion.
                    scope = ({**attributes, **assertion.local_constants}
                             if assertion.local_constants else attributes)
                    value = assertion.conditions.evaluate(scope, values)
                    if value == minimum:
                        continue  # licensees cannot help
                value = values.min_of(value, assertion.licensees.evaluate(cv, values))
                if value == minimum:
                    continue
                contributors.append(assertion)
                best = values.max_of(best, value)
                if best == maximum:
                    break  # cannot improve further
            visiting.discard(principal)
            memo[principal] = best
            return best

        result = cv(POLICY_PRINCIPAL)
        if result == minimum:
            return result, []
        return result, contributors

    # -- internals ----------------------------------------------------------

    def _reach(self, requesters: frozenset[str]) -> set[str]:
        """The principals with a delegation path to a requester, the
        requesters included: the only ones whose compliance value can
        exceed the minimum."""
        memo = self._reach_memo
        reach = memo.get(requesters)
        if reach is None:
            reach = set(requesters)
            frontier = list(requesters)
            while frontier:
                for delegator in self._delegators.get(frontier.pop(), ()):
                    if delegator not in reach:
                        reach.add(delegator)
                        frontier.append(delegator)
            if len(memo) >= _REACH_MEMO_LIMIT:
                memo.clear()
            memo[requesters] = reach
        return reach

    def _verify(self, entry: _Entry) -> bool:
        """Verify an unmarked credential's signature, remembering success."""
        try:
            verify_assertion(entry.assertion)
        except SignatureVerificationError:
            return False
        entry.verified = True
        return True


def _bump(counts: dict[str, int], key: str, step: int) -> None:
    count = counts.get(key, 0) + step
    if count:
        counts[key] = count
    else:
        del counts[key]


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
