"""Core KeyNote data model: principals, compliance values, assertions."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING

from repro.crypto.keycodec import decode_key, encode_public_key, is_key_identifier
from repro.errors import InvalidKey, KeyNoteError

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance for type hints
    from repro.keynote.expr import ConditionsProgram
    from repro.keynote.licensees import LicenseeExpr

#: The distinguished principal naming local (unsigned) policy roots.
POLICY_PRINCIPAL = "POLICY"


@lru_cache(maxsize=8192)
def normalize_principal(principal: str) -> str:
    """Return the canonical form of a principal identifier.

    RFC 2704 requires that two encodings of the same key (e.g. ``dsa-hex:``
    vs ``dsa-base64:``) compare as the same principal.  We canonicalize by
    decoding key identifiers and re-encoding them as hex.  Opaque names
    (non-key strings) are compared verbatim, except the reserved
    ``POLICY`` name which is case-sensitive per the RFC.

    Memoized: principals recur on every request (identity checks, queries),
    and decoding a 1024-bit key identifier is ~25 microseconds.
    """
    principal = principal.strip()
    if principal == POLICY_PRINCIPAL:
        return principal
    if is_key_identifier(principal):
        try:
            key = decode_key(principal)
        except InvalidKey:
            # Syntactically key-like but undecodable: treat as opaque text.
            return principal
        # Private-key identifiers normalize to their public part.
        public = getattr(key, "public", key)
        return encode_public_key(public, encoding="hex")
    return principal


class ComplianceValues:
    """An ordered set of compliance values for a query.

    Per RFC 2704 the application supplies, with each query, a totally
    ordered set of values from minimum to maximum trust, e.g.
    ``["false", "true"]`` or DisCFS's octal-ordered
    ``["false", "X", "W", "WX", "R", "RX", "RW", "RWX"]``.
    """

    def __init__(self, values: list[str] | tuple[str, ...]):
        values = list(values)
        if len(values) < 2:
            raise KeyNoteError("compliance value set needs at least 2 values")
        if len(set(values)) != len(values):
            raise KeyNoteError("compliance values must be distinct")
        self._values = values
        self._rank = {v: i for i, v in enumerate(values)}
        self.minimum = values[0]
        self.maximum = values[-1]

    @property
    def values(self) -> list[str]:
        return list(self._values)

    def rank(self, value: str) -> int:
        try:
            return self._rank[value]
        except KeyError:
            raise KeyNoteError(f"unknown compliance value: {value!r}") from None

    def __contains__(self, value: str) -> bool:
        return value in self._rank

    def min_of(self, a: str, b: str) -> str:
        rank = self._rank
        try:
            return a if rank[a] <= rank[b] else b
        except KeyError:
            return a if self.rank(a) <= self.rank(b) else b  # says which is unknown

    def max_of(self, a: str, b: str) -> str:
        rank = self._rank
        try:
            return a if rank[a] >= rank[b] else b
        except KeyError:
            return a if self.rank(a) >= self.rank(b) else b  # says which is unknown

    def kth_largest(self, values: list[str], k: int) -> str:
        """The k-th largest of ``values`` (k>=1); used by threshold licensees."""
        if k < 1 or k > len(values):
            return self.minimum
        ordered = sorted(values, key=self.rank, reverse=True)
        return ordered[k - 1]

    def __repr__(self) -> str:
        return f"ComplianceValues({self._values!r})"


@dataclass
class Assertion:
    """A parsed KeyNote assertion (policy or credential).

    Attributes mirror the RFC 2704 fields.  ``signed_text`` preserves the
    exact bytes the signature covers (everything up to and including the
    ``Signature:`` label), so verification is byte-faithful even after
    parsing.
    """

    authorizer: str
    licensees: "LicenseeExpr | None" = None
    conditions: "ConditionsProgram | None" = None
    comment: str = ""
    local_constants: dict[str, str] = field(default_factory=dict)
    version: str = "2"
    signature: str | None = None
    source_text: str = ""
    signed_text: str = ""

    def __post_init__(self) -> None:
        self.authorizer = normalize_principal(self.authorizer)

    @property
    def is_policy(self) -> bool:
        """True for local policy assertions (authorized by ``POLICY``)."""
        return self.authorizer == POLICY_PRINCIPAL

    @property
    def is_signed(self) -> bool:
        return self.signature is not None

    def licensee_principals(self) -> set[str]:
        """All principals mentioned in the Licensees field (normalized)."""
        if self.licensees is None:
            return set()
        return self.licensees.principals()

    def __repr__(self) -> str:
        who = "POLICY" if self.is_policy else self.authorizer[:24] + "..."
        return f"Assertion(authorizer={who!r}, signed={self.is_signed})"
