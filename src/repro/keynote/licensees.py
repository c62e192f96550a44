"""KeyNote licensee expressions (RFC 2704 section 6).

The Licensees field names the principal(s) an assertion delegates to:

    Licensees: "key1"
    Licensees: "key1" || "key2"
    Licensees: ("key1" && "key2") || "key3"
    Licensees: 2-of("key1", "key2", "key3")

During compliance checking each principal is replaced by its computed
compliance value; ``&&`` takes the minimum, ``||`` the maximum, and
``K-of(p1..pn)`` the K-th largest — so a 2-of-3 threshold is satisfied at
value *v* only if at least two of the three principals support *v*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from repro.errors import AssertionSyntaxError
from repro.keynote.ast import ComplianceValues, normalize_principal
from repro.keynote.lexer import TokenStream, lex


@dataclass(frozen=True)
class Principal:
    name: str  # normalized

    def principals(self) -> set[str]:
        return {self.name}

    def evaluate(self, cv_of: Callable[[str], str], values: ComplianceValues) -> str:
        return cv_of(self.name)


@dataclass(frozen=True)
class AndExpr:
    left: "LicenseeExpr"
    right: "LicenseeExpr"

    def principals(self) -> set[str]:
        return self.left.principals() | self.right.principals()

    def evaluate(self, cv_of: Callable[[str], str], values: ComplianceValues) -> str:
        return values.min_of(
            self.left.evaluate(cv_of, values), self.right.evaluate(cv_of, values)
        )


@dataclass(frozen=True)
class OrExpr:
    left: "LicenseeExpr"
    right: "LicenseeExpr"

    def principals(self) -> set[str]:
        return self.left.principals() | self.right.principals()

    def evaluate(self, cv_of: Callable[[str], str], values: ComplianceValues) -> str:
        return values.max_of(
            self.left.evaluate(cv_of, values), self.right.evaluate(cv_of, values)
        )


@dataclass(frozen=True)
class Threshold:
    k: int
    members: tuple["LicenseeExpr", ...]

    def principals(self) -> set[str]:
        out: set[str] = set()
        for member in self.members:
            out |= member.principals()
        return out

    def evaluate(self, cv_of: Callable[[str], str], values: ComplianceValues) -> str:
        member_values = [m.evaluate(cv_of, values) for m in self.members]
        return values.kth_largest(member_values, self.k)


LicenseeExpr = Principal | AndExpr | OrExpr | Threshold


def parse_licensees(
    text: str, local_constants: Mapping[str, str] | None = None
) -> LicenseeExpr | None:
    """Parse a Licensees field body.

    Returns ``None`` for an empty field (an assertion with no licensees
    delegates to nobody).  ``local_constants`` maps Local-Constants names to
    their values; a bare identifier in the expression is resolved through
    it (this is how assertions name keys symbolically).
    """
    constants = dict(local_constants or {})
    stream = TokenStream(lex(text))
    if stream.at_end():
        return None
    expr = _parse_or(stream, constants)[0]
    if not stream.at_end():
        _kind, value, position = stream.current
        raise AssertionSyntaxError(
            f"trailing garbage in licensees: {value!r}", column=position)
    return expr


def _parse_or(stream: TokenStream, constants: Mapping[str, str]) -> tuple[LicenseeExpr, int]:
    """An ``||`` chain, and the height of its tree."""
    node, height = _parse_and(stream, constants)
    while stream.match_op("||"):
        right, right_height = _parse_and(stream, constants)
        node, height = stream.grown(OrExpr(node, right), height, right_height)
    return node, height


def _parse_and(stream: TokenStream, constants: Mapping[str, str]) -> tuple[LicenseeExpr, int]:
    node, height = _parse_primary(stream, constants)
    while stream.match_op("&&"):
        right, right_height = _parse_primary(stream, constants)
        node, height = stream.grown(AndExpr(node, right), height, right_height)
    return node, height


def _parse_primary(stream: TokenStream,
                   constants: Mapping[str, str]) -> tuple[LicenseeExpr, int]:
    kind, value, position = stream.current
    if kind == "OP" and value == "(":
        stream.advance()
        node = stream.nested(_parse_or, constants)
        stream.expect_op(")")
        return node
    if kind == "INT":
        # K-of(...) threshold: INT '-' IDENT(of) '(' list ')'
        return _parse_threshold(stream, constants)
    if kind == "STRING":
        stream.advance()
        return Principal(_resolve(value, constants)), 1
    if kind == "IDENT":
        stream.advance()
        if value not in constants:
            raise AssertionSyntaxError(
                f"unknown licensee name {value!r} (not defined in Local-Constants)",
                column=position,
            )
        return Principal(normalize_principal(constants[value])), 1
    raise AssertionSyntaxError(f"expected principal, found {value or kind!r}", column=position)


def _parse_threshold(stream: TokenStream,
                     constants: Mapping[str, str]) -> tuple[Threshold, int]:
    _kind, k_text, position = stream.advance()
    try:
        k = int(k_text)
    except ValueError as exc:  # more digits than int() converts
        raise AssertionSyntaxError("threshold K too long", column=position) from exc
    if k < 1:
        raise AssertionSyntaxError("threshold K must be >= 1", column=position)
    stream.expect_op("-")
    kind, value, position = stream.current
    if kind != "IDENT" or value.lower() != "of":
        raise AssertionSyntaxError(
            f"expected 'of' in threshold, found {value!r}", column=position)
    stream.advance()
    stream.expect_op("(")
    members = [stream.nested(_parse_or, constants)]
    while stream.match_op(","):
        members.append(stream.nested(_parse_or, constants))
    stream.expect_op(")")
    if k > len(members):
        raise AssertionSyntaxError(
            f"threshold K={k} exceeds the {len(members)} listed principals"
        )
    nodes, heights = zip(*members)
    return stream.grown(Threshold(k=k, members=nodes), *heights)


def _resolve(name: str, constants: Mapping[str, str]) -> str:
    """Resolve a quoted principal through Local-Constants, then normalize."""
    if name in constants:
        name = constants[name]
    return normalize_principal(name)
