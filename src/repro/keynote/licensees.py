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
from repro.keynote.lexer import TokenStream, check_depth, tokenize


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
    stream = TokenStream(tokenize(text))
    if stream.at_end():
        return None
    expr = _parse_or(stream, constants)
    check_depth(expr)
    if not stream.at_end():
        tok = stream.current
        raise AssertionSyntaxError(
            f"trailing garbage in licensees: {tok.value!r}", column=tok.position
        )
    return expr


def _parse_or(stream: TokenStream, constants: Mapping[str, str]) -> LicenseeExpr:
    node = _parse_and(stream, constants)
    while stream.match_op("||"):
        node = OrExpr(node, _parse_and(stream, constants))
    return node


def _parse_and(stream: TokenStream, constants: Mapping[str, str]) -> LicenseeExpr:
    node = _parse_primary(stream, constants)
    while stream.match_op("&&"):
        node = AndExpr(node, _parse_primary(stream, constants))
    return node


def _parse_primary(stream: TokenStream, constants: Mapping[str, str]) -> LicenseeExpr:
    tok = stream.current
    if tok.kind == "OP" and tok.value == "(":
        stream.advance()
        node = stream.nested(_parse_or, constants)
        stream.expect_op(")")
        return node
    if tok.kind == "INT":
        # K-of(...) threshold: INT '-' IDENT(of) '(' list ')'
        return _parse_threshold(stream, constants)
    if tok.kind == "STRING":
        stream.advance()
        return Principal(_resolve(tok.value, constants))
    if tok.kind == "IDENT":
        stream.advance()
        if tok.value not in constants:
            raise AssertionSyntaxError(
                f"unknown licensee name {tok.value!r} "
                "(not defined in Local-Constants)",
                column=tok.position,
            )
        return Principal(normalize_principal(constants[tok.value]))
    raise AssertionSyntaxError(
        f"expected principal, found {tok.value or tok.kind!r}", column=tok.position
    )


def _parse_threshold(stream: TokenStream, constants: Mapping[str, str]) -> Threshold:
    k_tok = stream.advance()
    k = int(k_tok.value)
    if k < 1:
        raise AssertionSyntaxError("threshold K must be >= 1", column=k_tok.position)
    stream.expect_op("-")
    of_tok = stream.current
    if of_tok.kind != "IDENT" or of_tok.value.lower() != "of":
        raise AssertionSyntaxError(
            f"expected 'of' in threshold, found {of_tok.value!r}", column=of_tok.position
        )
    stream.advance()
    stream.expect_op("(")
    members: list[LicenseeExpr] = [stream.nested(_parse_or, constants)]
    while stream.match_op(","):
        members.append(stream.nested(_parse_or, constants))
    stream.expect_op(")")
    if k > len(members):
        raise AssertionSyntaxError(
            f"threshold K={k} exceeds the {len(members)} listed principals"
        )
    return Threshold(k=k, members=tuple(members))


def _resolve(name: str, constants: Mapping[str, str]) -> str:
    """Resolve a quoted principal through Local-Constants, then normalize."""
    if name in constants:
        name = constants[name]
    return normalize_principal(name)
