"""Unit tests for licensee expressions."""

import time

import pytest

from repro.errors import AssertionSyntaxError
from repro.keynote.ast import ComplianceValues
from repro.keynote.lexer import MAX_DEPTH
from repro.keynote.licensees import (
    AndExpr,
    OrExpr,
    Principal,
    Threshold,
    parse_licensees,
)

BOOL = ComplianceValues(["false", "true"])
OCTAL = ComplianceValues(["false", "X", "W", "WX", "R", "RX", "RW", "RWX"])


def evaluate(text, cv_map, values=BOOL, constants=None):
    expr = parse_licensees(text, constants)
    return expr.evaluate(lambda p: cv_map.get(p, values.minimum), values)


class TestParsing:
    def test_single_principal(self):
        expr = parse_licensees('"alice"')
        assert isinstance(expr, Principal)
        assert expr.name == "alice"

    def test_empty_is_none(self):
        assert parse_licensees("") is None
        assert parse_licensees("   ") is None

    def test_and_or_structure(self):
        expr = parse_licensees('("a" && "b") || "c"')
        assert isinstance(expr, OrExpr)
        assert isinstance(expr.left, AndExpr)

    def test_threshold(self):
        expr = parse_licensees('2-of("a", "b", "c")')
        assert isinstance(expr, Threshold)
        assert expr.k == 2
        assert len(expr.members) == 3

    def test_principals_collection(self):
        expr = parse_licensees('("a" && "b") || 1-of("c", "d")')
        assert expr.principals() == {"a", "b", "c", "d"}

    def test_local_constants_resolution(self):
        expr = parse_licensees("ALICE", {"ALICE": "key-of-alice"})
        assert expr.principals() == {"key-of-alice"}

    def test_quoted_name_also_resolved_through_constants(self):
        expr = parse_licensees('"ALICE"', {"ALICE": "key-of-alice"})
        assert expr.principals() == {"key-of-alice"}

    def test_unknown_identifier_rejected(self):
        with pytest.raises(AssertionSyntaxError):
            parse_licensees("UNDEFINED")

    @pytest.mark.parametrize("bad", [
        '"a" &&',
        '|| "a"',
        '("a"',
        '0-of("a")',
        '3-of("a", "b")',
        '2-from("a", "b")',
        '"a" "b"',
    ])
    def test_syntax_errors(self, bad):
        with pytest.raises(AssertionSyntaxError):
            parse_licensees(bad)


class TestEvaluation:
    def test_single(self):
        assert evaluate('"a"', {"a": "true"}) == "true"
        assert evaluate('"a"', {}) == "false"

    def test_and_is_min(self):
        assert evaluate('"a" && "b"', {"a": "RWX", "b": "RX"}, OCTAL) == "RX"
        assert evaluate('"a" && "b"', {"a": "RWX"}, OCTAL) == "false"

    def test_or_is_max(self):
        assert evaluate('"a" || "b"', {"a": "W", "b": "R"}, OCTAL) == "R"
        assert evaluate('"a" || "b"', {}, OCTAL) == "false"

    def test_threshold_kth_largest(self):
        cv = {"a": "RWX", "b": "RX", "c": "X"}
        assert evaluate('1-of("a", "b", "c")', cv, OCTAL) == "RWX"
        assert evaluate('2-of("a", "b", "c")', cv, OCTAL) == "RX"
        assert evaluate('3-of("a", "b", "c")', cv, OCTAL) == "X"

    def test_threshold_with_missing_members(self):
        assert evaluate('2-of("a", "b")', {"a": "true"}) == "false"
        assert evaluate('2-of("a", "b")', {"a": "true", "b": "true"}) == "true"

    def test_nested_threshold(self):
        cv = {"a": "true", "b": "true"}
        assert evaluate('1-of("x" && "y", "a" && "b")', cv) == "true"

    def test_composite(self):
        cv = {"a": "RW", "b": "RX", "c": "RWX"}
        # (a && b) || c = max(min(RW,RX), RWX) = RWX
        assert evaluate('("a" && "b") || "c"', cv, OCTAL) == "RWX"
        # octal order: min(RW=6, RX=5) = RX
        assert evaluate('"a" && "b"', cv, OCTAL) == "RX"


DEEP = 3000


class TestHostileDepth:
    """Each shape once raised RecursionError out of ``parse_licensees``
    (or out of the first walk over what it built)."""

    @pytest.mark.parametrize("text", [
        "(" * DEEP + '"k"' + ")" * DEEP,
        " || ".join(['"k"'] * DEEP),
        " && ".join(['"k"'] * DEEP),
        "1-of(" * DEEP + '"k"' + ")" * DEEP,
    ], ids=["parentheses", "or chain", "and chain", "thresholds"])
    def test_refused_typed_and_fast(self, text):
        start = time.perf_counter()
        with pytest.raises(AssertionSyntaxError, match="nested deeper"):
            parse_licensees(text)
        assert time.perf_counter() - start < 1.0

    def test_at_the_cap_parses(self):
        assert evaluate("(" * MAX_DEPTH + '"a"' + ")" * MAX_DEPTH,
                        {"a": "true"}) == "true"
        chain = " || ".join(f'"k{i}"' for i in range(MAX_DEPTH))
        assert parse_licensees(chain).principals() == {
            f"k{i}" for i in range(MAX_DEPTH)}
        with pytest.raises(AssertionSyntaxError, match="nested deeper"):
            parse_licensees(chain + ' || "one-more"')
