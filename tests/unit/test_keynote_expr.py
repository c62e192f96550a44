"""Unit tests for the Conditions expression language."""

import time

import pytest

from repro.errors import AssertionSyntaxError, ExpressionError
from repro.keynote.ast import ComplianceValues
from repro.keynote.expr import MAX_POWER_BITS, parse_conditions
from repro.keynote.lexer import MAX_DEPTH

BOOL = ComplianceValues(["false", "true"])
OCTAL = ComplianceValues(["false", "X", "W", "WX", "R", "RX", "RW", "RWX"])


def ev(text, attrs=None, values=BOOL, strict=False):
    return parse_conditions(text).evaluate(attrs or {}, values, strict=strict)


class TestBasicClauses:
    def test_empty_program_is_min(self):
        assert ev("") == "false"

    def test_bare_true_yields_max(self):
        assert ev("true;") == "true"

    def test_bare_false_yields_min(self):
        assert ev("false;") == "false"

    def test_explicit_value(self):
        assert ev('true -> "true";') == "true"

    def test_figure5_conditions(self):
        text = '(app_domain == "DisCFS") && (HANDLE == "666240") -> "RWX";'
        assert ev(text, {"app_domain": "DisCFS", "HANDLE": "666240"}, OCTAL) == "RWX"
        assert ev(text, {"app_domain": "DisCFS", "HANDLE": "1"}, OCTAL) == "false"
        assert ev(text, {"HANDLE": "666240"}, OCTAL) == "false"

    def test_max_over_clauses(self):
        text = 'a == "1" -> "W"; b == "1" -> "R";'
        assert ev(text, {"a": "1", "b": "1"}, OCTAL) == "R"
        assert ev(text, {"a": "1"}, OCTAL) == "W"

    def test_nested_program(self):
        text = 'a == "1" -> { b == "2" -> "RW"; true -> "X"; };'
        assert ev(text, {"a": "1", "b": "2"}, OCTAL) == "RW"
        assert ev(text, {"a": "1"}, OCTAL) == "X"
        assert ev(text, {}, OCTAL) == "false"

    def test_value_not_in_set_ignored(self):
        assert ev('true -> "MAYBE"; true -> "true";') == "true"

    def test_value_not_in_set_strict_raises(self):
        with pytest.raises(ExpressionError):
            ev('true -> "MAYBE";', strict=True)

    def test_trailing_semicolon_optional(self):
        assert ev('true -> "true"') == "true"


class TestLogicalOperators:
    def test_and_or_not(self):
        attrs = {"a": "1", "b": "2"}
        assert ev('(a == "1") && (b == "2");', attrs) == "true"
        assert ev('(a == "x") || (b == "2");', attrs) == "true"
        assert ev('!(a == "x");', attrs) == "true"
        assert ev('!(a == "1");', attrs) == "false"

    def test_precedence_and_over_or(self):
        # a || b && c parses as a || (b && c)
        attrs = {"a": "1"}
        assert ev('(a == "1") || (a == "2") && (a == "3");', attrs) == "true"

    def test_parenthesized_boolean(self):
        assert ev('((a == "1") || (b == "1"));', {"b": "1"}) == "true"

    def test_double_negation(self):
        assert ev('!!(a == "1");', {"a": "1"}) == "true"


class TestStringExpressions:
    def test_comparisons(self):
        assert ev('"abc" < "abd";') == "true"
        assert ev('"b" >= "a";') == "true"
        assert ev('"a" != "b";') == "true"

    def test_concatenation(self):
        assert ev('(a . b) == "onetwo";', {"a": "one", "b": "two"}) == "true"

    def test_undefined_attribute_is_empty(self):
        assert ev('missing == "";') == "true"

    def test_indirect_deref(self):
        attrs = {"which": "color", "color": "red"}
        assert ev('$which == "red";', attrs) == "true"

    def test_nested_deref(self):
        attrs = {"a": "b", "b": "c", "c": "done"}
        assert ev('$$a == "done";', attrs) == "true"

    def test_regex_match(self):
        assert ev('filename ~= "\\.c$";', {"filename": "main.c"}) == "true"
        assert ev('filename ~= "\\.c$";', {"filename": "main.h"}) == "false"

    def test_regex_searches_anywhere(self):
        assert ev('x ~= "bc";', {"x": "abcd"}) == "true"

    def test_bad_regex_is_unsatisfied(self):
        assert ev('x ~= "(unclosed";', {"x": "a"}) == "false"

    def test_bad_regex_strict_raises(self):
        with pytest.raises(ExpressionError):
            ev('x ~= "(unclosed";', {"x": "a"}, strict=True)


class TestNumericExpressions:
    def test_integer_comparison(self):
        assert ev("@a > 5;", {"a": "10"}) == "true"
        assert ev("@a > 5;", {"a": "3"}) == "false"

    def test_arithmetic(self):
        assert ev("@a + @b == 30;", {"a": "10", "b": "20"}) == "true"
        assert ev("@a * 2 - 1 == 19;", {"a": "10"}) == "true"
        assert ev("2 ^ 10 == 1024;") == "true"
        assert ev("7 % 3 == 1;") == "true"
        assert ev("-@a == 0 - 5;", {"a": "5"}) == "true"

    def test_integer_division_truncates_toward_zero(self):
        assert ev("7 / 2 == 3;") == "true"
        assert ev("(0 - 7) / 2 == 0 - 3;") == "true"

    def test_float_conversion(self):
        assert ev("&a > 2.5;", {"a": "2.75"}) == "true"
        assert ev("&a + 0.25 == 3.0;", {"a": "2.75"}) == "true"

    def test_precedence(self):
        assert ev("2 + 3 * 4 == 14;") == "true"
        assert ev("(2 + 3) * 4 == 20;") == "true"

    def test_power_right_associative(self):
        assert ev("2 ^ 3 ^ 2 == 512;") == "true"

    def test_conversion_of_empty_is_zero(self):
        assert ev("@missing == 0;") == "true"
        assert ev("&missing == 0.0;") == "true"

    def test_bad_conversion_unsatisfied(self):
        assert ev("@a > 0;", {"a": "not-a-number"}) == "false"

    def test_bad_conversion_strict(self):
        with pytest.raises(ExpressionError):
            ev("@a > 0;", {"a": "nope"}, strict=True)

    def test_division_by_zero_unsatisfied(self):
        assert ev("1 / @z == 1;", {"z": "0"}) == "false"
        assert ev("1 % @z == 1;", {"z": "0"}) == "false"

    def test_hour_window(self):
        text = '(@hour >= 9) && (@hour < 17) -> "true";'
        assert ev(text, {"hour": "12"}) == "true"
        assert ev(text, {"hour": "20"}) == "false"


class TestHostileNumbers:
    """A Conditions program comes from whoever signed the credential: a
    power must cost bounded time and fail typed, leaving the clause
    unsatisfied."""

    def test_huge_integer_power_is_unsatisfied_at_once(self):
        start = time.perf_counter()
        assert ev('10 ^ 3000000 == 1 -> "true";') == "false"
        assert time.perf_counter() - start < 0.05

    def test_complex_power_is_unsatisfied(self):
        assert ev("&a ^ &b < 1;", {"a": "-8", "b": "0.5"}) == "false"

    @pytest.mark.parametrize("text, attrs", [
        ("10 ^ 3000000 == 1;", {}),
        ("&a ^ &b < 1;", {"a": "-8", "b": "0.5"}),
    ])
    def test_strict_raises_expression_error(self, text, attrs):
        with pytest.raises(ExpressionError):
            ev(text, attrs, strict=True)

    def test_powers_inside_the_cap_still_compute(self):
        assert ev("2 ^ 2048 > 0;") == "true"
        assert ev("1 ^ 1000000 == 1;") == "true"
        assert ev("2 ^ (0 - 1) == 0.5;") == "true"
        assert ev("&a ^ 2 == 64.0;", {"a": "-8"}) == "true"

    @pytest.mark.parametrize("text, attrs, message", [
        ("(0 - 10) ^ 3000000 > 0;", {}, "numeric overflow"),
        ("10.0 ^ 400 > 0;", {}, "numeric overflow"),
        ("10 ^ 400.0 > 0;", {}, "numeric overflow"),
        ("0 ^ (0 - 1) > 0;", {}, "division by zero"),
        ("&a ^ &b < 1;", {"a": "-8", "b": "0.5"}, "complex result"),
    ])
    def test_strict_names_the_failure(self, text, attrs, message):
        with pytest.raises(ExpressionError, match=message):
            ev(text, attrs, strict=True)

    def test_cap_is_exact(self):
        # 2 is two bits wide, so 2 ^ n is charged 2n bits.
        at_cap = MAX_POWER_BITS // 2
        assert ev(f"2 ^ {at_cap} > 0;") == "true"
        with pytest.raises(ExpressionError, match="numeric overflow"):
            ev(f"2 ^ {at_cap + 1} > 0;", strict=True)

    def test_unit_and_zero_bases_are_not_capped(self):
        start = time.perf_counter()
        assert ev("(0 - 1) ^ 3000001 == (0 - 1);") == "true"
        assert ev("0 ^ 3000000 == 0;") == "true"
        assert time.perf_counter() - start < 0.05

    def test_huge_negative_exponent_underflows_to_zero(self):
        assert ev("10 ^ (0 - 3000000) == 0.0;") == "true"

    @pytest.mark.parametrize("raw", ["inf", "-inf", "nan", "1e999", " Infinity "])
    def test_non_finite_conversion_is_unsatisfied(self, raw):
        assert ev("&a > 0;", {"a": raw}) == "false"
        assert ev("&a <= 0;", {"a": raw}) == "false"
        with pytest.raises(ExpressionError, match="non-finite"):
            ev("&a == &a;", {"a": raw}, strict=True)

    @pytest.mark.parametrize("text", [
        "1e300 * 1e300 > 0;",                     # inf
        "(1e300 * 1e300) - (1e300 * 1e300) < 1;",  # nan
        "1e999 > 0;",                             # an infinite literal
        "0.0 - 1e999 < 0;",
    ])
    def test_non_finite_arithmetic_is_unsatisfied(self, text):
        assert ev(text) == "false"
        with pytest.raises(ExpressionError, match="non-finite"):
            ev(text, strict=True)

    def test_integer_too_large_for_a_float_is_typed(self):
        assert ev("&(2 ^ 2000) > 0;") == "false"
        with pytest.raises(ExpressionError, match="numeric overflow"):
            ev("&(2 ^ 2000) > 0;", strict=True)

    def test_large_finite_floats_still_compute(self):
        assert ev("&a > 1e300;", {"a": "1e308"}) == "true"
        assert ev("1e300 * 1e8 > 0;") == "true"


#: Conditions 3 000 levels deep, one per way of nesting: each once made
#: ``parse_conditions`` (or compiling what it built) raise RecursionError.
DEEP = 3000
HOSTILE_DEPTHS = {
    "test parentheses": "(" * DEEP + 'a == "x"' + ")" * DEEP + ";",
    "value parentheses": "a == " + "(" * DEEP + '"x"' + ")" * DEEP + ";",
    "negations": "!" * DEEP + 'a == "x";',
    "unary minus": "a == " + "-" * DEEP + "1;",
    "power tower": "1 == " + " ^ ".join(["1"] * DEEP) + ";",
    "or chain": " || ".join(['a == "x"'] * DEEP) + ";",
    "sum chain": "1 == " + " + ".join(["1"] * DEEP) + ";",
    "clause blocks": 'true -> {' * DEEP + "true" + "}" * DEEP + ";",
}


class TestHostileDepth:
    """Nesting is the credential holder's choice too: past ``MAX_DEPTH``
    it is a syntax error, in bounded time, whatever nests."""

    @pytest.mark.parametrize("text", HOSTILE_DEPTHS.values(),
                             ids=HOSTILE_DEPTHS.keys())
    def test_refused_typed_and_fast(self, text):
        start = time.perf_counter()
        with pytest.raises(AssertionSyntaxError, match="nested deeper"):
            parse_conditions(text)
        assert time.perf_counter() - start < 1.0

    def test_brackets_at_the_cap_parse(self):
        at_cap = "(" * MAX_DEPTH + 'a == "x"' + ")" * MAX_DEPTH + ";"
        assert ev(at_cap, {"a": "x"}) == "true"
        with pytest.raises(AssertionSyntaxError, match="nested deeper"):
            parse_conditions("(" + at_cap[:-1] + ");")

    def test_chain_height_is_capped_exactly(self):
        # n comparisons or-ed: n - 1 Or nodes over a Compare over a leaf.
        fits = " || ".join(['a == "x"'] * (MAX_DEPTH - 1)) + ";"
        assert ev(fits, {"a": "x"}) == "true"
        with pytest.raises(AssertionSyntaxError, match="nested deeper"):
            parse_conditions(" || ".join(['a == "x"'] * MAX_DEPTH) + ";")


class TestTypeErrors:
    def test_string_number_comparison_unsatisfied(self):
        assert ev('a == 5;', {"a": "5"}) == "false"

    def test_string_number_comparison_strict(self):
        with pytest.raises(ExpressionError):
            ev('a == 5;', {"a": "5"}, strict=True)

    def test_arithmetic_on_strings_rejected(self):
        with pytest.raises(ExpressionError):
            ev('(a + b) == "x";', {"a": "1", "b": "2"}, strict=True)

    def test_concat_on_numbers_rejected(self):
        with pytest.raises(ExpressionError):
            ev('(1 . 2) == "12";', strict=True)

    def test_errored_clause_does_not_poison_others(self):
        text = 'a == 5; true -> "true";'
        assert ev(text, {"a": "5"}) == "true"


class TestSyntaxErrors:
    @pytest.mark.parametrize("bad", [
        "a ==;",
        "-> \"v\";",
        "(a == \"1\"",
        "a == \"1\" -> ;",
        "a == \"1\" -> { };",
        "true -> \"v\" extra;",
        "@ == 5;",
        "a = \"1\";",
    ])
    def test_rejected(self, bad):
        with pytest.raises(AssertionSyntaxError):
            parse_conditions(bad)

    def test_true_in_value_position_rejected(self):
        with pytest.raises(AssertionSyntaxError):
            parse_conditions('a == true;')
