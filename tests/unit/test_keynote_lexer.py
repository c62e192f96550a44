"""Unit tests for the KeyNote expression lexer."""

import time

import pytest

from repro.errors import AssertionSyntaxError
from repro.keynote.ast import ComplianceValues
from repro.keynote.expr import parse_conditions
from repro.keynote.lexer import Token, TokenStream, lex, tokenize


def kinds(text):
    return [(t.kind, t.value) for t in tokenize(text)[:-1]]  # drop EOF


class TestTokenize:
    def test_empty(self):
        assert tokenize("") == [Token("EOF", "", 0)]

    def test_string_literal(self):
        assert kinds('"hello"') == [("STRING", "hello")]

    def test_string_escapes(self):
        assert kinds(r'"a\"b\\c\nd"') == [("STRING", 'a"b\\c\nd')]

    def test_unterminated_string(self):
        with pytest.raises(AssertionSyntaxError):
            tokenize('"dangling')

    def test_dangling_escape(self):
        with pytest.raises(AssertionSyntaxError):
            tokenize('"oops\\')

    def test_integers(self):
        assert kinds("42") == [("INT", "42")]
        assert kinds("0") == [("INT", "0")]

    def test_floats(self):
        assert kinds("3.25") == [("FLOAT", "3.25")]
        assert kinds("1e6") == [("FLOAT", "1e6")]
        assert kinds("2.5e-3") == [("FLOAT", "2.5e-3")]

    def test_int_dot_is_concat_not_float(self):
        # "1 . x" — the dot must be an operator when not followed by digits.
        assert kinds("1 .x")[:2] == [("INT", "1"), ("OP", ".")]
        assert kinds("1.x")[:2] == [("INT", "1"), ("OP", ".")]

    def test_identifiers(self):
        assert kinds("app_domain HANDLE _var x9") == [
            ("IDENT", "app_domain"),
            ("IDENT", "HANDLE"),
            ("IDENT", "_var"),
            ("IDENT", "x9"),
        ]

    def test_two_char_operators_beat_one(self):
        assert kinds("&& || == != <= >= ~= ->") == [
            ("OP", o) for o in ("&&", "||", "==", "!=", "<=", ">=", "~=", "->")
        ]

    def test_single_equals(self):
        assert kinds("a = b") == [("IDENT", "a"), ("OP", "="), ("IDENT", "b")]

    def test_amp_vs_and(self):
        assert kinds("& &&") == [("OP", "&"), ("OP", "&&")]

    def test_arrow_vs_minus(self):
        assert kinds("- ->") == [("OP", "-"), ("OP", "->")]

    def test_garbage_rejected(self):
        with pytest.raises(AssertionSyntaxError):
            tokenize("a ? b")

    def test_full_conditions_line(self):
        toks = kinds('(app_domain == "DisCFS") && (HANDLE == "666240") -> "RWX";')
        assert ("STRING", "DisCFS") in toks
        assert ("STRING", "RWX") in toks
        assert ("OP", ";") in toks

    def test_positions_recorded(self):
        toks = tokenize("a == b")
        assert toks[0].position == 0
        assert toks[1].position == 2
        assert toks[2].position == 5


class TestTokenStream:
    def test_advance_and_peek(self):
        stream = TokenStream(tokenize("a b c"))
        assert stream.current.value == "a"
        assert stream.peek().value == "b"
        stream.advance()
        assert stream.current.value == "b"

    def test_match_and_expect(self):
        stream = TokenStream(tokenize("( )"))
        assert stream.match_op("(") is not None
        assert stream.match_op("{") is None
        stream.expect_op(")")
        assert stream.at_end()

    def test_expect_failure(self):
        stream = TokenStream(tokenize("x"))
        with pytest.raises(AssertionSyntaxError):
            stream.expect_op("(")

    def test_advance_past_end_is_safe(self):
        stream = TokenStream(tokenize(""))
        for _ in range(3):
            stream.advance()
        assert stream.at_end()


class TestOnePassScan:
    """What the one-pass scan fixed, and what it must keep."""

    def test_string_position_is_its_opening_quote(self):
        assert [t.position for t in tokenize('"abc" "def" -> "x";')] == [0, 6, 12, 15, 18, 19]

    def test_string_position_in_a_conditions_error(self):
        with pytest.raises(AssertionSyntaxError) as info:
            parse_conditions('"abc" "def" -> "x";')
        assert info.value.column == 6

    def test_every_escape(self):
        assert kinds(r'"\n\t\r\q\\\""') == [("STRING", '\n\t\rq\\"')]

    def test_escaped_quotes_do_not_move_later_positions(self):
        toks = tokenize(r'"a\"b" x')
        assert toks[0] == Token("STRING", 'a"b', 0)
        assert toks[1].position == 7

    @pytest.mark.parametrize("numeral", ["1e+", "1e-", "2.5E+", "²", "1²", "³.5"])
    def test_malformed_numerals_are_syntax_errors(self, numeral):
        with pytest.raises(AssertionSyntaxError, match="malformed numeral"):
            tokenize(numeral)
        with pytest.raises(AssertionSyntaxError):
            parse_conditions(f'a == {numeral} -> "x";')

    @pytest.mark.parametrize("conditions", [
        'a == 1e+ -> "x";', 'a == 1e- -> "x";', 'a == ² -> "x";', 'a == 1² -> "x";',
        '@a == 1e² -> "x";', '@a == .² -> "x";',
    ])
    def test_no_numeral_escapes_as_value_error(self, conditions):
        with pytest.raises(AssertionSyntaxError):
            parse_conditions(conditions)

    def test_any_scripts_decimal_digits_are_numerals(self):
        assert kinds("٣ ٣.٥ 1e٣") == [("INT", "٣"), ("FLOAT", "٣.٥"), ("FLOAT", "1e٣")]
        program = parse_conditions('@a == ٣ -> "yes";')
        assert program.evaluate({"a": "3"}, ComplianceValues(["no", "yes"])) == "yes"

    def test_non_decimal_numeric_characters(self):
        assert kinds("x² é_1") == [("IDENT", "x²"), ("IDENT", "é_1")]
        for text in ("½", "Ⅻ", "①"):
            with pytest.raises(AssertionSyntaxError):
                tokenize(text)

    def test_blanks_are_only_space_tab_cr_lf(self):
        assert kinds(" \t\r\na\n") == [("IDENT", "a")]
        with pytest.raises(AssertionSyntaxError):
            tokenize("a\x0bb")

    def test_lex_is_tokenize_as_plain_tuples(self):
        text = '(a == "x\\ty") && (@b <= 2.5) -> "RWX";'
        assert lex(text) == [tuple(t) for t in tokenize(text)]
        assert all(type(t) is tuple for t in lex(text))

    def test_hostile_lengths_scan_in_linear_time(self):
        start = time.perf_counter()
        tokenize('"' + '\\"' * 50_000 + '"')
        tokenize("a" + " " * 200_000 + "b" + " " * 200_000)
        tokenize('"' + "k" * 1_000_000 + '"')
        assert time.perf_counter() - start < 1.0
