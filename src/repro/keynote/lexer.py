"""Tokenizer for KeyNote licensee and conditions expressions.

One lexer serves both sub-languages; the parsers simply ignore tokens that
cannot appear in their grammar.  Token kinds:

``STRING``      quoted string literal (supports ``\\`` escapes)
``INT``         integer literal
``FLOAT``       floating-point literal
``IDENT``       attribute name / keyword (``true``, ``false``)
``OP``          one of the operator/punctuation lexemes below
``EOF``         end of input

Operators: ``( ) { } && || ! == != <= >= < > ~= -> ; + - * / % ^ . @ & $ , =``
(longest-match-first, so ``&&`` beats ``&``, ``==`` beats ``=`` and ``->``
beats ``-``; the single ``=`` only appears in Local-Constants bindings).

The scan splits the text at its quotes, so code and string bodies
alternate.  A body is one slice, however long the key it holds; only one
holding a backslash is rewritten, escape by escape (an escaped quote split
it, and the halves are joined).  The code between bodies is read by one
call of a compiled regular expression, :data:`_LEXEMES`, and a token's
kind follows from its first character.  A numeral is decimal digits (any
script's: ``٣`` is 3) with an optional fraction and exponent; one that
would not convert (``²``, ``1e+``) is refused here, as is any character
no token starts with.  :func:`lex` gives the parsers the tokens as plain
``(kind, value, position)`` tuples, :func:`tokenize` as :class:`Token`.

Both parsers are recursive, and so is everything that walks what they
build, so both refuse input nested deeper than :data:`MAX_DEPTH` with an
:class:`~repro.errors.AssertionSyntaxError` — a credential holder chooses
these texts, and a ``RecursionError`` must never escape intake.
"""

from __future__ import annotations

import re
import string
from typing import Any, Callable, NamedTuple, NoReturn, Sequence, TypeVar

from repro.errors import AssertionSyntaxError

T = TypeVar("T")

#: How deep either parser goes: brackets, prefix operators and clause
#: blocks open at once (:meth:`TokenStream.nested`), and the height of
#: each expression tree it builds (:meth:`TokenStream.grown` — a long
#: ``||`` or ``+`` chain is deep without a single bracket).
MAX_DEPTH = 64

#: ``(kind, value, position)``: a token as the parsers read it.
RawToken = tuple[str, str, int]

_BLANKS = " \t\r\n"
#: Blanks, then a token — an identifier, an operator, a numeral, or what
#: may be an identifier led by a non-ASCII character — or a character no
#: token starts with.
_LEXEMES = re.compile(
    r"""([ \t\r\n]*)(?:
        ( [A-Za-z_]\w*
        | &&|\|\||[=!<>~]=|->|[(){}!<>;+\-*/%^@&$,=]|\.(?!\d)
        | \d*\.\d+(?:[eE](?:[+-]\d*|\d+))?
        | \d+(?:[eE](?:[+-]\d*|\d+))?
        | [^\W\d]\w*
        )
      | (.)
    )""",
    re.VERBOSE | re.DOTALL,
)
#: A token's kind by its first character, where that settles it.
_KIND_OF = {
    **dict.fromkeys(string.ascii_letters + "_", "IDENT"),
    **dict.fromkeys("(){}!<>;+-*/%^@&$,=|~", "OP"),
}
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
_ESCAPED = {"n": "\n", "t": "\t", "r": "\r"}


class Token(NamedTuple):
    kind: str
    value: str
    position: int

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.value!r})"


def tokenize(text: str) -> list[Token]:
    """Tokenize an expression string; raises AssertionSyntaxError on garbage."""
    return [Token(*token) for token in lex(text)]


def lex(text: str) -> list[RawToken]:
    """:func:`tokenize`, the tokens as plain tuples."""
    tokens: list[RawToken] = []
    append = tokens.append
    pieces = text.split('"')
    last = len(pieces) - 1
    pos = i = 0
    while True:
        code = pieces[i]
        if code:
            end = pos + len(code)
            for blanks, lexeme, bad in _LEXEMES.findall(code.rstrip(_BLANKS)):
                pos += len(blanks)
                if bad:
                    _refuse(bad, pos)
                append((_KIND_OF.get(lexeme[0]) or _kind_of(lexeme, pos), lexeme, pos))
                pos += len(lexeme)
            pos = end
        if i == last:
            break
        i += 1
        literal = pieces[i]
        if _escapes_quote(literal):  # an escaped quote split the body: join it up
            body = [literal]
            while _escapes_quote(body[-1]) and i < last:
                i += 1
                body += ('"', pieces[i])
            literal = "".join(body)
        if i == last:  # no quote closes it, or only an escaped one
            raise AssertionSyntaxError("unterminated string literal", column=pos)
        append(("STRING", _ESCAPE.sub(_unescape, literal) if "\\" in literal else literal,
                pos))
        pos += len(literal) + 2
        i += 1
    append(("EOF", "", len(text)))
    return tokens


def _escapes_quote(body: str) -> bool:
    """True if ``body`` ends in a backslash that escapes what follows it."""
    return body.endswith("\\") and (len(body) - len(body.rstrip("\\"))) % 2 == 1


def _unescape(match: re.Match[str]) -> str:
    char = match.group(1)
    return _ESCAPED.get(char, char)


def _kind_of(lexeme: str, pos: int) -> str:
    """The kind of a numeral, of a lone ``.``, or of a token led by a
    non-ASCII character."""
    lead = lexeme[0]
    if lexeme == ".":
        return "OP"
    if lead == "." or lead.isdecimal():
        if lexeme.isdecimal():
            return "INT"
        if lexeme[-1] in "+-":
            raise AssertionSyntaxError(f"malformed numeral {lexeme!r}", column=pos)
        return "FLOAT"
    if lead.isalpha():
        return "IDENT"
    _refuse(lead, pos)


def _refuse(char: str, pos: int) -> NoReturn:
    if char.isdigit():  # but not a decimal digit: ² or ①
        raise AssertionSyntaxError(f"malformed numeral at {char!r}", column=pos)
    raise AssertionSyntaxError(f"unexpected character {char!r} in expression", column=pos)


class TokenStream:
    """A cursor over a token list, shared by the parsers."""

    def __init__(self, tokens: Sequence[RawToken]):
        self._tokens = tokens
        self._pos = 0
        self.depth = 0

    @property
    def current(self) -> RawToken:
        return self._tokens[self._pos]

    def peek(self, offset: int = 1) -> RawToken:
        idx = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[idx]

    def advance(self) -> RawToken:
        tok = self._tokens[self._pos]
        if self._pos < len(self._tokens) - 1:
            self._pos += 1
        return tok

    def match_op(self, *ops: str) -> RawToken | None:
        kind, value, _position = tok = self._tokens[self._pos]
        if kind == "OP" and value in ops:
            self._pos += 1
            return tok
        return None

    def expect_op(self, op: str) -> RawToken:
        kind, value, position = tok = self._tokens[self._pos]
        if kind != "OP" or value != op:
            raise AssertionSyntaxError(
                f"expected {op!r}, found {value or kind!r}", column=position)
        self._pos += 1
        return tok

    def at_end(self) -> bool:
        return self._tokens[self._pos][0] == "EOF"

    def nested(self, parse: Callable[..., T], *args: Any) -> T:
        """``parse(self, *args)`` one level deeper, refused past MAX_DEPTH."""
        if self.depth >= MAX_DEPTH:
            raise AssertionSyntaxError(
                f"expression nested deeper than {MAX_DEPTH} levels",
                column=self.current[2],
            )
        self.depth += 1
        try:
            return parse(self, *args)
        finally:
            self.depth -= 1

    def grown(self, node: T, *heights: int) -> tuple[T, int]:
        """``node`` and its height, one more than its tallest child's
        (``heights``), refused past MAX_DEPTH: the compiler and the
        evaluators recurse on the tree."""
        height = max(heights) + 1
        if height > MAX_DEPTH:
            raise AssertionSyntaxError(f"expression nested deeper than {MAX_DEPTH} levels",
                                       column=self.current[2])
        return node, height
