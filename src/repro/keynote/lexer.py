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

Both parsers are recursive descent, and so is everything that walks what
they build, so both refuse input nested deeper than :data:`MAX_DEPTH`
with an :class:`~repro.errors.AssertionSyntaxError` — a credential holder
chooses these texts, and a ``RecursionError`` must never escape intake.
"""

from __future__ import annotations

from dataclasses import dataclass, is_dataclass
from typing import Any, Callable, TypeVar

from repro.errors import AssertionSyntaxError

T = TypeVar("T")

#: How deep either parser goes: brackets, prefix operators and clause
#: blocks open at once (:meth:`TokenStream.nested`), and the height of
#: each expression tree it builds (:func:`check_depth` — a long ``||`` or
#: ``+`` chain is deep without a single bracket).
MAX_DEPTH = 64

_OPERATORS = (
    "&&", "||", "==", "!=", "<=", ">=", "~=", "->",
    "(", ")", "{", "}", "!", "<", ">", ";", "+", "-", "*", "/", "%", "^",
    ".", "@", "&", "$", ",", "=",
)


@dataclass(frozen=True)
class Token:
    kind: str
    value: str
    position: int

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.value!r})"


def tokenize(text: str) -> list[Token]:
    """Tokenize an expression string; raises AssertionSyntaxError on garbage."""
    tokens: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch == '"':
            literal, i = _read_string(text, i)
            tokens.append(Token("STRING", literal, i))
            continue
        if ch.isdigit() or (
            ch == "." and i + 1 < n and text[i + 1].isdigit()
        ):
            tok, i = _read_number(text, i)
            tokens.append(tok)
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(Token("IDENT", text[start:i], start))
            continue
        for op in _OPERATORS:
            if text.startswith(op, i):
                # "." followed by a digit was handled as a number above, so a
                # bare "." here is concatenation.
                tokens.append(Token("OP", op, i))
                i += len(op)
                break
        else:
            raise AssertionSyntaxError(f"unexpected character {ch!r} in expression", column=i)
    tokens.append(Token("EOF", "", n))
    return tokens


def _read_string(text: str, i: int) -> tuple[str, int]:
    """Read a quoted string starting at ``text[i] == '"'``."""
    out: list[str] = []
    i += 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\\":
            if i + 1 >= n:
                raise AssertionSyntaxError("dangling escape in string literal", column=i)
            nxt = text[i + 1]
            out.append({"n": "\n", "t": "\t", "r": "\r"}.get(nxt, nxt))
            i += 2
            continue
        if ch == '"':
            return "".join(out), i + 1
        out.append(ch)
        i += 1
    raise AssertionSyntaxError("unterminated string literal", column=i)


def _read_number(text: str, i: int) -> tuple[Token, int]:
    start = i
    n = len(text)
    seen_dot = False
    seen_exp = False
    while i < n:
        ch = text[i]
        if ch.isdigit():
            i += 1
        elif ch == "." and not seen_dot and not seen_exp:
            # Only a digit after the dot makes it part of the number;
            # otherwise it is the concatenation operator.
            if i + 1 < n and text[i + 1].isdigit():
                seen_dot = True
                i += 1
            else:
                break
        elif ch in "eE" and not seen_exp and i + 1 < n and (
            text[i + 1].isdigit() or text[i + 1] in "+-"
        ):
            seen_exp = True
            i += 2 if text[i + 1] in "+-" else 1
        else:
            break
    lexeme = text[start:i]
    kind = "FLOAT" if (seen_dot or seen_exp) else "INT"
    return Token(kind, lexeme, start), i


class TokenStream:
    """A small cursor over a token list used by both parsers."""

    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0
        self.depth = 0

    @property
    def current(self) -> Token:
        return self._tokens[self._pos]

    def peek(self, offset: int = 1) -> Token:
        idx = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[idx]

    def advance(self) -> Token:
        tok = self._tokens[self._pos]
        if self._pos < len(self._tokens) - 1:
            self._pos += 1
        return tok

    def match_op(self, *ops: str) -> Token | None:
        tok = self.current
        if tok.kind == "OP" and tok.value in ops:
            return self.advance()
        return None

    def expect_op(self, op: str) -> Token:
        tok = self.current
        if tok.kind != "OP" or tok.value != op:
            raise AssertionSyntaxError(
                f"expected {op!r}, found {tok.value or tok.kind!r}", column=tok.position
            )
        return self.advance()

    def at_end(self) -> bool:
        return self.current.kind == "EOF"

    def nested(self, parse: Callable[..., T], *args: Any) -> T:
        """``parse(self, *args)`` one level deeper, refused past MAX_DEPTH."""
        if self.depth >= MAX_DEPTH:
            raise AssertionSyntaxError(
                f"expression nested deeper than {MAX_DEPTH} levels",
                column=self.current.position,
            )
        self.depth += 1
        try:
            return parse(self, *args)
        finally:
            self.depth -= 1


def check_depth(tree: object) -> None:
    """Refuse a parsed expression tree taller than MAX_DEPTH, measured
    without recursion: the compiler and the evaluators recurse on it."""
    stack = [(tree, 1)]
    while stack:
        node, depth = stack.pop()
        if depth > MAX_DEPTH:
            raise AssertionSyntaxError(
                f"expression nested deeper than {MAX_DEPTH} levels")
        for value in vars(node).values():
            for child in value if isinstance(value, tuple) else (value,):
                if is_dataclass(child):
                    stack.append((child, depth + 1))
