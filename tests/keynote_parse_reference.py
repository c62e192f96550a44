"""The KeyNote lexer and parsers as they were before the one-pass lexer:
the test-only reference parser.

``repro.keynote`` used to tokenize with a character loop (a string literal
copied one character at a time, 28 operators tried with ``startswith`` at
each position, a frozen dataclass per token) and to parse Conditions by an
eleven-level recursive descent that backtracked on ``(`` and measured each
test tree's height afterwards.  That code is kept here unchanged, apart
from the licensee helpers' ``_licensee`` prefix (their names collide with
the Conditions ones in a single module) and the parse functions' imports,
as what the program's parser is compared against
(``tests/property/test_prop_keynote_parse.py``,
``benchmarks/test_ablation_keynote_parse.py``).

It builds the program's own AST node types, so trees from both sides
compare with ``==``.  Two of its flaws are left in, because the program
fixed them: a malformed numeral (``1e+``, ``²``) lexes and then escapes
the parser as ``ValueError``, and a STRING token's ``position`` is the
offset just past its closing quote.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, is_dataclass
from typing import Any, Callable, Mapping, TypeVar

from repro.errors import AssertionSyntaxError
from repro.keynote.ast import POLICY_PRINCIPAL, Assertion, normalize_principal
from repro.keynote.expr import (
    And,
    Attr,
    BinOp,
    BoolLit,
    Clause,
    Compare,
    ConditionsProgram,
    Deref,
    FloatLit,
    IntLit,
    Neg,
    Not,
    Or,
    StrLit,
    TestNode,
    ToFloat,
    ToInt,
    ValueNode,
)
from repro.keynote.lexer import MAX_DEPTH
from repro.keynote.licensees import AndExpr, LicenseeExpr, OrExpr, Principal, Threshold

T = TypeVar("T")

# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# Conditions
# ---------------------------------------------------------------------------


def parse_conditions(text: str) -> ConditionsProgram:
    """Parse a Conditions field body into a program.

    An empty body is the always-true program (RFC 2704: an empty Conditions
    field means no conditions, i.e. maximum trust for any action).
    """
    stream = TokenStream(tokenize(text))
    program = _parse_program(stream, top_level=True)
    if not stream.at_end():
        tok = stream.current
        raise AssertionSyntaxError(
            f"trailing garbage in conditions: {tok.value!r}", column=tok.position
        )
    return program


def _parse_program(stream: TokenStream, top_level: bool = False) -> ConditionsProgram:
    clauses: list[Clause] = []
    while not stream.at_end():
        if stream.current.kind == "OP" and stream.current.value == "}":
            break
        clauses.append(_parse_clause(stream))
        if not stream.match_op(";"):
            break
    if not clauses and not top_level:
        raise AssertionSyntaxError("empty clause block")
    return ConditionsProgram(tuple(clauses))


def _parse_clause(stream: TokenStream) -> Clause:
    test = _parse_test(stream)
    if stream.match_op("->"):
        if stream.match_op("{"):
            inner = stream.nested(_parse_program)
            stream.expect_op("}")
            return Clause(test=test, target=inner)
        tok = stream.current
        if tok.kind != "STRING":
            raise AssertionSyntaxError(
                "expected compliance value string or '{' after '->'", column=tok.position
            )
        stream.advance()
        return Clause(test=test, target=tok.value)
    return Clause(test=test, target=None)


def _parse_test(stream: TokenStream) -> TestNode:
    test = _parse_or(stream)
    check_depth(test)  # before ConditionsProgram compiles it
    return test


def _parse_or(stream: TokenStream) -> TestNode:
    node = _parse_and(stream)
    while stream.match_op("||"):
        node = Or(node, _parse_and(stream))
    return node


def _parse_and(stream: TokenStream) -> TestNode:
    node = _parse_not(stream)
    while stream.match_op("&&"):
        node = And(node, _parse_not(stream))
    return node


def _parse_not(stream: TokenStream) -> TestNode:
    if stream.match_op("!"):
        return Not(stream.nested(_parse_not))
    return _parse_primary_test(stream)


def _parse_primary_test(stream: TokenStream) -> TestNode:
    tok = stream.current
    if tok.kind == "IDENT" and tok.value in ("true", "false"):
        # Could still be a comparison like `true == x`? `true`/`false` are
        # reserved words in tests; RFC treats them as boolean literals only.
        stream.advance()
        return BoolLit(tok.value == "true")
    if tok.kind == "OP" and tok.value == "(":
        # Ambiguous: "(test)" vs "(value-expr) RELOP value-expr".
        # Try the comparison reading first; backtrack to the test reading.
        saved = stream._pos
        try:
            return _parse_comparison(stream)
        except AssertionSyntaxError:
            stream._pos = saved
        stream.expect_op("(")
        inner = stream.nested(_parse_or)
        stream.expect_op(")")
        return inner
    return _parse_comparison(stream)


_RELOPS = ("==", "!=", "<=", ">=", "<", ">", "~=")


def _parse_comparison(stream: TokenStream) -> TestNode:
    left = _parse_value_expr(stream)
    tok = stream.current
    if tok.kind == "OP" and tok.value in _RELOPS:
        stream.advance()
        right = _parse_value_expr(stream)
        return Compare(tok.value, left, right)
    raise AssertionSyntaxError(
        f"expected comparison operator, found {tok.value or tok.kind!r}",
        column=tok.position,
    )


def _parse_value_expr(stream: TokenStream) -> ValueNode:
    return _parse_additive(stream)


def _parse_additive(stream: TokenStream) -> ValueNode:
    node = _parse_multiplicative(stream)
    while True:
        tok = stream.match_op("+", "-", ".")
        if tok is None:
            return node
        node = BinOp(tok.value, node, _parse_multiplicative(stream))


def _parse_multiplicative(stream: TokenStream) -> ValueNode:
    node = _parse_power(stream)
    while True:
        tok = stream.match_op("*", "/", "%")
        if tok is None:
            return node
        node = BinOp(tok.value, node, _parse_power(stream))


def _parse_power(stream: TokenStream) -> ValueNode:
    node = _parse_unary(stream)
    if stream.match_op("^"):
        # Right-associative.
        return BinOp("^", node, stream.nested(_parse_power))
    return node


def _parse_unary(stream: TokenStream) -> ValueNode:
    tok = stream.current
    if tok.kind == "OP" and tok.value in ("-", "@", "&", "$"):
        stream.advance()
        inner = stream.nested(_parse_unary)
        return {"-": Neg, "@": ToInt, "&": ToFloat, "$": Deref}[tok.value](inner)
    return _parse_atom(stream)


def _parse_atom(stream: TokenStream) -> ValueNode:
    tok = stream.current
    if tok.kind == "STRING":
        stream.advance()
        return StrLit(tok.value)
    if tok.kind == "INT":
        stream.advance()
        return IntLit(int(tok.value))
    if tok.kind == "FLOAT":
        stream.advance()
        return FloatLit(float(tok.value))
    if tok.kind == "IDENT":
        if tok.value in ("true", "false"):
            raise AssertionSyntaxError(
                f"{tok.value!r} cannot appear in a value expression", column=tok.position
            )
        stream.advance()
        return Attr(tok.value)
    if tok.kind == "OP" and tok.value == "(":
        stream.advance()
        node = stream.nested(_parse_value_expr)
        stream.expect_op(")")
        return node
    raise AssertionSyntaxError(
        f"expected value expression, found {tok.value or tok.kind!r}", column=tok.position
    )


# ---------------------------------------------------------------------------
# Licensees
# ---------------------------------------------------------------------------


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
    expr = _licensee_parse_or(stream, constants)
    check_depth(expr)
    if not stream.at_end():
        tok = stream.current
        raise AssertionSyntaxError(
            f"trailing garbage in licensees: {tok.value!r}", column=tok.position
        )
    return expr


def _licensee_parse_or(stream: TokenStream, constants: Mapping[str, str]) -> LicenseeExpr:
    node = _licensee_parse_and(stream, constants)
    while stream.match_op("||"):
        node = OrExpr(node, _licensee_parse_and(stream, constants))
    return node


def _licensee_parse_and(stream: TokenStream, constants: Mapping[str, str]) -> LicenseeExpr:
    node = _licensee_parse_primary(stream, constants)
    while stream.match_op("&&"):
        node = AndExpr(node, _licensee_parse_primary(stream, constants))
    return node


def _licensee_parse_primary(stream: TokenStream, constants: Mapping[str, str]) -> LicenseeExpr:
    tok = stream.current
    if tok.kind == "OP" and tok.value == "(":
        stream.advance()
        node = stream.nested(_licensee_parse_or, constants)
        stream.expect_op(")")
        return node
    if tok.kind == "INT":
        # K-of(...) threshold: INT '-' IDENT(of) '(' list ')'
        return _licensee_parse_threshold(stream, constants)
    if tok.kind == "STRING":
        stream.advance()
        return Principal(_licensee_resolve(tok.value, constants))
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


def _licensee_parse_threshold(stream: TokenStream, constants: Mapping[str, str]) -> Threshold:
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
    members: list[LicenseeExpr] = [stream.nested(_licensee_parse_or, constants)]
    while stream.match_op(","):
        members.append(stream.nested(_licensee_parse_or, constants))
    stream.expect_op(")")
    if k > len(members):
        raise AssertionSyntaxError(
            f"threshold K={k} exceeds the {len(members)} listed principals"
        )
    return Threshold(k=k, members=tuple(members))


def _licensee_resolve(name: str, constants: Mapping[str, str]) -> str:
    """Resolve a quoted principal through Local-Constants, then normalize."""
    if name in constants:
        name = constants[name]
    return normalize_principal(name)


# ---------------------------------------------------------------------------
# Assertions
# ---------------------------------------------------------------------------

_FIELD_NAMES = {
    "keynote-version": "KeyNote-Version",
    "local-constants": "Local-Constants",
    "authorizer": "Authorizer",
    "licensees": "Licensees",
    "conditions": "Conditions",
    "comment": "Comment",
    "signature": "Signature",
}

_FIELD_RE = re.compile(r"^([A-Za-z][A-Za-z0-9-]*)\s*:(.*)$")


def parse_assertion(text: str) -> Assertion:
    """Parse a single assertion; raises AssertionSyntaxError on problems."""
    fields, order, signature_label_end = _split_fields(text)

    if "KeyNote-Version" in fields and order[0] != "KeyNote-Version":
        raise AssertionSyntaxError("KeyNote-Version must be the first field")
    if "Signature" in fields and order[-1] != "Signature":
        raise AssertionSyntaxError("Signature must be the last field")
    if "Authorizer" not in fields:
        raise AssertionSyntaxError("assertion is missing the Authorizer field")

    constants = _parse_local_constants(fields.get("Local-Constants", ""))
    authorizer = _parse_authorizer(fields["Authorizer"], constants)

    licensees = None
    if fields.get("Licensees", "").strip():
        licensees = parse_licensees(fields["Licensees"], constants)

    conditions = None
    if fields.get("Conditions", "").strip():
        conditions = parse_conditions(fields["Conditions"])

    signature = None
    signed_text = ""
    if "Signature" in fields:
        signature = _parse_signature_value(fields["Signature"])
        signed_text = text[:signature_label_end]

    version = fields.get("KeyNote-Version", "2").strip().strip('"') or "2"

    return Assertion(
        authorizer=authorizer,
        licensees=licensees,
        conditions=conditions,
        comment=fields.get("Comment", "").strip(),
        local_constants=constants,
        version=version,
        signature=signature,
        source_text=text,
        signed_text=signed_text,
    )


def parse_assertions(text: str) -> list[Assertion]:
    """Parse a text containing zero or more blank-line-separated assertions."""
    chunks: list[list[str]] = []
    current: list[str] = []
    for line in text.splitlines():
        if line.strip():
            current.append(line)
        elif current:
            chunks.append(current)
            current = []
    if current:
        chunks.append(current)
    return [parse_assertion("\n".join(chunk) + "\n") for chunk in chunks]


def _split_fields(text: str) -> tuple[dict[str, str], list[str], int]:
    """Split assertion text into fields.

    Returns (fields, field order, offset just past the ``Signature:`` label)
    — the offset defines the byte range the signature covers.
    """
    fields: dict[str, str] = {}
    order: list[str] = []
    current_field: str | None = None
    signature_label_end = 0

    offset = 0
    for raw_line in text.splitlines(keepends=True):
        line = raw_line.rstrip("\n").rstrip("\r")
        line_start = offset
        offset += len(raw_line)
        if not line.strip():
            if current_field is not None:
                raise AssertionSyntaxError("blank line inside assertion")
            continue
        if line[0] in " \t":
            if current_field is None:
                raise AssertionSyntaxError("continuation line before any field")
            fields[current_field] += " " + line.strip()
            continue
        match = _FIELD_RE.match(line)
        if match is None:
            raise AssertionSyntaxError(f"malformed field line: {line[:60]!r}")
        raw_name, value = match.group(1), match.group(2)
        name = _FIELD_NAMES.get(raw_name.lower())
        if name is None:
            raise AssertionSyntaxError(f"unknown field: {raw_name!r}")
        if name in fields:
            raise AssertionSyntaxError(f"duplicate field: {name}")
        fields[name] = value.strip()
        order.append(name)
        current_field = name
        if name == "Signature":
            # Offset of the character just past the ':' of the label.
            colon = line.index(":")
            signature_label_end = line_start + colon + 1

    if not order:
        raise AssertionSyntaxError("empty assertion")
    return fields, order, signature_label_end


def _parse_local_constants(text: str) -> dict[str, str]:
    """Parse ``NAME = "value"`` bindings."""
    constants: dict[str, str] = {}
    if not text.strip():
        return constants
    stream = TokenStream(tokenize(text))
    while not stream.at_end():
        name_tok = stream.current
        if name_tok.kind != "IDENT":
            raise AssertionSyntaxError(
                f"expected constant name, found {name_tok.value!r}",
                column=name_tok.position,
            )
        stream.advance()
        eq = stream.current
        if not (eq.kind == "OP" and eq.value == "="):
            raise AssertionSyntaxError(
                f"expected '=' after constant name {name_tok.value!r}",
                column=eq.position,
            )
        stream.advance()
        val_tok = stream.current
        if val_tok.kind != "STRING":
            raise AssertionSyntaxError(
                f"constant {name_tok.value!r} must be assigned a quoted string",
                column=val_tok.position,
            )
        stream.advance()
        if name_tok.value in constants:
            raise AssertionSyntaxError(f"duplicate constant: {name_tok.value!r}")
        constants[name_tok.value] = val_tok.value
    return constants


def _parse_authorizer(text: str, constants: dict[str, str]) -> str:
    stream = TokenStream(tokenize(text))
    tok = stream.current
    if tok.kind == "STRING":
        stream.advance()
        value = tok.value
    elif tok.kind == "IDENT":
        stream.advance()
        if tok.value == POLICY_PRINCIPAL:
            value = POLICY_PRINCIPAL
        elif tok.value in constants:
            value = constants[tok.value]
        else:
            raise AssertionSyntaxError(
                f"unknown authorizer name {tok.value!r} (not in Local-Constants)"
            )
    else:
        raise AssertionSyntaxError("Authorizer must be a principal or POLICY")
    if not stream.at_end():
        raise AssertionSyntaxError("trailing garbage after Authorizer principal")
    if value in constants:
        value = constants[value]
    return normalize_principal(value)


def _parse_signature_value(text: str) -> str:
    text = text.strip()
    if text.startswith('"') and text.endswith('"') and len(text) >= 2:
        text = text[1:-1]
    if not text.lower().startswith("sig-"):
        raise AssertionSyntaxError("Signature value must start with 'sig-'")
    return text
