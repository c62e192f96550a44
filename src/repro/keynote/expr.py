"""The KeyNote Conditions expression language (RFC 2704 section 5).

A Conditions field is a *program*: a sequence of clauses

    test ;
    test -> "value" ;
    test -> { nested-program } ;

The program's value is the **maximum** compliance value yielded by any
satisfied clause (the minimum value if none is satisfied).  A clause with no
``->`` yields the query's maximum value when its test holds.

Tests combine comparisons with ``&&``, ``||`` and ``!``.  Operands are
*value expressions* over three types:

* strings — literals, attribute names, ``$expr`` indirect dereference and
  ``.`` concatenation,
* integers — literals, arithmetic (``+ - * / % ^``, unary ``-``) and
  ``@expr`` string-to-integer conversion,
* floats — literals, the same arithmetic, and ``&expr`` conversion.

Comparisons are typed: ``==  !=  <  >  <=  >=`` apply to two strings or two
numbers; ``~=`` matches a string against a regular expression.  Undefined
attributes evaluate to the empty string (RFC 2704 section 7.3).

Error semantics: a type error, bad conversion, division by zero or bad
regex makes the enclosing *clause* unsatisfied rather than aborting the
query — mirroring the forgiving behaviour of the reference implementation,
where a malformed assertion simply fails to contribute authority.  The
evaluator can be run in strict mode (used by tests) where such errors
raise :class:`~repro.errors.ExpressionError`.

Compiled once
-------------
A program is parsed into the dataclasses below — which stay, because the
compliance checker's guard extractor and ``extract_grant`` read them — and
compiled into closures as it is constructed: one Python function per
node, its operands bound, so evaluating costs the calls the expression
needs and no dispatch on node types.  Whether a value expression yields a
string or a number is fixed by its shape, so operand type checks are made
at compile time (an ill-typed expression compiles to one that raises when
reached), and a literal ``~=`` pattern is compiled with the program; only
a pattern built from attributes is compiled when evaluated.  Compiling
also records the program's *footprint*: the attribute names it mentions
(``reads``) and whether a ``$`` lets it read one named at run time
(``dereferences``).  The tree walk this replaced is kept as
``tests/keynote_reference.py`` and compared in
``tests/property/test_prop_keynote.py``.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, NoReturn, Protocol

from repro.errors import AssertionSyntaxError, ExpressionError
from repro.keynote.ast import ComplianceValues
from repro.keynote.lexer import TokenStream, check_depth, tokenize

# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

Value = str | int | float
_Attributes = Mapping[str, str]


class _ProgramFn(Protocol):
    """What a program compiles to."""

    def __call__(self, attributes: _Attributes, values: ComplianceValues,
                 strict: bool = False) -> str: ...


@dataclass(frozen=True)
class StrLit:
    value: str


@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class FloatLit:
    value: float


@dataclass(frozen=True)
class Attr:
    """A bare attribute name, e.g. ``HANDLE``."""

    name: str


@dataclass(frozen=True)
class Deref:
    """``$expr`` — the attribute whose name is the value of ``expr``."""

    inner: "ValueNode"


@dataclass(frozen=True)
class ToInt:
    """``@expr`` — string-to-integer conversion."""

    inner: "ValueNode"


@dataclass(frozen=True)
class ToFloat:
    """``&expr`` — string-to-float conversion."""

    inner: "ValueNode"


@dataclass(frozen=True)
class Neg:
    inner: "ValueNode"


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * / % ^ .
    left: "ValueNode"
    right: "ValueNode"


ValueNode = StrLit | IntLit | FloatLit | Attr | Deref | ToInt | ToFloat | Neg | BinOp


@dataclass(frozen=True)
class BoolLit:
    value: bool


@dataclass(frozen=True)
class Compare:
    op: str  # == != < > <= >= ~=
    left: ValueNode
    right: ValueNode


@dataclass(frozen=True)
class Not:
    inner: "TestNode"


@dataclass(frozen=True)
class And:
    left: "TestNode"
    right: "TestNode"


@dataclass(frozen=True)
class Or:
    left: "TestNode"
    right: "TestNode"


TestNode = BoolLit | Compare | Not | And | Or


@dataclass(frozen=True)
class Clause:
    test: TestNode
    #: None = bare test (yields max value); str = explicit value;
    #: ConditionsProgram = nested program.
    target: "str | ConditionsProgram | None"


@dataclass(frozen=True)
class ConditionsProgram:
    """A parsed Conditions program, compiled when it is constructed.

    ``evaluate(attributes, values, strict=False)`` returns the program's
    compliance value; it is the compiled closure itself, so calling it
    costs no method hop.
    """

    clauses: tuple[Clause, ...]
    evaluate: _ProgramFn = field(init=False, compare=False, repr=False)
    #: The attribute names the clauses mention, nested programs included,
    #: sorted (a tuple: a server holds one per credential).
    reads: tuple[str, ...] = field(init=False, compare=False, repr=False)
    #: True if a ``$`` lets the program read an attribute named at run time,
    #: so that ``reads`` is not all it can depend on.
    dereferences: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        compiler = _Compiler()
        object.__setattr__(self, "evaluate", compiler.program(self.clauses))
        object.__setattr__(self, "reads", tuple(sorted(compiler.reads)))
        object.__setattr__(self, "dereferences", compiler.dereferences)


# ---------------------------------------------------------------------------
# Parsing
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
# Compilation
# ---------------------------------------------------------------------------

#: A compiled value expression.  Whether it yields a string or a number is
#: known when it is compiled, which a Callable type cannot say: hence Any.
_ValueFn = Callable[[_Attributes], Any]
_TestFn = Callable[[_Attributes], bool]

_RELOP_FN: dict[str, Callable[[Any, Any], bool]] = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    ">": operator.gt,
    "<=": operator.le,
    ">=": operator.ge,
}


def _divide(left: int | float, right: int | float) -> int | float:
    if isinstance(left, int) and isinstance(right, int):
        # C-style truncation toward zero, like the reference engine.
        return int(left / right)
    return left / right


def _modulo(left: int | float, right: int | float) -> int | float:
    if right == 0:
        raise ZeroDivisionError
    result = abs(left) % abs(right)
    return -result if left < 0 else result


#: Size cap on an integer power, in bits.  ``abs(base).bit_length() *
#: exponent`` bounds the result's size and is checked before computing,
#: so a hostile ``10 ^ 100000000`` costs nothing.
MAX_POWER_BITS = 4096


def _power(base: int | float, exponent: int | float) -> int | float:
    if (isinstance(base, int) and isinstance(exponent, int) and abs(base) > 1
            and abs(base).bit_length() * exponent > MAX_POWER_BITS):
        raise ExpressionError("numeric overflow")
    result = base**exponent
    if isinstance(result, complex):
        raise ExpressionError("complex result")
    return result


def _finite(number: int | float) -> int | float:
    """``number`` unless it is a NaN or an infinity, which would compare
    wrongly (``nan == nan`` is false, ``inf`` passes every ``>``): a
    non-finite number is an evaluation error wherever it arises."""
    if isinstance(number, float) and not math.isfinite(number):
        raise ExpressionError("non-finite number")
    return number


_ARITHMETIC_FN: dict[str, Callable[[int | float, int | float], int | float]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _divide,
    "%": _modulo,
    "^": _power,
}


def _compile_pattern(pattern: str) -> "re.Pattern[str]":
    try:
        return re.compile(pattern)
    except (re.error, OverflowError) as exc:
        raise ExpressionError(f"bad regular expression: {exc}") from exc


def _ill_typed(message: str, *operands: _ValueFn) -> Callable[[_Attributes], NoReturn]:
    """An expression whose operand types are wrong whatever the attributes.

    The operands are still evaluated first, so an error of their own is
    the one reported, as when the tree was walked.
    """

    def fail(attributes: _Attributes) -> NoReturn:
        for operand in operands:
            operand(attributes)
        raise ExpressionError(message)

    return fail


class _Compiler:
    """Compiles the clauses of one program, noting what they read.

    Every value node has a static type — strings are literals, attributes,
    ``$`` and ``.``; everything else is a number — so the type checks the
    tree walk made on every evaluation are made here, once.
    """

    def __init__(self) -> None:
        self.reads: set[str] = set()
        self.dereferences = False

    # -- values: (closure, is it a string?) --------------------------------

    def value(self, node: ValueNode) -> tuple[_ValueFn, bool]:
        if isinstance(node, (StrLit, IntLit, FloatLit)):
            constant = node.value
            if isinstance(node, FloatLit) and not math.isfinite(node.value):
                return _ill_typed("non-finite number"), False
            return (lambda _attributes: constant), isinstance(node, StrLit)
        if isinstance(node, Attr):
            name = node.name
            self.reads.add(name)
            return (lambda attributes: attributes.get(name, "")), True
        if isinstance(node, BinOp):
            return self._binop(node)
        if not isinstance(node, (Deref, ToInt, ToFloat, Neg)):
            raise ExpressionError(f"unknown value node: {node!r}")
        inner, is_str = self.value(node.inner)
        if isinstance(node, Deref):
            self.dereferences = True
            if not is_str:
                return _ill_typed("$ requires a string operand", inner), True
            return (lambda attributes: attributes.get(inner(attributes), "")), True
        if isinstance(node, Neg):
            if is_str:
                return _ill_typed("unary - requires a numeric operand", inner), False
            return (lambda attributes: -inner(attributes)), False
        number: type[int] | type[float]
        number, kind = (int, "integer") if isinstance(node, ToInt) else (float, "float")
        if not is_str:

            def from_number(attributes: _Attributes) -> int | float:
                try:
                    return number(inner(attributes))
                except OverflowError as exc:
                    raise ExpressionError("numeric overflow") from exc

            return from_number, False

        def from_string(attributes: _Attributes) -> int | float:
            raw = inner(attributes)
            try:
                converted = number(raw.strip() or "0")
            except ValueError as exc:
                raise ExpressionError(f"cannot convert {raw!r} to {kind}") from exc
            return _finite(converted)

        return from_string, False

    def _binop(self, node: BinOp) -> tuple[_ValueFn, bool]:
        left, left_is_str = self.value(node.left)
        right, right_is_str = self.value(node.right)
        if node.op == ".":
            if not (left_is_str and right_is_str):
                return _ill_typed("'.' concatenation requires string operands",
                                  left, right), True
            return (lambda attributes: left(attributes) + right(attributes)), True
        if left_is_str or right_is_str:
            return _ill_typed(f"operator {node.op!r} requires numeric operands",
                              left, right), False
        if node.op not in _ARITHMETIC_FN:
            raise ExpressionError(f"unknown operator: {node.op!r}")
        apply = _ARITHMETIC_FN[node.op]

        def arithmetic(attributes: _Attributes) -> int | float:
            try:
                return _finite(apply(left(attributes), right(attributes)))
            except ZeroDivisionError as exc:
                raise ExpressionError("division by zero") from exc
            except OverflowError as exc:
                raise ExpressionError("numeric overflow") from exc

        return arithmetic, False

    # -- tests -------------------------------------------------------------

    def test(self, node: TestNode) -> _TestFn:
        if isinstance(node, BoolLit):
            truth = node.value
            return lambda _attributes: truth
        if isinstance(node, Not):
            inner = self.test(node.inner)
            return lambda attributes: not inner(attributes)
        if isinstance(node, (And, Or)):
            first, second = self.test(node.left), self.test(node.right)
            if isinstance(node, And):
                return lambda attributes: first(attributes) and second(attributes)
            return lambda attributes: first(attributes) or second(attributes)
        if isinstance(node, Compare):
            return self._compare(node)
        raise ExpressionError(f"unknown test node: {node!r}")

    def _compare(self, node: Compare) -> _TestFn:
        if node.op == "==" and isinstance(node.left, Attr) and isinstance(node.right, StrLit):
            # The shape of nearly every test a DisCFS credential makes, and a
            # server holds one or two per credential: one closure, not three.
            name, literal = node.left.name, node.right.value
            self.reads.add(name)
            return lambda attributes: attributes.get(name, "") == literal
        left, left_is_str = self.value(node.left)
        right, right_is_str = self.value(node.right)
        if node.op == "~=":
            return self._match(node, left, right, left_is_str and right_is_str)
        if left_is_str != right_is_str:
            op = node.op

            def mismatch(attributes: _Attributes) -> NoReturn:
                a, b = left(attributes), right(attributes)
                raise ExpressionError(
                    f"type mismatch in comparison: {type(a).__name__} "
                    f"{op} {type(b).__name__}"
                )

            return mismatch
        relation = _RELOP_FN[node.op]
        return lambda attributes: relation(left(attributes), right(attributes))

    @staticmethod
    def _match(node: Compare, left: _ValueFn, right: _ValueFn, strings: bool) -> _TestFn:
        if not strings:
            return _ill_typed("~= requires string operands", left, right)
        if isinstance(node.right, StrLit):
            # A literal pattern is compiled here, once; a bad one still
            # fails the clause each time it is reached.
            try:
                search = _compile_pattern(node.right.value).search
            except ExpressionError as exc:
                return _ill_typed(str(exc), left)
            return lambda attributes: search(left(attributes)) is not None

        def match(attributes: _Attributes) -> bool:
            subject = left(attributes)
            return _compile_pattern(right(attributes)).search(subject) is not None

        return match

    # -- programs ----------------------------------------------------------

    def program(self, clauses: tuple[Clause, ...]) -> _ProgramFn:
        compiled: list[tuple[_TestFn, str | None, _ProgramFn | None]] = []
        for clause in clauses:
            test = self.test(clause.test)
            if isinstance(clause.target, ConditionsProgram):
                self.reads.update(clause.target.reads)
                self.dereferences |= clause.target.dereferences
                compiled.append((test, None, clause.target.evaluate))
            else:
                compiled.append((test, clause.target, None))
        steps = tuple(compiled)

        def run(attributes: _Attributes, values: ComplianceValues,
                strict: bool = False) -> str:
            result = values.minimum
            for test, target, nested in steps:
                try:
                    if not test(attributes):
                        continue
                except ExpressionError:
                    if strict:
                        raise
                    continue  # errored clause contributes nothing
                if nested is not None:
                    contribution = nested(attributes, values, strict)
                elif target is None:
                    contribution = values.maximum
                elif target in values:
                    contribution = target
                elif strict:
                    raise ExpressionError(
                        f"value {target!r} not in the query's compliance set"
                    )
                else:
                    continue
                result = values.max_of(result, contribution)
            return result

        return run
