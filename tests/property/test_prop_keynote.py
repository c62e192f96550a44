"""Property tests: KeyNote engine invariants.

The central soundness property of trust management in DisCFS: **a
delegation chain can never grant more than its weakest link**, no matter
what each delegator writes in its own credential.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.permissions import PERMISSION_VALUES
from repro.errors import ExpressionError
from repro.keynote.ast import ComplianceValues
from repro.keynote.compliance import ComplianceChecker
from repro.keynote.parser import parse_assertion

OCTAL = ComplianceValues(list(PERMISSION_VALUES))
VALUE = st.sampled_from(PERMISSION_VALUES)


def build_chain(grants):
    """POLICY -> p0 -> p1 -> ... with per-hop compliance values."""
    checker = ComplianceChecker(verify_signatures=False)
    checker.add_assertion(
        parse_assertion('Authorizer: "POLICY"\nLicensees: "p0"\n')
    )
    for i, value in enumerate(grants):
        checker.add_assertion(parse_assertion(
            f'Authorizer: "p{i}"\nLicensees: "p{i + 1}"\n'
            f'Conditions: true -> "{value}";\n'
        ))
    return checker


@settings(max_examples=100)
@given(grants=st.lists(VALUE, min_size=1, max_size=6))
def test_chain_value_is_hop_minimum(grants):
    checker = build_chain(grants)
    requester = f"p{len(grants)}"
    result = checker.query({}, [requester], OCTAL)
    expected = min(grants, key=OCTAL.rank)
    assert result == expected


@settings(max_examples=100)
@given(grants=st.lists(VALUE, min_size=2, max_size=6), widened=VALUE)
def test_no_hop_can_widen_the_chain(grants, widened):
    """Replacing any single hop with a *larger* value never increases the
    result beyond the other hops' minimum."""
    checker = build_chain(grants)
    requester = f"p{len(grants)}"
    baseline = checker.query({}, [requester], OCTAL)

    boosted = list(grants)
    boosted[-1] = max(boosted[-1], widened, key=OCTAL.rank)
    checker2 = build_chain(boosted)
    result = checker2.query({}, [requester], OCTAL)
    rest_min = min(boosted[:-1], key=OCTAL.rank)
    assert OCTAL.rank(result) <= OCTAL.rank(rest_min)
    assert OCTAL.rank(result) >= OCTAL.rank(baseline) or True  # monotone up


@settings(max_examples=60)
@given(
    values=st.lists(VALUE, min_size=1, max_size=5),
    extra=VALUE,
)
def test_adding_credentials_is_monotone(values, extra):
    """Adding a parallel path can only raise (never lower) the result."""
    checker = build_chain(values)
    requester = f"p{len(values)}"
    before = checker.query({}, [requester], OCTAL)
    # Add a direct POLICY->requester path at `extra`.
    checker.add_assertion(parse_assertion(
        f'Authorizer: "POLICY"\nLicensees: "{requester}"\n'
        f'Conditions: true -> "{extra}";\n'
    ))
    after = checker.query({}, [requester], OCTAL)
    assert OCTAL.rank(after) >= OCTAL.rank(before)


@settings(max_examples=60)
@given(
    k=st.integers(min_value=1, max_value=4),
    n=st.integers(min_value=1, max_value=4),
    present=st.lists(st.integers(min_value=0, max_value=3), max_size=4,
                     unique=True),
)
def test_threshold_semantics(k, n, present):
    if k > n:
        return
    names = [f"m{i}" for i in range(n)]
    quoted = ", ".join(f'"{name}"' for name in names)
    checker = ComplianceChecker(verify_signatures=False)
    checker.add_assertion(parse_assertion(
        f'Authorizer: "POLICY"\nLicensees: {k}-of({quoted})\n'
    ))
    requesters = [names[i] for i in present if i < n]
    result = checker.query({}, requesters, ["false", "true"])
    assert result == ("true" if len(requesters) >= k else "false")


@settings(max_examples=60)
@given(handle=st.text(alphabet="0123456789.", min_size=1, max_size=12),
       probe=st.text(alphabet="0123456789.", min_size=1, max_size=12))
def test_handle_conditions_are_exact_match(handle, probe):
    """A credential for one handle never authorizes another handle."""
    checker = ComplianceChecker(verify_signatures=False)
    checker.add_assertion(parse_assertion(
        'Authorizer: "POLICY"\nLicensees: "u"\n'
        f'Conditions: HANDLE == "{handle}" -> "RWX";\n'
    ))
    result = checker.query({"HANDLE": probe}, ["u"], OCTAL)
    assert (result == "RWX") == (probe == handle)


# ---------------------------------------------------------------------------
# The compiled engine against the tree walk and list scan it replaced
# (tests/keynote_reference.py)
# ---------------------------------------------------------------------------

import dataclasses  # noqa: E402

import keynote_reference as ref  # noqa: E402  (tests/keynote_reference.py)

from repro.errors import AssertionSyntaxError  # noqa: E402
from repro.keynote import expr  # noqa: E402
from repro.keynote.expr import parse_conditions  # noqa: E402
from repro.keynote.lexer import MAX_DEPTH  # noqa: E402

ATTRIBUTE_NAMES = ["a", "b", "n", "HANDLE", "k", "missing"]
#: Attribute values: numbers in the shapes ``@`` and ``&`` accept and
#: reject, and the names above, so that ``$`` lands on something.
ATTRIBUTE_VALUES = ["", "0", "7", "42", " 12 ", "3.5", "1e3", "abc", "a.c",
                    "a", "n", "HANDLE", "x7"]
#: ``~=`` patterns, two of them not regular expressions.
PATTERNS = ["a", "^a.c$", "[0-9]+", "(^| )7( |$)", "(", "a{2,1}"]
#: Clause values, one of them outside the query's compliance set.
TARGETS = [*PERMISSION_VALUES, "bogus"]


def quoted(text):
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


LITERAL_STRING = st.sampled_from(ATTRIBUTE_VALUES + PATTERNS).map(quoted)
LITERAL_INT = st.integers(min_value=0, max_value=99).map(str)
LITERAL_FLOAT = st.sampled_from(["0.0", "0.5", "2.0", "1e3", "7.25"])
NEGATIVE = st.sampled_from(["-7", "-2", "-0.5"])
ATTRIBUTE = st.sampled_from(ATTRIBUTE_NAMES)
#: ``^`` only between leaves, on a literal base; the powers an attacker
#: would write have their own strategy, ``HOSTILE_POWER`` below.
POWER = st.tuples(
    st.one_of(LITERAL_INT, LITERAL_FLOAT),
    st.one_of(st.sampled_from(["-1", "0", "2", "5", "0.5"]), ATTRIBUTE.map("@".__add__)),
).map(lambda pair: f"({pair[0]} ^ {pair[1]})")


def wider(children):
    """One more level of value expression; operand types are left to chance,
    so ill-typed ones come up too."""
    binary = st.tuples(children, st.sampled_from("+-*/%."), children).map(
        lambda t: f"({t[0]} {t[1]} {t[2]})")
    unary = st.tuples(st.sampled_from("@&$-"), children).map(
        lambda t: f"{t[0]}({t[1]})")
    return st.one_of(binary, unary, unary)


VALUE_EXPR = st.recursive(
    st.one_of(LITERAL_STRING, LITERAL_INT, LITERAL_FLOAT, NEGATIVE, ATTRIBUTE,
              ATTRIBUTE, ATTRIBUTE.map("@".__add__), ATTRIBUTE.map("&".__add__),
              POWER),
    wider, max_leaves=6)
COMPARISON = st.one_of(
    st.tuples(VALUE_EXPR, st.sampled_from(["==", "!=", "<", ">", "<=", ">=", "~="]),
              VALUE_EXPR).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
    st.tuples(VALUE_EXPR, st.sampled_from(PATTERNS)).map(
        lambda t: f"({t[0]} ~= {quoted(t[1])})"),
)
TEST_EXPR = st.recursive(
    st.one_of(COMPARISON, COMPARISON, st.sampled_from(["true", "false"])),
    lambda children: st.one_of(
        st.tuples(children, st.sampled_from(["&&", "||"]), children).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"),
        children.map("!".__add__)),
    max_leaves=4)


def programs(children):
    clause = st.one_of(
        TEST_EXPR,
        st.tuples(TEST_EXPR, st.sampled_from(TARGETS)).map(
            lambda t: f"{t[0]} -> {quoted(t[1])}"),
        st.tuples(TEST_EXPR, children).map(lambda t: f"{t[0]} -> {{ {t[1]} }}"),
    )
    return st.lists(clause, min_size=1, max_size=3).map("; ".join)


PROGRAM = st.recursive(programs(st.nothing()), programs, max_leaves=3)
ATTRIBUTES = st.dictionaries(ATTRIBUTE, st.sampled_from(ATTRIBUTE_VALUES))


def outcome(call, *args):
    """What a call does: its value, or the type of what it raises."""
    try:
        return call(*args)
    except Exception as exc:  # noqa: BLE001 - the two sides must raise alike
        return type(exc)


@settings(max_examples=400, deadline=None)
@given(text=PROGRAM, attributes=ATTRIBUTES, strict=st.booleans())
def test_compiled_program_matches_the_tree_walk(text, attributes, strict):
    program = parse_conditions(text)
    assert outcome(program.evaluate, attributes, OCTAL, strict) == \
        outcome(ref.reference_evaluate, program, attributes, OCTAL, strict)


SMALL_NUMBER = st.recursive(
    st.one_of(st.integers(-9, 9).map(str), st.sampled_from(["0.5", "-2.5", "@n"])),
    lambda children: st.tuples(children, st.sampled_from("+-*/%"), children).map(
        lambda t: f"({t[0]} {t[1]} {t[2]})"),
    max_leaves=5)


@settings(max_examples=150, deadline=None)
@given(number=SMALL_NUMBER, n=st.sampled_from(["3", "-4", "0"]))
def test_compiled_arithmetic_matches_the_tree_walk(number, n):
    """The value itself, not just one comparison with it: bracketed by
    every threshold in a range (sign of ``%``, truncation of ``/``)."""
    for threshold in range(-12, 13):
        program = parse_conditions(
            f'{number} <= {threshold} -> "R"; {number} == {threshold} -> "RWX";')
        assert outcome(program.evaluate, {"n": n}, OCTAL, True) == \
            outcome(ref.reference_evaluate, program, {"n": n}, OCTAL, True)


#: Powers an attacker would write: integer results on both sides of the
#: size cap, exponents far past it, negative bases under fractional
#: exponents (complex results) and float powers out of range.
HOSTILE_BASE = st.one_of(
    st.integers(-(2**70), 2**70).map(lambda n: f"(0 - {-n})" if n < 0 else str(n)),
    st.sampled_from(["@h", "&h", "0.5", "1e300", "(0 - 0.5)"]))
HOSTILE_EXPONENT = st.one_of(
    st.integers(0, 10**8).map(str),
    st.integers(0, 5000).map(str),
    st.sampled_from(["0.5", "1e300", "(0 - 3)", "(99 ^ 99)", "@e", "&e"]))
HOSTILE_POWER = st.tuples(HOSTILE_BASE, HOSTILE_EXPONENT).map(
    lambda pair: f"({pair[0]} ^ {pair[1]})")
HOSTILE_ATTRIBUTES = st.fixed_dictionaries({
    "h": st.sampled_from(["-8", "-1", "0", "2", "10", "1e308", "-0.5"]),
    "e": st.sampled_from(["0.5", "-2", "1.5", "4096", "3000000", "1e9"]),
})


@settings(max_examples=300, deadline=None)
@given(power=HOSTILE_POWER, attributes=HOSTILE_ATTRIBUTES, strict=st.booleans())
def test_hostile_powers_match_the_tree_walk(power, attributes, strict):
    """Both engines bound ``^`` alike: a value, or ``ExpressionError``
    (never a ``TypeError`` from a complex number, never an unbounded
    computation)."""
    program = parse_conditions(
        f'{power} < 1 -> "R"; {power} >= 1 -> "RWX"; {power} == {power} -> "W";')
    compiled = outcome(program.evaluate, attributes, OCTAL, strict)
    assert compiled in (*PERMISSION_VALUES, ExpressionError)
    assert compiled == outcome(ref.reference_evaluate, program, attributes, OCTAL, strict)


#: Ways a credential holder can nest, each ``k`` levels deep.
DEPTH_SHAPES = {
    "brackets": lambda k: "(" * k + 'a == "x"' + ")" * k,
    "negations": lambda k: "!" * k + 'a == "x"',
    "or chain": lambda k: " || ".join(['a == "x"'] * k),
    "and chain": lambda k: " && ".join(['a != "y"'] * k),
    "unary minus": lambda k: "@n == " + "-" * k + "7",
    "sum chain": lambda k: "@n < " + " + ".join(["1"] * k),
    "clause blocks": lambda k: 'a == "x" -> {' * (k - 1) + "true" + "}" * (k - 1),
}


@settings(max_examples=300, deadline=None)
@given(shape=st.sampled_from(sorted(DEPTH_SHAPES)),
       k=st.integers(1, 3 * MAX_DEPTH),
       attributes=st.fixed_dictionaries({"a": st.sampled_from(["x", "y"]),
                                         "n": st.sampled_from(["-7", "7"])}),
       strict=st.booleans())
def test_hostile_depths_are_refused_or_match_the_tree_walk(shape, k, attributes,
                                                           strict):
    """Past the cap a syntax error, well inside it a program both engines
    evaluate alike — never a ``RecursionError`` on either side."""
    try:
        program = parse_conditions(DEPTH_SHAPES[shape](k) + ";")
    except AssertionSyntaxError:
        assert k > MAX_DEPTH // 2
        return
    assert k <= MAX_DEPTH
    assert outcome(program.evaluate, attributes, OCTAL, strict) == \
        outcome(ref.reference_evaluate, program, attributes, OCTAL, strict)


def mentions(node, found=None):
    """(attribute names a Conditions AST mentions, does it dereference?) —
    by walking the dataclasses, which is not how the compiler finds them."""
    found = found if found is not None else [set(), False]
    if isinstance(node, expr.Attr):
        found[0].add(node.name)
    if isinstance(node, expr.Deref):
        found[1] = True
    if dataclasses.is_dataclass(node):
        for f in dataclasses.fields(node):
            if f.compare:  # what was parsed, not what was compiled from it
                mentions(getattr(node, f.name), found)
    elif isinstance(node, tuple):
        for item in node:
            mentions(item, found)
    return found


@settings(max_examples=200, deadline=None)
@given(text=PROGRAM)
def test_footprint_is_what_the_program_mentions(text):
    program = parse_conditions(text)
    names, dereferences = mentions(program)
    assert set(program.reads) == names
    assert program.dereferences == dereferences


PRINCIPALS = [f"p{i}" for i in range(4)]
PRINCIPAL = st.sampled_from(PRINCIPALS).map(quoted)
LICENSEES = st.one_of(
    PRINCIPAL, PRINCIPAL,
    st.tuples(PRINCIPAL, st.sampled_from(["&&", "||"]), PRINCIPAL).map(" ".join),
    st.tuples(st.integers(1, 3), st.lists(PRINCIPAL, min_size=3, max_size=4)).map(
        lambda t: f"{t[0]}-of({', '.join(t[1])})"),
    st.tuples(PRINCIPAL, PRINCIPAL, PRINCIPAL).map(
        lambda t: f"({t[0]} && {t[1]}) || {t[2]}"),
)
#: Conditions of delegation-graph assertions: guarded on HANDLE by one and
#: by two literals, unguarded, reading other attributes, dereferencing.
GRANTED = st.sampled_from(PERMISSION_VALUES[1:])
GRAPH_CONDITIONS = st.one_of(
    st.none(), st.none(),
    GRANTED.map(lambda v: f'true -> "{v}";'),
    st.tuples(st.sampled_from(["h1", "h2"]), GRANTED).map(
        lambda t: f'(app == "d") && (HANDLE == "{t[0]}") -> "{t[1]}";'),
    st.tuples(GRANTED, GRANTED).map(
        lambda t: f'HANDLE == "h1" -> "{t[0]}"; "h2" == HANDLE -> "{t[1]}";'),
    GRANTED.map(lambda v: f'(HANDLE == "h1") || (OPERATION == "read") -> "{v}";'),
    GRANTED.map(lambda v: f'$k == "h1" -> "{v}";'),
    st.just('HANDLE == "h1" -> "bogus"; @n / 0 == 1 -> "RWX";'),
)
CONSTANTS = st.sampled_from(["", "", 'HANDLE = "h1"', 'k = "OPERATION"'])


def graph_assertion(parts):
    authorizer, licensees, conditions, constants = parts
    text = f"Authorizer: {authorizer}\nLicensees: {licensees}\n"
    if constants:
        text = f"Local-Constants: {constants}\n" + text
    if conditions is not None:
        text += f"Conditions: {conditions}\n"
    return parse_assertion(text)


GRAPH_ASSERTION = st.tuples(
    st.one_of(st.just('"POLICY"'), PRINCIPAL), LICENSEES,
    GRAPH_CONDITIONS, CONSTANTS).map(graph_assertion)
GRAPH_QUERY = st.tuples(
    st.lists(st.sampled_from(PRINCIPALS), min_size=1, max_size=3),
    st.fixed_dictionaries({
        "HANDLE": st.sampled_from(["h1", "h1", "h2", "h3"]),
        "app": st.sampled_from(["d", "d", "e"]),
    }, optional={
        "OPERATION": st.sampled_from(["read", "write"]),
        "k": st.sampled_from(["HANDLE", "app"]),
        "n": st.sampled_from(["1", "x"]),
    }))
#: What happens to a checker, in order: an assertion comes (True), the
#: assertion at some position goes (False), a query is asked (None).
GRAPH_STEPS = st.lists(st.one_of(
    st.tuples(st.just(True), GRAPH_ASSERTION),
    st.tuples(st.just(True), GRAPH_ASSERTION),
    st.tuples(st.just(True), GRAPH_ASSERTION),
    st.tuples(st.just(False), st.integers(min_value=0)),
    st.tuples(st.none(), GRAPH_QUERY),
    st.tuples(st.none(), GRAPH_QUERY),
), min_size=6, max_size=30)


@settings(max_examples=300, deadline=None)
@given(steps=GRAPH_STEPS, index=st.sampled_from([None, "HANDLE"]))
def test_checker_matches_the_list_scan(steps, index):
    """Same value and same contributors, in the same order, whatever is
    added, removed and asked in between; and ``reads`` follows the
    installed assertions up and down."""
    checker = ComplianceChecker(verify_signatures=False, index_attribute=index)
    reference = ref.ReferenceChecker(verify_signatures=False, index_attribute=index)
    installed = []
    for kind, payload in steps:
        if kind is None:
            requesters, action = payload
            value, contributors = checker.query_with_trace(action, requesters, OCTAL)
            expected, expected_contributors = reference.query_with_trace(
                action, requesters, OCTAL)
            assert value == expected
            assert [id(a) for a in contributors] == \
                [id(a) for a in expected_contributors]
            continue
        if kind:
            installed.append(payload)
            checker.add_assertion(payload)
            reference.add_assertion(payload)
        elif installed:
            gone = installed.pop(payload % len(installed))
            assert checker.remove_assertion(gone)
            assert reference.remove_assertion(gone)
        assert checker.assertions() == installed
        footprints = [mentions(a.conditions) for a in installed]
        for name in ("HANDLE", "OPERATION", "app", "k", "n", "other"):
            assert checker.reads(name) == any(
                name in names or dereferences
                for names, dereferences in footprints)
    for gone in installed:
        assert checker.remove_assertion(gone)
    # Every derived table is back to empty.
    assert not checker._buckets and not checker._delegators
    assert not checker._readers and checker._dereferencing == 0
