"""Differential properties: the one-pass KeyNote parser against the one it
replaced (``tests/keynote_parse_reference.py``).

Three sources of text: well-formed Conditions programs (the ``PROGRAM``
strategy of ``test_prop_keynote.py``), a hostile soup of the characters
and lexemes the lexer must tell apart, and whole signed credentials as
DisCFS issues them.  Where the reference parses a text, the program must
build an equal tree from the same ``(kind, value)`` tokens; where the
reference refuses it — with ``AssertionSyntaxError``, or with the
``ValueError`` a malformed numeral used to escape as — the program must
refuse it with ``AssertionSyntaxError``.  The token lists are compared
on every text either lexer reads, parsed or not.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import keynote_parse_reference as ref  # tests/keynote_parse_reference.py
from test_prop_keynote import PROGRAM  # tests/property/test_prop_keynote.py

from repro.core.credentials import CredentialSpec, issue_credential, issued_credential
from repro.core.permissions import PERMISSION_VALUES, Permission
from repro.crypto.dsa import generate_dsa_keypair
from repro.crypto.keycodec import encode_public_key
from repro.crypto.numbers import seeded_random_bits
from repro.errors import AssertionSyntaxError
from repro.keynote.expr import parse_conditions
from repro.keynote.lexer import tokenize
from repro.keynote.licensees import parse_licensees
from repro.keynote.parser import parse_assertion

KEYS = [generate_dsa_keypair(rand=seeded_random_bits(f"parse-{i}".encode())) for i in range(3)]
IDS = [encode_public_key(key) for key in KEYS]


def tokens(lexer, text):
    return [(token.kind, token.value) for token in lexer(text)]


def agree(parse, reference_parse, text):
    """``parse`` gives what ``reference_parse`` gives, and refuses with
    ``AssertionSyntaxError`` what it refuses; returns the value, or None."""
    try:
        expected = reference_parse(text)
    except (AssertionSyntaxError, ValueError):
        with pytest.raises(AssertionSyntaxError):
            parse(text)
        return None
    assert parse(text) == expected
    return expected


def lexes_alike(text):
    """The two lexers read ``text`` as the same tokens, or both refuse it
    — except where the reference reads a numeral that does not convert,
    which the program refuses or reads otherwise (``1e²``)."""
    try:
        expected = tokens(ref.tokenize, text)
    except AssertionSyntaxError:
        with pytest.raises(AssertionSyntaxError):
            tokenize(text)
        return
    for kind, value in expected:
        try:
            {"INT": int, "FLOAT": float}.get(kind, str)(value)
        except ValueError:
            return
    assert tokens(tokenize, text) == expected


def agree_on_fields(text):
    """``agree`` on a whole assertion, then on the tokens of each field."""
    if agree(parse_assertion, ref.parse_assertion, text) is None:
        return
    fields = ref._split_fields(text)[0]
    for name in ("Local-Constants", "Authorizer", "Licensees", "Conditions"):
        if name in fields:
            lexes_alike(fields[name])


# ---------------------------------------------------------------------------
# Conditions programs
# ---------------------------------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(text=PROGRAM)
def test_programs_parse_alike(text):
    assert agree(parse_conditions, ref.parse_conditions, text) is not None
    lexes_alike(text)


# ---------------------------------------------------------------------------
# Hostile soup
# ---------------------------------------------------------------------------

#: Every operator, quotes and backslashes, numerals well and badly formed
#: (``²`` is a digit but not a decimal one, ``٣`` is a decimal three),
#: non-ASCII letters, the four blanks and two that are not, and words the
#: grammars give a meaning to.
LEXEMES = [
    "(", ")", "{", "}", "&&", "||", "!", "==", "!=", "<=", ">=", "<", ">", "~=",
    "->", ";", "+", "-", "*", "/", "%", "^", ".", "@", "&", "$", ",", "=", "|", "~",
    '"', '"', '"', "\\", "\\", '\\"', "\\n", "\\t", "\\r",
    "0", "7", "42", "1.5", ".5", "1e", "1e+", "e-", "E", "2", "²", "٣", "①", "½",
    "a", "x", "é", "λ", "ß", "_", "true", "false", "of", "-of(", "HANDLE",
    " ", " ", "\t", "\n", "\r", "\x0b", "\xa0",
]
SOUP = st.lists(st.sampled_from(LEXEMES), max_size=30).map("".join)


@settings(max_examples=1500, deadline=None)
@given(text=SOUP)
def test_soup_as_conditions(text):
    agree(parse_conditions, ref.parse_conditions, text)
    lexes_alike(text)


@settings(max_examples=800, deadline=None)
@given(text=SOUP, constants=st.sampled_from([{}, {"a": "p1", "x": "p2"}]))
def test_soup_as_licensees(text, constants):
    def new(body):
        return parse_licensees(body, constants)

    def old(body):
        return ref.parse_licensees(body, constants)

    agree(new, old, text)
    lexes_alike(text)


@settings(max_examples=800, deadline=None)
@given(text=SOUP, field=st.sampled_from(["Local-Constants", "Authorizer", "Licensees",
                                         "Conditions"]))
def test_soup_in_an_assertion(text, field):
    lines = {"Authorizer": '"POLICY"', "Licensees": '"p1"', field: text}
    if field == "Local-Constants":
        lines = {"Local-Constants": text, **lines}
    agree_on_fields("".join(f"{name}: {value}\n" for name, value in lines.items()))


@settings(max_examples=300, deadline=None)
@given(text=st.text(max_size=60))
def test_any_text_as_conditions(text):
    agree(parse_conditions, ref.parse_conditions, text)
    lexes_alike(text)


#: Ways to nest ``k`` deep, by brackets, prefix operators, chains and
#: clause blocks, alone and mixed: the new parser measures a tree's height
#: as it builds it and reads ``(`` once, the old one walked each tree
#: afterwards and read ``(`` twice, and both must refuse the same texts.
NESTINGS = {
    "brackets": lambda k: "(" * k + 'a == "x"' + ")" * k,
    "negations": lambda k: "!" * k + 'a == "x"',
    "or chain": lambda k: " || ".join(['a == "x"'] * k),
    "value brackets": lambda k: "(" * k + "a" + ")" * k + ' == "x"',
    "right brackets": lambda k: "a == " + "(" * k + '"x"' + ")" * k,
    "power chain": lambda k: "@n == " + " ^ ".join(["2"] * k),
    "bracketed negations": lambda k: "(" * k + "!" * k + 'a == "x"' + ")" * k,
    "negated brackets": lambda k: "!(" * k + 'a == "x"' + ")" * k,
    "minus brackets": lambda k: "@n == " + "-(" * k + "1" + ")" * k,
    "sum chain": lambda k: "@n < " + " + ".join(["1"] * k),
    "dereferences": lambda k: "@n == " + "$" * k + "a",
    "clause blocks": lambda k: 'a == "x" -> {' * k + "true" + "}" * k,
}


@pytest.mark.parametrize("shape", NESTINGS)
def test_nesting_is_refused_alike(shape):
    for k in (*range(1, 8), *range(28, 36), *range(60, 70), 100, 130):
        agree(parse_conditions, ref.parse_conditions, NESTINGS[shape](k) + ";")


@pytest.mark.parametrize("text", [
    "(" * 70 + '"k"' + ")" * 70,
    "(" * 63 + '"k"' + ")" * 63,
    " || ".join(['"k"'] * 70),
    " && ".join(['"k"'] * 64),
    "1-of(" * 70 + '"k"' + ")" * 70,
    "2-of(" + ", ".join(['"a" && "b"'] * 64) + ")",
])
def test_licensee_nesting_is_refused_alike(text):
    agree(parse_licensees, ref.parse_licensees, text)


# ---------------------------------------------------------------------------
# Whole credentials
# ---------------------------------------------------------------------------

HANDLE = st.text(alphabet="0123456789.", min_size=1, max_size=10)
LICENSEE = st.one_of(
    st.sampled_from(IDS),
    st.tuples(st.integers(1, 3), st.permutations(IDS)).map(
        lambda t: f"{t[0]}-of(" + ", ".join(f'"{i}"' for i in t[1]) + ")"),
    st.tuples(st.sampled_from(IDS), st.sampled_from(IDS)).map(
        lambda t: f'"{t[0]}" || ("{t[1]}" && "{t[0]}")'),
)
HOURS = st.tuples(st.integers(0, 22), st.integers(1, 23)).filter(
    lambda h: h[0] < h[1]).map(lambda h: (h[0], h[1]))
COMMENT = st.text(alphabet=st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")),
                  max_size=30)
EXTRA = st.sampled_from([None, '@n < 10', '$k == "x"', 'OPERATION ~= "^re"',
                         '(&f * 2.5) >= -1e3'])
SPEC = st.builds(
    CredentialSpec,
    handle=HANDLE,
    rights=st.sampled_from(PERMISSION_VALUES[1:]).map(Permission.from_value),
    subtree=st.booleans(),
    expires_at=st.none() | st.integers(0, 2**40),
    not_before=st.none() | st.integers(0, 2**40),
    hours=st.none() | HOURS,
    extra_condition=EXTRA,
)


def with_local_constants(text, licensee):
    """``text`` with a Local-Constants field naming the licensee's keys."""
    constants = {f"K{i}": identity for i, identity in enumerate(IDS) if identity in licensee}
    if not constants:
        return text
    for name, identity in constants.items():
        text = text.replace(f'"{identity}"', name)
    bindings = " ".join(f'{name} = "{identity}"' for name, identity in constants.items())
    return text.replace("Authorizer:", f"Local-Constants: {bindings}\nAuthorizer:", 1)


@settings(max_examples=60, deadline=None)
@given(issuer=st.sampled_from(KEYS), licensee=LICENSEE, spec=SPEC, comment=COMMENT,
       constants=st.booleans())
def test_credentials_parse_alike(issuer, licensee, spec, comment, constants):
    text = issued_credential(issuer, licensee, spec, comment.strip()).source_text
    agree_on_fields(with_local_constants(text, licensee) if constants else text)


@settings(max_examples=60, deadline=None)
@given(issuer=st.sampled_from(KEYS), licensee=LICENSEE, spec=SPEC, comment=COMMENT)
def test_a_signed_credential_is_its_texts_parse(issuer, licensee, spec, comment):
    """What signing returns is what parsing the credential text gives,
    ``source_text`` and ``signed_text`` included."""
    credential = issued_credential(issuer, licensee, spec, comment.strip())
    assert credential == parse_assertion(credential.source_text)
    # A DSA signature is randomized: the signed bytes are what must agree.
    assert credential.signed_text == parse_assertion(issue_credential(
        issuer, licensee, spec.handle, spec.rights, comment.strip(), spec.subtree,
        spec.expires_at, spec.not_before, spec.hours, spec.extra_condition)).signed_text


@settings(max_examples=20, deadline=None)
@given(names=st.lists(st.text(alphabet="abcxyz", min_size=1, max_size=6), min_size=1,
                      max_size=4, unique=True))
def test_the_assertion_a_mint_installs_is_its_texts_parse(names):
    from repro.core.server import DisCFSServer

    server = DisCFSServer(admin_identity=IDS[0])
    installed = []
    trust = server.engine.trust
    server.engine.trust = lambda assertion: (installed.append(assertion), trust(assertion))
    root = server.fs.root_ino
    for name in names:
        inode = server.fs.create(root, name)
        text = server.mint_creator_credential(IDS[1], inode)
        assert installed[-1] == parse_assertion(text)
        assert installed[-1].source_text == text
