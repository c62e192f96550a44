"""Parsing of KeyNote assertion texts (RFC 2704 section 4).

An assertion is a sequence of ``Field: value`` lines; a line beginning with
whitespace continues the previous field.  Recognized fields::

    KeyNote-Version:   must be first if present
    Local-Constants:   NAME = "value" bindings usable in other fields
    Authorizer:        the delegating principal (or POLICY) — required
    Licensees:         licensee expression
    Conditions:        conditions program
    Comment:           free text
    Signature:         must be last if present

Multiple assertions in one text are separated by blank lines.
"""

from __future__ import annotations

import re

from repro.errors import AssertionSyntaxError
from repro.keynote.ast import POLICY_PRINCIPAL, Assertion, normalize_principal
from repro.keynote.expr import parse_conditions
from repro.keynote.lexer import TokenStream, lex
from repro.keynote.licensees import parse_licensees

_FIELD_NAMES = {
    "keynote-version": "KeyNote-Version",
    "local-constants": "Local-Constants",
    "authorizer": "Authorizer",
    "licensees": "Licensees",
    "conditions": "Conditions",
    "comment": "Comment",
    "signature": "Signature",
}

#: A field's label; its value is the rest of the line (a regular
#: expression would take it a character at a time).
_FIELD_RE = re.compile(r"([A-Za-z][A-Za-z0-9-]*)\s*:")


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
        line = raw_line.rstrip("\r\n")  # a line holds no other \r or \n
        line_start = offset
        offset += len(raw_line)
        if not line or line.isspace():
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
        raw_name, value = match.group(1), line[match.end():]
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
    stream = TokenStream(lex(text))
    while not stream.at_end():
        kind, name, position = stream.current
        if kind != "IDENT":
            raise AssertionSyntaxError(
                f"expected constant name, found {name!r}", column=position)
        stream.advance()
        stream.expect_op("=")
        kind, value, position = stream.current
        if kind != "STRING":
            raise AssertionSyntaxError(
                f"constant {name!r} must be assigned a quoted string", column=position)
        stream.advance()
        if name in constants:
            raise AssertionSyntaxError(f"duplicate constant: {name!r}")
        constants[name] = value
    return constants


def _parse_authorizer(text: str, constants: dict[str, str]) -> str:
    tokens = lex(text)
    kind, value, _position = tokens[0]
    if kind == "IDENT" and value != POLICY_PRINCIPAL:
        if value not in constants:
            raise AssertionSyntaxError(
                f"unknown authorizer name {value!r} (not in Local-Constants)")
        value = constants[value]
    elif kind not in ("STRING", "IDENT"):
        raise AssertionSyntaxError("Authorizer must be a principal or POLICY")
    if len(tokens) > 2:  # more than the principal and EOF
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
