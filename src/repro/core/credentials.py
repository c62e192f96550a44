"""Issuing and delegating DisCFS file credentials.

A DisCFS credential is a signed KeyNote assertion of the shape shown in
the paper's Figure 5::

    Authorizer: "dsa-hex:3081de0240503ca3..."
    Licensees: "dsa-hex:3081de02405be60a..."
    Conditions: (app_domain == "DisCFS") && (HANDLE == "666240") -> "RWX";
    Comment: testdir
    Signature: "sig-dsa-sha1-hex:302e021500eeb1..."

Users share files by issuing such credentials to other keys; delegation is
just issuing a credential whose Authorizer is the delegator's own key.
The compliance checker enforces that the whole chain holds and that each
link's conditions are met — a delegator can narrow rights ("RX") but can
never widen them beyond what its own chain supports.

Extensions beyond the prototype, each optional:

* ``expires_at`` — appends ``@now < T`` (short-lived credentials, the
  paper's suggested revocation aid),
* ``not_before`` — delayed validity,
* ``hours``   — time-of-day windows (the paper's "leisure-related files
  may not be available during office hours" example),
* ``subtree`` — grants over a directory and everything beneath it, via
  the ``ANCESTORS`` action attribute.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.dsa import DSAKeyPair
from repro.crypto.keycodec import encode_public_key
from repro.crypto.rsa import RSAKeyPair
from repro.errors import CredentialError
from repro.keynote.ast import Assertion
from repro.keynote.parser import parse_assertion
from repro.keynote.signing import signed_assertion
from repro.core.permissions import Permission

APP_DOMAIN = "DisCFS"


def _quote(text: str) -> str:
    escaped = text.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


@dataclass(frozen=True)
class CredentialSpec:
    """Everything that determines a credential's Conditions field."""

    handle: str
    rights: Permission
    subtree: bool = False
    expires_at: int | None = None
    not_before: int | None = None
    hours: tuple[int, int] | None = None
    extra_condition: str | None = None

    def conditions_text(self) -> str:
        clauses = [f'(app_domain == "{APP_DOMAIN}")']
        if self.subtree:
            handle_re = self.handle.replace(".", "\\.")
            clauses.append(
                f'((HANDLE == "{self.handle}") || '
                f'(ANCESTORS ~= "(^| ){handle_re}( |$)"))'
            )
        else:
            clauses.append(f'(HANDLE == "{self.handle}")')
        if self.expires_at is not None:
            clauses.append(f"(@now < {int(self.expires_at)})")
        if self.not_before is not None:
            clauses.append(f"(@now >= {int(self.not_before)})")
        if self.hours is not None:
            start, end = self.hours
            if not (0 <= start < 24 and 0 < end <= 24 and start < end):
                raise CredentialError(f"invalid hour window: {self.hours}")
            clauses.append(f"(@hour >= {start}) && (@hour < {end})")
        if self.extra_condition:
            clauses.append(f"({self.extra_condition})")
        return " && ".join(clauses) + f' -> "{self.rights.value}";'


def issue_credential(
    issuer: DSAKeyPair | RSAKeyPair,
    licensee: str,
    handle: str,
    rights: Permission | str,
    comment: str = "",
    subtree: bool = False,
    expires_at: int | None = None,
    not_before: int | None = None,
    hours: tuple[int, int] | None = None,
    extra_condition: str | None = None,
) -> str:
    """Create and sign a DisCFS credential; returns the credential text.

    ``licensee`` is a principal identifier (or a full licensee expression
    already containing quoted principals, for thresholds).  ``rights`` is a
    :class:`Permission` or a string like ``"RX"``.
    """
    if isinstance(rights, str):
        rights = Permission.from_string(rights) if rights != "false" else Permission.none()
    spec = CredentialSpec(
        handle=handle, rights=rights, subtree=subtree, expires_at=expires_at,
        not_before=not_before, hours=hours, extra_condition=extra_condition,
    )
    return issued_credential(issuer, licensee, spec, comment).source_text


def issued_credential(issuer: DSAKeyPair | RSAKeyPair, licensee: str,
                      spec: CredentialSpec, comment: str = "") -> Assertion:
    """Create and sign the credential ``spec`` describes; returns it
    parsed, as ``parse_assertion`` parses its text (``source_text``) —
    it is parsed once, while it is signed."""
    if spec.rights.bits == 0:
        raise CredentialError("refusing to issue a credential granting no rights")
    licensees_field = licensee if _looks_like_expression(licensee) else _quote(licensee)
    body_lines = [
        "KeyNote-Version: 2",
        f"Authorizer: {_quote(encode_public_key(issuer))}",
        f"Licensees: {licensees_field}",
        f"Conditions: {spec.conditions_text()}",
    ]
    if comment:
        body_lines.append(f"Comment: {comment}")
    body = "\n".join(body_lines) + "\n"
    return signed_assertion(body, issuer)


def _looks_like_expression(licensee: str) -> bool:
    """True if the licensee field is already an expression, not a bare id."""
    return '"' in licensee or "&&" in licensee or "||" in licensee or "-of(" in licensee


class CredentialIssuer:
    """Convenience wrapper: a keypair that issues and delegates credentials.

    >>> bob = CredentialIssuer(bob_keypair)
    >>> text = bob.grant(alice_id, handle="42.1", rights="RX", comment="paper")
    """

    def __init__(self, key: DSAKeyPair | RSAKeyPair):
        self.key = key
        self.identity = encode_public_key(key)

    def grant(self, licensee: str, handle: str, rights: Permission | str = "RWX",
              **options) -> str:
        """Issue a credential from this key to ``licensee``."""
        return issue_credential(self.key, licensee, handle, rights, **options)

    def delegate(self, original: str | Assertion, licensee: str,
                 rights: Permission | str | None = None, **options) -> str:
        """Re-grant an existing credential's handle to another principal.

        Parses ``original`` (a credential this user received), extracts its
        handle, and issues a new credential signed by this user.  Rights
        default to the original's granted rights; the compliance checker
        will clamp the effective rights to the chain minimum regardless.
        """
        assertion = original if isinstance(original, Assertion) else parse_assertion(original)
        handle, granted, subtree = extract_grant(assertion)
        if rights is None:
            rights = granted
        options.setdefault("subtree", subtree)
        return issue_credential(self.key, licensee, handle, rights, **options)


def extract_grant(assertion: Assertion) -> tuple[str, Permission, bool]:
    """Pull (handle, rights, subtree?) out of a credential's conditions.

    Works on the conditions program structurally: finds the HANDLE
    comparison, the clause's compliance value, and whether an ANCESTORS
    test widens the grant to a subtree.
    """
    from repro.keynote.expr import Attr, Compare, ConditionsProgram, StrLit

    if assertion.conditions is None:
        raise CredentialError("credential has no Conditions field")

    handle: str | None = None
    rights: Permission | None = None
    subtree = False

    def walk_test(node) -> None:
        nonlocal handle, subtree
        if isinstance(node, Compare):
            left, right = node.left, node.right
            if node.op == "==":
                if (isinstance(left, Attr) and left.name == "HANDLE"
                        and isinstance(right, StrLit)):
                    handle = right.value
                elif (isinstance(right, Attr) and right.name == "HANDLE"
                        and isinstance(left, StrLit)):
                    handle = left.value
            elif node.op == "~=":
                if isinstance(left, Attr) and left.name == "ANCESTORS":
                    subtree = True
        for attr in ("left", "right", "inner"):
            child = getattr(node, attr, None)
            if child is not None and not isinstance(child, (str, int, float)):
                walk_test(child)

    def walk_program(program: ConditionsProgram) -> None:
        nonlocal rights
        for clause in program.clauses:
            walk_test(clause.test)
            if isinstance(clause.target, str) and rights is None:
                try:
                    rights = Permission.from_value(clause.target)
                except Exception:
                    pass
            elif isinstance(clause.target, ConditionsProgram):
                walk_program(clause.target)

    walk_program(assertion.conditions)
    if handle is None:
        raise CredentialError("credential conditions carry no HANDLE test")
    if rights is None:
        rights = Permission.all()
    return handle, rights, subtree


def extract_handle_and_rights(assertion: Assertion) -> tuple[str, Permission]:
    """Back-compat wrapper around :func:`extract_grant`."""
    handle, rights, _subtree = extract_grant(assertion)
    return handle, rights
