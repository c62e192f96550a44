"""The DisCFS permission lattice.

Paper, section 5: "The return values for the assertions form a partial
order of 8 combinations ('false', 'X', 'W', 'WX', 'R', 'RX', 'RW' and
'RWX') and translate directly into the standard octal representation."

KeyNote queries take a *totally* ordered value list; DisCFS uses the octal
order (false=0 … RWX=7), and the server then compares *bitwise*: an
operation needing W is allowed iff the W bit of the granted value is set.
So the bit lattice is the real authorization structure, with the octal
order used only as KeyNote's linearization — this module keeps the two
views consistent.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DisCFSError

#: KeyNote compliance value order used by every DisCFS query (octal order).
PERMISSION_VALUES: tuple[str, ...] = ("false", "X", "W", "WX", "R", "RX", "RW", "RWX")

R_BIT = 4
W_BIT = 2
X_BIT = 1

_NAME_TO_BITS = {name: i for i, name in enumerate(PERMISSION_VALUES)}


@dataclass(frozen=True)
class Permission:
    """A set of rights: some combination of R, W and X."""

    bits: int

    def __post_init__(self) -> None:
        if not 0 <= self.bits <= 7:
            raise DisCFSError(f"permission bits out of range: {self.bits}")

    # -- constructors -----------------------------------------------------

    @classmethod
    def none(cls) -> "Permission":
        return cls(0)

    @classmethod
    def all(cls) -> "Permission":
        return cls(7)

    @classmethod
    def from_value(cls, value: str) -> "Permission":
        """From a KeyNote compliance value ("RX" -> R|X)."""
        try:
            return cls(_NAME_TO_BITS[value])
        except KeyError:
            raise DisCFSError(f"not a DisCFS compliance value: {value!r}") from None

    @classmethod
    def from_string(cls, rights: str) -> "Permission":
        """From a rights string like "rw", "RX" (order-insensitive)."""
        bits = 0
        for ch in rights:
            upper = ch.upper()
            if upper == "R":
                bits |= R_BIT
            elif upper == "W":
                bits |= W_BIT
            elif upper == "X":
                bits |= X_BIT
            else:
                raise DisCFSError(f"unknown right {ch!r} in {rights!r}")
        return cls(bits)

    # -- views --------------------------------------------------------------

    @property
    def value(self) -> str:
        """The KeyNote compliance value ("false" for no rights)."""
        return PERMISSION_VALUES[self.bits]

    @property
    def octal(self) -> int:
        """The unix octal digit (0-7)."""
        return self.bits

    @property
    def can_read(self) -> bool:
        return bool(self.bits & R_BIT)

    @property
    def can_write(self) -> bool:
        return bool(self.bits & W_BIT)

    @property
    def can_execute(self) -> bool:
        return bool(self.bits & X_BIT)

    # -- lattice operations -------------------------------------------------

    def covers(self, required: "Permission") -> bool:
        """True if every right in ``required`` is present here."""
        return (self.bits & required.bits) == required.bits

    def intersect(self, other: "Permission") -> "Permission":
        return Permission(self.bits & other.bits)

    def union(self, other: "Permission") -> "Permission":
        return Permission(self.bits | other.bits)

    def __str__(self) -> str:
        return self.value


#: Rights each NFS-level operation requires, applied to the file handle the
#: operation addresses (the directory, for name-taking operations).
#: Follows unix semantics: X to traverse/lookup, R to read or list,
#: W (+X for namespace changes) to modify.
OPERATION_REQUIREMENTS: dict[str, Permission] = {
    "null": Permission.none(),
    "statfs": Permission.none(),
    "getattr": Permission.none(),
    "lookup": Permission(X_BIT),
    "readdir": Permission(R_BIT),
    "read": Permission(R_BIT),
    "readlink": Permission(R_BIT),
    "link_target": Permission(R_BIT),
    "setattr": Permission(W_BIT),
    "write": Permission(W_BIT),
    "create": Permission(W_BIT | X_BIT),
    "mkdir": Permission(W_BIT | X_BIT),
    "remove": Permission(W_BIT | X_BIT),
    "rmdir": Permission(W_BIT | X_BIT),
    "rename": Permission(W_BIT | X_BIT),
    "symlink": Permission(W_BIT | X_BIT),
    "link": Permission(W_BIT | X_BIT),
}


_EVERYTHING = Permission.all()


def required_permission(op: str) -> Permission:
    """Rights required for ``op``; unknown operations require everything."""
    return OPERATION_REQUIREMENTS.get(op, _EVERYTHING)
