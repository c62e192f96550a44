"""XDR (External Data Representation) encoding — the RFC 4506 subset NFS uses.

All quantities are big-endian and padded to 4-byte alignment.  The codec
is *compiled*: a message's fixed-layout run of words is one
:class:`struct.Struct` moved by one :meth:`XDREncoder.pack_struct` /
:meth:`XDRDecoder.unpack_struct` call, and the scalar methods are the
same thing for a one-word layout.  Range checks are :mod:`struct`'s own
(a value that does not fit its field raises :class:`~repro.errors.XDRError`).

Copies.  The encoder keeps the pieces it is given and joins them once,
in :meth:`XDREncoder.getvalue`; an opaque payload is not copied before
that.  The decoder reads at a cursor over the record it was given
(``unpack_from``, no slice per field) and copies only what it hands out:
every opaque leaves as an immutable ``bytes`` of its own, also when the
record is a transport's mutable receive buffer.

The decoder is strict: short buffers, nonzero padding bytes and
unconsumed trailing bytes raise :class:`~repro.errors.XDRError` rather
than silently misparsing.

:class:`Field` and its composers (``uint``, ``string(max)``,
``array(of, max)``, ``struct(...)``, ...) are the vocabulary both RPC
programs declare their procedures in (:class:`repro.rpc.server.Procedure`).
"""

from __future__ import annotations

from struct import Struct
from struct import error as StructError
from typing import Any, Callable, NamedTuple, Sequence, TypeVar

from repro.errors import XDRError

_U32 = Struct(">I")
_I32 = Struct(">i")
_U64 = Struct(">Q")
_I64 = Struct(">q")

#: The zero bytes that round an ``n``-byte opaque up to a word: ``PAD[n & 3]``.
PAD = (b"", b"\x00\x00\x00", b"\x00\x00", b"\x00")

T = TypeVar("T")


class XDREncoder:
    """Append-only XDR writer."""

    __slots__ = ("_parts",)

    def __init__(self) -> None:
        self._parts: list[bytes] = []

    def pack_struct(self, layout: Struct, *values: object) -> "XDREncoder":
        """Append one fixed-layout record (``layout`` must be big-endian
        and a whole number of words)."""
        try:
            self._parts.append(layout.pack(*values))
        except StructError as exc:
            raise XDRError(
                f"cannot pack {values!r} as {layout.format!r}: {exc}") from None
        return self

    # -- integers ----------------------------------------------------------

    def pack_uint(self, value: int) -> "XDREncoder":
        return self.pack_struct(_U32, value)

    def pack_int(self, value: int) -> "XDREncoder":
        return self.pack_struct(_I32, value)

    def pack_uhyper(self, value: int) -> "XDREncoder":
        return self.pack_struct(_U64, value)

    def pack_hyper(self, value: int) -> "XDREncoder":
        return self.pack_struct(_I64, value)

    def pack_bool(self, value: bool) -> "XDREncoder":
        return self.pack_uint(1 if value else 0)

    pack_enum = pack_int

    # -- byte strings -------------------------------------------------------

    def pack_fixed_opaque(self, data: bytes, size: int) -> "XDREncoder":
        if len(data) != size:
            raise XDRError(f"fixed opaque must be exactly {size} bytes")
        # bytes() of a bytes is the object itself; of a mutable buffer
        # it is a snapshot, so later writes to it cannot reach the wire.
        self._parts += (bytes(data), PAD[size & 3])
        return self

    def pack_opaque(self, data: bytes) -> "XDREncoder":
        size = len(data)
        return self.pack_uint(size).pack_fixed_opaque(data, size)

    def pack_string(self, text: str) -> "XDREncoder":
        return self.pack_opaque(text.encode("utf-8"))

    # -- composites -------------------------------------------------------

    def pack_array(self, items: list[T], pack_item: Callable[["XDREncoder", T], object]) -> "XDREncoder":
        self.pack_uint(len(items))
        for item in items:
            pack_item(self, item)
        return self

    def pack_optional(self, value: T | None, pack_item: Callable[["XDREncoder", T], object]) -> "XDREncoder":
        if value is None:
            return self.pack_bool(False)
        self.pack_bool(True)
        pack_item(self, value)
        return self

    def getvalue(self) -> bytes:
        return b"".join(self._parts)

    def __len__(self) -> int:
        return sum(map(len, self._parts))


class XDRDecoder:
    """Cursor-based XDR reader over one record."""

    __slots__ = ("_data", "_pos")

    def __init__(self, data: bytes | bytearray | memoryview):
        # A slice of a view copies nothing, so bytes() of it is the one
        # copy an opaque makes on its way out of a mutable record.
        self._data = data if type(data) is bytes else memoryview(data)
        self._pos = 0

    def _underrun(self, need: int) -> XDRError:
        return XDRError(
            f"buffer underrun: need {need} bytes at offset {self._pos}, "
            f"have {len(self._data) - self._pos}"
        )

    def unpack_struct(self, layout: Struct) -> tuple:
        """Read one fixed-layout record at the cursor."""
        pos = self._pos
        try:
            values = layout.unpack_from(self._data, pos)
        except StructError:
            raise self._underrun(layout.size) from None
        self._pos = pos + layout.size
        return values

    # -- integers ----------------------------------------------------------

    def unpack_uint(self) -> int:
        return self.unpack_struct(_U32)[0]

    def unpack_int(self) -> int:
        return self.unpack_struct(_I32)[0]

    def unpack_uhyper(self) -> int:
        return self.unpack_struct(_U64)[0]

    def unpack_hyper(self) -> int:
        return self.unpack_struct(_I64)[0]

    def unpack_bool(self) -> bool:
        value = self.unpack_uint()
        if value not in (0, 1):
            raise XDRError(f"bool must be 0 or 1, got {value}")
        return bool(value)

    unpack_enum = unpack_int

    # -- byte strings -------------------------------------------------------

    def unpack_fixed_opaque(self, size: int) -> bytes:
        pos = self._pos
        end = pos + size
        stop = end + (-size & 3)
        data = self._data
        if stop > len(data):
            raise self._underrun(stop - pos)
        if any(data[end:stop]):
            raise XDRError("nonzero padding bytes")
        self._pos = stop
        return bytes(data[pos:end])

    def unpack_opaque(self, max_size: int | None = None) -> bytes:
        size = self.unpack_uint()
        if max_size is not None and size > max_size:
            raise XDRError(f"opaque of {size} bytes exceeds maximum {max_size}")
        return self.unpack_fixed_opaque(size)

    def unpack_string(self, max_size: int | None = None) -> str:
        raw = self.unpack_opaque(max_size)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise XDRError("string is not valid UTF-8") from exc

    # -- composites -------------------------------------------------------

    def unpack_array(self, unpack_item: Callable[["XDRDecoder"], T],
                     max_items: int | None = None) -> list[T]:
        count = self.unpack_uint()
        if max_items is not None and count > max_items:
            raise XDRError(f"array of {count} items exceeds maximum {max_items}")
        return [unpack_item(self) for _ in range(count)]

    def unpack_optional(self, unpack_item: Callable[["XDRDecoder"], T]) -> T | None:
        if self.unpack_bool():
            return unpack_item(self)
        return None

    def done(self) -> None:
        """Assert the whole buffer was consumed."""
        if self._pos != len(self._data):
            raise XDRError(
                f"{len(self._data) - self._pos} unconsumed bytes at end of message"
            )

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos


# -- field codecs -----------------------------------------------------------


class Field(NamedTuple):
    """One XDR field type: ``pack(enc, value)`` appends a value and
    ``unpack(dec, lo, hi)`` reads one back.  ``lo..hi`` is the length a
    length-checked field accepts (the block store's ``block``: a server
    takes ``0..block_size`` and pads, a client exactly ``block_size``);
    every other field ignores it."""

    pack: Callable[[XDREncoder, Any], object]
    unpack: Callable[[XDRDecoder, int, int], Any]


uint = Field(XDREncoder.pack_uint, lambda dec, lo, hi: dec.unpack_uint())
uhyper = Field(XDREncoder.pack_uhyper, lambda dec, lo, hi: dec.unpack_uhyper())
boolean = Field(XDREncoder.pack_bool, lambda dec, lo, hi: dec.unpack_bool())
#: No bytes at all; the value is None.
void = Field(lambda enc, value: None, lambda dec, lo, hi: None)


def opaque(max_size: int) -> Field:
    return Field(XDREncoder.pack_opaque,
                 lambda dec, lo, hi: dec.unpack_opaque(max_size))


def string(max_size: int | None = None) -> Field:
    return Field(XDREncoder.pack_string,
                 lambda dec, lo, hi: dec.unpack_string(max_size))


def array(of: Field, max_items: int | None = None) -> Field:
    return Field(
        lambda enc, items: enc.pack_array(items, of.pack),
        lambda dec, lo, hi: dec.unpack_array(
            lambda d: of.unpack(d, lo, hi), max_items),
    )


def struct(*fields: Field) -> Field:
    """``fields`` back to back; the value is a tuple, one item each."""
    packers = tuple(f.pack for f in fields)
    unpackers = tuple(f.unpack for f in fields)

    def pack(enc: XDREncoder, values: Sequence[Any]) -> None:
        if len(values) != len(packers):
            raise XDRError(
                f"{len(values)} values for {len(packers)} fields")
        for pack_field, value in zip(packers, values):
            pack_field(enc, value)

    def unpack(dec: XDRDecoder, lo: int, hi: int) -> tuple:
        return tuple([unpack_field(dec, lo, hi) for unpack_field in unpackers])

    return Field(pack, unpack)
