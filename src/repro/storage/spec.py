"""Typed storage configuration: one ``StoreSpec`` dataclass per URI scheme.

**Declared** — once, on the scheme's spec class: the scheme name; its
options, each a dataclass field made with :func:`opt` that carries the
option's type, range rule, ``?query``/``#fragment`` side and the store
constructor argument it feeds; its ``(example URI, meaning)`` rows; a
``build()`` that imports its store class lazily (so importing this
module stays pure data); and, in ``_check``, whatever rule relates
several fields.

**Derived** — once per class, from those fields: the option-name set
and the cross-scheme did-you-mean pool, :meth:`StoreSpec.parse`,
:meth:`StoreSpec.to_uri`, the range half of :meth:`StoreSpec.validate`,
scheme registration, the lower-case builder functions
(``replica(mem(), file("/x.img"), w=2)``), ``discfs backends`` and the
README table (:func:`backend_rows`).

``parse_spec(s.to_uri()) == s`` holds for every spec that has a URI
form (``tests/property/test_prop_storage_spec.py``); a spec whose
rendering could not re-parse to itself raises :class:`SpecError`.
Hand-written per scheme is only what is irregular: ``remote://``'s
``host:port`` body, and the count / ``{i}``-template / ``;``-list child
grammar of ``replica://``.  Adding a backend is one ``StoreSpec``
subclass in one file (``tests/unit/test_storage_toy_scheme.py`` does
exactly that).
"""

from __future__ import annotations

import difflib
import math
import os
import re
from dataclasses import dataclass, field, fields
from functools import cache
from typing import TYPE_CHECKING, Any, Callable, ClassVar, Iterator, TypeVar, Union

from repro.errors import InvalidArgument

if TYPE_CHECKING:
    from repro.storage.base import BlockStore


class SpecError(InvalidArgument):
    """A backend URI or spec that names an unknown scheme or option,
    or fails a scheme's validation rules."""


# ---------------------------------------------------------------------------
# Options: four types, one parser / renderer / check each
# ---------------------------------------------------------------------------


def _on_off(text: str) -> bool:
    value = text.lower()
    if value in ("on", "1", "true", "yes"):
        return True
    if value in ("off", "0", "false", "no"):
        return False
    raise ValueError(text)


#: option type -> (text parser, what a malformed value "is not")
_TYPES: dict[type, tuple[Callable[[str], Any], str]] = {
    int: (int, "an integer"),
    float: (float, "a number"),
    bool: (_on_off, "on/off"),
    str: (str, "text"),
}

#: range rule -> (predicate, how the error message ends)
_RULES: dict[str, tuple[Callable[[Any], bool], str]] = {
    ">0": (lambda v: v > 0, "must be positive"),
    ">=0": (lambda v: v >= 0, "must be >= 0"),
    ">=1": (lambda v: v >= 1, "must be at least 1"),
    "x512": (lambda v: v > 0 and v % 512 == 0,
             "must be a positive multiple of 512"),
}


@dataclass(frozen=True)
class Option:
    """How one ``key=value`` option is parsed, checked and rendered."""

    kind: type                  #: int, float, bool or str
    rule: str = ""              #: key into ``_RULES``; "" = any value
    query: bool = False         #: rides in the ``?query`` (else ``#fragment``)
    arg: str = ""               #: store-constructor keyword (default: its name)
    words: tuple[str, str] = ("off", "on")  #: how a bool renders

    def parse(self, text: str, label: str) -> Any:
        convert, what = _TYPES[self.kind]
        try:
            return convert(text)
        except ValueError:
            raise SpecError(f"{label}={text!r} is not {what}") from None

    def render(self, value: Any) -> str:
        return self.words[value] if self.kind is bool else str(value)

    def check(self, value: Any, label: str) -> None:
        """Reject what would not survive ``parse(render(value))`` — a
        non-finite float (``nan != nan``), a string holding a character
        the option grammar reserves — or breaks the range rule."""
        if self.kind is float and not math.isfinite(value):
            raise SpecError(f"{label}={value} must be a finite number")
        if self.kind is str and set(value) & set("&#"):
            raise SpecError(
                f"{label}={value!r} cannot contain '&' or '#' (the URI "
                "would re-parse to a different spec)"
            )
        if self.rule:
            holds, tail = _RULES[self.rule]
            if not holds(value):
                raise SpecError(f"{label}={value} {tail}")


def opt(kind: type, rule: str = "", **how: Any) -> Any:
    """Declare an option field: ``ring: int | None = opt(int, ">0")``.
    Unset is ``None``; ``how`` are the remaining :class:`Option` fields."""
    return field(default=None, metadata={"option": Option(kind, rule, **how)})


def _role(role: str, **kwargs: Any) -> Any:
    """A structural (non-option) field: the ``body`` text after
    ``scheme://``, the single ``child`` spec, or the ``children`` list."""
    return field(metadata={"role": role}, **kwargs)


@dataclass(frozen=True)
class _Shape:
    """What a spec class's fields declare, derived once (:func:`_shape`)."""

    options: dict[str, Option]  #: option fields, declaration order
    names: frozenset[str]       #: every option name any form accepts
    query: frozenset[str]       #: the subset that rides in the ?query
    fragment: frozenset[str]    #: the subset that rides in the #fragment
    body: str                   #: name of the body-text field, or ""
    child: str                  #: name of the single-child field, or ""
    children: str               #: name of the child-list field, or ""


@cache
def _shape(cls: type[StoreSpec]) -> _Shape:
    if "__dataclass_fields__" not in vars(cls):
        raise TypeError(f"{cls.__name__} must be decorated with @dataclass")
    options = {f.name: f.metadata["option"] for f in fields(cls)
               if "option" in f.metadata}
    roles = {f.metadata["role"]: f.name for f in fields(cls)
             if "role" in f.metadata}
    every = {**cls.form_options, **options}
    return _Shape(
        options=options,
        names=frozenset(every),
        query=frozenset(n for n, o in every.items() if o.query),
        fragment=frozenset(n for n, o in options.items() if not o.query),
        body=roles.get("body", ""),
        child=roles.get("child", ""),
        children=roles.get("children", ""),
    )


# ---------------------------------------------------------------------------
# URI plumbing shared by every scheme
# ---------------------------------------------------------------------------

#: scheme -> spec class; filled by ``StoreSpec.__init_subclass__``.
SPEC_TYPES: dict[str, type["StoreSpec"]] = {}


def _suggest_option(name: str, scheme: str) -> str:
    """A ``did you mean`` hint for a misspelled option, searched first in
    ``scheme``'s own options and then across every scheme's."""
    own = _shape(SPEC_TYPES[scheme]).names if scheme in SPEC_TYPES else ()
    close = difflib.get_close_matches(name, sorted(own), n=1)
    if close:
        return f"; did you mean '{close[0]}'?"
    pool = {
        option: owner
        for owner, spec_cls in SPEC_TYPES.items()
        for option in _shape(spec_cls).names
    }
    close = difflib.get_close_matches(name, sorted(pool), n=1)
    if close:
        return f"; did you mean '{close[0]}' (a {pool[close[0]]}:// option)?"
    return ""


def _parse_pairs(text: str, scheme: str, where: str) -> dict[str, str]:
    """Parse ``key=value&key=value`` strictly (no silent drops)."""
    options: dict[str, str] = {}
    for chunk in text.split("&"):
        if not chunk:
            continue
        key, sep, value = chunk.partition("=")
        if not sep or not key:
            raise SpecError(
                f"{scheme}:// {where} option {chunk!r} is not 'key=value'"
            )
        options[key] = value
    return options


def _split_query(
    rest: str, scheme: str, known: frozenset[str]
) -> tuple[str, dict[str, str]]:
    """``body?query`` with strict option validation."""
    body, sep, query = rest.partition("?")
    options = _parse_pairs(query, scheme, "query") if sep else {}
    for name in options:
        if name not in known:
            raise SpecError(
                f"unknown {scheme}:// query option {name!r}"
                f"{_suggest_option(name, scheme)} "
                f"(known: {', '.join(sorted(known)) or 'none'})"
            )
    return body, options


def _peel_fragment(
    rest: str, scheme: str, shape: _Shape
) -> tuple[str, dict[str, str]]:
    """Peel a trailing ``#key=value&...`` fragment off a URI.

    A fragment made exclusively of this scheme's fragment options
    belongs to this layer and is consumed; a fragment sharing *no* keys
    with them passes through intact (it belongs to the child URI, whose
    own parser will validate it); a mix is ambiguous and raises, naming
    the stray keys.
    """
    known = shape.fragment
    body, sep, fragment = rest.rpartition("#")
    options = _parse_pairs(fragment, scheme, "fragment") if sep else {}
    names = set(options)
    if names and names <= known:
        return body, options
    if names & known:
        stray = sorted(names - known)
        hints = "".join(
            # A query option of this same scheme isn't a typo — it's in
            # the wrong half of the URI; don't suggest it to itself.
            f"; {name!r} belongs in the ?query, not the #fragment"
            if name in shape.names else _suggest_option(name, scheme)
            for name in stray
        )
        raise SpecError(
            f"{scheme}:// fragment mixes its own options with unknown "
            f"{', '.join(repr(s) for s in stray)}{hints} "
            f"(known: {', '.join(sorted(known))})"
        )
    return rest, {}  # belongs to the child URI


def _no_fragment(rest: str, scheme: str, shape: _Shape) -> str:
    """A leaf's body carries no (further) fragment: reject one with the
    most useful hint, so a typo'd overlay option that slid down to the
    child is still caught (``slow://mem://#mss=8`` names ``#ms=``) and
    a ``?query`` option is sent back to its half."""
    body, sep, fragment = rest.rpartition("#")
    options = _parse_pairs(fragment, scheme, "fragment") if sep else {}
    if not options:
        return body if sep else rest
    name = sorted(options)[0]
    takes = ", ".join(sorted(shape.fragment))
    if name in shape.query:
        raise SpecError(
            f"{scheme}:// option {name!r} belongs in the ?query, not the "
            f"#fragment (write {scheme}://...?{name}=...)"
            + (f"; the #fragment carries: {takes}" if takes else "")
        )
    if takes:
        raise SpecError(
            f"unknown {scheme}:// fragment option {name!r}"
            f"{_suggest_option(name, scheme)} (fragment options: {takes})"
        )
    raise SpecError(
        f"{scheme}:// takes no #fragment options (got {name!r})"
        f"{_suggest_option(name, scheme)}"
    )


def split_uri(uri: str) -> tuple[str, str]:
    """Split ``scheme://rest`` (SpecError if malformed)."""
    scheme, sep, rest = uri.partition("://")
    if not sep or not scheme:
        raise SpecError(
            f"backend URI {uri!r} must look like '<scheme>://...'"
        )
    return scheme, rest


# ---------------------------------------------------------------------------
# The base class: everything derived lives here
# ---------------------------------------------------------------------------


@dataclass
class StoreSpec:
    """A typed, comparable description of one store layer.

    Subclass it (``@dataclass``, a ``scheme``, :func:`opt` fields, a
    ``build``) and the scheme is registered, parsed, rendered, validated
    and listed; see the module docstring.
    """

    #: URI scheme this spec (de)serializes as; setting it registers.
    scheme: ClassVar[str] = ""
    #: ``(example URI, one-line meaning)`` rows for ``discfs backends``
    #: and the README table.
    examples: ClassVar[tuple[tuple[str, str], ...]] = ()
    #: Options a grammar form accepts that are not fields (the count
    #: form of ``replica://`` expands them into children).
    form_options: ClassVar[dict[str, Option]] = {}

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if "scheme" in vars(cls):
            SPEC_TYPES[cls.scheme] = cls

    # -- structure -----------------------------------------------------------

    def children(self) -> list[StoreSpec]:
        """Child specs, outermost first (empty for leaves)."""
        shape = _shape(type(self))
        if shape.child:
            return [getattr(self, shape.child)]
        return list(getattr(self, shape.children)) if shape.children else []

    def walk(self) -> Iterator[StoreSpec]:
        """This spec and every descendant, depth-first."""
        yield self
        for child in self.children():
            yield from child.walk()

    # -- validation ----------------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`SpecError` on a value that is out of range, that
        breaks a cross-field rule, or that would render a URI which does
        not re-parse to this spec; recursive."""
        self._check_own()
        self._check()
        for child in self.children():
            child.validate()

    def _check_own(self) -> None:
        shape = _shape(type(self))
        if shape.body and set(getattr(self, shape.body)) & set("?#"):
            raise SpecError(
                f"{self.scheme}:// {shape.body} "
                f"{getattr(self, shape.body)!r} cannot contain '?' or '#' "
                "(the URI would re-parse to a different spec)"
            )
        for name, option in shape.options.items():
            value = getattr(self, name)
            if value is not None:
                option.check(value, f"{self.scheme}:// option {name}")

    def _check(self) -> None:
        """Rules relating several fields; hand-written per scheme."""

    # -- rendering -----------------------------------------------------------

    def _body(self) -> str:
        """The text between ``scheme://`` and the options."""
        shape = _shape(type(self))
        if shape.child:
            return str(getattr(self, shape.child).to_uri())
        return str(getattr(self, shape.body)) if shape.body else ""

    def to_uri(self) -> str:
        """Render the canonical URI; inverse of :func:`parse_spec`."""
        self._check_own()
        shape = _shape(type(self))
        body = self._body()
        halves: dict[bool, list[str]] = {True: [], False: []}
        for name, option in shape.options.items():
            value = getattr(self, name)
            if value is not None:
                halves[option.query].append(f"{name}={option.render(value)}")
        uri = f"{self.scheme}://{body}"
        if halves[True]:
            uri += "?" + "&".join(halves[True])
        if halves[False]:
            return uri + "#" + "&".join(halves[False])
        # No fragment of our own: a child's trailing fragment must not
        # re-parse as this layer's.
        _head, sep, trailing = body.rpartition("#")
        if sep and shape.names & set(
                _parse_pairs(trailing, self.scheme, "fragment")):
            raise SpecError(
                f"{self.scheme}:// with no options of its own cannot "
                f"be rendered over a child ending in #{trailing!r} "
                "(the fragment would re-parse as this layer's; pass "
                "the spec object instead)"
            )
        return uri

    # -- parsing -------------------------------------------------------------

    @classmethod
    def parse(cls, rest: str) -> StoreSpec:
        """Parse everything after ``scheme://``: ``<child-uri>#fragment``
        for a single-child scheme, ``<body>?query#fragment`` for a leaf."""
        shape = _shape(cls)
        rest, options = _peel_fragment(rest, cls.scheme, shape)
        if shape.child:
            if not rest:
                raise SpecError(
                    f"{cls.scheme}:// needs a child URI, "
                    f"e.g. {cls.scheme}://mem://"
                )
            return cls._made({shape.child: parse_spec(rest)}, options)
        rest = _no_fragment(rest, cls.scheme, shape)
        body, query = _split_query(rest, cls.scheme, shape.query)
        return cls._made(cls._parse_body(body), {**query, **options})

    @classmethod
    def _parse_body(cls, body: str) -> dict[str, Any]:
        """A leaf's body text as constructor arguments."""
        name = _shape(cls).body
        if name:
            return {name: body}
        if body:
            raise SpecError(f"{cls.scheme}:// takes no path (got {body!r})")
        return {}

    @classmethod
    def _made(cls, parts: dict[str, Any], options: dict[str, str]) -> StoreSpec:
        """Construct from structural ``parts`` plus option *text*, typed
        by the option table; validated."""
        table = _shape(cls).options
        typed = {
            name: table[name].parse(text, f"{cls.scheme}:// option {name}")
            for name, text in options.items() if name in table
        }
        spec = cls(**parts, **typed)
        spec.validate()
        return spec

    # -- building ------------------------------------------------------------

    def build(self, num_blocks: int, block_size: int) -> BlockStore:
        """Open the live store this spec describes.  ``num_blocks`` /
        ``block_size`` are the mount-time geometry defaults."""
        raise NotImplementedError

    def _store_args(self, **defaults: Any) -> dict[str, Any]:
        """The options that are set, keyed by store-constructor keyword,
        over ``defaults`` for the ones that are not."""
        return defaults | {
            option.arg or name: getattr(self, name)
            for name, option in _shape(type(self)).options.items()
            if getattr(self, name) is not None
        }

    def _over_children(
        self,
        make: Callable[[list[BlockStore]], BlockStore],
        num_blocks: int,
        block_size: int,
    ) -> BlockStore:
        """Build every child and hand the live stores to ``make``.  Until
        ``make`` returns nobody else holds them, so if a later child or
        ``make`` itself raises, the ones already built are closed."""
        from repro.storage.base import close_quietly

        built: list[BlockStore] = []
        try:
            for child in self.children():
                built.append(child.build(num_blocks, block_size))
            return make(built)
        except Exception:
            close_quietly(built)
            raise


SpecLike = Union[StoreSpec, str]


def known_schemes() -> tuple[str, ...]:
    """Every scheme :func:`parse_spec` resolves to a typed spec."""
    return tuple(sorted(SPEC_TYPES))


def parse_spec(uri: SpecLike) -> StoreSpec:
    """Parse a backend URI into its typed :class:`StoreSpec`.

    A spec passed in is validated and returned as-is, so every API that
    takes a URI string transparently takes specs too.
    """
    if isinstance(uri, StoreSpec):
        uri.validate()
        return uri
    scheme, rest = split_uri(uri)
    spec_cls = SPEC_TYPES.get(scheme)
    if spec_cls is None:
        close = difflib.get_close_matches(scheme, known_schemes(), n=1)
        hint = f"did you mean {close[0]!r}? " if close else ""
        raise SpecError(
            f"unknown storage scheme {scheme!r}; {hint}"
            f"registered: {', '.join(known_schemes())}"
        )
    return spec_cls.parse(rest)


def backend_rows() -> list[tuple[str, str, str]]:
    """``(scheme, example URI, meaning)`` for every registered scheme, in
    declaration order — what ``discfs backends`` prints and the README
    "Storage backends" table holds."""
    return [
        (scheme, uri, meaning)
        for scheme, spec_cls in SPEC_TYPES.items()
        for uri, meaning in spec_cls.examples
    ]


# ---------------------------------------------------------------------------
# Leaves
# ---------------------------------------------------------------------------


@dataclass
class _GeometrySpec(StoreSpec):
    """Leaves that own their geometry: ``?blocks=N&bs=N`` override the
    mount-time defaults."""

    blocks: int | None = opt(int, ">0", query=True, arg="num_blocks")
    bs: int | None = opt(int, "x512", query=True, arg="block_size")


@dataclass
class MemSpec(_GeometrySpec):
    """``mem://`` — in-memory store."""

    scheme: ClassVar[str] = "mem"
    examples = (
        ("mem://", "In-memory dict (default; options `?blocks=N&bs=N`)"),
    )

    def build(self, num_blocks: int, block_size: int) -> BlockStore:
        from repro.storage.memory import MemoryBlockStore

        return MemoryBlockStore(**self._store_args(
            num_blocks=num_blocks, block_size=block_size))


@dataclass
class _PathSpec(StoreSpec):
    """Path-addressed leaves: the body is a host path."""

    path: str = _role("body", default="")

    def _check(self) -> None:
        if not self.path:
            raise SpecError(
                f"{self.scheme}:// needs a path, e.g. {self.examples[0][0]}"
            )


@dataclass
class FileSpec(_GeometrySpec, _PathSpec):
    """``file://<path>`` — one host file."""

    scheme: ClassVar[str] = "file"
    examples = (
        ("file:///path/fs.img", "One host file, sparse, survives restarts"),
    )

    def build(self, num_blocks: int, block_size: int) -> BlockStore:
        from repro.storage.filestore import FileBlockStore

        return FileBlockStore(self.path, **self._store_args(
            num_blocks=num_blocks, block_size=block_size))


#: Rights a ``remote://``/session mount may request.
_SESSION_RIGHTS = ("r", "rw", "admin")


def _split_endpoint(endpoint: str, complaint: str) -> dict[str, Any]:
    host, sep, port = endpoint.rpartition(":")
    if not sep or not host or not port.isdigit():
        raise SpecError(complaint)
    return {"host": host, "port": int(port)}


def _read_text(path: str, what: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InvalidArgument(
            f"remote:// cannot read {what} file {path!r}: {exc}"
        ) from exc


@dataclass
class RemoteSpec(StoreSpec):
    """``remote://<host>:<port>`` — client for a served block store.

    The ``?query`` tunes the transport; the ``#fragment`` authenticates
    the mount against a credential-gated server (``cred`` holds KeyNote
    credentials, ``key`` the private key that signs the session
    challenge).  Geometry comes from the server; the mount-time
    geometry stands in while the server is down.
    """

    scheme: ClassVar[str] = "remote"
    examples = (
        ("remote://host:9001",
         "RPC client for a `discfs store-serve` node "
         "(options `?timeout=S&batch=on|off&workers=N`)"),
        ("remote://host:9001#cred=FILE&key=FILE&tenant=NAME&rights=r|rw|admin",
         "Authenticated session against a `store-serve --policy` node"),
    )

    host: str = ""
    port: int = 0
    timeout: float | None = opt(float, ">0", query=True)
    batch: bool | None = opt(bool, query=True)
    workers: int | None = opt(int, ">=1", query=True)
    cred: str | None = opt(str)
    key: str | None = opt(str)
    tenant: str | None = opt(str)
    rights: str | None = opt(str)

    def _check(self) -> None:
        if not self.host or not 0 < self.port < 65536:
            raise SpecError(
                f"remote:// needs host:port (got {self.host!r}:{self.port}), "
                "e.g. remote://127.0.0.1:9001"
            )
        if self.cred is not None and self.key is None:
            raise SpecError(
                "remote:// option cred= needs key= (the private key that "
                "signs the session challenge)"
            )
        if self.key is None and (self.tenant is not None
                                 or self.rights is not None):
            raise SpecError(
                "remote:// options tenant=/rights= need key= "
                "(an authenticated session to apply to)"
            )
        if self.rights is not None and self.rights not in _SESSION_RIGHTS:
            raise SpecError(
                f"remote:// option rights={self.rights!r} must be one of "
                f"{', '.join(_SESSION_RIGHTS)}"
            )

    def _body(self) -> str:
        return f"{self.host}:{self.port}"

    @classmethod
    def _parse_body(cls, body: str) -> dict[str, Any]:
        return _split_endpoint(
            body,
            f"remote:// needs host:port (got {body!r}), "
            "e.g. remote://127.0.0.1:9001",
        )

    def build(self, num_blocks: int, block_size: int) -> BlockStore:
        from repro.crypto.keycodec import decode_key
        from repro.storage.net import RemoteBlockStore

        args = self._store_args()
        if self.key is not None:
            args["key"] = decode_key(_read_text(self.key, "key").strip())
            if not hasattr(args["key"], "sign"):
                raise InvalidArgument(
                    f"remote:// key file {self.key!r} holds a public key; "
                    "the session challenge needs the private half"
                )
        if self.cred is not None:
            args["credentials"] = [_read_text(args.pop("cred"), "credential")]
        return RemoteBlockStore.connect(self.host, self.port,
                                        num_blocks=num_blocks,
                                        block_size=block_size, **args)


# ---------------------------------------------------------------------------
# The multi-child composite
# ---------------------------------------------------------------------------

#: base=... values the count form expands children from -> file suffix.
_COUNT_BASES = {"mem": "", "file": "blk"}


@dataclass
class ReplicaSpec(StoreSpec):
    """``replica://`` — quorum replication over child stores.

    ``<n>[?base=mem|file&dir=PATH&blocks=N&bs=N]`` — *count* form:
    ``n`` children of one kind (``file`` ones are created as
    ``PATH/<scheme>-<i>.blk``), expanded to explicit
    children at parse time; the scheme's own options may ride in the
    query here.  ``<n>/<child-uri>`` — *template* form, ``{i}`` is the
    child index.  ``<uri>;<uri>;...`` — explicit list.  The last two
    carry the scheme's options in the ``#fragment``, since the children
    may use their own queries.
    """

    scheme: ClassVar[str] = "replica"
    examples = (
        ("replica://3?w=2&r=2",
         "3-way replication with write/read quorums"),
        ("replica://3/file:///d/r-{i}.img#w=2",
         "3 copies from a child template (`{i}` = replica index)"),
        ("replica://remote://h1:9001;remote://h2:9002#w=1&r=1",
         "Explicit replica URIs (`#fanout=1` = sequential fan-out)"),
        ("replica://...#hedge_ms=N",
         "Hedged reads: recruit one extra replica after `N` ms"),
        ("replica://...#stamps=P",
         "Persist version stamps to sidecar `P` (repair survives restart)"),
    )
    form_options = {
        "base": Option(str, query=True),
        "dir": Option(str, query=True),
        "blocks": Option(int, query=True),
        "bs": Option(int, query=True),
    }

    replicas: list[StoreSpec] = _role("children", default_factory=list)
    w: int | None = opt(int, arg="write_quorum")
    r: int | None = opt(int, arg="read_quorum")
    fanout: int | None = opt(int, ">=1")
    hedge_ms: float | None = opt(float, ">=0")
    stamps: str | None = opt(str, arg="stamps_path")

    def _check(self) -> None:
        from repro.storage.replica import Quorum

        if not self.replicas:
            raise SpecError("replica:// needs at least one child store")
        try:
            Quorum(len(self.replicas), self.w, self.r)
        except InvalidArgument as exc:
            raise SpecError(f"replica:// {exc}") from None

    def _body(self) -> str:
        """Semicolon-joined child URIs, rejecting shapes the flat list
        grammar cannot express (a nested multi-child composite would be
        re-split at the parent's semicolons)."""
        rendered = [child.to_uri() for child in self.children()]
        for uri in rendered:
            if ";" in uri:
                raise SpecError(
                    f"{self.scheme}:// cannot express child {uri!r} in a "
                    "semicolon list (nested multi-child composites have "
                    "no URI form; pass the spec object instead)"
                )
        return ";".join(rendered)

    @classmethod
    def parse(cls, rest: str) -> StoreSpec:
        shape = _shape(cls)
        body, options = _peel_fragment(rest, cls.scheme, shape)
        template = re.match(r"^(\d+)/(.+://.*)$", body)
        if template:
            children = [
                parse_spec(template.group(2).replace("{i}", str(i)))
                for i in range(cls._count(template.group(1), rest))
            ]
        elif "://" in body:
            children = [parse_spec(uri) for uri in body.split(";") if uri]
        else:
            count, query = _split_query(body, cls.scheme, shape.names)
            options = {**query, **options}
            children = cls._count_children(cls._count(count, rest), options)
        return cls._made({shape.children: children}, options)

    @classmethod
    def _count(cls, text: str, rest: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise SpecError(
                f"{cls.scheme}:// needs a count or child URIs (got {rest!r})"
            ) from None
        if n <= 0:
            raise SpecError(f"{cls.scheme}:// count must be positive (got {n})")
        return n

    @classmethod
    def _count_children(cls, n: int, options: dict[str, str]) -> list[StoreSpec]:
        scheme = cls.scheme
        base = options.get("base", "mem")
        if base not in _COUNT_BASES:
            close = difflib.get_close_matches(base, _COUNT_BASES, n=1)
            hint = f"; did you mean {close[0]!r}?" if close else ""
            raise SpecError(
                f"unknown {scheme}:// base {base!r}{hint} "
                f"(known: {', '.join(_COUNT_BASES)})"
            )
        if base != "mem" and not options.get("dir"):
            raise SpecError(
                f"{scheme}://{n}?base={base} needs &dir=PATH for child files"
            )
        geometry = {name: options[name] for name in ("blocks", "bs")
                    if name in options}
        return [
            SPEC_TYPES[base]._made(
                {} if base == "mem" else {"path": os.path.join(
                    options["dir"], f"{scheme}-{i}.{_COUNT_BASES[base]}")},
                geometry,
            )
            for i in range(n)
        ]

    def build(self, num_blocks: int, block_size: int) -> BlockStore:
        from repro.storage.replica import ReplicatedBlockStore

        return self._over_children(
            lambda built: ReplicatedBlockStore(built, **self._store_args()),
            num_blocks, block_size,
        )


# ---------------------------------------------------------------------------
# Single-child overlays
# ---------------------------------------------------------------------------


@dataclass
class _WrapperSpec(StoreSpec):
    """Single-child overlay schemes: ``<scheme>://<child-uri>#options``
    (options ride in the fragment so they never collide with the
    child's own query)."""

    child: StoreSpec = _role("child")

    def _wrap(self, store_cls: Callable[..., BlockStore], num_blocks: int,
              block_size: int, **defaults: Any) -> BlockStore:
        """``store_cls(child_store, **options)`` over the built child."""
        args = self._store_args(**defaults)
        return self._over_children(
            lambda built: store_cls(built[0], **args), num_blocks, block_size
        )


@dataclass
class CachedSpec(_WrapperSpec):
    """``cached://<child>[#capacity=N]`` — write-back LRU overlay."""

    scheme: ClassVar[str] = "cached"
    examples = (
        ("cached://<child>#capacity=512",
         "Write-back LRU overlay on any child"),
    )

    capacity: int | None = opt(int, ">0")

    def build(self, num_blocks: int, block_size: int) -> BlockStore:
        from repro.storage.cache import CachedBlockStore

        return self._wrap(CachedBlockStore, num_blocks, block_size)


@dataclass
class MeteredSpec(_WrapperSpec):
    """``metered://<child>[#slow_ms=F&ring=N]`` — latency instrumentation.

    ``slow_ms`` sets the slow-op threshold (flagged on spans, counted in
    ``slow_ops``); ``ring`` resizes the process-wide trace ring buffer.
    """

    scheme: ClassVar[str] = "metered"
    examples = (
        ("metered://<child>[#slow_ms=N&ring=N]",
         "Per-op latency histograms + span origination on any child"),
    )

    slow_ms: float | None = opt(float, ">=0")
    ring: int | None = opt(int, ">0")

    def build(self, num_blocks: int, block_size: int) -> BlockStore:
        from repro.storage.metered import InstrumentedBlockStore

        return self._wrap(InstrumentedBlockStore, num_blocks, block_size)


@dataclass
class FailingSpec(_WrapperSpec):
    """``failing://<child>[#fail=1]`` — injectable outage wrapper."""

    scheme: ClassVar[str] = "failing"
    examples = (
        ("failing://<child>[#fail=1]",
         "Switchable fault injection (failure drills)"),
    )

    fail: bool | None = opt(bool, arg="failing", words=("0", "1"))

    def build(self, num_blocks: int, block_size: int) -> BlockStore:
        from repro.storage.replica import FailingBlockStore

        return self._wrap(FailingBlockStore, num_blocks, block_size)


@dataclass
class JournalSpec(_WrapperSpec):
    """``journal://<child>[#cap=N&path=P]`` — write-ahead intent log.

    The log lives at ``<child-path>.journal`` when the child is
    path-addressed, else pass ``#path=``; ``cap`` bounds the
    transactions held before an automatic checkpoint.
    """

    scheme: ClassVar[str] = "journal"
    examples = (
        ("journal://<child>[#cap=N&path=P]",
         "Write-ahead journal: crash recovery for any durable child"),
    )

    cap: int | None = opt(int, ">0")
    path: str | None = opt(str, arg="journal_path")

    def build(self, num_blocks: int, block_size: int) -> BlockStore:
        from repro.storage.journal import JournalBlockStore

        log = self.path
        if not log:
            child = self.child
            if not isinstance(child, _PathSpec):
                raise InvalidArgument(
                    f"journal:// cannot derive a log path for a "
                    f"{child.scheme}:// child; pass an explicit "
                    "#path=/path/to.journal"
                )
            log = child.path + ".journal"
        return self._wrap(JournalBlockStore, num_blocks, block_size,
                          journal_path=log)


@dataclass
class SlowSpec(_WrapperSpec):
    """``slow://<child>[#ms=N]`` — injectable per-operation delay."""

    scheme: ClassVar[str] = "slow"
    examples = (
        ("slow://<child>[#ms=N]",
         "Injectable per-operation delay (straggler drills)"),
    )

    ms: float | None = opt(float, ">=0", arg="delay_ms")

    def build(self, num_blocks: int, block_size: int) -> BlockStore:
        from repro.storage.replica import DelayedBlockStore

        return self._wrap(DelayedBlockStore, num_blocks, block_size)


@dataclass
class TenantSpec(_WrapperSpec):
    """``tenant://<child>#name=N[&...]`` — a named, quota/rate-limited
    window onto a region of the child.

    ``offset``/``blocks`` carve the region (defaults: 0 / the rest of
    the child); ``quota`` caps distinct blocks written, ``bytes`` the
    cumulative write budget, ``rate`` ops/second with burst ``burst``.
    """

    scheme: ClassVar[str] = "tenant"
    examples = (
        ("tenant://<child>#name=N[&offset=&blocks=&quota=&bytes=&rate=&burst=]",
         "Named, quota/rate-limited window onto a region of the child"),
    )

    name: str | None = opt(str)
    offset: int | None = opt(int, ">=0")
    blocks: int | None = opt(int, ">0", arg="num_blocks")
    quota: int | None = opt(int, ">0", arg="quota_blocks")
    bytes: int | None = opt(int, ">0", arg="quota_bytes")
    rate: float | None = opt(float, ">0", arg="rate_ops")
    burst: float | None = opt(float, ">0")

    def _check(self) -> None:
        if not self.name:
            raise SpecError(
                "tenant:// needs #name=..., e.g. tenant://mem://#name=alice"
            )
        if self.burst is not None and self.rate is None:
            raise SpecError("tenant:// option burst= needs rate=")

    def build(self, num_blocks: int, block_size: int) -> BlockStore:
        from repro.storage.tenant import TenantBlockStore

        return self._wrap(TenantBlockStore, num_blocks, block_size)


# ---------------------------------------------------------------------------
# Builder API: the programmatic spelling of each scheme, derived
# ---------------------------------------------------------------------------

_S = TypeVar("_S", bound=StoreSpec)


def _builder(cls: type[_S]) -> Callable[..., _S]:
    """``scheme(...)``: the spec class's own constructor signature, except
    that a multi-child scheme takes its children positionally, child
    arguments may be URI strings, and the result is validated."""
    shape = _shape(cls)

    def make(*args: Any, **options: Any) -> _S:
        if shape.children:
            options[shape.children] = [parse_spec(child) for child in args]
            args = ()
        spec = cls(*args, **options)
        if shape.child:
            setattr(spec, shape.child, parse_spec(getattr(spec, shape.child)))
        spec.validate()
        return spec

    make.__name__ = make.__qualname__ = cls.scheme
    make.__doc__ = cls.__doc__
    return make


mem = _builder(MemSpec)
file = _builder(FileSpec)
replica = _builder(ReplicaSpec)
cached = _builder(CachedSpec)
metered = _builder(MeteredSpec)
failing = _builder(FailingSpec)
journal = _builder(JournalSpec)
slow = _builder(SlowSpec)
tenant = _builder(TenantSpec)


def remote(endpoint: str, **options: Any) -> RemoteSpec:
    """Remote node spec from an ``"host:port"`` endpoint; keywords name
    :class:`RemoteSpec` options."""
    spec = RemoteSpec(
        **_split_endpoint(endpoint,
                          f"remote() needs 'host:port' (got {endpoint!r})"),
        **options,
    )
    spec.validate()
    return spec
