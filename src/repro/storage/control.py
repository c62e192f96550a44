"""The store control plane: inspect mounted topologies.

The data plane (``read``/``write``/``read_many``/``write_many``) moves
blocks; this module is the *admin* surface over it, in the spirit of the
directory/authentication split the distributed accumulator literature
argues for — an explicit, inspectable description of the topology,
separate from the bytes.  :func:`describe` walks a live store stack
into a :class:`SpecTree`: per-node scheme, description,
:class:`~repro.storage.base.Capabilities` and
:class:`~repro.storage.base.StoreStats` snapshot (plus the served node's
own stats for ``remote://`` children).  ``discfs store-inspect`` renders
it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.storage.base import BlockStore, Capabilities, StoreStats


@dataclass
class SpecTree:
    """One node of a live topology dump (see :func:`describe`)."""

    scheme: str
    description: str
    capabilities: Capabilities
    stats: StoreStats
    children: list["SpecTree"] = field(default_factory=list)
    #: The served store's own snapshot, for nodes that proxy a remote
    #: one (None elsewhere).
    remote: StoreStats | None = None

    def walk(self):
        """This node and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict:
        node = {
            "scheme": self.scheme,
            "description": self.description,
            "capabilities": {
                "thread_safe": self.capabilities.thread_safe,
                "durable": self.capabilities.durable,
                "networked": self.capabilities.networked,
                "composite": self.capabilities.composite,
            },
            "stats": self.stats.to_dict(),
            "children": [child.to_dict() for child in self.children],
        }
        if self.remote is not None:
            node["remote"] = self.remote.to_dict()
        return node

    def render(self, indent: int = 0) -> str:
        """Human tree rendering (what ``discfs store-inspect`` prints)."""
        pad = "  " * indent
        lines = [
            f"{pad}{self.description}",
            f"{pad}  caps: {self.capabilities.flags()}   "
            f"io: {self.stats.reads}r/{self.stats.writes}w "
            f"{self.stats.fsyncs}fsync",
        ]
        interesting = {
            name: value for name, value in self.stats.extra.items() if value
        }
        if interesting:
            rendered = ", ".join(
                f"{name}={value:g}" for name, value in
                sorted(interesting.items())
            )
            lines.append(f"{pad}  {rendered}")
        if self.remote is not None:
            lines.append(
                f"{pad}  served: {self.remote.reads}r/"
                f"{self.remote.writes}w [{self.remote.description}]"
            )
        for child in self.children:
            lines.append(child.render(indent + 1))
        return "\n".join(lines)


def describe(store: BlockStore) -> SpecTree:
    """Live topology of a mounted store stack, one node per layer.

    Every node carries the layer's scheme, ``describe()`` line, typed
    capabilities and a stats snapshot; ``remote://`` nodes additionally
    fetch the *served* store's snapshot so a cluster dump shows each
    node's authoritative counters, not just the client's view.
    """
    try:
        remote = store.remote_stats()
    except Exception:
        remote = None  # a dead node still renders locally
    return SpecTree(
        scheme=store.scheme,
        description=store.describe(),
        capabilities=store.capabilities(),
        stats=store.snapshot(),
        children=[describe(child) for child in store.child_stores()],
        remote=remote,
    )


def iter_stores(store: BlockStore):
    """Every store in the mounted stack, depth-first, each once."""
    yield store
    for child in store.child_stores():
        yield from iter_stores(child)
