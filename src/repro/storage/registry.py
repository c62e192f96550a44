"""Backend resolution: ``open_store("file:///tmp/fs.img")`` and friends.

Nothing about any scheme is declared here.  A backend URI (or a spec
object — every entry point takes either) is parsed by
:func:`~repro.storage.spec.parse_spec` into the scheme's
:class:`~repro.storage.spec.StoreSpec`, and the spec builds its own
store: ``open_store(x)`` is ``parse_spec(x).build(...)``.  The schemes,
their options and grammar are listed by ``discfs backends`` (derived
from the spec classes by :func:`~repro.storage.spec.backend_rows`, as
is the README "Storage backends" table); unknown schemes and options
raise :class:`~repro.storage.spec.SpecError` with a did-you-mean hint.
"""

from __future__ import annotations

from repro.storage.adapter import StoreBlockDevice
from repro.storage.base import DEFAULT_BLOCK_SIZE, DEFAULT_NUM_BLOCKS, BlockStore
from repro.storage.spec import (
    SpecError,
    SpecLike,
    known_schemes,
    parse_spec,
    split_uri,
)

#: All URI schemes ``open_store`` currently resolves.
registered_schemes = known_schemes


def build(
    spec: SpecLike,
    *,
    num_blocks: int = DEFAULT_NUM_BLOCKS,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> BlockStore:
    """Build a live :class:`BlockStore` from a spec (or URI string).

    ``num_blocks``/``block_size`` are the mount-time geometry defaults;
    a leaf spec's own ``blocks``/``bs`` win where set.
    """
    return parse_spec(spec).build(num_blocks, block_size)


#: Resolve a backend URI (or spec) to a live :class:`BlockStore`.
open_store = build


def open_device(
    uri: SpecLike,
    *,
    num_blocks: int = DEFAULT_NUM_BLOCKS,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> StoreBlockDevice:
    """Resolve a backend URI (or spec) to the block device FFS runs on.

    The one place a URI becomes a device: ``FFS(uri)`` and every layer
    above it come through here.
    """
    spec = parse_spec(uri)
    try:
        canonical: str | None = spec.to_uri()
    except SpecError:
        canonical = None  # programmatic-only topology: no URI form
    store = build(spec, num_blocks=num_blocks, block_size=block_size)
    try:
        return StoreBlockDevice(store, uri=canonical)
    except Exception:
        store.close()
        raise


__all__ = [
    "DEFAULT_NUM_BLOCKS",
    "build",
    "open_device",
    "open_store",
    "registered_schemes",
    "split_uri",
]
