"""Adding a storage backend touches exactly one file — this one.

ROADMAP direction 4's success condition: a scheme is *declared* once
(a ``StoreSpec`` subclass: options as fields, example rows, ``build``)
and everything else is *derived*.  The toy scheme below exists only in
this module; no registry table, CLI listing, README row or lint rule
knows about it, yet it registers, lists, parses (with typo
suggestions), renders, builds, composes under the existing overlays and
passes the conformance battery every built-in backend passes.

The spec class is created inside a module-scoped fixture and
unregistered afterwards, so the rest of the suite (which pins the set
of registered schemes) never sees it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import pytest
import test_storage_conformance as conformance

from repro.cli import main
from repro.storage import open_store, parse_spec, registered_schemes
from repro.storage.base import BlockStore
from repro.storage.spec import SPEC_TYPES, SpecError, StoreSpec, opt


class ToyBlockStore(BlockStore):
    """The 20-line store: a dict, optionally smaller than the mount."""

    scheme = "toy"
    thread_safe = True

    def __init__(self, num_blocks: int, block_size: int,
                 shelves: int | None = None, tag: str = "toy"):
        super().__init__(shelves or num_blocks, block_size)
        self.tag = tag
        self._blocks: dict[int, bytes] = {}

    def _get(self, block_no: int) -> bytes | None:
        return self._blocks.get(block_no)

    def _put(self, block_no: int, data: bytes) -> None:
        self._blocks[block_no] = data

    def used_blocks(self) -> int:
        return len(self._blocks)

    def used_block_numbers(self) -> list[int]:
        return sorted(self._blocks)


@pytest.fixture(scope="module", autouse=True)
def toy_spec():
    @dataclass
    class ToySpec(StoreSpec):
        """``toy://`` — a dict behind two options."""

        scheme: ClassVar[str] = "toy"
        examples = (("toy://?shelves=8&tag=demo", "A dict with 8 shelves"),)

        shelves: int | None = opt(int, ">0", query=True)
        tag: str | None = opt(str, query=True)

        def build(self, num_blocks: int, block_size: int) -> BlockStore:
            return ToyBlockStore(num_blocks, block_size, **self._store_args())

    yield ToySpec
    del SPEC_TYPES["toy"]
    assert "toy" not in registered_schemes()


def test_registered_and_listed(capsys):
    assert "toy" in registered_schemes()
    assert main(["backends"]) == 0
    assert "toy://?shelves=8&tag=demo  --  A dict with 8 shelves" \
        in capsys.readouterr().out


def test_parses_into_the_declared_fields(toy_spec):
    assert parse_spec("toy://?shelves=8&tag=demo") == toy_spec(shelves=8,
                                                               tag="demo")
    assert parse_spec("toy://") == toy_spec()


def test_typos_and_bad_values_are_named():
    with pytest.raises(SpecError, match="did you mean 'shelves'"):
        parse_spec("toy://?shelvs=8")
    with pytest.raises(SpecError, match=r"a toy:// option"):
        parse_spec("cached://mem://#shelvs=8")
    with pytest.raises(SpecError, match="toy:// option shelves=0 must be "
                                        "positive"):
        parse_spec("toy://?shelves=0")
    with pytest.raises(SpecError, match="not an integer"):
        parse_spec("toy://?shelves=many")
    with pytest.raises(SpecError, match=r"belongs in the \?query"):
        parse_spec("toy://#tag=x")
    with pytest.raises(SpecError, match="takes no path"):
        parse_spec("toy://somewhere")
    with pytest.raises(SpecError, match="did you mean 'toy'"):
        parse_spec("tyo://")


def test_round_trips_through_to_uri(toy_spec):
    for uri in ("toy://", "toy://?shelves=8", "toy://?shelves=8&tag=demo",
                "cached://toy://?tag=x#capacity=4",
                "replica://toy://?tag=a;toy://?tag=b#fanout=2"):
        assert parse_spec(uri).to_uri() == uri
        assert parse_spec(parse_spec(uri).to_uri()) == parse_spec(uri)
    with pytest.raises(SpecError, match="option tag="):
        toy_spec(tag="a&b").to_uri()


def test_builds_and_composes():
    with open_store("toy://?shelves=8&tag=demo", num_blocks=64,
                    block_size=512) as store:
        assert isinstance(store, ToyBlockStore)
        assert (store.num_blocks, store.tag) == (8, "demo")
    with open_store("cached://toy://?tag=under#capacity=4", num_blocks=64,
                    block_size=512) as store:
        store.write(3, b"through the cache")
        store.flush()
        assert store.child.tag == "under"
        assert store.child.read(3).startswith(b"through the cache")
        assert [leaf.scheme for leaf in store.leaf_stores()] == ["toy"]


class TestToyConformance(conformance.TestConformance):
    """The battery every built-in backend passes, unmodified."""

    @pytest.fixture(params=["toy://", "toy://?tag=t",
                            "journal://toy://#path={tmp}/toy.journal"])
    def store(self, request, tmp_path):
        uri = request.param.replace("{tmp}", str(tmp_path))
        with open_store(uri, num_blocks=conformance.BLOCKS,
                        block_size=conformance.BS) as store:
            yield store
