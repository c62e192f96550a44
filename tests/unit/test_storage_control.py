"""The store control plane: describe()/SpecTree, the uniform
snapshot/capabilities protocol, and block enumeration.
"""

from __future__ import annotations

import pytest

from repro.storage import (
    MemoryBlockStore,
    describe,
    iter_stores,
    open_store,
    serve_store,
)

BLOCKS = 512
BS = 512


# ---------------------------------------------------------------------------
# describe / snapshot / capabilities
# ---------------------------------------------------------------------------


class TestDescribe:
    def test_tree_mirrors_topology(self):
        store = open_store("cached://replica://2#capacity=8",
                           num_blocks=BLOCKS, block_size=BS)
        try:
            tree = describe(store)
            assert tree.scheme == "cached"
            assert [c.scheme for c in tree.children] == ["replica"]
            assert [c.scheme for c in tree.children[0].children] == \
                ["mem", "mem"]
        finally:
            store.close()

    def test_nodes_carry_stats_and_capabilities(self):
        store = open_store("cached://mem://#capacity=8",
                           num_blocks=BLOCKS, block_size=BS)
        try:
            store.write(1, b"x")
            store.read(1)
            tree = describe(store)
            assert tree.stats.reads == 1 and tree.stats.writes == 1
            assert tree.stats.extra["hits"] == 1
            assert tree.capabilities.composite
            assert not tree.capabilities.durable  # write-back overlay
            mem_node = tree.children[0]
            assert mem_node.capabilities.thread_safe
            assert not mem_node.capabilities.composite
        finally:
            store.close()

    def test_capability_derivation_across_layers(self, tmp_path):
        durable = open_store(f"replica://2?base=file&dir={tmp_path}",
                             num_blocks=BLOCKS, block_size=BS)
        mixed = open_store("replica://mem://;mem://",
                           num_blocks=BLOCKS, block_size=BS)
        try:
            assert durable.capabilities().durable
            assert not mixed.capabilities().durable
            assert not mixed.capabilities().networked
        finally:
            durable.close()
            mixed.close()

    def test_remote_node_reports_served_stats(self):
        backing = MemoryBlockStore(BLOCKS, BS)
        server = serve_store(backing)
        try:
            host, port = server.address
            store = open_store(f"remote://{host}:{port}")
            try:
                store.write(3, b"over the wire")
                assert store.capabilities().networked
                tree = describe(store)
                assert tree.remote is not None
                # The served node's own counter, not the client's.
                assert tree.remote.writes == backing.stats.writes == 1
                assert tree.remote.scheme == "mem"
            finally:
                store.close()
        finally:
            server.close()

    def test_render_and_to_dict(self):
        store = open_store("replica://mem://;mem://#w=2&r=1",
                           num_blocks=BLOCKS, block_size=BS)
        try:
            store.write(0, b"r")
            tree = describe(store)
            text = tree.render()
            assert "replica://2" in text and "caps:" in text
            as_dict = tree.to_dict()
            assert as_dict["scheme"] == "replica"
            assert len(as_dict["children"]) == 2
            assert as_dict["capabilities"]["composite"] is True
        finally:
            store.close()

    def test_iter_stores_walks_each_layer_once(self):
        store = open_store("journal://mem://#path=/dev/null&cap=4"
                           if False else "cached://replica://2#capacity=4",
                           num_blocks=BLOCKS, block_size=BS)
        try:
            schemes = [s.scheme for s in iter_stores(store)]
            assert schemes == ["cached", "replica", "mem", "mem"]
        finally:
            store.close()


class TestUsedBlockNumbers:
    @pytest.mark.parametrize("template", [
        "mem://",
        "file://{tmp}/u.img",
        "replica://3",
        "cached://mem://#capacity=4",
        "replica://3?w=2&r=2",
        "journal://file://{tmp}/uj.img",
        "failing://mem://",
        "slow://mem://#ms=0",
        "tenant://mem://#name=t",
        "metered://mem://",
        "replica://2?base=file&dir={tmp}/ur",
    ])
    def test_enumeration_matches_writes(self, template, tmp_path):
        uri = template.format(tmp=tmp_path)
        store = open_store(uri, num_blocks=BLOCKS, block_size=BS)
        try:
            written = {3, 7, 40, 41, 200}
            for block_no in written:
                store.write(block_no, b"owned")
            assert set(store.used_block_numbers()) >= written
            # enumeration agrees with the count where both are exact
            assert len(store.used_block_numbers()) == store.used_blocks()
        finally:
            store.close()

    def test_remote_enumeration_pages_over_rpc(self):
        backing = MemoryBlockStore(10000, BS)
        server = serve_store(backing)
        try:
            host, port = server.address
            store = open_store(f"remote://{host}:{port}")
            try:
                written = list(range(0, 9000, 2))
                for start in range(0, len(written), 512):
                    store.write_many([
                        (b, b"x") for b in written[start:start + 512]
                    ])
                assert store.used_block_numbers() == written
            finally:
                store.close()
        finally:
            server.close()
