"""Unit tests for the block device FFS runs on (``open_device``)."""

import ast
from pathlib import Path

import pytest

import repro.storage
from repro.errors import InvalidArgument, NoSpace
from repro.storage import open_device


def mem_device(num_blocks, block_size):
    return open_device("mem://", num_blocks=num_blocks, block_size=block_size)


class TestMemoryDevice:
    def test_unwritten_blocks_read_zero(self):
        dev = mem_device(8, 512)
        assert dev.read_block(3) == bytes(512)

    def test_write_read_roundtrip(self):
        dev = mem_device(8, 512)
        dev.write_block(2, b"hello")
        data = dev.read_block(2)
        assert data.startswith(b"hello")
        assert len(data) == 512

    def test_short_writes_zero_padded(self):
        dev = mem_device(4, 512)
        dev.write_block(0, b"x")
        assert dev.read_block(0) == b"x" + bytes(511)

    def test_oversized_write_rejected(self):
        dev = mem_device(4, 512)
        with pytest.raises(InvalidArgument):
            dev.write_block(0, b"y" * 513)
        with pytest.raises(InvalidArgument):
            dev.write_blocks([(1, b"ok"), (2, b"y" * 513)])
        assert dev.stats.writes == 0  # a refused write is not counted

    def test_out_of_range_rejected(self):
        dev = mem_device(4, 512)
        with pytest.raises(NoSpace):
            dev.read_block(4)
        with pytest.raises(NoSpace):
            dev.write_block(-1, b"")
        with pytest.raises(NoSpace):
            dev.read_blocks([0, 4])
        assert (dev.stats.reads, dev.stats.writes) == (0, 0)

    def test_constructor_validation(self):
        with pytest.raises(InvalidArgument):
            mem_device(0, 8192)
        with pytest.raises(InvalidArgument):
            mem_device(4, 100)  # not 512-multiple

    def test_geometry_comes_from_the_store(self):
        dev = mem_device(16, 1024)
        assert (dev.num_blocks, dev.block_size) == (16, 1024)
        assert dev.store.capacity_bytes == 16384

    def test_used_blocks(self):
        dev = mem_device(16, 512)
        assert dev.store.used_blocks() == 0
        dev.write_block(1, b"a")
        dev.write_block(2, b"b")
        dev.write_block(1, b"c")
        assert dev.store.used_blocks() == 2


class TestStats:
    def test_counters(self):
        dev = mem_device(16, 512)
        dev.write_block(0, b"a")
        dev.read_block(0)
        dev.read_block(0)
        assert dev.stats.writes == 1
        assert dev.stats.reads == 2
        assert dev.stats.bytes_written == 512
        assert dev.stats.bytes_read == 1024

    def test_vectored_ops_count_per_block(self):
        dev = mem_device(16, 512)
        dev.write_blocks([(3, b"a"), (4, b"b"), (5, b"c")])
        assert dev.read_blocks([3, 4, 5])[1].startswith(b"b")
        assert (dev.stats.writes, dev.stats.reads) == (3, 3)
        assert dev.stats.bytes_read == 3 * 512
        # The store saw one vectored call each way, with the same blocks.
        assert (dev.store.stats.writes, dev.store.stats.reads) == (3, 3)

    def test_seek_detection(self):
        dev = mem_device(16, 512)
        for b in (0, 1, 2):  # fully sequential from the start position
            dev.write_block(b, b"x")
        assert dev.stats.seeks == 0
        dev.write_block(9, b"x")  # jump
        assert dev.stats.seeks == 1
        dev.write_block(10, b"x")  # sequential again
        assert dev.stats.seeks == 1

    def test_reset(self):
        dev = mem_device(4, 512)
        dev.write_block(0, b"a")
        dev.stats.reset()
        assert dev.stats.writes == 0
        assert dev.stats.bytes_written == 0


class TestFileDevice:
    def test_roundtrip_and_persistence(self, tmp_path):
        uri = f"file://{tmp_path / 'disk.img'}"
        with open_device(uri, num_blocks=8, block_size=512) as dev:
            dev.write_block(5, b"persist me")
        with open_device(uri, num_blocks=8, block_size=512) as dev:
            assert dev.read_block(5).startswith(b"persist me")

    def test_unwritten_reads_zero(self, tmp_path):
        with open_device(f"file://{tmp_path / 'd.img'}", num_blocks=8,
                         block_size=512) as dev:
            assert dev.read_block(7) == bytes(512)


def test_storage_never_imports_fs():
    """``storage`` is the layer below ``fs``: FFS imports it, never the
    reverse (checked on the source, lazy imports included)."""
    offenders = []
    for path in sorted(Path(repro.storage.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} {module}"
                          for module in modules
                          if module == "repro.fs" or module.startswith("repro.fs.")]
    assert offenders == []
