"""Property tests: FFS file data behaves like an ideal byte array.

A stateful model: a Python ``bytearray`` is the oracle; every FFS
write/truncate/read must agree with it, across arbitrary interleavings,
offsets and sizes (including holes and cross-block operations).
"""

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.fs.ffs import FFS
from repro.storage import open_device


@settings(max_examples=50)
@given(
    ops=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=40000),  # offset
            st.binary(min_size=1, max_size=9000),       # data
        ),
        min_size=1,
        max_size=12,
    )
)
def test_writes_match_oracle(ops):
    fs = FFS(open_device("mem://", num_blocks=4096))
    inode = fs.create(fs.root_ino, "f")
    oracle = bytearray()
    for offset, data in ops:
        if len(oracle) < offset:
            oracle.extend(bytes(offset - len(oracle)))
        oracle[offset : offset + len(data)] = data
        fs.write(inode.ino, offset, data)
    assert fs.read(inode.ino, 0, len(oracle) + 10) == bytes(oracle)
    assert inode.size == len(oracle)


@settings(max_examples=50)
@given(
    initial=st.binary(min_size=0, max_size=30000),
    new_size=st.integers(min_value=0, max_value=35000),
    tail=st.binary(min_size=1, max_size=2000),
)
def test_truncate_then_write_matches_oracle(initial, new_size, tail):
    fs = FFS(open_device("mem://", num_blocks=4096))
    inode = fs.create(fs.root_ino, "f")
    fs.write(inode.ino, 0, initial) if initial else None
    fs.truncate(inode.ino, new_size)

    oracle = bytearray(initial[:new_size])
    oracle.extend(bytes(new_size - len(oracle)))
    append_at = new_size
    fs.write(inode.ino, append_at, tail)
    oracle[append_at:append_at] = b""
    oracle.extend(bytes(append_at - len(oracle)))
    oracle[append_at : append_at + len(tail)] = tail

    assert fs.read(inode.ino, 0, len(oracle) + 1) == bytes(oracle)


class FFSDirectoryMachine(RuleBasedStateMachine):
    """Stateful test: directory operations against a dict model."""

    def __init__(self):
        super().__init__()
        self.fs = FFS(open_device("mem://", num_blocks=4096))
        self.model: dict[str, bytes] = {}

    names = st.sampled_from([f"f{i}" for i in range(8)])

    @rule(name=names, data=st.binary(max_size=500))
    def create_or_overwrite(self, name, data):
        self.fs.write_file("/" + name, data)
        self.model[name] = data

    @rule(name=names)
    def remove(self, name):
        from repro.errors import FileNotFound

        if name in self.model:
            self.fs.remove(self.fs.root_ino, name)
            del self.model[name]
        else:
            try:
                self.fs.remove(self.fs.root_ino, name)
                raise AssertionError("removed a file the model lacks")
            except FileNotFound:
                pass

    @rule(src=names, dst=names)
    def rename(self, src, dst):
        from repro.errors import FileNotFound

        if src in self.model:
            self.fs.rename(self.fs.root_ino, src, self.fs.root_ino, dst)
            data = self.model.pop(src)
            if src != dst:
                self.model[dst] = data
            else:
                self.model[src] = data
        else:
            try:
                self.fs.rename(self.fs.root_ino, src, self.fs.root_ino, dst)
                raise AssertionError("renamed a file the model lacks")
            except FileNotFound:
                pass

    @invariant()
    def directory_matches_model(self):
        listed = {n for n, _ in self.fs.readdir(self.fs.root_ino)} - {".", ".."}
        assert listed == set(self.model)

    @invariant()
    def contents_match_model(self):
        for name, data in self.model.items():
            assert self.fs.read_file("/" + name) == data


TestFFSDirectoryMachine = FFSDirectoryMachine.TestCase
TestFFSDirectoryMachine.settings = settings(
    max_examples=20, stateful_step_count=30, deadline=None
)
