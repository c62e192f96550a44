"""Filesystem metadata persistence.

``FFS`` keeps inode and allocation metadata in memory; file *data* and
directory blocks already live on the block device.  This module adds a
checkpoint mechanism so a filesystem on a durable backend (``file://``,
``journal://...``) survives process restarts:

* :func:`sync` serializes the inode table, allocator state and directory
  caches into blocks taken from the normal allocator, and records their
  list in the superblock (block 0) with a magic number and a checksum;
* :func:`load` rebuilds an :class:`~repro.fs.ffs.FFS` from a device that
  holds such a checkpoint.

The format is explicitly versioned.  Metadata persistence is
checkpoint-based: an unsynced crash loses *metadata* changes since the
last ``sync``.  ``sync`` itself is crash-safe — the new checkpoint is
fully written and flushed before the superblock points at it, and the
old checkpoint's blocks are not reused until then — so a crash at any
instant leaves one valid checkpoint on the device.  Block-level crash
recovery (no acknowledged write ever lost) is the storage layer's job:
mount the device on a ``journal://`` URI (:mod:`repro.storage.journal`).
"""

from __future__ import annotations

import hashlib
import struct
from typing import TYPE_CHECKING

from repro.errors import FSError, InvalidArgument
from repro.fs.ffs import FFS
from repro.fs.inode import FileType, Inode, InodeTable

if TYPE_CHECKING:
    from repro.storage.adapter import StoreBlockDevice

MAGIC = b"DisCFSv1"
_SUPER = struct.Struct(">8sII32s")  # magic, metadata length, block count, sha256
_U32 = struct.Struct(">I")
_INODE_FIXED = struct.Struct(">QBIIIQIQQddd")
# ino, type, mode, uid, gid, size, nlink, generation, parent, atime, mtime, ctime

_TYPE_CODE = {FileType.REGULAR: 0, FileType.DIRECTORY: 1, FileType.SYMLINK: 2}
_CODE_TYPE = {v: k for k, v in _TYPE_CODE.items()}


def _pack_str(text: str) -> bytes:
    raw = text.encode("utf-8")
    return _U32.pack(len(raw)) + raw


class _Reader:
    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def take(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise FSError("truncated filesystem metadata")
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return out

    def u32(self) -> int:
        return int(_U32.unpack(self.take(4))[0])

    def string(self) -> str:
        return self.take(self.u32()).decode("utf-8")


def _serialize(fs: FFS) -> bytes:
    out = bytearray()
    inodes = fs._inodes.all_inodes()
    out += _U32.pack(len(inodes))
    for inode in inodes:
        out += _INODE_FIXED.pack(
            inode.ino, _TYPE_CODE[inode.ftype], inode.mode, inode.uid,
            inode.gid, inode.size, inode.nlink, inode.generation,
            inode.parent_ino, inode.atime, inode.mtime, inode.ctime,
        )
        out += _pack_str(inode.link_target)
        out += _U32.pack(len(inode.blocks))
        for logical, physical in sorted(inode.blocks.items()):
            out += _U32.pack(logical) + _U32.pack(physical)
    # Allocator and table state.
    out += _U32.pack(fs.root_ino)
    out += _U32.pack(fs._next_block)
    out += _U32.pack(len(fs._free_blocks))
    for block in fs._free_blocks:
        out += _U32.pack(block)
    generations = fs._inodes._generations
    out += _U32.pack(len(generations))
    for ino, generation in sorted(generations.items()):
        out += _U32.pack(ino) + _U32.pack(generation)
    out += _U32.pack(fs._inodes._next)
    out += _U32.pack(len(fs._inodes._free))
    for ino in fs._inodes._free:
        out += _U32.pack(ino)
    return bytes(out)


def _deserialize(fs: FFS, data: bytes) -> None:
    reader = _Reader(data)
    table = fs._inodes
    table._table.clear()
    for _ in range(reader.u32()):
        (ino, code, mode, uid, gid, size, nlink, generation, parent,
         atime, mtime, ctime) = _INODE_FIXED.unpack(reader.take(_INODE_FIXED.size))
        inode = Inode(
            ino=ino, ftype=_CODE_TYPE[code], mode=mode, uid=uid, gid=gid,
            size=size, nlink=nlink, generation=generation, parent_ino=parent,
            atime=atime, mtime=mtime, ctime=ctime,
        )
        inode.link_target = reader.string()
        for _ in range(reader.u32()):
            logical = reader.u32()
            inode.blocks[logical] = reader.u32()
        table._table[ino] = inode
    fs.root_ino = reader.u32()
    fs._next_block = reader.u32()
    fs._free_blocks = [reader.u32() for _ in range(reader.u32())]
    generations: dict[int, int] = {}
    for _ in range(reader.u32()):
        ino = reader.u32()
        generations[ino] = reader.u32()
    table._generations = generations
    table._next = reader.u32()
    table._free = [reader.u32() for _ in range(reader.u32())]
    fs._dir_cache.clear()  # rebuilt lazily from directory blocks


def sync(fs: FFS) -> int:
    """Checkpoint ``fs`` metadata to its device; returns bytes written.

    The previous checkpoint's blocks are reclaimed *logically* first, so
    the serialized free list includes them (repeated syncs do not leak
    space), but they are kept out of this round's allocation: the old
    checkpoint must stay intact on disk until the new one is durable,
    or a crash mid-sync would corrupt the only checkpoint the device
    had.  The write order is two-phase — payload blocks, flush, then
    the superblock that points at them, flush — so at every instant the
    superblock references a fully-written checkpoint.
    """
    old_blocks = _release_old_checkpoint(fs)
    payload = _serialize(fs)
    block_size = fs.block_size
    blocks_needed = (len(payload) + block_size - 1) // block_size
    reserved = set(old_blocks)
    block_list: list[int] = []
    deferred: list[int] = []
    try:
        while len(block_list) < blocks_needed:
            block = fs._alloc_block()
            if block in reserved:
                deferred.append(block)  # old checkpoint: reuse next sync
            else:
                block_list.append(block)
    finally:
        # No allocation happens between here and the superblock write,
        # so returning the deferred blocks now keeps the free list whole
        # even if allocation ran out of space mid-loop.
        fs._free_blocks.extend(deferred)

    for i, block_no in enumerate(block_list):
        fs.device.write_block(block_no, payload[i * block_size : (i + 1) * block_size])
    # The payload must be durable before the superblock points at it —
    # this also pushes write-back layers (cached://) to their child: a
    # checkpoint that only reaches a cache is not a checkpoint.
    fs.device.flush()

    # Superblock: header + the checkpoint block list (must fit in block 0).
    listing = b"".join(_U32.pack(b) for b in block_list)
    header = _SUPER.pack(MAGIC, len(payload), len(block_list),
                         hashlib.sha256(payload).digest())
    if len(header) + len(listing) > block_size:
        raise FSError("metadata block list does not fit in the superblock")
    fs.device.write_block(0, header + listing)
    fs.device.flush()
    return len(payload)


def _release_old_checkpoint(fs: FFS) -> list[int]:
    """Return the old checkpoint's blocks to the allocator (skipping any
    already free — a failed sync may have released them once) and report
    them so :func:`sync` can defer their reuse past the commit point."""
    try:
        _length, _digest, block_list = _read_superblock(fs.device)
    except FSError:
        return []
    already_free = set(fs._free_blocks)
    for block in block_list:
        if block not in already_free:
            fs._free_block(block)
    return block_list


def _read_superblock(device: StoreBlockDevice) -> tuple[int, bytes, list[int]]:
    """The checkpoint's payload length, digest and block list."""
    super_block = device.read_block(0)
    magic, length, count, digest = _SUPER.unpack_from(super_block)
    if magic != MAGIC:
        raise InvalidArgument("device holds no DisCFS checkpoint")
    block_list = [_U32.unpack_from(super_block, _SUPER.size + 4 * i)[0]
                  for i in range(count)]
    return length, digest, block_list


def load(device: StoreBlockDevice) -> FFS:
    """Rebuild a filesystem from a checkpointed device (a backend URI
    becomes one through :func:`repro.storage.open_device`)."""
    length, digest, block_list = _read_superblock(device)
    payload = b"".join(device.read_block(b) for b in block_list)[:length]
    if hashlib.sha256(payload).digest() != digest:
        raise FSError("filesystem metadata checksum mismatch")

    fs = FFS.__new__(FFS)  # bypass mkfs: we restore state instead
    fs.device = device
    fs.block_size = device.block_size
    fs._inodes = InodeTable()
    fs._next_block = 1
    fs._free_blocks = []
    fs._dir_cache = {}
    _deserialize(fs, payload)
    # Quarantine the checkpoint's own blocks: the allocator state was
    # serialized *before* they were allocated, so without this a
    # restored filesystem could hand them out for data and overwrite
    # its only checkpoint — a crash before the next sync would then be
    # unrecoverable.  The next sync releases them as the old checkpoint.
    own = set(block_list)
    fs._free_blocks = [b for b in fs._free_blocks if b not in own]
    if block_list:
        fs._next_block = max(fs._next_block, max(block_list) + 1)
    return fs
