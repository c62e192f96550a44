"""An inode+block filesystem in the style of the BSD fast filesystem.

This is the storage substrate under all three measured systems.  File data
and directory contents move through the block device (so benchmarks can
account I/O); inode and allocation metadata are kept in memory, a
documented simplification — none of the paper's experiments exercise crash
recovery, and the access-control mechanisms under study sit entirely above
this layer.

Deliberately, FFS does **not** enforce access control: the paper's central
design point is the separation of policy (KeyNote, in the DisCFS server)
from mechanism (file storage).  Mode bits are stored and reported but never
checked here.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING

from repro.errors import (
    DirectoryNotEmpty,
    FileExists,
    FileNotFound,
    InvalidArgument,
    IsADirectory,
    NameTooLong,
    NoSpace,
    NotADirectory,
)
from repro.fs.inode import FileType, Inode, InodeTable

if TYPE_CHECKING:
    from repro.storage.adapter import StoreBlockDevice
    from repro.storage.spec import SpecLike

MAX_NAME_LEN = 255

_DIRENT_HEADER = struct.Struct(">IH")  # ino, name length


class FFS:
    """The filesystem: a block allocator, an inode table, and operations.

    All name-taking operations work on (directory inode, name); the
    ``*_path`` convenience wrappers resolve ``/``-separated paths from the
    root.  Times are maintained with unix semantics (mtime/ctime on data or
    metadata change, atime on read).
    """

    renames = 0  #: entries moved so far (what ``ANCESTORS`` caches age on)

    def __init__(self, device: StoreBlockDevice | SpecLike | None = None) -> None:
        # The one constructor taking a URI or spec ("mem://",
        # "file:///fs.img", "cached://replica://3", ...); None is mem://.
        # Imported here: repro.storage reaches back to this module
        # (storage.auth -> repro.core -> core.server -> fs.ffs).
        from repro.storage import StoreBlockDevice, open_device

        if not isinstance(device, StoreBlockDevice):
            device = open_device("mem://" if device is None else device)
        self.device = device
        self.block_size = self.device.block_size
        self._inodes = InodeTable()
        # Block 0 reserved as a pseudo-superblock; data blocks from 1.
        self._next_block = 1
        self._free_blocks: list[int] = []
        self._dir_cache: dict[int, dict[str, int]] = {}

        root = self._inodes.allocate(FileType.DIRECTORY, mode=0o755)
        assert root.ino == InodeTable.ROOT_INO or True  # first alloc may differ
        self.root_ino = root.ino
        root.nlink = 2
        root.parent_ino = root.ino
        self._dir_cache[root.ino] = {".": root.ino, "..": root.ino}
        self._write_dir(root)

    # ------------------------------------------------------------------
    # Block allocation
    # ------------------------------------------------------------------

    def _alloc_block(self) -> int:
        if self._free_blocks:
            return self._free_blocks.pop()
        if self._next_block >= self.device.num_blocks:
            raise NoSpace("filesystem full")
        block = self._next_block
        self._next_block += 1
        return block

    def _free_block(self, block_no: int) -> None:
        self._free_blocks.append(block_no)

    def free_block_count(self) -> int:
        return self.device.num_blocks - self._next_block + len(self._free_blocks)

    # ------------------------------------------------------------------
    # Inode access
    # ------------------------------------------------------------------

    def iget(self, ino: int) -> Inode:
        """Fetch an inode by number (StaleHandle if it does not exist)."""
        return self._inodes.get(ino)

    def iget_checked(self, ino: int, generation: int) -> Inode:
        """Fetch an inode, validating the handle generation."""
        return self._inodes.get_checked(ino, generation)

    # ------------------------------------------------------------------
    # Directory operations
    # ------------------------------------------------------------------

    def lookup(self, dino: int, name: str) -> Inode:
        """Resolve ``name`` in directory ``dino``."""
        entries = self._dir_entries(self.iget(dino))
        if name not in entries:
            raise FileNotFound(f"no entry {name!r} in directory {dino}")
        return self.iget(entries[name])

    def readdir(self, dino: int) -> list[tuple[str, int]]:
        """List a directory, including ``.`` and ``..`` (stable order)."""
        inode = self.iget(dino)
        entries = self._dir_entries(inode)
        inode.touch_atime()
        special = [(n, entries[n]) for n in (".", "..")]
        rest = sorted((n, i) for n, i in entries.items() if n not in (".", ".."))
        return special + rest

    def create(self, dino: int, name: str, mode: int = 0o644,
               uid: int = 0, gid: int = 0) -> Inode:
        """Create a regular file; FileExists if the name is taken."""
        parent, entries = self._prepare_new_entry(dino, name)
        inode = self._inodes.allocate(FileType.REGULAR, mode, uid, gid)
        inode.parent_ino = parent.ino
        entries[name] = inode.ino
        self._write_dir(parent)
        parent.touch_mtime()
        return inode

    def mkdir(self, dino: int, name: str, mode: int = 0o755,
              uid: int = 0, gid: int = 0) -> Inode:
        parent, entries = self._prepare_new_entry(dino, name)
        inode = self._inodes.allocate(FileType.DIRECTORY, mode, uid, gid)
        inode.parent_ino = parent.ino
        inode.nlink = 2
        self._dir_cache[inode.ino] = {".": inode.ino, "..": parent.ino}
        self._write_dir(inode)
        entries[name] = inode.ino
        parent.nlink += 1
        self._write_dir(parent)
        parent.touch_mtime()
        return inode

    def symlink(self, dino: int, name: str, target: str, uid: int = 0,
                gid: int = 0) -> Inode:
        parent, entries = self._prepare_new_entry(dino, name)
        inode = self._inodes.allocate(FileType.SYMLINK, 0o777, uid, gid)
        inode.parent_ino = parent.ino
        inode.link_target = target
        inode.size = len(target.encode("utf-8"))
        entries[name] = inode.ino
        self._write_dir(parent)
        parent.touch_mtime()
        return inode

    def readlink(self, ino: int) -> str:
        inode = self.iget(ino)
        if not inode.is_symlink:
            raise InvalidArgument(f"inode {ino} is not a symlink")
        return inode.link_target

    def link(self, dino: int, name: str, target_ino: int) -> Inode:
        """Create a hard link to an existing non-directory inode."""
        target = self.iget(target_ino)
        if target.is_dir:
            raise IsADirectory("hard links to directories are not allowed")
        parent, entries = self._prepare_new_entry(dino, name)
        entries[name] = target.ino
        target.nlink += 1
        target.ctime = target.mtime
        self._write_dir(parent)
        parent.touch_mtime()
        return target

    def remove(self, dino: int, name: str) -> None:
        """Unlink a file or symlink (rmdir for directories)."""
        parent = self.iget(dino)
        entries = self._dir_entries(parent)
        if name in (".", ".."):
            raise InvalidArgument(f"cannot remove {name!r}")
        if name not in entries:
            raise FileNotFound(f"no entry {name!r} in directory {dino}")
        inode = self.iget(entries[name])
        if inode.is_dir:
            raise IsADirectory(f"{name!r} is a directory; use rmdir")
        del entries[name]
        self._write_dir(parent)
        parent.touch_mtime()
        inode.nlink -= 1
        if inode.nlink <= 0:
            self._release_inode(inode)

    def rmdir(self, dino: int, name: str) -> None:
        parent = self.iget(dino)
        entries = self._dir_entries(parent)
        if name in (".", ".."):
            raise InvalidArgument(f"cannot remove {name!r}")
        if name not in entries:
            raise FileNotFound(f"no entry {name!r} in directory {dino}")
        inode = self.iget(entries[name])
        if not inode.is_dir:
            raise NotADirectory(f"{name!r} is not a directory")
        victim_entries = self._dir_entries(inode)
        if set(victim_entries) - {".", ".."}:
            raise DirectoryNotEmpty(f"directory {name!r} is not empty")
        del entries[name]
        parent.nlink -= 1
        self._write_dir(parent)
        parent.touch_mtime()
        self._dir_cache.pop(inode.ino, None)
        self._release_inode(inode)

    def rename(self, sdino: int, sname: str, ddino: int, dname: str) -> None:
        """Rename with POSIX semantics (target replaced if compatible)."""
        if sname in (".", "..") or dname in (".", ".."):
            raise InvalidArgument("cannot rename '.' or '..'")
        self._check_name(dname)
        src_parent = self.iget(sdino)
        src_entries = self._dir_entries(src_parent)
        if sname not in src_entries:
            raise FileNotFound(f"no entry {sname!r} in directory {sdino}")
        moving = self.iget(src_entries[sname])
        dst_parent = self.iget(ddino)
        if not dst_parent.is_dir:
            raise NotADirectory(f"inode {ddino} is not a directory")
        if moving.is_dir and self._is_ancestor(moving.ino, dst_parent.ino):
            raise InvalidArgument("cannot move a directory into itself")
        dst_entries = self._dir_entries(dst_parent)

        if dname in dst_entries:
            existing = self.iget(dst_entries[dname])
            if existing.ino == moving.ino:
                return  # rename to self is a no-op
            if existing.is_dir:
                if not moving.is_dir:
                    raise IsADirectory(f"{dname!r} is a directory")
                if set(self._dir_entries(existing)) - {".", ".."}:
                    raise DirectoryNotEmpty(f"{dname!r} is not empty")
                dst_parent.nlink -= 1
                self._dir_cache.pop(existing.ino, None)
                self._release_inode(existing)
            else:
                if moving.is_dir:
                    raise NotADirectory(f"{dname!r} is not a directory")
                existing.nlink -= 1
                if existing.nlink <= 0:
                    self._release_inode(existing)

        self.renames += 1
        del src_entries[sname]
        dst_entries[dname] = moving.ino
        moving.parent_ino = dst_parent.ino
        if moving.is_dir and sdino != ddino:
            src_parent.nlink -= 1
            dst_parent.nlink += 1
            self._dir_entries(moving)[".."] = dst_parent.ino
            self._write_dir(moving)
        self._write_dir(src_parent)
        if sdino != ddino:
            self._write_dir(dst_parent)
        src_parent.touch_mtime()
        dst_parent.touch_mtime()

    # ------------------------------------------------------------------
    # File data
    # ------------------------------------------------------------------

    def read(self, ino: int, offset: int, count: int) -> bytes:
        """Read up to ``count`` bytes at ``offset`` (short read at EOF)."""
        inode = self.iget(ino)
        if inode.is_dir:
            raise IsADirectory(f"inode {ino} is a directory")
        if offset < 0 or count < 0:
            raise InvalidArgument("negative offset or count")
        inode.touch_atime()
        if offset >= inode.size:
            return b""
        count = min(count, inode.size - offset)
        return self._read_data(inode, offset, count)

    def write(self, ino: int, offset: int, data: bytes) -> int:
        """Write ``data`` at ``offset`` (extending and hole-filling)."""
        inode = self.iget(ino)
        if inode.is_dir:
            raise IsADirectory(f"inode {ino} is a directory")
        if offset < 0:
            raise InvalidArgument("negative offset")
        if not data:
            return 0
        self._write_data(inode, offset, data)
        inode.size = max(inode.size, offset + len(data))
        inode.touch_mtime()
        return len(data)

    def truncate(self, ino: int, size: int) -> None:
        inode = self.iget(ino)
        if inode.is_dir:
            raise IsADirectory(f"inode {ino} is a directory")
        if size < 0:
            raise InvalidArgument("negative size")
        if size < inode.size:
            first_dead = (size + self.block_size - 1) // self.block_size
            for logical in [b for b in inode.blocks if b >= first_dead]:
                self._free_block(inode.blocks.pop(logical))
            # Zero the tail of the new last block so growth re-reads zeros.
            if size % self.block_size:
                logical = size // self.block_size
                if logical in inode.blocks:
                    keep = size % self.block_size
                    block = self.device.read_block(inode.blocks[logical])
                    self.device.write_block(
                        inode.blocks[logical], block[:keep]
                    )
        inode.size = size
        inode.touch_mtime()

    def setattr(self, ino: int, mode: int | None = None, uid: int | None = None,
                gid: int | None = None, size: int | None = None,
                atime: float | None = None, mtime: float | None = None) -> Inode:
        """Update inode attributes (the NFS SETATTR procedure maps here)."""
        inode = self.iget(ino)
        if size is not None and size != inode.size:
            self.truncate(ino, size)
        if mode is not None:
            inode.mode = mode & 0o7777
        if uid is not None:
            inode.uid = uid
        if gid is not None:
            inode.gid = gid
        if atime is not None:
            inode.atime = atime
        if mtime is not None:
            inode.mtime = mtime
        inode.ctime = max(inode.ctime, inode.mtime)
        return inode

    # ------------------------------------------------------------------
    # Path convenience API
    # ------------------------------------------------------------------

    #: Maximum symlink traversals during one path resolution (ELOOP bound,
    #: like the kernel's SYMLOOP_MAX).
    MAX_SYMLINK_DEPTH = 8

    def namei(self, path: str, follow_symlinks: bool = True,
              _depth: int = 0) -> Inode:
        """Resolve an absolute ``/``-separated path to an inode.

        Symlink chains longer than :data:`MAX_SYMLINK_DEPTH` (including
        cycles) raise :class:`~repro.errors.InvalidArgument`, mirroring
        ELOOP.
        """
        inode = self.iget(self.root_ino)
        parts = [p for p in path.split("/") if p]
        for i, part in enumerate(parts):
            if not inode.is_dir:
                raise NotADirectory(f"{'/'.join(parts[:i])!r} is not a directory")
            inode = self.lookup(inode.ino, part)
            if inode.is_symlink and (follow_symlinks or i < len(parts) - 1):
                if _depth >= self.MAX_SYMLINK_DEPTH:
                    raise InvalidArgument(
                        f"too many levels of symbolic links resolving {path!r}"
                    )
                inode = self.namei(inode.link_target, _depth=_depth + 1)
        return inode

    def create_path(self, path: str, mode: int = 0o644) -> Inode:
        dino, name = self._split_path(path)
        return self.create(dino, name, mode)

    def makedirs(self, path: str, mode: int = 0o755) -> Inode:
        """Create every missing component of ``path`` (like os.makedirs)."""
        inode = self.iget(self.root_ino)
        for part in (p for p in path.split("/") if p):
            try:
                inode = self.lookup(inode.ino, part)
            except FileNotFound:
                inode = self.mkdir(inode.ino, part, mode)
        return inode

    def write_file(self, path: str, data: bytes, mode: int = 0o644) -> Inode:
        """Create-or-truncate ``path`` and write ``data`` (test helper)."""
        try:
            inode = self.namei(path)
            self.truncate(inode.ino, 0)
        except FileNotFound:
            inode = self.create_path(path, mode)
        self.write(inode.ino, 0, data)
        return inode

    def read_file(self, path: str) -> bytes:
        inode = self.namei(path)
        return self.read(inode.ino, 0, inode.size)

    def _split_path(self, path: str) -> tuple[int, str]:
        parts = [p for p in path.split("/") if p]
        if not parts:
            raise InvalidArgument("empty path")
        parent = self.iget(self.root_ino)
        for part in parts[:-1]:
            parent = self.lookup(parent.ino, part)
        return parent.ino, parts[-1]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _prepare_new_entry(self, dino: int, name: str) -> tuple[Inode, dict[str, int]]:
        self._check_name(name)
        parent = self.iget(dino)
        if not parent.is_dir:
            raise NotADirectory(f"inode {dino} is not a directory")
        entries = self._dir_entries(parent)
        if name in entries:
            raise FileExists(f"entry {name!r} already exists in directory {dino}")
        return parent, entries

    @staticmethod
    def _check_name(name: str) -> None:
        if not name or name in (".", ".."):
            raise InvalidArgument(f"invalid name: {name!r}")
        if "/" in name or "\x00" in name:
            raise InvalidArgument(f"name contains invalid characters: {name!r}")
        if len(name.encode("utf-8")) > MAX_NAME_LEN:
            raise NameTooLong(f"name exceeds {MAX_NAME_LEN} bytes")

    def _release_inode(self, inode: Inode) -> None:
        for block in inode.blocks.values():
            self._free_block(block)
        inode.blocks.clear()
        self._inodes.free(inode.ino)

    def _is_ancestor(self, maybe_ancestor: int, ino: int) -> bool:
        """True if ``maybe_ancestor`` is ``ino`` or an ancestor of it."""
        current = ino
        while True:
            if current == maybe_ancestor:
                return True
            parent = self._dir_entries(self.iget(current))[".."]
            if parent == current:
                return False
            current = parent

    # -- directory (de)serialization ------------------------------------

    def _dir_entries(self, inode: Inode) -> dict[str, int]:
        if not inode.is_dir:
            raise NotADirectory(f"inode {inode.ino} is not a directory")
        cached = self._dir_cache.get(inode.ino)
        if cached is None:
            cached = self._parse_dir(self._read_data(inode, 0, inode.size))
            self._dir_cache[inode.ino] = cached
        return cached

    def _write_dir(self, inode: Inode) -> None:
        entries = self._dir_cache[inode.ino]
        payload = bytearray()
        for name, ino in entries.items():
            encoded = name.encode("utf-8")
            payload += _DIRENT_HEADER.pack(ino, len(encoded))
            payload += encoded
        data = bytes(payload)
        if len(data) < inode.size:
            self._shrink_data(inode, len(data))
        if data:
            self._write_data(inode, 0, data)
        inode.size = len(data)
        inode.touch_mtime()

    @staticmethod
    def _parse_dir(data: bytes) -> dict[str, int]:
        entries: dict[str, int] = {}
        pos = 0
        while pos < len(data):
            ino, name_len = _DIRENT_HEADER.unpack_from(data, pos)
            pos += _DIRENT_HEADER.size
            name = data[pos : pos + name_len].decode("utf-8")
            pos += name_len
            entries[name] = ino
        return entries

    def _shrink_data(self, inode: Inode, size: int) -> None:
        first_dead = (size + self.block_size - 1) // self.block_size
        for logical in [b for b in inode.blocks if b >= first_dead]:
            self._free_block(inode.blocks.pop(logical))

    # -- data block I/O ---------------------------------------------------

    def _read_data(self, inode: Inode, offset: int, count: int) -> bytes:
        # Plan the whole extent first, then fetch every needed physical
        # block in ONE vectored read — over remote:// backends that is one
        # RPC round trip per call instead of one per block (the cold-path
        # cost the paper's distributed setting makes first-order).
        spans: list[tuple[int | None, int, int]] = []
        remaining = count
        pos = offset
        while remaining > 0:
            logical = pos // self.block_size
            within = pos % self.block_size
            chunk = min(remaining, self.block_size - within)
            spans.append((inode.blocks.get(logical), within, chunk))
            pos += chunk
            remaining -= chunk
        needed = [block_no for block_no, _, _ in spans if block_no is not None]
        fetched = dict(zip(needed, self.device.read_blocks(needed))) \
            if needed else {}
        out = bytearray()
        for block_no, within, chunk in spans:
            if block_no is None:
                out += b"\x00" * chunk  # hole
            else:
                out += fetched[block_no][within : within + chunk]
        return bytes(out)

    def _write_data(self, inode: Inode, offset: int, data: bytes) -> None:
        # Same discipline as _read_data: one batched read for the partial
        # blocks that need read-modify-write, then one batched write for
        # the whole extent.
        plan: list[tuple[int, int, int, int, bool]] = []
        pos = offset
        data_pos = 0
        remaining = len(data)
        while remaining > 0:
            logical = pos // self.block_size
            within = pos % self.block_size
            chunk = min(remaining, self.block_size - within)
            existing_no = inode.blocks.get(logical)
            if existing_no is None:
                block_no = self._alloc_block()
                inode.blocks[logical] = block_no
                needs_read = False
            else:
                block_no = existing_no
                needs_read = chunk < self.block_size
            plan.append((block_no, within, chunk, data_pos, needs_read))
            pos += chunk
            data_pos += chunk
            remaining -= chunk
        to_read = [block_no for block_no, _, _, _, needs in plan if needs]
        existing = dict(zip(to_read, self.device.read_blocks(to_read))) \
            if to_read else {}
        writes: list[tuple[int, bytes]] = []
        for block_no, within, chunk, data_pos, needs_read in plan:
            if chunk == self.block_size:
                new_block = data[data_pos : data_pos + chunk]
            else:
                base = existing[block_no] if needs_read \
                    else b"\x00" * self.block_size
                new_block = (
                    base[:within]
                    + data[data_pos : data_pos + chunk]
                    + base[within + chunk :]
                )
            writes.append((block_no, new_block))
        self.device.write_blocks(writes)
