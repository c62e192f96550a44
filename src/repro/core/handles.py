"""DisCFS file handles — the names credentials bind rights to.

Paper, section 5: "A file/directory is identified by a handle, which, in
our prototype implementation, is simply the inode number of the
file/directory on the server.  ...  The handle specifics need to be
changed in the future since inodes are not suitable as [a] globally unique
identifier across a network.  A possible solution would be to build a
handle from the inode number and a generation number, similar to the
4.4BSD NFS implementation."

Both schemes are implemented:

* :attr:`HandleScheme.INODE` — the prototype's bare inode number
  (subject to the stale-reuse problem; kept for fidelity and for the
  ablation test that demonstrates the weakness),
* :attr:`HandleScheme.INODE_GENERATION` — inode + generation (default;
  the paper's proposed fix).

A handle is rendered into the ``HANDLE`` action attribute as a decimal
string (matching Figure 5's ``HANDLE == "666240"``) or ``ino.gen``.
"""

from __future__ import annotations

import enum

from repro.fs.inode import Inode
from repro.nfs.protocol import FileHandle


class HandleScheme(enum.Enum):
    """How DisCFS renders file identities into credential handles."""

    INODE = "inode"
    INODE_GENERATION = "inode-generation"

    def render(self, fh: FileHandle | Inode) -> str:
        """The HANDLE attribute value for a file handle (or the inode it
        names: both carry ``ino`` and ``generation``)."""
        if self is HandleScheme.INODE:
            return str(fh.ino)
        return f"{fh.ino}.{fh.generation}"

    def render_inode(self, inode: Inode) -> str:
        return self.render(inode)


def ancestor_chain(fs, ino: int, scheme: HandleScheme) -> str:
    """Space-separated handles of all ancestors of ``ino`` (root first).

    Exposed to policies as the ``ANCESTORS`` action attribute, enabling
    subtree credentials (an extension over the per-handle prototype; see
    ``repro.core.credentials.issue_credential(subtree=True)``).
    """
    chain: list[str] = []
    current = ino
    seen = set()
    while current not in seen:
        seen.add(current)
        inode = fs.iget(current)
        parent = fs._dir_entries(inode)[".."] if inode.is_dir else None
        if parent is None:
            # Regular files: walk from their directory; the server passes
            # the *parent* ino for non-directories, so this is unreachable
            # unless called directly on a file.
            break
        if parent == current:
            chain.append(scheme.render_inode(inode))
            break
        chain.append(scheme.render_inode(inode))
        current = parent
    return " ".join(reversed(chain))
