"""Multi-server DisCFS: a federated client namespace.

Paper requirement (section 2): "The access mechanism should work for both
centralized servers and in a distributed environment where the files are
stored in multiple servers" — and section 4.3: "Each repository is
responsible for only the part of the distributed filesystem that is
stored locally and there is no need to distribute and synchronize
authentication and access control databases."

:class:`DisCFSFederation` unions independent DisCFS servers into one
client-side namespace by mount prefix.  There is deliberately **no**
server-to-server protocol here — each server evaluates its own policy
over its own credentials, and the only shared artifact is the user's key.
Credentials are per-server (handles are server-local), so the federation
routes submissions to the mount they belong to.
"""

from __future__ import annotations

from repro.core.client import DisCFSClient
from repro.crypto.dsa import DSAKeyPair
from repro.crypto.rsa import RSAKeyPair
from repro.errors import DisCFSError, NotAttached


class DisCFSFederation:
    """One user's view over several DisCFS servers.

    >>> fed = DisCFSFederation(user_key)
    >>> fed.mount("/east", east_server, attach="/share")
    >>> fed.mount("/west", west_server, attach="/share")
    >>> fed.submit_credential("/east", east_credential)
    >>> fed.read("/east/report.txt")
    """

    def __init__(self, key: DSAKeyPair | RSAKeyPair):
        self.key = key
        self._mounts: dict[str, DisCFSClient] = {}

    # -- mount management ---------------------------------------------------

    def mount(self, prefix: str, server, attach: str = "/",
              secure: bool = True) -> DisCFSClient:
        """Attach ``server``'s ``attach`` path under local ``prefix``."""
        prefix = self._normalize(prefix)
        if prefix in self._mounts:
            raise DisCFSError(f"prefix {prefix!r} is already mounted")
        if prefix == "/":
            raise DisCFSError("mount prefixes must be non-root")
        client = DisCFSClient.connect(server, self.key, secure=secure)
        client.attach(attach)
        self._mounts[prefix] = client
        return client

    def unmount(self, prefix: str) -> None:
        client = self._mounts.pop(self._normalize(prefix), None)
        if client is None:
            raise NotAttached(f"nothing mounted at {prefix!r}")
        client.close()

    @property
    def mounts(self) -> dict[str, DisCFSClient]:
        return dict(self._mounts)

    @staticmethod
    def _normalize(prefix: str) -> str:
        return "/" + "/".join(p for p in prefix.split("/") if p)

    def _route(self, path: str) -> tuple[DisCFSClient, str]:
        """Resolve a federated path to (client, server-local path)."""
        path = self._normalize(path)
        best = ""
        for prefix in self._mounts:
            if (path == prefix or path.startswith(prefix + "/")) and \
                    len(prefix) > len(best):
                best = prefix
        if not best:
            raise NotAttached(f"no mount covers {path!r}")
        rest = path[len(best):] or "/"
        return self._mounts[best], rest

    # -- credentials --------------------------------------------------------

    def submit_credential(self, prefix_or_path: str, text: str) -> str:
        client, _rest = self._route(prefix_or_path)
        return client.submit_credential(text)

    # -- file operations -----------------------------------------------------

    def read(self, path: str) -> bytes:
        client, rest = self._route(path)
        return client.read_path(rest)

    def write(self, path: str, data: bytes) -> None:
        client, rest = self._route(path)
        client.write_path(rest, data)

    def listdir(self, path: str) -> list[str]:
        """Entries at ``path``; the root lists the mount prefixes."""
        path = self._normalize(path)
        if path == "/":
            return sorted(p.lstrip("/") for p in self._mounts)
        client, rest = self._route(path)
        fh, _ = client.walk(rest)
        return [name for _i, name in client.readdir(fh)
                if name not in (".", "..")]

    def remove(self, path: str) -> None:
        client, rest = self._route(path)
        directory, _, name = rest.strip("/").rpartition("/")
        dir_fh, _ = client.walk(directory) if directory else (client.root, None)
        client.remove(dir_fh, name)

    def copy(self, src: str, dst: str) -> int:
        """Copy a file across mounts (client-mediated; servers never talk
        to each other).  Returns bytes copied."""
        data = self.read(src)
        self.write(dst, data)
        return len(data)

    def close(self) -> None:
        for client in self._mounts.values():
            client.close()
        self._mounts.clear()
