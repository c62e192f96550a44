"""The NFS access path as it was when every call decided twice.

:class:`TwoDecisionController` is the old
:class:`~repro.core.server.DisCFSController` hot path, written out as it
was: ``check`` decided the call, audited it and returned nothing, and
every fattr in the reply, the checked file's included, asked
``effective_mode`` to decide again, for op ``getattr``.  A server that
:func:`reference_server` builds runs it behind the same NFS dispatcher,
which asks ``effective_mode`` whenever ``check`` returns None.

What changed alongside, and is shared by both sides here: the rename
flush in ``decision_for`` and the RENAME/LINK order (each handle is
checked before the next resolves).  So the two servers differ only in
how many decisions a call takes, and
``tests/property/test_prop_nfs_access.py`` asserts that they answer
alike: the same reply bytes, denials and audit records.
"""

from __future__ import annotations

from repro.core.permissions import required_permission
from repro.core.server import DisCFSController, DisCFSServer
from repro.nfs.server import AccessDeniedSignal


class TwoDecisionController(DisCFSController):
    """``check`` decides the call; ``effective_mode`` decides the fattr."""

    def check(self, ctx, op, fh, inode) -> None:
        required = required_permission(op)
        if required.bits == 0:
            return
        server = self._server
        identity = server.principal_for(ctx)
        if identity is None:
            raise AccessDeniedSignal("no authenticated identity on this channel")
        handle = server.handle_scheme.render(fh)
        granted, chain = server.decision_for(identity, handle, op, inode)
        allowed = granted.covers(required)
        reason = "" if allowed else (f"operation {op} requires {required.value}, "
                                     f"principal holds {granted.value}")
        server.audit.record(identity, op, handle, granted.value, allowed,
                            tuple(chain), reason)
        if not allowed:
            raise AccessDeniedSignal(reason)

    def effective_mode(self, ctx, inode) -> int:
        identity = self._server.principal_for(ctx)
        if identity is None:
            return 0
        handle = self._server.handle_scheme.render_inode(inode)
        granted, _chain = self._server.decision_for(identity, handle,
                                                    "getattr", inode)
        return granted.octal << 6


def reference_server(**kwargs) -> DisCFSServer:
    """A :class:`DisCFSServer` built from ``kwargs`` whose NFS program
    runs :class:`TwoDecisionController`."""
    server = DisCFSServer(**kwargs)
    server.controller = server.nfs_program.controller = \
        TwoDecisionController(server)
    return server
