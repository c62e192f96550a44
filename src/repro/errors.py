"""Shared exception hierarchy for the DisCFS reproduction.

Every subsystem raises exceptions derived from :class:`ReproError` so that
callers can catch at whatever granularity they need.  The NFS layer maps a
subset of these onto wire-level ``nfsstat`` codes (see ``repro.nfs.protocol``).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


# ---------------------------------------------------------------------------
# Crypto
# ---------------------------------------------------------------------------

class CryptoError(ReproError):
    """Base class for cryptographic failures."""


class InvalidSignature(CryptoError):
    """A signature failed to verify."""


class InvalidKey(CryptoError):
    """A key is malformed, of the wrong type, or fails validation."""


# ---------------------------------------------------------------------------
# KeyNote
# ---------------------------------------------------------------------------

class KeyNoteError(ReproError):
    """Base class for KeyNote trust-management errors."""


class AssertionSyntaxError(KeyNoteError):
    """An assertion (policy or credential) could not be parsed."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        loc = ""
        if line is not None:
            loc = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(f"{message}{loc}")


class ExpressionError(KeyNoteError):
    """A condition expression failed to evaluate.

    Per RFC 2704 semantics most evaluation errors make a clause evaluate to
    the minimum compliance value rather than aborting the query; this
    exception is used internally and at API boundaries where strict mode is
    requested.
    """


class SignatureVerificationError(KeyNoteError):
    """A signed assertion's signature did not verify against its authorizer."""


# ---------------------------------------------------------------------------
# Filesystem
# ---------------------------------------------------------------------------

class FSError(ReproError):
    """Base class for local-filesystem errors.  Carries an errno name."""

    errno_name = "EIO"


class FileNotFound(FSError):
    errno_name = "ENOENT"


class FileExists(FSError):
    errno_name = "EEXIST"


class NotADirectory(FSError):
    errno_name = "ENOTDIR"


class IsADirectory(FSError):
    errno_name = "EISDIR"


class DirectoryNotEmpty(FSError):
    errno_name = "ENOTEMPTY"


class NoSpace(FSError):
    errno_name = "ENOSPC"


class PermissionDenied(FSError):
    errno_name = "EACCES"


class StaleHandle(FSError):
    """A file handle refers to a deleted or recycled inode."""

    errno_name = "ESTALE"


class InvalidArgument(FSError):
    errno_name = "EINVAL"


class NameTooLong(FSError):
    errno_name = "ENAMETOOLONG"


class ReadOnlyFilesystem(FSError):
    errno_name = "EROFS"


class StoreUnavailable(FSError):
    """A storage backend (remote node, replica child) cannot be reached."""

    errno_name = "EIO"


class QuorumError(StoreUnavailable):
    """Too few replicas answered to satisfy the read or write quorum."""


class AuthError(FSError):
    """A store session or operation was denied by policy.

    Deliberately *not* a :class:`StoreUnavailable`: a credential the
    server rejects is a caller problem, and ``replica://`` must not
    treat it as a down node and fail over around it.  Like
    :class:`QuotaExceeded` and :class:`RateLimited`, it surfaces
    unchanged through every composite store; the guard is the
    behavioural matrix in ``tests/unit/test_storage_denials.py``.
    """

    errno_name = "EACCES"


class QuotaExceeded(FSError):
    """A tenant exceeded its block-count or byte-budget quota."""

    errno_name = "EDQUOT"


class RateLimited(FSError):
    """A tenant exceeded its token-bucket operation rate limit."""

    errno_name = "EBUSY"


# ---------------------------------------------------------------------------
# RPC / NFS / transport
# ---------------------------------------------------------------------------

class RPCError(ReproError):
    """Base class for RPC-level failures."""


class XDRError(RPCError):
    """Malformed XDR data."""


class TransportError(RPCError):
    """The underlying transport failed (connection closed, timeout...)."""


class ProcedureUnavailable(RPCError):
    """The server does not implement the requested program/procedure."""


class NFSError(ReproError):
    """Wire-level NFS error carrying an ``nfsstat`` code."""

    def __init__(self, status: int, message: str = ""):
        self.status = status
        super().__init__(message or f"NFS error status={status}")


# ---------------------------------------------------------------------------
# IPsec channel
# ---------------------------------------------------------------------------

class ChannelError(ReproError):
    """Base class for secure-channel errors."""


class HandshakeError(ChannelError):
    """IKE-style handshake failed (bad signature, replay, version...)."""


class IntegrityError(ChannelError):
    """A record failed its integrity check."""


class SAExpired(ChannelError):
    """The security association has exceeded its lifetime."""


# ---------------------------------------------------------------------------
# DisCFS core
# ---------------------------------------------------------------------------

class DisCFSError(ReproError):
    """Base class for DisCFS-specific errors."""


class AccessDenied(DisCFSError):
    """Policy evaluation denied the requested operation."""


class CredentialError(DisCFSError):
    """A credential is malformed, expired, revoked, or inapplicable."""


class RevokedError(CredentialError):
    """The credential or one of its keys has been revoked."""


class NotAttached(DisCFSError):
    """Operation requires an attached DisCFS mount."""
