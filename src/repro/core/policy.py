"""The policy engine: DisCFS operations -> KeyNote queries -> permissions.

For every request the engine constructs an *action attribute set*:

=================  ======================================================
``app_domain``     always ``"DisCFS"``
``HANDLE``         the target's handle (Figure 5's ``HANDLE == "666240"``)
``OPERATION``      the NFS-level operation name (``read``, ``create``...)
``ANCESTORS``      space-separated handles of the target's ancestor
                   directories (enables subtree credentials)
``now``            unix timestamp (integer seconds)
``hour``/``minute``/``weekday``  local-time fields for time-of-day policy
=================  ======================================================

and asks KeyNote for the compliance value over the octal-ordered
permission set.  The requesting principal is the public key bound to the
client's channel.  The result is a :class:`Permission`; the server then
checks the operation's required bits against it.

The clock is injectable so tests can exercise time-window policies
deterministically.
"""

from __future__ import annotations

import time
from typing import Callable, Mapping

from repro.core.permissions import PERMISSION_VALUES, Permission
from repro.keynote.ast import ComplianceValues
from repro.keynote.session import KeyNoteSession

APP_DOMAIN = "DisCFS"

_VALUES = ComplianceValues(list(PERMISSION_VALUES))

#: What a query decides: the rights, and the keys that authorized them
#: (credential authorizers on the delegation path) — the audit log's
#: "key B authorized" data.
Decision = tuple[Permission, tuple[str, ...]]


class PolicyEngine:
    """Runs DisCFS compliance queries against a KeyNote session."""

    def __init__(self, session: KeyNoteSession,
                 clock: Callable[[], float] = time.time):
        self.session = session
        self.clock = clock
        self.queries = 0  # number of actual KeyNote evaluations

    def evaluate(
        self,
        principal: str,
        handle: str,
        operation: str,
        extra_attributes: Mapping[str, str] | None = None,
    ) -> Permission:
        """The rights ``principal`` holds over ``handle`` for ``operation``."""
        permission, _chain = self.evaluate_with_trace(
            principal, handle, operation, extra_attributes
        )
        return permission

    def evaluate_with_trace(
        self,
        principal: str,
        handle: str,
        operation: str,
        extra_attributes: Mapping[str, str] | None = None,
    ) -> Decision:
        """The rights ``principal`` holds, and who authorized them."""
        self.queries += 1
        action = self._action_attributes(handle, operation)
        if extra_attributes:
            action.update(extra_attributes)
        value, assertions = self.session.query_with_trace(
            action=action,
            action_authorizers=[principal],
            values=_VALUES,
        )
        chain = tuple(a.authorizer for a in assertions if not a.is_policy)
        return Permission.from_value(value), chain

    def _action_attributes(self, handle: str, operation: str) -> dict[str, str]:
        now = self.clock()
        local = time.localtime(now)
        return {
            "app_domain": APP_DOMAIN,
            "HANDLE": handle,
            "OPERATION": operation,
            "now": str(int(now)),
            "hour": str(local.tm_hour),
            "minute": str(local.tm_min),
            "weekday": str(local.tm_wday),
        }
