"""discfs-lint: project-specific static analysis.

Encodes invariants generic linters cannot know — lock discipline,
lock-acquisition ordering and resource lifetimes.  Entry points:

* CLI: ``discfs lint [PATHS] [--rule R] [--json] [--list-rules]``
* API: :func:`repro.analysis.core.run_lint`
"""

from repro.analysis.core import (
    Checker,
    Finding,
    LintResult,
    Project,
    SourceFile,
    all_checkers,
    run_lint,
)

__all__ = [
    "Checker",
    "Finding",
    "LintResult",
    "Project",
    "SourceFile",
    "all_checkers",
    "run_lint",
]
