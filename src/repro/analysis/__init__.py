"""discfs-lint: project-specific static analysis.

Encodes invariants generic linters cannot know — lock discipline,
lock-acquisition ordering and resource lifetimes.  Entry points:

* CLI: ``discfs lint [PATHS] [--rule R] [--json] [--baseline FILE]``
* API: :func:`repro.analysis.core.run_lint`
"""

from repro.analysis.core import (
    Baseline,
    Checker,
    Finding,
    LintResult,
    Project,
    SourceFile,
    all_checkers,
    run_lint,
)

__all__ = [
    "Baseline",
    "Checker",
    "Finding",
    "LintResult",
    "Project",
    "SourceFile",
    "all_checkers",
    "run_lint",
]
