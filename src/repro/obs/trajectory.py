"""Schema-versioned perf-trajectory records (``BENCH_<topic>.json``).

Every nightly bench run appends one record per ablation — every
numeric cell of its table as ``<row>:<column>`` (ops/s, latency
quantiles, fsyncs, round trips, ...), plus git sha and date — to a
``BENCH_<ablation>.json`` array in the repo root (or any directory).
Because records accumulate across runs under a stable schema, any later
optimization can be judged against the trajectory instead of a single
before/after pair.

``python -m repro.bench.report --ablation all --emit-trajectory DIR``
writes these; ``nightly.yml`` uploads them as artifacts and commits
them.
"""

from __future__ import annotations

import json
import os
import subprocess
from datetime import datetime, timezone
from pathlib import Path

__all__ = ["SCHEMA", "append_record", "read_records", "git_sha"]

#: Bump only on breaking field changes; additive fields keep /v1.
SCHEMA = "discfs-bench-trajectory/v1"


def git_sha(cwd: str | None = None) -> str:
    """Best-effort commit id: CI env var first, then ``git rev-parse``."""
    sha = os.environ.get("GITHUB_SHA", "")
    if sha:
        return sha[:12]
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10, cwd=cwd,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def append_record(
    topic: str, fields: dict[str, object], directory: str | Path = "."
) -> Path:
    """Append one record to ``<directory>/BENCH_<topic>.json``.

    The file holds a JSON array of records (human-diffable, trivially
    loadable); the write is atomic (tmp + rename) so a crashed bench
    run never leaves a torn file behind.  Returns the file path.
    """
    if not topic or not all(c.isalnum() or c in "-_" for c in topic):
        raise ValueError(f"trajectory topic must be alphanumeric/-/_, got {topic!r}")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{topic}.json"
    records = read_records(path)
    record: dict[str, object] = {
        "schema": SCHEMA,
        "topic": topic,
        "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "git_sha": git_sha(cwd=str(directory) if directory.is_dir() else None),
    }
    record.update(fields)
    records.append(record)
    tmp = path.with_suffix(".json.tmp")
    tmp.write_text(json.dumps(records, indent=2) + "\n", encoding="utf-8")
    os.replace(tmp, path)
    return path


def read_records(path: str | Path) -> list[dict[str, object]]:
    """Load a trajectory file; missing or torn files read as empty."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return []
    return data if isinstance(data, list) else []
