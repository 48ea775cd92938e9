"""Provenance stamp for the ``BENCH_*.json`` files the benches write.

Every bench that writes a ``BENCH_*.json`` calls :func:`write_result`,
which adds a ``stamp`` block recording where the numbers came from:

- ``git_sha`` and ``git_dirty`` — the commit, and whether tracked files
  had uncommitted changes (``None`` outside a git checkout);
- ``cores`` — the CPUs this process may use;
- ``mode`` — ``"quick"`` or ``"full"``;
- ``utc`` — when the result was written (ISO 8601, UTC).
"""

from __future__ import annotations

import json
import subprocess
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

from repro.runtime.executor import available_workers

REPO_ROOT = Path(__file__).resolve().parents[1]


def _git(*args: str) -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", *args], cwd=REPO_ROOT, capture_output=True, text=True,
            timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def stamp(quick: bool) -> dict:
    """The provenance block for a result measured now."""
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "cores": available_workers(),
        "mode": "quick" if quick else "full",
        "utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def write_result(path, result: dict, *, quick: bool) -> None:
    """Write ``result`` plus its :func:`stamp` as indented JSON."""
    stamped = dict(result, stamp=stamp(quick))
    Path(path).write_text(json.dumps(stamped, indent=2) + "\n")
