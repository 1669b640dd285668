"""The git revision of this checkout, for the end-to-end benchmark.

``benchmarks/e2e/run.py`` imports :func:`git_revision` from this module
to stamp its ``--out`` history rows, and the benchmark's files change
only in a change of their own.  When the benchmark takes the revision
from elsewhere, this module goes.
"""

from __future__ import annotations

import os
import subprocess


def git_revision() -> str:
    """Current git commit hash, or ``"unknown"`` outside a work tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"
