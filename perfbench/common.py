"""Shared helpers: run outcome, percentiles, memory, fingerprint."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Sequence


@dataclass
class Outcome:
    """What one run measured and whether its outputs were right.

    ``metrics`` maps an end-to-end metric name to its value and
    ``layers`` a per-layer one (filled by traced runs only); units live
    in BENCHMARK.json.  ``report`` carries everything else worth keeping
    with the result (VM totals, per-step serve figures).
    """

    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    report: Dict[str, object] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failures.append(message)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (q in 0..100) of *values*."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    if rank == low:  # exact rank: no interpolation (and no inf - inf)
        return ordered[low]
    return ordered[low] + (ordered[low + 1] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (Linux reports
    ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git(root: str, *args: str) -> str:
    # stop git at *root*: a checkout that is not a repository must not
    # report (or read) a repository that happens to enclose it
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        done = subprocess.run(["git", "-C", root, *args], capture_output=True,
                              text=True, timeout=30, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return done.stdout.strip() if done.returncode == 0 else ""


def fingerprint(root: str) -> Dict[str, object]:
    """Where a result was measured: commit, interpreter, machine."""
    sha = _git(root, "rev-parse", "HEAD")
    return {
        "git_sha": sha or "unknown",
        "git_dirty": (bool(_git(root, "status", "--porcelain"))
                      if sha else None),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
    }
