"""Shared pieces of the benchmark: checks, outcomes, environment, memory."""

from __future__ import annotations

import os
import platform
import resource
import subprocess
import sys
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional


class Checks:
    """Operations attempted and failed, plus the reasons for failures.

    An operation is a simulation run, a wire line or a correctness
    check; ``failed`` counts failed or quarantined runs, rejected or
    lost lines, and checks that did not hold.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def runs(self, attempted: int, failed: int, what: str = "runs") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(f"{failed} of {attempted} {what} failed")

    def expect(self, ok: bool, description: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(description)


@dataclass
class Outcome:
    """What one workload run reports."""

    checks: Checks
    metrics: Dict[str, float]
    spans: Optional[Dict[str, Dict[str, float]]] = None
    facts: Dict[str, object] = field(default_factory=dict)


def peak_rss_mb(children: bool, own: bool) -> float:
    """Peak resident set size in MiB of this process and/or its reaped
    children (the larger of the two when both are asked for)."""
    peaks = []
    if own:
        peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if children:
        peaks.append(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return max(peaks) / 1024.0


def pin_environment() -> List[str]:
    """Clear every ``REPRO_*`` knob so cache, batch kernel, profiling,
    watchdogs, worker counts and service geometry take their defaults
    (the cache is off by default).  Returns the names cleared."""
    cleared = sorted(name for name in os.environ if name.startswith("REPRO_"))
    for name in cleared:
        del os.environ[name]
    return cleared


def source_digest(src: Path) -> str:
    """crc32 over the program's Python sources, in path order: names
    the code measured where no git metadata is available."""
    digest = 0
    for path in sorted(src.rglob("*.py")):
        digest = zlib.crc32(str(path.relative_to(src)).encode(), digest)
        digest = zlib.crc32(path.read_bytes(), digest)
    return f"{digest:08x}"


def git_revision(root: Path) -> Optional[str]:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(root: Path, seed: int, cleared: List[str]) -> Dict[str, object]:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_rev": git_revision(root),
        "source_crc32": source_digest(root / "src"),
        "seed": seed,
        "env_cleared": cleared,
        "platform": platform.platform(),
        "argv": sys.argv[1:],
    }
