"""Shared pieces of the benchmark: where the source is, summary statistics,
memory, provenance and the result line.

Nothing here imports the library, so ``run.py`` can refuse to run (exit
non-zero, no result) in a directory that does not hold the source tree.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"

# Set-up is repeated this many times per run and its median reported, so
# one slow interpreter start does not read as a set-up regression.
SETUP_REPEATS = 3


def source_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def library_env() -> dict[str, str]:
    """The environment for a child process that imports the library from
    this checkout's source tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def time_fresh_import(modules: list[str]) -> None:
    """Import ``modules`` in a fresh interpreter: the import cost every
    user of the library pays once per process."""
    code = "; ".join(f"import {name}" for name in modules)
    subprocess.run(
        [sys.executable, "-c", code],
        env=library_env(),
        cwd=ROOT,
        check=True,
        timeout=60,
    )


# -- statistics ------------------------------------------------------------

TAIL_MIN_BEYOND = 10


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile (0.0 on an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(q * len(ordered) + 0.5) - 1))
    return ordered[rank]


@dataclass(frozen=True)
class Tail:
    """The highest percentile with at least ten samples beyond it."""

    value: float
    percentile: float
    samples: int
    beyond: int

    def describe(self) -> str:
        return f"p{self.percentile:.1f} of {self.samples} samples, {self.beyond} beyond"


def tail(values: list[float]) -> Tail:
    """The sample with exactly ``TAIL_MIN_BEYOND`` samples above it, and
    the percentile that makes it.  With too few samples for that, the
    maximum (and ``beyond`` says how short the sample was)."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return Tail(0.0, 0.0, 0, 0)
    if n <= TAIL_MIN_BEYOND:
        return Tail(ordered[-1], 100.0, n, 0)
    return Tail(
        ordered[n - TAIL_MIN_BEYOND - 1],
        100.0 * (n - TAIL_MIN_BEYOND) / n,
        n,
        TAIL_MIN_BEYOND,
    )


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# -- memory and CPU ----------------------------------------------------------


def own_peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_seconds() -> float:
    """CPU seconds of this process and of the children it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def process_cpu_seconds(pid: int) -> float:
    """CPU seconds a live child process has used, from its CPU-time clock
    (Linux encodes a process's clock id as ``~pid << 3 | 2``)."""
    return time.clock_gettime((~pid << 3) | 2)


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident memory of a live child process, from ``VmHWM``."""
    status = Path(f"/proc/{pid}/status").read_text()
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for pid {pid}")


# -- provenance ------------------------------------------------------------


def git_state() -> tuple[str, bool | None]:
    """``(sha, dirty)`` of the checkout, or ``("unknown", None)`` when it
    is not a git work tree.  The search never leaves the checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=30,
        )
        if sha.returncode != 0:
            return "unknown", None
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown", None
    return sha.stdout.strip(), bool(status.stdout.strip())


def combine_fingerprints(fingerprints: list[str]) -> str:
    """One digest over per-input fingerprints, in input order."""
    return hashlib.sha256("|".join(fingerprints).encode("ascii")).hexdigest()


# -- the result ------------------------------------------------------------


@dataclass
class RunResult:
    """What one run reports: the counts, the metrics, and the evidence."""

    workload: str
    seed: int
    traced: bool
    smoke: bool = False
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: dict[str, object] = field(default_factory=dict)
    input_fingerprint: str = ""

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 50:
            self.problems.append(problem)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def result_line(self) -> str:
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in self.metrics.items()
                },
            }
        )

    @property
    def mode(self) -> str:
        return ("traced" if self.traced else "timed") + ("-smoke" if self.smoke else "")

    def path(self) -> Path:
        """Where :meth:`write` puts this run's record."""
        return RESULTS_DIR / f"{self.workload}-seed{self.seed}-{self.mode}.json"

    def write(self) -> Path:
        """Write the full record, with provenance, under the benchmark's
        own results directory and return its path."""
        sha, dirty = git_state()
        path = self.path()
        path.parent.mkdir(parents=True, exist_ok=True)
        record = {
            "workload": self.workload,
            "seed": self.seed,
            "mode": self.mode,
            "git_sha": sha,
            "git_dirty": dirty,
            "input_fingerprint": self.input_fingerprint,
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
            "notes": self.notes,
        }
        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        return path
