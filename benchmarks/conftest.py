"""Shared helpers for the benchmark harness.

Every benchmark prints the rows it reproduces (the paper's table/figure
content) through :func:`print_rows`, so running
``pytest benchmarks/ --benchmark-only -s`` shows the paper-vs-measured data
alongside the timing numbers pytest-benchmark collects.

Performance-regression benchmarks additionally persist their measurements as
JSON next to this file through :func:`write_bench_json` (e.g.
``BENCH_fault_sim.json`` from ``bench_fault_sim.py``), so future PRs can track
the throughput trajectory across the repository's history.  Every record is
stamped with the git commit it measured, the interpreter version and the
host's CPU counts, so historical numbers can be compared like for like.
``BENCH_OUT_DIR`` redirects the records (the ``scripts/verify.sh perf`` tier
writes fresh ones to a scratch directory and compares them with the
checked-in records, see ``perf_gate.py``).

**Smoke mode** (``BENCH_SMOKE=1``, the ``scripts/verify.sh bench-smoke``
tier) runs every benchmark on a tiny workload so the scripts cannot silently
rot: each script shrinks its pattern/scenario budgets through
:func:`scaled` and skips its speedup assertions through :func:`smoke_mode`
(tiny workloads measure fixed costs, not throughput).  Smoke runs write
their JSON under ``benchmarks/.smoke/`` (gitignored) so they can never
clobber the checked-in regression records.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import tracemalloc
from pathlib import Path
from typing import Mapping, Optional, Sequence, TypeVar

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX hosts
    resource = None

#: Directory that receives the ``BENCH_*.json`` regression records.
BENCH_DIR = Path(__file__).parent

#: Environment variable selecting the tiny-workload smoke tier.
SMOKE_ENV = "BENCH_SMOKE"

_T = TypeVar("_T")


def smoke_mode() -> bool:
    """True when the bench-smoke tier is running (``BENCH_SMOKE=1``)."""
    return os.environ.get(SMOKE_ENV, "") not in ("", "0")


def scaled(value: _T, smoke_value: _T) -> _T:
    """``value`` normally, ``smoke_value`` under the bench-smoke tier."""
    return smoke_value if smoke_mode() else value


def cpu_counts() -> dict[str, object]:
    """The host CPU facts every BENCH record carries.

    ``cpu_count`` is the hardware count, ``cpus_available`` the scheduling
    affinity actually granted to this process (what a containerised CI run
    can really use) -- speedup records are only meaningful relative to the
    latter.
    """
    return {
        "cpu_count": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
    }


def memory_peaks() -> dict[str, object]:
    """The process memory facts every BENCH record carries.

    ``ru_maxrss_kb`` is the OS-reported lifetime peak resident set of this
    process (kilobytes on Linux; ``None`` where ``resource`` is missing) --
    a high-water mark that never goes down, so it bounds every measurement
    in the record.  ``tracemalloc_peak_bytes`` is the Python-allocation peak
    since tracing started, or ``None`` when the benchmark did not enable
    ``tracemalloc`` -- memory-focused benches trace around their hot loops
    and report their own per-phase peaks alongside this stamp.
    """
    peak = tracemalloc.get_traced_memory()[1] if tracemalloc.is_tracing() else None
    return {
        "ru_maxrss_kb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if resource is not None
            else None
        ),
        "tracemalloc_peak_bytes": peak,
    }


def git_sha() -> Optional[str]:
    """The commit the benchmark measured, suffixed ``+dirty`` when ``src/``
    has uncommitted changes (``None`` outside a git checkout)."""

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], cwd=BENCH_DIR, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip()

    try:
        sha = git("rev-parse", "HEAD")
        dirty = sha and git("status", "--porcelain", "--", "../src")
    except (OSError, subprocess.SubprocessError):
        return None
    return (sha + "+dirty" if dirty else sha) or None


def write_bench_json(name: str, payload: Mapping[str, object]) -> Path:
    """Persist one benchmark's measurements as ``benchmarks/BENCH_<name>.json``.

    The payload is stamped with the git commit, the interpreter version, the
    host CPU counts and the process memory peaks so historical numbers can
    be compared like for like.  Under the bench-smoke tier the record lands
    in ``benchmarks/.smoke/`` instead and is marked ``"smoke": true`` --
    tiny-workload numbers must never overwrite the checked-in regression
    records.  ``BENCH_OUT_DIR`` sends records elsewhere.
    """
    record = {
        "benchmark": name,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        **cpu_counts(),
        **memory_peaks(),
        **payload,
    }
    directory = Path(os.environ.get("BENCH_OUT_DIR") or BENCH_DIR)
    if smoke_mode():
        record["smoke"] = True
        directory = BENCH_DIR / ".smoke"
        directory.mkdir(exist_ok=True)
    path = directory / f"BENCH_{name}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    return path


def print_rows(title: str, rows: Sequence[Mapping[str, object]]) -> None:
    """Print a list of row dicts as an aligned text table."""
    print(f"\n=== {title} ===")
    if not rows:
        print("(no rows)")
        return
    columns = list(rows[0].keys())
    widths = {
        column: max(len(str(column)), *(len(str(row.get(column, ""))) for row in rows))
        for column in columns
    }
    header = "  ".join(str(column).ljust(widths[column]) for column in columns)
    print(header)
    print("-" * len(header))
    for row in rows:
        print("  ".join(str(row.get(column, "")).ljust(widths[column]) for column in columns))
