"""Regression gate over the checked-in BENCH records (``scripts/verify.sh perf``).

Compares freshly recorded ``BENCH_<name>.json`` files in a scratch directory
with the checked-in ones and fails when a gated ratio field drops more than
:data:`TOLERANCE` below its committed value.  Only ratios taken within one
process are gated: both sides of a ratio run on the same host at the same
moment, whereas a shared host's single-thread speed swings by +-25% from run
to run, so absolute throughputs cannot be gated.  A record measured at a
different ``cpus_available`` than the committed one is reported and skipped.

    python benchmarks/perf_gate.py FRESH_DIR [NAME ...]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).parent

#: Largest tolerated drop of a gated ratio, as a fraction of the committed value.
TOLERANCE = 0.15

#: Gated ratio fields (higher is better) of each benchmark record.  The
#: ``backends`` ratios that divide times from different rounds minutes apart
#: (``speedup_fault_sim``, ``speedup_fault_sim_best_vs_best``) drift with the
#: host and are recorded only, as is ``speedup_sliced_gen_64``: one
#: streamed-generation ratio, at block 1024, is gated.
GATED = {
    "backends": (
        "speedup_fault_sim_same_block",
        "speedup_fault_sim_1024",
        "cold_speedup_fault_sim_1024",
        "speedup_sliced_gen_1024",
        "speedup_transition_prep",
    ),
    "scan_memory": ("peak_reduction_tight_budget", "throughput_ratio_mid_budget"),
    "topup": ("speedup_topup",),
}


def regressions(fresh_dir: Path, name: str) -> list[str]:
    """Gated fields of one record that fell below tolerance (printed as
    they are compared)."""
    committed = json.loads((BENCH_DIR / f"BENCH_{name}.json").read_text())
    fresh = json.loads((fresh_dir / f"BENCH_{name}.json").read_text())
    if committed.get("cpus_available") != fresh.get("cpus_available"):
        print(
            f"{name}: skipped -- committed at cpus_available="
            f"{committed.get('cpus_available')}, measured at "
            f"{fresh.get('cpus_available')}"
        )
        return []
    failed = []
    for field in GATED[name]:
        new, old = fresh[field], committed.get(field)
        if old is None:
            print(f"{name}.{field}: {new} (no committed value)")
            continue
        floor = old * (1 - TOLERANCE)
        verdict = "ok" if new >= floor else "REGRESSED"
        print(f"{name}.{field}: {new} vs {old} committed (floor {floor:.3g}) {verdict}")
        if new < floor:
            failed.append(f"{name}.{field}")
    return failed


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__)
        return 2
    fresh_dir = Path(argv[1])
    names = argv[2:] or list(GATED)
    failed = [field for name in names for field in regressions(fresh_dir, name)]
    if failed:
        print("perf gate FAILED: " + ", ".join(failed))
        return 1
    print("perf gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
