"""Benchmark: memory-bounded tiled fault scan -- peak bytes vs throughput.

Measures the numpy fault-scan's peak workspace bytes (slot arena + per-block
buffers, the exact quantity ``sim_memory_budget_mb`` bounds) and its
patterns/sec on the scaled Core Y stand-in (~5K gates) at block width 4096,
across three budgets:

* **unbounded** (the pre-tiling behavior: one slot row per cone net of every
  live fault, ~O(GB) at this size),
* **64 MB** -- the throughput guard: tiling must cost < 25% patterns/sec
  versus unbounded (in practice the recycled arena is *faster*: it stays
  cache-resident while the unbounded slot table thrashes),
* **16 MB** -- the memory guard: >= 4x peak reduction versus unbounded.

Each run also asserts the measured peak actually fits under its budget --
the budget is a contract, not a hint.  Results are bit-identical across
budgets by construction (and by ``tests/simulation/test_numpy_backend.py``);
this bench re-checks coverage equality as a cheap tripwire.

The measurements are persisted to ``benchmarks/BENCH_scan_memory.json`` via
:func:`conftest.write_bench_json` (stamped with ``ru_maxrss`` and the
tracemalloc peak), so future PRs can track the memory trajectory.

Run as a script (writes the JSON):

    PYTHONPATH=src python benchmarks/bench_scan_memory.py

or through pytest (skips without NumPy):

    PYTHONPATH=src pytest benchmarks/bench_scan_memory.py -s
"""

from __future__ import annotations

import random
import time
import tracemalloc

import pytest

from repro.cores import core_y_recipe
from repro.faults import FaultSimulator, collapse_stuck_at
from repro.simulation import HAVE_NUMPY, iter_blocks

from conftest import print_rows, scaled, smoke_mode, write_bench_json

#: Structural scale of the Core Y recipe (~5.2K gates at 7.0); the smoke
#: tier shrinks to the default small build.
SCALE = scaled(7.0, 1.0)
#: Patterns per run -- an exact multiple of the block size, so a single
#: block width exists and the per-width workspace is the whole footprint.
PATTERNS = scaled(4096, 128)
#: Block width (the ROADMAP's worst case for the unbounded slot table).
BLOCK_SIZE = scaled(4096, 128)
#: Budgets under test (MB; None = unbounded).  The smoke tier swaps in
#: tiny budgets that still force tiling on its tiny core.
BUDGETS_MB = scaled((None, 64, 16), (None, 0.1, 0.05))
#: Memory guard: the tightest budget must cut peak bytes by this factor.
TARGET_PEAK_REDUCTION = 4.0
#: Throughput guard: the mid budget may cost at most this fraction.
MAX_THROUGHPUT_COST = 0.25


def _build_workload():
    recipe = core_y_recipe(scale=SCALE)
    circuit = recipe.build().circuit
    rng = random.Random(20050308)
    stimulus = circuit.stimulus_nets()
    patterns = [
        {net: rng.randint(0, 1) for net in stimulus} for _ in range(PATTERNS)
    ]
    blocks = list(iter_blocks(patterns, block_size=BLOCK_SIZE, nets=stimulus))
    return recipe, circuit, blocks


def _run_budget(circuit, blocks, budget_mb):
    fault_list = collapse_stuck_at(circuit).to_fault_list()
    engine = FaultSimulator(
        circuit, backend="numpy", memory_budget_mb=budget_mb
    )
    tracemalloc.reset_peak()
    start = time.perf_counter()
    engine.simulate_blocks(fault_list, blocks)
    seconds = time.perf_counter() - start
    traced_peak = tracemalloc.get_traced_memory()[1]
    scan = engine._np_scan[1]
    return {
        "budget_mb": budget_mb,
        "seconds": round(seconds, 4),
        "patterns_per_sec": round(PATTERNS / seconds, 1),
        "peak_workspace_bytes": scan.peak_workspace_nbytes,
        "peak_workspace_mb": round(scan.peak_workspace_nbytes / 2**20, 2),
        "tracemalloc_peak_bytes": traced_peak,
        "budget_clamped": scan.budget_clamped,
        "coverage": round(fault_list.coverage(), 12),
    }


def run() -> dict:
    recipe, circuit, blocks = _build_workload()
    fault_count = len(collapse_stuck_at(circuit).representatives)

    started_tracing = not tracemalloc.is_tracing()
    if started_tracing:
        tracemalloc.start()
    try:
        runs = [_run_budget(circuit, blocks, mb) for mb in BUDGETS_MB]
    finally:
        payload_stamp_peak = tracemalloc.get_traced_memory()[1]
        if started_tracing:
            tracemalloc.stop()

    coverages = {r["coverage"] for r in runs}
    assert len(coverages) == 1, f"budgets disagreed on coverage: {coverages}"
    for r in runs:
        if r["budget_mb"] is not None and not r["budget_clamped"]:
            budget_bytes = int(r["budget_mb"] * 2**20)
            assert r["peak_workspace_bytes"] <= budget_bytes, (
                f"budget {r['budget_mb']} MB violated: "
                f"{r['peak_workspace_bytes']} > {budget_bytes} bytes"
            )

    unbounded, mid, tight = runs
    peak_reduction = (
        unbounded["peak_workspace_bytes"] / tight["peak_workspace_bytes"]
    )
    throughput_ratio = mid["patterns_per_sec"] / unbounded["patterns_per_sec"]

    payload = {
        "core": recipe.name,
        "scale": SCALE,
        "gates": circuit.gate_count(),
        "flops": circuit.flop_count(),
        "collapsed_faults": fault_count,
        "patterns": PATTERNS,
        "block_size": BLOCK_SIZE,
        "coverage": next(iter(coverages)),
        "runs": runs,
        "bench_tracemalloc_peak_bytes": payload_stamp_peak,
        "peak_reduction_tight_budget": round(peak_reduction, 2),
        "throughput_ratio_mid_budget": round(throughput_ratio, 3),
        "target_peak_reduction": TARGET_PEAK_REDUCTION,
        "max_throughput_cost": MAX_THROUGHPUT_COST,
    }
    path = write_bench_json("scan_memory", payload)
    print_rows(f"Fault-scan memory budgets -- {recipe.name}", runs)
    print(
        f"peak reduction @{tight['budget_mb']} MB: {peak_reduction:.1f}x "
        f"(target >= {TARGET_PEAK_REDUCTION}x); throughput "
        f"@{mid['budget_mb']} MB: {throughput_ratio:.2f}x unbounded "
        f"(floor {1 - MAX_THROUGHPUT_COST:.2f}x) -> {path.name}"
    )
    return payload


@pytest.mark.skipif(not HAVE_NUMPY, reason="NumPy not installed (repro[fast])")
def test_scan_memory_budget_recorded():
    """Regression guard: budgets respected, >= 4x peak cut, <= 25% slowdown.
    The smoke tier only exercises the harness (tiny workloads measure fixed
    costs, not throughput or asymptotic memory), so only the budget-respected
    and coverage-equality assertions inside :func:`run` are enforced there."""
    payload = run()
    if smoke_mode():
        return
    assert payload["peak_reduction_tight_budget"] >= TARGET_PEAK_REDUCTION
    assert payload["throughput_ratio_mid_budget"] >= 1 - MAX_THROUGHPUT_COST


if __name__ == "__main__":
    payload = run()
    ok = smoke_mode() or (
        payload["peak_reduction_tight_budget"] >= TARGET_PEAK_REDUCTION
        and payload["throughput_ratio_mid_budget"] >= 1 - MAX_THROUGHPUT_COST
    )
    raise SystemExit(0 if ok else 1)
