"""Benchmark: compiled ATPG top-up vs the name-keyed oracle walk.

Measures the deterministic top-up phase (the paper's "# of Top-Up Patterns" /
"Fault Coverage 2" row) on the BIST-ready scaled Core Y stand-in two ways:

* **reference** -- the name-keyed oracle walk
  (:func:`repro.oracle.topup.run_topup_reference`): PODEM
  re-implies the whole netlist through ``dict[str, Value5]`` on every
  decision, and every generated pattern is fault-simulated width-1 against
  the whole remaining population,
* **compiled** -- kernel-indexed event-driven PODEM plus block-batched
  candidate screening (one PPSFP scan per ``block_size`` generated
  patterns).

Both paths produce byte-identical patterns and fault dispositions (asserted
on every run, so the benchmark doubles as a full-scale differential check);
the recorded figure of merit is top-up throughput *including screening* --
patterns produced per second of end-to-end top-up time -- with an acceptance
bar of ``>= 3x`` for the compiled engine.  A second section records the
end-to-end Table-1 flow time (scaled Core X), since the top-up phase is a
large share of a full flow run; the flow has one ATPG engine, so that
section has no reference column.

The workload mirrors the flow: scan-prepared core, flow-collapsed fault list
with chain-flush credit, a 512-pattern random phase, then top-up over the
random-resistant leftovers (capped by ``max_faults``; the dropped-target
count is recorded, never silent).

Run as a script (writes ``BENCH_topup.json``):

    PYTHONPATH=src python benchmarks/bench_topup.py

or through pytest:

    PYTHONPATH=src pytest benchmarks/bench_topup.py -s
"""

from __future__ import annotations

import random
import time

from repro.atpg import TopUpAtpg
from repro.core import LogicBistConfig, LogicBistFlow, prepare_scan_core
from repro.core.flow import credit_chain_flush, fresh_fault_list
from repro.cores import core_x_recipe, core_y_recipe
from repro.faults import FaultSimulator
from repro.oracle import run_topup_reference

from conftest import print_rows, scaled, smoke_mode, write_bench_json

#: Random patterns of the preceding BIST phase (defines the leftovers).
RANDOM_PATTERNS = scaled(512, 64)
#: Screening / simulation block width.
BLOCK_SIZE = 256
#: Top-up target cap (the dropped-target count is recorded in the JSON).
MAX_FAULTS = scaled(250, 12)
#: PODEM backtrack limit.
BACKTRACK_LIMIT = 100
#: Timed sections run this many times; the minimum is recorded.
REPEATS = scaled(2, 1)
#: Acceptance bar: compiled top-up throughput (patterns/sec incl. screening)
#: vs the name-keyed oracle.
TARGET_SPEEDUP = 3.0
#: Table-1 flow pattern budget (scaled Core X).
FLOW_RANDOM_PATTERNS = scaled(512, 64)


def _build_workload():
    recipe = core_y_recipe()
    config = LogicBistConfig(total_scan_chains=16, tpi_method="none")
    core = prepare_scan_core(recipe.build().circuit, config)
    return recipe, core, config


def _random_phase(core, config):
    """Flow-shaped fault list after the random phase (fresh every call)."""
    circuit = core.circuit
    fault_list = fresh_fault_list(circuit)
    credit_chain_flush(core, fault_list)
    rng = random.Random(20050307)
    stimulus = circuit.stimulus_nets()
    patterns = [
        {net: rng.randint(0, 1) for net in stimulus}
        for _ in range(RANDOM_PATTERNS)
    ]
    FaultSimulator(circuit).simulate(fault_list, patterns, block_size=BLOCK_SIZE)
    return fault_list


def _fault_snapshot(fault_list):
    return {
        str(fault): (
            fault_list.record(fault).status.name,
            fault_list.record(fault).first_detection,
        )
        for fault in fault_list.faults()
    }


def _reference_walk(circuit, fault_list):
    return run_topup_reference(
        circuit,
        fault_list,
        backtrack_limit=BACKTRACK_LIMIT,
        seed=9,
        max_faults=MAX_FAULTS,
    )


def _compiled_walk(circuit, fault_list):
    return TopUpAtpg(
        circuit,
        backtrack_limit=BACKTRACK_LIMIT,
        seed=9,
        max_faults=MAX_FAULTS,
        block_size=BLOCK_SIZE,
    ).run(fault_list)


def _run_topup(core, config, walk):
    best = None
    for _ in range(REPEATS):
        fault_list = _random_phase(core, config)
        start = time.perf_counter()
        result = walk(core.circuit, fault_list)
        seconds = time.perf_counter() - start
        if best is None or seconds < best[0]:
            best = (seconds, result, fault_list)
    return best


def _run_flow():
    recipe = core_x_recipe()
    core = recipe.build()
    config = LogicBistConfig(
        total_scan_chains=recipe.total_scan_chains,
        observation_point_budget=recipe.observation_point_budget,
        tpi_profile_patterns=recipe.tpi_profile_patterns,
        random_patterns=FLOW_RANDOM_PATTERNS,
        prpg_length=recipe.prpg_length,
        clock_frequencies_mhz=recipe.clock_frequencies_mhz,
        topup_backtrack_limit=60,
        signature_patterns=32,
        block_size=BLOCK_SIZE,
    )
    start = time.perf_counter()
    result = LogicBistFlow(config).run(core.circuit, core_name=recipe.name)
    return time.perf_counter() - start, result


def run() -> dict:
    recipe, core, config = _build_workload()
    baseline = _random_phase(core, config)
    undetected_before = len(baseline.undetected())

    ref_seconds, ref_result, ref_list = _run_topup(core, config, _reference_walk)
    cmp_seconds, cmp_result, cmp_list = _run_topup(core, config, _compiled_walk)

    # The benchmark doubles as a full-scale differential check.
    identical = (
        ref_result.patterns == cmp_result.patterns
        and [c.assignments for c in ref_result.cubes]
        == [c.assignments for c in cmp_result.cubes]
        and _fault_snapshot(ref_list) == _fault_snapshot(cmp_list)
        and (ref_result.attempted_faults, ref_result.backtracks)
        == (cmp_result.attempted_faults, cmp_result.backtracks)
    )
    assert identical, "compiled top-up diverged from the name-keyed oracle"

    speedup = ref_seconds / cmp_seconds
    ref_pps = ref_result.pattern_count / ref_seconds
    cmp_pps = cmp_result.pattern_count / cmp_seconds

    flow_seconds, flow = _run_flow()

    runs = [
        {
            "mode": "reference (name-keyed oracle)",
            "seconds": round(ref_seconds, 4),
            "patterns": ref_result.pattern_count,
            "patterns_per_sec": round(ref_pps, 2),
        },
        {
            "mode": f"compiled (kernel PODEM + block-{BLOCK_SIZE} screening)",
            "seconds": round(cmp_seconds, 4),
            "patterns": cmp_result.pattern_count,
            "patterns_per_sec": round(cmp_pps, 2),
        },
    ]

    payload = {
        "core": recipe.name,
        "gates": core.circuit.gate_count(),
        "collapsed_faults": len(baseline),
        "random_patterns": RANDOM_PATTERNS,
        "block_size": BLOCK_SIZE,
        "undetected_after_random": undetected_before,
        "max_faults": MAX_FAULTS,
        "skipped_targets": cmp_result.skipped_targets,
        "backtrack_limit": BACKTRACK_LIMIT,
        "attempted": cmp_result.attempted_faults,
        "successful": cmp_result.successful_faults,
        "untestable": cmp_result.untestable_faults,
        "aborted": cmp_result.aborted_faults,
        "coverage_before": round(cmp_result.coverage_before, 6),
        "coverage_after": round(cmp_result.coverage_after, 6),
        "runs": runs,
        "topup_patterns_per_sec_reference": round(ref_pps, 2),
        "topup_patterns_per_sec_compiled": round(cmp_pps, 2),
        "speedup_topup": round(speedup, 2),
        "table1_flow": {
            "core": core_x_recipe().name,
            "random_patterns": FLOW_RANDOM_PATTERNS,
            "seconds": round(flow_seconds, 2),
            "topup_patterns": flow.top_up_pattern_count,
            "fault_coverage_final": round(flow.fault_coverage_final, 6),
        },
        "bit_identical_to_reference": identical,
        "target_speedup": TARGET_SPEEDUP,
        "note": (
            "speedup_topup compares end-to-end top-up time (PODEM + random "
            "fill + candidate screening + compaction) on identical outputs; "
            "the reference row is the preserved name-keyed oracle"
        ),
    }
    path = write_bench_json("topup", payload)
    print_rows(f"Top-up ATPG throughput -- {recipe.name}", runs)
    print(
        f"top-up speedup {speedup:.2f}x (target >= {TARGET_SPEEDUP}x), "
        f"Table-1 flow {flow_seconds:.1f}s -> {path.name}"
    )
    return payload


def test_topup_speedup_recorded():
    """Regression guard: the compiled top-up engine keeps its >= 3x
    throughput (and bit-identity to the name-keyed oracle) on record.  The
    smoke tier only exercises the harness -- tiny workloads measure fixed
    costs, not throughput -- so only bit-identity is asserted there."""
    payload = run()
    assert payload["bit_identical_to_reference"]
    if smoke_mode():
        return
    assert payload["speedup_topup"] >= TARGET_SPEEDUP


if __name__ == "__main__":
    payload = run()
    ok = payload["bit_identical_to_reference"] and (
        smoke_mode() or payload["speedup_topup"] >= TARGET_SPEEDUP
    )
    raise SystemExit(0 if ok else 1)
