"""Benchmark: the serial-preparation (Amdahl) fraction of a TPI-heavy campaign.

Before PR 4, every campaign scenario's *preparation* -- scan insertion, TPI
profiling (a full serial fault simulation under ``tpi_method="fault_sim"``)
and signature-response derivation -- ran serially in the ``CampaignRunner``
parent before the fault-sim shards fanned out.  On a TPI-heavy multi-scenario
campaign that serial fraction Amdahl-caps the speedup well below the worker
count no matter how well the shards balance.

The split below goes by stage *category* (``prep``, ``sim``, ``control``),
not by where a stage runs.  Scan insertion, TPI profiling and the shards
run in pool workers; the bundle (STUMPS and session), the signature and
the skew sweep run in the parent because each computes less than one
pooled dispatch costs, yet they still count as ``prep`` or ``sim``.  So
``serial_fraction_after`` counts only the ``control`` stages, and
``speedup_wall_4w`` is the one number here that measures the placement.

The stage-graph pipeline makes preparation pooled work.  This benchmark runs
a 4-scenario TPI-heavy campaign through the serial scheduler (whose per-stage
trace is an honest single-CPU measurement of every stage) and derives:

* **serial_fraction_before** -- preparation + parent-side control as a share
  of total campaign compute: the Amdahl number of the pre-pipeline runner,
  where exactly those stages were parent-process serial code,
* **serial_fraction_after** -- only the parent-side control stages (shard
  planning, order-independent merges, report assembly) as a share of total:
  the Amdahl number of the pipelined runner, where preparation and shards
  drain through one pool.  The acceptance bar is **< 10 %**,
* **projected speedups at 4 workers** for both architectures from the same
  trace (Amdahl: serial part + parallel part / workers), machine-independent,
* **wall-clock speedup** on a real 4-worker pool -- recorded always,
  meaningful (and asserted) only when the host exposes >= 4 CPUs; on the
  single-CPU CI container four workers time-share one core.

Every run also re-asserts byte-identity of the pipelined campaign report
against the serial walk, so the benchmark doubles as an equivalence check.

Run as a script (writes ``benchmarks/BENCH_pipeline.json``):

    PYTHONPATH=src python benchmarks/bench_pipeline.py

or through pytest:

    PYTHONPATH=src pytest benchmarks/bench_pipeline.py -s
"""

from __future__ import annotations

import os
import time

from repro.campaign import CampaignRunner, CampaignScenario
from repro.core import LogicBistConfig
from repro.cores.generator import SyntheticCoreConfig, generate_synthetic_core

from conftest import print_rows, scaled, smoke_mode, write_bench_json

WORKERS = 4
SCENARIOS = scaled(4, 2)
#: Acceptance bar: parent-serial share of campaign compute after pipelining.
TARGET_SERIAL_FRACTION = 0.10
#: Timed sections run this many times; the minimum is recorded.
REPEATS = scaled(2, 1)


def _build_scenarios() -> list[CampaignScenario]:
    """Four TPI-heavy scenarios: profiling is a large share of each one.

    ``tpi_profile_patterns`` is sized against ``random_patterns`` so that the
    preliminary profiling simulation (which scans the *whole* collapsed fault
    universe, no dropping head start) rivals the main session -- the workload
    shape that exposed the serial-preparation cap.
    """
    scenarios = []
    for index in range(SCENARIOS):
        core_config = SyntheticCoreConfig(
            name=f"tpi_heavy_{index}",
            clock_domains=("clk1", "clk2"),
            num_inputs=10,
            num_outputs=6,
            register_width=8,
            pipeline_stages=2,
            adder_slices=2,
            adder_width=6,
            comparator_widths=(8,),
            decode_cone_width=6,
            cross_domain_links=2,
            seed=600 + index,
        )
        circuit = generate_synthetic_core(core_config).circuit
        config = LogicBistConfig(
            total_scan_chains=4,
            tpi_method="fault_sim",
            observation_point_budget=6,
            tpi_profile_patterns=scaled(256, 32),
            random_patterns=scaled(512, 64),
            signature_patterns=32,
            block_size=64,
        )
        scenarios.append(CampaignScenario(f"scenario_{index}", circuit, config))
    return scenarios


def _serial_trace_run(scenarios):
    """One serial-scheduler campaign; returns (result, per-category seconds)."""
    best = None
    for _ in range(REPEATS):
        runner = CampaignRunner(num_workers=1, fault_shards=WORKERS)
        start = time.perf_counter()
        result = runner.run(scenarios)
        wall = time.perf_counter() - start
        categories = runner.last_run.seconds_by_category()
        if best is None or wall < best[2]:
            best = (result, categories, wall)
    return best


def _pooled_wall(scenarios, num_workers):
    seconds = []
    result = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = CampaignRunner(num_workers=num_workers, fault_shards=WORKERS).run(
            scenarios
        )
        seconds.append(time.perf_counter() - start)
    return min(seconds), result


def run() -> dict:
    scenarios = _build_scenarios()
    serial_result, categories, serial_wall = _serial_trace_run(scenarios)

    prep = categories.get("prep", 0.0)
    sim = categories.get("sim", 0.0)
    control = categories.get("control", 0.0)
    total = prep + sim + control

    # Amdahl accounting from the same single-CPU trace.  Before the
    # pipeline, preparation and all control ran serially in the parent and
    # only the "sim" category (the fault-sim shards, which PR 2 already
    # pooled) was pool work; after, only control stays serial.  The MISR
    # folds, pooled per domain in PR 2, now run inside the one signature
    # stage and count as preparation.
    serial_before = prep + control
    serial_after = control
    fraction_before = serial_before / total
    fraction_after = serial_after / total
    projected_before = total / (serial_before + sim / WORKERS)
    projected_after = total / (serial_after + (prep + sim) / WORKERS)

    pool_wall, pooled_result = _pooled_wall(scenarios, WORKERS)
    identical = pooled_result.report_bytes() == serial_result.report_bytes()
    wall_speedup = serial_wall / pool_wall

    rows = [
        {
            "quantity": "preparation (scan+TPI+session+signature)",
            "seconds": round(prep, 4),
            "share": f"{prep / total:.1%}",
        },
        {
            "quantity": "pooled-in-both compute (fault-sim shards)",
            "seconds": round(sim, 4),
            "share": f"{sim / total:.1%}",
        },
        {
            "quantity": "parent-side control (plan/merge/report)",
            "seconds": round(control, 4),
            "share": f"{control / total:.1%}",
        },
    ]

    cpus_available = (
        len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count()
    )
    payload = {
        "scenarios": [
            {
                "name": scenario.name,
                "gates": scenario.circuit.gate_count(),
                "flops": scenario.circuit.flop_count(),
                "tpi_method": scenario.config.tpi_method,
                "tpi_profile_patterns": scenario.config.tpi_profile_patterns,
                "random_patterns": scenario.config.random_patterns,
            }
            for scenario in scenarios
        ],
        "workers": WORKERS,
        "cpu_count": os.cpu_count(),
        "cpus_available": cpus_available,
        "stage_seconds": {
            "prep": round(prep, 4),
            "sim": round(sim, 4),
            "control": round(control, 4),
            "total": round(total, 4),
        },
        "serial_fraction_before": round(fraction_before, 4),
        "serial_fraction_after": round(fraction_after, 4),
        "target_serial_fraction_after": TARGET_SERIAL_FRACTION,
        "speedup_projected_4w_before": round(projected_before, 2),
        "speedup_projected_4w_after": round(projected_after, 2),
        "serial_wall_seconds": round(serial_wall, 4),
        "pool_wall_seconds": round(pool_wall, 4),
        "speedup_wall_4w": round(wall_speedup, 2),
        "bit_identical_to_serial": identical,
        "note": (
            "serial_fraction_before/after = parent-serial share of campaign "
            "compute in the pre-pipeline vs stage-graph architecture, from "
            "one single-CPU serial-scheduler trace (machine-independent); "
            "speedup_projected_* applies Amdahl at 4 workers to the same "
            "trace; speedup_wall_4w is what this host measured and is ~1x "
            "or below on a single-CPU container"
        ),
    }
    path = write_bench_json("pipeline", payload)
    print_rows(
        f"Campaign compute breakdown -- {SCENARIOS} TPI-heavy scenarios", rows
    )
    print(
        f"serial fraction: {fraction_before:.1%} (pre-pipeline) -> "
        f"{fraction_after:.1%} (pipelined, target < {TARGET_SERIAL_FRACTION:.0%}); "
        f"projected {WORKERS}-worker speedup {projected_before:.2f}x -> "
        f"{projected_after:.2f}x; wall on {cpus_available} CPU(s): "
        f"{wall_speedup:.2f}x -> {path.name}"
    )
    return payload


def test_pipeline_amdahl_fraction_recorded():
    """Regression guard: pooled preparation keeps the parent-serial share of
    a TPI-heavy campaign under 10% (and the pipelined report byte-identical).
    The wall-clock speedup is only asserted when the host exposes >= 4 cores;
    on fewer cores the projected (machine-independent) number is the record."""
    payload = run()
    assert payload["bit_identical_to_serial"]
    if smoke_mode():
        return
    assert payload["serial_fraction_after"] < TARGET_SERIAL_FRACTION
    assert (
        payload["speedup_projected_4w_after"]
        > payload["speedup_projected_4w_before"]
    )
    if (payload["cpus_available"] or 0) >= WORKERS and (
        payload["cpu_count"] or 0
    ) >= WORKERS:
        assert payload["speedup_wall_4w"] >= 2.0


if __name__ == "__main__":
    payload = run()
    ok = payload["bit_identical_to_serial"] and (
        smoke_mode() or payload["serial_fraction_after"] < TARGET_SERIAL_FRACTION
    )
    raise SystemExit(0 if ok else 1)
