"""Benchmark: at-speed transition campaigns scale like stuck-at campaigns.

Before PR 6, ``CampaignRunner`` silently ignored
``measure_transition_coverage``: the paper's headline capability -- at-speed
launch-on-capture transition coverage (Fig. 2) plus the Fig. 3 shift-path
skew sweep -- only existed in the serial ``LogicBistFlow`` path, so a
scenario sweep's at-speed compute could never use the worker pool.

The transition fan-out and the Monte-Carlo skew sweep are campaign stage
nodes: the transition scan shards its faults like the stuck-at scan, and the
skew sweep is one pooled stage per scenario (a thousand trials take about
10 ms, less than one pooled dispatch, so it does not fan out).  This
benchmark runs a transition-heavy multi-domain campaign through the serial
scheduler (whose per-stage trace is an honest single-CPU measurement of
every stage) and derives:

* **at_speed_share** -- the at-speed phase (transition preparation and
  shards + the skew stage) as a share of total campaign compute.  The
  workload is shaped so this is substantial (>= 20 %): if the at-speed
  stages were still serial, they alone would cap the campaign's speedup,
* **projected speedups at 4 workers** (Amdahl from the same trace) with the
  at-speed stages pooled vs counted as parent-serial -- the architecture
  delta this PR delivers, machine-independent,
* **wall-clock speedup** on a real 4-worker pool -- recorded always,
  asserted only when the host exposes >= 4 CPUs.

Every run also re-asserts byte-identity of the pooled at-speed campaign
report (including its ``transition`` and ``skew`` sections) against the
serial walk, so the benchmark doubles as an equivalence check.

Run as a script (writes ``benchmarks/BENCH_transition_campaign.json``):

    PYTHONPATH=src python benchmarks/bench_transition_campaign.py

or through pytest:

    PYTHONPATH=src pytest benchmarks/bench_transition_campaign.py -s
"""

from __future__ import annotations

import os
import time

from repro.campaign import CampaignRunner, CampaignScenario
from repro.campaign.pipeline import PHASE_AT_SPEED
from repro.core import LogicBistConfig
from repro.cores.generator import SyntheticCoreConfig, generate_synthetic_core

from conftest import print_rows, scaled, smoke_mode, write_bench_json

WORKERS = 4
SCENARIOS = scaled(3, 2)
#: Acceptance bar: at-speed stages as a share of total campaign compute --
#: the fraction that was serial-only before this PR.
TARGET_AT_SPEED_SHARE = 0.20
#: Acceptance bar: projected 4-worker speedup with at-speed stages pooled.
TARGET_PROJECTED_SPEEDUP = 2.0
#: Timed sections run this many times; the minimum is recorded.
REPEATS = scaled(2, 1)


def _build_scenarios() -> list[CampaignScenario]:
    """Transition-heavy multi-clock scenarios.

    ``transition_patterns`` rivals ``random_patterns`` and every scenario
    runs a sizeable skew sweep, so the at-speed phase is a large share of
    the campaign -- the workload shape where serial-only at-speed
    measurement Amdahl-capped the whole sweep.
    """
    scenarios = []
    for index in range(SCENARIOS):
        domains = 2 + index % 2
        core_config = SyntheticCoreConfig(
            name=f"transition_heavy_{index}",
            clock_domains=tuple(f"clk{d + 1}" for d in range(domains)),
            num_inputs=10,
            num_outputs=6,
            register_width=8,
            pipeline_stages=2,
            adder_slices=2,
            adder_width=6,
            comparator_widths=(8,),
            decode_cone_width=6,
            cross_domain_links=2,
            seed=700 + index,
        )
        circuit = generate_synthetic_core(core_config).circuit
        config = LogicBistConfig(
            total_scan_chains=4,
            tpi_method="none",
            observation_point_budget=0,
            random_patterns=scaled(256, 48),
            signature_patterns=16,
            measure_transition_coverage=True,
            transition_patterns=scaled(256, 32),
            skew_trials=scaled(2000, 40),
            skew_range_ns=6.0,
            block_size=64,
        )
        scenarios.append(CampaignScenario(f"scenario_{index}", circuit, config))
    return scenarios


def _serial_trace_run(scenarios):
    """One serial-scheduler campaign; returns (result, phases, categories, wall)."""
    best = None
    for _ in range(REPEATS):
        runner = CampaignRunner(num_workers=1, fault_shards=WORKERS)
        start = time.perf_counter()
        result = runner.run(scenarios)
        wall = time.perf_counter() - start
        phases = runner.last_run.seconds_by_phase()
        categories = runner.last_run.seconds_by_category()
        if best is None or wall < best[3]:
            best = (result, phases, categories, wall)
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
    serial_result, phases, categories, serial_wall = _serial_trace_run(scenarios)

    prep = categories.get("prep", 0.0)
    sim = categories.get("sim", 0.0)
    control = categories.get("control", 0.0)
    total = prep + sim + control
    at_speed = phases.get(PHASE_AT_SPEED, 0.0)
    at_speed_share = at_speed / total

    # Amdahl accounting from the same single-CPU trace.  "Serial-only
    # at-speed" models the pre-PR-6 shape: the at-speed compute runs in the
    # parent next to the control stages while everything else pools.
    # "Pooled at-speed" is this PR: only control stays serial.
    projected_serial_at_speed = total / (
        control + at_speed + (prep + sim - at_speed) / WORKERS
    )
    projected_pooled_at_speed = total / (control + (prep + sim) / WORKERS)

    pool_wall, pooled_result = _pooled_wall(scenarios, WORKERS)
    pooled_report = pooled_result.report_bytes()
    identical = pooled_report == serial_result.report_bytes()
    sections_present = b'"transition"' in pooled_report and b'"skew"' in pooled_report
    wall_speedup = serial_wall / pool_wall

    rows = [
        {
            "quantity": "at-speed stages (transition shards + skew trials)",
            "seconds": round(at_speed, 4),
            "share": f"{at_speed_share:.1%}",
        },
        {
            "quantity": "all pool-eligible compute (prep + sim)",
            "seconds": round(prep + sim, 4),
            "share": f"{(prep + sim) / total:.1%}",
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
                "clock_domains": len(scenario.circuit.clock_domains()),
                "random_patterns": scenario.config.random_patterns,
                "transition_patterns": scenario.config.transition_patterns,
                "skew_trials": scenario.config.skew_trials,
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
            "at_speed_phase": round(at_speed, 4),
            "total": round(total, 4),
        },
        "at_speed_share": round(at_speed_share, 4),
        "target_at_speed_share": TARGET_AT_SPEED_SHARE,
        "speedup_projected_4w_serial_at_speed": round(projected_serial_at_speed, 2),
        "speedup_projected_4w_pooled_at_speed": round(projected_pooled_at_speed, 2),
        "target_projected_speedup": TARGET_PROJECTED_SPEEDUP,
        "serial_wall_seconds": round(serial_wall, 4),
        "pool_wall_seconds": round(pool_wall, 4),
        "speedup_wall_4w": round(wall_speedup, 2),
        "bit_identical_to_serial": identical,
        "at_speed_sections_present": sections_present,
        "note": (
            "at_speed_share = transition + skew-sweep stage compute as a "
            "share of the campaign, from one single-CPU serial-scheduler "
            "trace; speedup_projected_4w_* applies Amdahl at 4 workers to "
            "the same trace with the at-speed stages parent-serial (the "
            "pre-PR-6 architecture) vs pooled (this PR); speedup_wall_4w is "
            "what this host measured and is ~1x or below on a single-CPU "
            "container"
        ),
    }
    path = write_bench_json("transition_campaign", payload)
    print_rows(
        f"At-speed campaign compute breakdown -- {SCENARIOS} transition-heavy "
        "scenarios",
        rows,
    )
    print(
        f"at-speed share: {at_speed_share:.1%} (target >= "
        f"{TARGET_AT_SPEED_SHARE:.0%}); projected {WORKERS}-worker speedup "
        f"{projected_serial_at_speed:.2f}x (at-speed serial) -> "
        f"{projected_pooled_at_speed:.2f}x (at-speed pooled); wall on "
        f"{cpus_available} CPU(s): {wall_speedup:.2f}x -> {path.name}"
    )
    return payload


def test_transition_campaign_speedup_recorded():
    """Regression guard: the at-speed phase is a substantial, pooled share of
    a transition-heavy campaign (projected speedup beats the serial-at-speed
    architecture), and the pooled at-speed report stays byte-identical.  The
    wall-clock speedup is only asserted when the host exposes >= 4 cores."""
    payload = run()
    assert payload["bit_identical_to_serial"]
    assert payload["at_speed_sections_present"]
    if smoke_mode():
        return
    assert payload["at_speed_share"] >= TARGET_AT_SPEED_SHARE
    assert (
        payload["speedup_projected_4w_pooled_at_speed"]
        >= payload["target_projected_speedup"]
    )
    assert (
        payload["speedup_projected_4w_pooled_at_speed"]
        > payload["speedup_projected_4w_serial_at_speed"]
    )
    if (payload["cpus_available"] or 0) >= WORKERS and (
        payload["cpu_count"] or 0
    ) >= WORKERS:
        assert payload["speedup_wall_4w"] >= 2.0


if __name__ == "__main__":
    payload = run()
    ok = (
        payload["bit_identical_to_serial"]
        and payload["at_speed_sections_present"]
        and (
            smoke_mode()
            or (
                payload["at_speed_share"] >= TARGET_AT_SPEED_SHARE
                and payload["speedup_projected_4w_pooled_at_speed"]
                >= TARGET_PROJECTED_SPEEDUP
            )
        )
    )
    raise SystemExit(0 if ok else 1)
