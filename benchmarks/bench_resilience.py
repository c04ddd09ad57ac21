"""Benchmark: what the fault-tolerance layer costs when nothing fails.

PR 8 threads retry/timeout/chaos decisions through both schedulers: every
stage execution now consults a :class:`~repro.core.config.RetryPolicy` and
(optionally) a chaos plan, and the pooled completion loop heartbeats the
worker pool and tracks per-stage deadlines.  The acceptance bar is that a
**clean** run -- no faults, nothing to retry -- pays **< 2 %** for all of
this: resilience must be effectively free until the day it earns its keep.

Measured here, all on the same multi-scenario campaign:

* **serial overhead** -- the serial scheduler with a live retry policy
  (retries, backoff and soft timeouts armed) vs the bare default, min over
  ``REPEATS`` runs.  This is the honest single-CPU measurement of the
  per-stage policy machinery, and the asserted number,
* **pooled overhead** -- the same comparison on a real 2-worker pool
  (recorded, not asserted: pool wall times on shared CI cores are noisy),
* **recovery latency** -- wall-clock penalty of recovering one SIGKILLed
  worker mid-campaign on the 2-worker pool, with the recovered report
  re-asserted byte-identical to the clean serial oracle.  Not a regression
  bar, but the number that makes "bounded recovery" concrete,
* **lifecycle overhead** (PR 10) -- the serial campaign with the job
  lifecycle machinery armed (a live :class:`~repro.campaign.CancelToken`
  with a far-future deadline, checked at every stage boundary) vs the bare
  run.  Same < 2 % bar as the retry machinery: cancellability must be free
  until someone cancels,
* **cancel latency** (PR 10) -- wall clock from a ``service.cancel()``
  call against a mid-run job to its checkpointed ``JobCancelled`` event,
  min over repeats.  Bounded by one stage execution (cancellation is
  cooperative at stage boundaries); recorded, not asserted.

Run as a script (writes ``benchmarks/BENCH_resilience.json``):

    PYTHONPATH=src python benchmarks/bench_resilience.py

or through pytest:

    PYTHONPATH=src pytest benchmarks/bench_resilience.py -s
"""

from __future__ import annotations

import asyncio
import tempfile
import time

from repro.campaign import (
    CampaignRunner,
    CampaignScenario,
    CancelToken,
    ExplicitChaosPlan,
)
from repro.core import LogicBistConfig
from repro.core.config import RetryPolicy
from repro.cores.generator import SyntheticCoreConfig, generate_synthetic_core
from repro.service import CampaignService
from repro.service.events import JobCancelled, StageFinished

from conftest import print_rows, scaled, smoke_mode, write_bench_json

SCENARIOS = scaled(3, 2)
FAULT_SHARDS = 4
REPEATS = scaled(3, 1)
#: Acceptance bar: clean-run cost of the armed resilience machinery.
MAX_CLEAN_OVERHEAD = 0.02

#: A production-shaped policy: retries, backoff and soft timeouts all armed.
ARMED_POLICY = RetryPolicy(
    max_attempts=3,
    backoff_base_s=0.05,
    stage_timeout_s=120.0,
    heartbeat_s=0.25,
)


def _build_scenarios() -> list[CampaignScenario]:
    scenarios = []
    for index in range(SCENARIOS):
        core_config = SyntheticCoreConfig(
            name=f"resilience_{index}",
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
            seed=800 + index,
        )
        circuit = generate_synthetic_core(core_config).circuit
        config = LogicBistConfig(
            total_scan_chains=4,
            tpi_method="none",
            observation_point_budget=0,
            random_patterns=scaled(512, 64),
            signature_patterns=32,
            block_size=64,
        )
        scenarios.append(CampaignScenario(f"scenario_{index}", circuit, config))
    return scenarios


def _campaign_wall(
    scenarios, *, num_workers, retry_policy=None, chaos=None, lifecycle=False
):
    """Min wall-clock over ``REPEATS`` runs; returns (seconds, result).

    ``lifecycle=True`` arms the PR-10 cancellation machinery exactly as a
    service job would: a live :class:`CancelToken` with a (far-future)
    deadline armed, consulted at every stage boundary, never tripped.
    """
    best = None
    result = None
    for _ in range(REPEATS):
        runner = CampaignRunner(
            num_workers=num_workers,
            fault_shards=FAULT_SHARDS,
            retry_policy=retry_policy,
            chaos=chaos,
        )
        token = None
        if lifecycle:
            token = CancelToken()
            token.arm_deadline(3600.0)
        start = time.perf_counter()
        result = runner.run(scenarios, cancel_token=token)
        wall = time.perf_counter() - start
        if best is None or wall < best:
            best = wall
    return best, result


def _cancel_latency_wall(scenarios) -> float:
    """Min over ``REPEATS``: service.cancel() of a mid-run job -> its
    checkpointed JobCancelled event (the cooperative-stop latency)."""

    async def one_cancel(checkpoint_dir) -> float:
        service = CampaignService(num_workers=1, checkpoint_dir=checkpoint_dir)
        await service.start()
        job_id = await service.submit(scenarios)
        requested = None
        latency = None
        async for event in service.stream(job_id):
            if requested is None and isinstance(event, StageFinished):
                requested = time.perf_counter()
                await service.cancel(job_id)
            elif isinstance(event, JobCancelled):
                latency = time.perf_counter() - requested
                break
        await service.wait(job_id)
        await service.stop()
        return latency

    best = None
    for _ in range(REPEATS):
        with tempfile.TemporaryDirectory() as checkpoint_dir:
            latency = asyncio.run(one_cancel(checkpoint_dir))
        if best is None or latency < best:
            best = latency
    return best


def run() -> dict:
    scenarios = _build_scenarios()

    # Warm the kernel/engine caches so the first measured configuration
    # does not absorb one-time compile costs the others skip.
    CampaignRunner(num_workers=1, fault_shards=FAULT_SHARDS).run(scenarios)

    serial_bare, serial_result = _campaign_wall(scenarios, num_workers=1)
    serial_armed, armed_result = _campaign_wall(
        scenarios, num_workers=1, retry_policy=ARMED_POLICY
    )
    serial_overhead = serial_armed / serial_bare - 1.0
    oracle = serial_result.report_bytes()
    identical_armed = armed_result.report_bytes() == oracle

    lifecycle_armed, lifecycle_result = _campaign_wall(
        scenarios, num_workers=1, lifecycle=True
    )
    lifecycle_overhead = lifecycle_armed / serial_bare - 1.0
    identical_lifecycle = lifecycle_result.report_bytes() == oracle

    pooled_bare, _ = _campaign_wall(scenarios, num_workers=2)
    pooled_armed, _ = _campaign_wall(
        scenarios, num_workers=2, retry_policy=ARMED_POLICY
    )
    pooled_overhead = pooled_armed / pooled_bare - 1.0

    # Recovery latency: SIGKILL one fault-sim shard worker mid-campaign.
    fast_policy = RetryPolicy(
        max_attempts=3,
        backoff_base_s=0.001,
        backoff_max_s=0.002,
        stage_timeout_s=30.0,
        heartbeat_s=0.05,
    )
    kill_plan = ExplicitChaosPlan.single("scenario_0/fault_sim/shard1", kind="kill")
    recovered_wall, recovered_result = _campaign_wall(
        scenarios, num_workers=2, retry_policy=fast_policy, chaos=kill_plan
    )
    identical_recovered = recovered_result.report_bytes() == oracle
    recovery_penalty = recovered_wall - pooled_armed

    cancel_latency = _cancel_latency_wall(scenarios)

    rows = [
        {
            "configuration": "serial, bare (no retry policy)",
            "seconds": round(serial_bare, 4),
        },
        {
            "configuration": "serial, resilience armed",
            "seconds": round(serial_armed, 4),
            "overhead": f"{serial_overhead:+.2%}",
        },
        {
            "configuration": "2-worker pool, bare",
            "seconds": round(pooled_bare, 4),
        },
        {
            "configuration": "2-worker pool, resilience armed",
            "seconds": round(pooled_armed, 4),
            "overhead": f"{pooled_overhead:+.2%}",
        },
        {
            "configuration": "2-worker pool, one worker SIGKILLed",
            "seconds": round(recovered_wall, 4),
            "overhead": f"{recovery_penalty:+.3f}s penalty",
        },
        {
            "configuration": "serial, lifecycle armed (cancel token + deadline)",
            "seconds": round(lifecycle_armed, 4),
            "overhead": f"{lifecycle_overhead:+.2%}",
        },
        {
            "configuration": "service cancel -> checkpointed stop",
            "seconds": round(cancel_latency, 4),
            "overhead": "latency",
        },
    ]

    payload = {
        "scenarios": SCENARIOS,
        "fault_shards": FAULT_SHARDS,
        "repeats": REPEATS,
        "serial_bare_seconds": round(serial_bare, 4),
        "serial_armed_seconds": round(serial_armed, 4),
        "serial_clean_overhead": round(serial_overhead, 4),
        "pooled_bare_seconds": round(pooled_bare, 4),
        "pooled_armed_seconds": round(pooled_armed, 4),
        "pooled_clean_overhead": round(pooled_overhead, 4),
        "kill_recovery_wall_seconds": round(recovered_wall, 4),
        "kill_recovery_penalty_seconds": round(recovery_penalty, 4),
        "lifecycle_armed_seconds": round(lifecycle_armed, 4),
        "lifecycle_clean_overhead": round(lifecycle_overhead, 4),
        "cancel_latency_seconds": round(cancel_latency, 4),
        "max_clean_overhead": MAX_CLEAN_OVERHEAD,
        "bit_identical_armed": identical_armed,
        "bit_identical_recovered": identical_recovered,
        "bit_identical_lifecycle": identical_lifecycle,
        "note": (
            "serial_clean_overhead is the asserted number (< 2%): the cost "
            "of consulting an armed RetryPolicy per stage on a fault-free "
            "run, min over repeats.  pooled_clean_overhead adds the "
            "heartbeat/deadline bookkeeping (recorded only; pool walls on "
            "shared CI cores are noisy).  kill_recovery_* is the wall cost "
            "of detecting a SIGKILLed worker, respawning it and replaying "
            "its stage, report re-asserted byte-identical to the oracle.  "
            "lifecycle_clean_overhead (asserted < 2%) is the cost of a live "
            "CancelToken with an armed deadline checked at every stage "
            "boundary, never tripped; cancel_latency_seconds is the wall "
            "from service.cancel() on a mid-run job to its checkpointed "
            "JobCancelled event (recorded only; bounded by one stage).  "
            "Both 2% bars are below the noise of a small shared host: on 2 "
            "vCPUs the 0.5 s walls swing by 15-40% run to run, so there one "
            "record's overheads are unresolved, in either direction"
        ),
    }
    path = write_bench_json("resilience", payload)
    print_rows(
        f"Resilience overhead -- {SCENARIOS} scenarios, {FAULT_SHARDS} shards",
        rows,
    )
    print(
        f"clean overhead: serial {serial_overhead:+.2%}, lifecycle "
        f"{lifecycle_overhead:+.2%} (bar < {MAX_CLEAN_OVERHEAD:.0%}), "
        f"pooled {pooled_overhead:+.2%}; kill recovery penalty "
        f"{recovery_penalty:+.3f}s; cancel latency {cancel_latency:.3f}s "
        f"-> {path.name}"
    )
    return payload


def test_resilience_overhead_recorded():
    """Regression guard: the armed resilience and lifecycle machinery each
    cost a fault-free serial campaign < 2%, and the armed, crash-recovered
    and lifecycle-armed runs all stay byte-identical to the bare oracle.
    Timing is only asserted outside smoke mode (tiny workloads measure
    fixed costs, not throughput)."""
    payload = run()
    assert payload["bit_identical_armed"]
    assert payload["bit_identical_recovered"]
    assert payload["bit_identical_lifecycle"]
    if smoke_mode():
        return
    assert payload["serial_clean_overhead"] < MAX_CLEAN_OVERHEAD
    assert payload["lifecycle_clean_overhead"] < MAX_CLEAN_OVERHEAD


if __name__ == "__main__":
    payload = run()
    ok = (
        payload["bit_identical_armed"]
        and payload["bit_identical_recovered"]
        and payload["bit_identical_lifecycle"]
        and (
            smoke_mode()
            or (
                payload["serial_clean_overhead"] < MAX_CLEAN_OVERHEAD
                and payload["lifecycle_clean_overhead"] < MAX_CLEAN_OVERHEAD
            )
        )
    )
    raise SystemExit(0 if ok else 1)
