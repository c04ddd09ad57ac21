#!/usr/bin/env python3
"""Campaign-as-a-service: submit, stream, kill, resume.

PRs 1-6 made one campaign fast; this walkthrough shows the PR-7 service
tier that makes campaigns *infrastructure*: a long-lived asyncio
:class:`~repro.service.CampaignService` accepting scenario submissions into
a job queue, streaming incremental events while the stage graph drains, and
journaling finished stages so a killed service resumes with byte-identical
results.  Five acts:

1. **Submit & stream** -- two scenario jobs enter the queue; we subscribe to
   the first job's event stream and print stage completions and
   coverage-curve deltas as shard results merge (observable *while
   running*, in the spirit of the LiteSATA/LiteDRAM BIST generator/checker
   counters).
2. **Reassemble** -- the streamed content events are folded back into
   canonical report bytes and checked against the job's actual report:
   a subscriber needs nothing but the stream.
3. **Kill & resume** -- a crash is injected at a checkpoint boundary
   (equivalent to SIGKILL: the resumed service instance shares no memory
   with the crashed one); a fresh service recovers the pending job from
   disk, preloads the journaled stages, re-runs the rest, and the final
   bytes equal the uninterrupted run's.
4. **Warm cache & overhead** -- a job re-submitting the same circuit hits
   the service-tier prepared-scenario cache (zero fresh kernel compiles),
   and the service's total wall time is compared against a bare
   :class:`~repro.campaign.CampaignRunner` to show the parent-side
   streaming/checkpointing overhead.
5. **Cancel, deadline & quarantine** -- the PR-10 lifecycle layer: a
   mid-run job is cancelled at a stage boundary (checkpointed, then
   resumed to the oracle bytes), a job with an impossible deadline times
   out cooperatively (then resumed with a generous one), and a poison job
   that crashes the service on every resume attempt is quarantined after
   ``max_resume_attempts`` restarts instead of crash-looping forever.

Run with::

    python examples/campaign_service.py [--workers 1] [--patterns 96]
"""

import argparse
import asyncio
import tempfile
import time

from repro.campaign import CampaignRunner, CampaignScenario, LifecycleChaosPlan
from repro.core.config import LogicBistConfig, ServiceConfig
from repro.cores.generator import SyntheticCoreConfig, generate_synthetic_core
from repro.service import (
    CampaignService,
    CheckpointStore,
    EventReassembler,
    JobStarted,
)
from repro.service.events import (
    CoverageDelta,
    JobCancelled,
    JobQuarantined,
    ScenarioCompleted,
    SectionCompleted,
    StageFinished,
)


def make_core(name, seed, domains=2):
    config = SyntheticCoreConfig(
        name=name,
        clock_domains=tuple(f"clk{i + 1}" for i in range(domains)),
        num_inputs=10,
        num_outputs=6,
        register_width=7,
        pipeline_stages=1,
        adder_slices=1,
        adder_width=4,
        comparator_widths=(7,),
        decode_cone_width=5,
        cross_domain_links=2,
        seed=seed,
    )
    return generate_synthetic_core(config).circuit


def make_scenarios(patterns):
    config = LogicBistConfig(
        total_scan_chains=4,
        observation_point_budget=2,
        random_patterns=patterns,
        signature_patterns=12,
        block_size=16,
        campaign_topup=True,
        measure_transition_coverage=True,
        skew_trials=16,
    )
    return [
        CampaignScenario("ip_alpha", make_core("ip_alpha", seed=101), config),
        CampaignScenario("ip_beta", make_core("ip_beta", seed=102, domains=3), config),
    ]


class KillAtCheckpoint(CheckpointStore):
    """Simulates a kill right after the Nth checkpoint write lands."""

    def __init__(self, root, kill_after):
        super().__init__(root)
        self.saves = 0
        self.kill_after = kill_after

    def save_progress(self, job_id, run):
        super().save_progress(job_id, run)
        self.saves += 1
        if self.saves >= self.kill_after:
            raise RuntimeError(f"simulated kill at checkpoint {self.saves}")


async def act_one_submit_and_stream(scenarios, workers, checkpoint_dir):
    print("== 1. submit & stream " + "=" * 46)
    service = CampaignService(
        num_workers=workers,
        checkpoint_dir=checkpoint_dir,
        service_config=ServiceConfig(event_chunk=4),
    )
    await service.start()
    job_id = await service.submit(scenarios)
    print(f"submitted {job_id} ({len(scenarios)} scenarios); streaming:")
    events = []
    async for event in service.stream(job_id):
        events.append(event)
        if isinstance(event, StageFinished):
            print(
                f"  [{event.seq:3d}] stage done  {event.stage}"
                f"  ({event.seconds * 1000:.1f} ms)"
            )
        elif isinstance(event, CoverageDelta):
            print(
                f"  [{event.seq:3d}] curve delta {event.scenario}/{event.section}"
                f"  +{len(event.points)} pts -> coverage {event.coverage:.4f}"
            )
        elif isinstance(event, SectionCompleted):
            print(
                f"  [{event.seq:3d}] section     {event.scenario}/{event.section}"
            )
        elif isinstance(event, ScenarioCompleted):
            print(f"  [{event.seq:3d}] scenario    {event.scenario} complete")
    record = await service.wait(job_id)
    status = service.status()
    print(f"job state: {record.state}; counters: {status['counters']}")
    await service.stop()
    return record, events


def act_two_reassemble(record, events):
    print("== 2. reassemble the stream " + "=" * 40)
    reassembled = EventReassembler().feed_all(events)
    match = reassembled.report_bytes() == record.report
    reassembled.verify()
    print(
        f"reassembled {len(events)} events -> {len(record.report)} report "
        f"bytes; identical to the job's report: {match}"
    )
    assert match


async def act_three_kill_and_resume(scenarios, workers, oracle):
    print("== 3. kill & resume " + "=" * 48)
    with tempfile.TemporaryDirectory() as tmp:
        service = CampaignService(num_workers=workers, checkpoint_dir=tmp)
        killer = KillAtCheckpoint(tmp, kill_after=5)
        service.checkpoints = killer
        await service.start()
        job_id = await service.submit(scenarios)
        record = await service.wait(job_id)
        print(
            f"killed {job_id} at checkpoint {killer.saves}: state={record.state}"
            f" ({record.error})"
        )
        await service.stop()

        restarted = CampaignService(num_workers=workers, checkpoint_dir=tmp)
        recovered = await restarted.start()
        print(f"restarted service recovered pending jobs: {recovered}")
        events = []
        async for event in restarted.stream(job_id):
            events.append(event)
        resumed = await restarted.wait(job_id)
        started = next(e for e in events if isinstance(e, JobStarted))
        print(
            f"resumed with {started.preloaded_stages} checkpointed stages "
            f"preloaded; state={resumed.state}"
        )
        identical = resumed.report == oracle
        stream_ok = EventReassembler().feed_all(events).report_bytes() == oracle
        print(
            f"resumed report == uninterrupted bytes: {identical}; "
            f"resumed stream reassembles fully: {stream_ok}"
        )
        assert identical and stream_ok
        await restarted.stop()


async def act_four_warm_cache_and_overhead(scenarios, workers, runner_seconds):
    print("== 4. warm cache & overhead " + "=" * 40)
    service = CampaignService(num_workers=workers)
    await service.start()
    start = time.perf_counter()
    first = await service.wait(await service.submit(scenarios))
    cold = time.perf_counter() - start
    start = time.perf_counter()
    second = await service.wait(await service.submit(scenarios))
    warm = time.perf_counter() - start
    stats = service.status()["prep_cache"]
    print(
        f"cold job {cold:.2f}s, warm job {warm:.2f}s "
        f"(prep cache: {stats['hits']} hits / {stats['misses']} misses; "
        f"warm jobs skip scan insertion, TPI profiling and kernel compiles)"
    )
    assert first.report == second.report
    overhead = (cold - runner_seconds) / runner_seconds * 100.0
    print(
        f"bare CampaignRunner: {runner_seconds:.2f}s; service (streaming, "
        f"no checkpoints): {cold:.2f}s -> parent overhead {overhead:+.1f}%"
    )
    await service.stop()


async def act_five_cancel_deadline_quarantine(scenarios, workers, oracle):
    print("== 5. cancel, deadline & quarantine " + "=" * 32)

    # Cancel: stop a mid-run job at the next stage boundary, then resume it.
    with tempfile.TemporaryDirectory() as tmp:
        service = CampaignService(num_workers=workers, checkpoint_dir=tmp)
        await service.start()
        job_id = await service.submit(scenarios)
        async for event in service.stream(job_id):
            if isinstance(event, StageFinished):
                await service.cancel(job_id)
            elif isinstance(event, JobCancelled):
                print(
                    f"cancelled {job_id} mid-run: reason={event.reason}, "
                    f"checkpointed={event.checkpointed}"
                )
                break
        record = await service.wait(job_id)
        await service.resume(job_id)
        resumed = await service.wait(job_id)
        print(
            f"state {record.state} -> resumed -> {resumed.state}; "
            f"bytes == uninterrupted oracle: {resumed.report == oracle}"
        )
        assert record.state == "cancelled" and resumed.report == oracle

        # Deadline: an impossible per-job budget trips at the first stage
        # boundary; resubmitting with a generous one finishes normally.
        job_id = await service.submit(scenarios, deadline_s=1e-4)
        timed_out = await service.wait(job_id)
        await service.resume(job_id, deadline_s=600.0)
        recovered = await service.wait(job_id)
        print(
            f"deadline 0.1ms: state={timed_out.state}; resumed with 600s: "
            f"state={recovered.state}, bytes match: {recovered.report == oracle}"
        )
        assert timed_out.state == "timeout" and recovered.report == oracle
        await service.stop()

    # Quarantine: a poison job crashes the service at the same stage
    # boundary on every resume attempt.  After max_resume_attempts
    # recoveries the service quarantines it instead of crash-looping.
    with tempfile.TemporaryDirectory() as tmp:
        config = ServiceConfig(max_resume_attempts=1)
        job_id = None
        for attempt in range(3):
            service = CampaignService(
                num_workers=workers,
                checkpoint_dir=tmp,
                service_config=config,
                lifecycle_chaos=LifecycleChaosPlan.crash_every_run(),
            )
            recovered = await service.start()
            if job_id is None:
                job_id = await service.submit(scenarios)
            record = await service.wait(job_id)
            print(
                f"service start {attempt + 1}: recovered={recovered}, "
                f"job state={record.state}"
            )
            await service.stop()
            if record.state == "quarantined":
                break
        events = [e async for e in service.stream(job_id)]
        verdict = next(e for e in events if isinstance(e, JobQuarantined))
        print(
            f"quarantined after {verdict.resume_attempts} resume attempts "
            f"(limit {verdict.limit}); spec and partial results kept on disk"
        )
        assert record.state == "quarantined"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--patterns", type=int, default=96)
    args = parser.parse_args()

    scenarios = make_scenarios(args.patterns)
    start = time.perf_counter()
    oracle = CampaignRunner(num_workers=1).run(scenarios).report_bytes()
    runner_seconds = time.perf_counter() - start

    async def run():
        with tempfile.TemporaryDirectory() as tmp:
            record, events = await act_one_submit_and_stream(
                scenarios, args.workers, tmp
            )
            act_two_reassemble(record, events)
            assert record.report == oracle
        await act_three_kill_and_resume(scenarios, args.workers, oracle)
        await act_four_warm_cache_and_overhead(
            scenarios, args.workers, runner_seconds
        )
        await act_five_cancel_deadline_quarantine(
            scenarios, args.workers, oracle
        )

    asyncio.run(run())
    print("all byte-identity checks passed")


if __name__ == "__main__":
    main()
