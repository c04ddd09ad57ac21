"""Job-lifecycle differential tests: cancel, deadline, shutdown, quarantine.

PR 10's claim is that every path through the job state machine (``queued ->
running -> finished | partial | failed | cancelled | timeout |
quarantined``) is checkpoint-consistent: a job cancelled at *any* stage
boundary (explicitly, by deadline, or by ``stop(mode="cancel")``) and later
resumed produces final report bytes identical to the uninterrupted serial
oracle -- across worker counts and simulation backends -- and a poison job
that kills the service on every resume attempt is quarantined after
``max_resume_attempts`` recoveries while its siblings finish normally.

The service-tier injections come from
:class:`~repro.campaign.chaos.LifecycleChaosPlan`: deterministic
cancel/deadline/crash actions applied by the job observer at exact stage
boundaries, so every schedule here is reproducible.
"""

import asyncio
import random

import pytest

from repro.campaign import (
    CampaignScenario,
    CancelToken,
    LifecycleChaosPlan,
    LifecycleInjection,
    ScheduleCancelled,
)
from repro.core.config import LogicBistConfig, RetryPolicy, ServiceConfig
from repro.service import (
    CampaignService,
    CheckpointStore,
    JobSpec,
    QueueFullError,
    ServiceStoppedError,
)
from repro.service.events import (
    JobCancelled,
    JobFailed,
    JobQuarantined,
    StageFinished,
)

from test_checkpoint_resume import (
    BACKENDS,
    WORKER_COUNTS,
    assert_stream_well_formed,
    make_core,
    make_scenarios,
    oracle_bytes,
)

pytestmark = [pytest.mark.service, pytest.mark.lifecycle]


def make_named_scenarios(name: str, backend: str = "python", seed: int = 31):
    """make_scenarios with a controllable scenario name (chaos targeting)."""
    config = LogicBistConfig(
        random_patterns=48,
        signature_patterns=8,
        total_scan_chains=4,
        sim_backend=backend,
        campaign_topup=True,
        measure_transition_coverage=True,
        skew_trials=6,
    )
    return [CampaignScenario(name, make_core(seed=seed), config)]


def poison_scenarios(backend: str):
    """Module-level factory so oracle_bytes can cache the poison oracle."""
    return make_named_scenarios("poison", backend)


async def drive(service, scenarios=None, job_id=None, **submit_kwargs):
    """start -> submit (or reuse job_id) -> wait -> stop; returns the record."""
    await service.start()
    if scenarios is not None:
        job_id = await service.submit(scenarios, job_id=job_id, **submit_kwargs)
    record = await service.wait(job_id)
    await service.stop()
    return job_id, record


# --------------------------------------------------------------------- #
# CancelToken / ScheduleCancelled units
# --------------------------------------------------------------------- #
def test_cancel_token_latches_first_reason():
    token = CancelToken()
    assert not token.cancelled and token.reason is None
    token.cancel("cancelled")
    token.cancel("timeout")  # latched: later reasons lose
    assert token.cancelled and token.reason == "cancelled"


def test_cancel_token_deadline_trips_as_timeout():
    token = CancelToken()
    token.arm_deadline(0.0)
    assert token.cancelled and token.reason == "timeout"
    with pytest.raises(ScheduleCancelled) as excinfo:
        token.raise_if_cancelled(run="sentinel-run")
    assert excinfo.value.reason == "timeout"
    assert excinfo.value.run == "sentinel-run"
    # ScheduleCancelled must never be swallowed by retry classification.
    assert not isinstance(excinfo.value, Exception)


def test_cancel_token_disarm_deadline():
    token = CancelToken()
    token.arm_deadline(0.0)
    token.arm_deadline(None)
    assert not token.cancelled


def test_lifecycle_injection_validation():
    with pytest.raises(ValueError):
        LifecycleInjection(on="middle")
    with pytest.raises(ValueError):
        LifecycleInjection(action="explode")


def test_service_config_prep_cache_size_validation():
    assert ServiceConfig(prep_cache_size=1).prep_cache_size == 1
    with pytest.raises(ValueError, match="prep_cache_size must be >= 1"):
        ServiceConfig(prep_cache_size=0)


def test_service_config_has_one_prep_cache_knob():
    """The prep cache is sized by ``prep_cache_size`` alone; the old
    ``kernel_cache_size`` name is not kept as an alias."""
    with pytest.raises(TypeError, match="kernel_cache_size"):
        ServiceConfig(kernel_cache_size=4)
    assert not hasattr(ServiceConfig(), "kernel_cache_size")


def test_lifecycle_plan_targets_one_scenario():
    plan = LifecycleChaosPlan(
        [LifecycleInjection(stage=":poison/", on="finish", action="crash",
                            occurrences=())]
    )
    assert plan.action_for("job-1/s0:good/prepare", "finish") is None
    assert plan.action_for("job-1/s1:poison/prepare", "start") is None
    assert plan.action_for("job-1/s1:poison/prepare", "finish") == "crash"
    assert plan.action_for("job-1/s1:poison/report", "finish") == "crash"
    assert plan.fired == [
        ("job-1/s1:poison/prepare", "finish", "crash"),
        ("job-1/s1:poison/report", "finish", "crash"),
    ]


def test_lifecycle_plan_occurrence_indexing():
    plan = LifecycleChaosPlan.cancel_after_stages(2)
    assert plan.action_for("a", "finish") is None
    assert plan.action_for("b", "finish") is None
    assert plan.action_for("c", "finish") == "cancel"
    assert plan.action_for("d", "finish") is None


# --------------------------------------------------------------------- #
# Tentpole differential: cancel at a randomized boundary, resume == oracle
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("num_workers", WORKER_COUNTS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_cancel_resume_matches_oracle(tmp_path, num_workers, backend):
    """The acceptance criterion: cancel at a seeded random stage boundary,
    resume in a fresh service instance, and the final report bytes equal
    the clean serial oracle -- across workers {1,2,4} x both backends."""
    expected = oracle_bytes(backend)
    # Deterministic per-cell boundary draw (string hash() is salted, so no
    # hashing): every cell of the matrix cancels at a different stage.
    seed = num_workers * 7 + (1 if backend == "numpy" else 0)
    boundary = random.Random(seed).randrange(8)

    async def cancel_session():
        service = CampaignService(
            num_workers=num_workers,
            checkpoint_dir=tmp_path,
            lifecycle_chaos=LifecycleChaosPlan.cancel_after_stages(boundary),
        )
        await service.start()
        job_id = await service.submit(make_scenarios(backend))
        events = []
        async for event in service.stream(job_id):
            events.append(event)
        record = await service.wait(job_id)
        await service.stop()
        return job_id, record, events

    job_id, record, events = asyncio.run(cancel_session())
    assert record.state == "cancelled"
    assert_stream_well_formed(events, job_id)
    (cancelled,) = [e for e in events if isinstance(e, JobCancelled)]
    assert cancelled.reason == "cancelled"
    assert cancelled.checkpointed

    async def resume_session():
        service = CampaignService(num_workers=num_workers, checkpoint_dir=tmp_path)
        recovered = await service.start()
        assert recovered == []  # terminal marker: not silently resumed
        assert service.job(job_id).state == "cancelled"
        await service.resume(job_id)
        record = await service.wait(job_id)
        await service.stop()
        return record, service.report_bytes(job_id)

    record, report = asyncio.run(resume_session())
    assert record.state == "finished"
    assert report == expected


def test_live_cancel_then_resume_matches_oracle(tmp_path):
    """An external service.cancel() mid-run (no chaos plan) checkpoints and
    the resumed job reproduces the oracle bytes."""
    expected = oracle_bytes("python")

    async def session():
        service = CampaignService(num_workers=1, checkpoint_dir=tmp_path)
        await service.start()
        job_id = await service.submit(make_scenarios("python"))
        finished = 0
        async for event in service.stream(job_id):
            if isinstance(event, StageFinished):
                finished += 1
                if finished == 2:
                    assert await service.cancel(job_id)
            if isinstance(event, JobCancelled):
                break
        record = await service.wait(job_id)
        # Terminal: a second cancel is a no-op, not an error.
        assert not await service.cancel(job_id)
        await service.stop()
        return job_id, record

    job_id, record = asyncio.run(session())
    assert record.state == "cancelled"

    async def resume_session():
        service = CampaignService(num_workers=1, checkpoint_dir=tmp_path)
        await service.start()
        await service.resume(job_id)
        record = await service.wait(job_id)
        await service.stop()
        return record, service.report_bytes(job_id)

    record, report = asyncio.run(resume_session())
    assert record.resumed and record.preloaded_stages > 0
    assert report == expected


def test_cancel_queued_job_never_executes(tmp_path):
    """Cancelling a job still in the queue terminalizes it immediately; the
    drain skips the record, and a restart surfaces it as cancelled."""

    async def session():
        service = CampaignService(num_workers=1, checkpoint_dir=tmp_path)
        await service.start()
        first = await service.submit(make_scenarios("python"))
        queued = await service.submit(make_scenarios("python"))
        assert await service.cancel(queued)
        assert service.job(queued).state == "cancelled"
        await service.wait(first)
        await service.stop()
        return first, queued, service.job(queued)

    first, queued, record = asyncio.run(session())
    assert record.state == "cancelled"
    # Never ran: no JobStarted/stage events, just accepted + cancelled.
    assert record.counters.stages_started == 0
    (cancelled,) = [e for e in record.events if isinstance(e, JobCancelled)]
    assert not cancelled.checkpointed

    async def restart():
        service = CampaignService(num_workers=1, checkpoint_dir=tmp_path)
        recovered = await service.start()
        state = service.job(queued).state
        await service.stop()
        return recovered, state

    recovered, state = asyncio.run(restart())
    assert recovered == []
    assert state == "cancelled"


# --------------------------------------------------------------------- #
# Deadlines
# --------------------------------------------------------------------- #
def test_deadline_timeout_then_resume_completes(tmp_path):
    """An expired per-submit deadline lands the job in "timeout"; resuming
    with a fresh deadline completes byte-identical to the oracle."""
    expected = oracle_bytes("python")

    async def session():
        service = CampaignService(num_workers=1, checkpoint_dir=tmp_path)
        await service.start()
        job_id = await service.submit(make_scenarios("python"), deadline_s=1e-4)
        record = await service.wait(job_id)
        await service.stop()
        return job_id, record

    job_id, record = asyncio.run(session())
    assert record.state == "timeout"
    (cancelled,) = [e for e in record.events if isinstance(e, JobCancelled)]
    assert cancelled.reason == "timeout"

    async def resume_session():
        service = CampaignService(num_workers=1, checkpoint_dir=tmp_path)
        recovered = await service.start()
        assert recovered == []  # timeout is durable: not silently resumed
        assert service.job(job_id).state == "timeout"
        await service.resume(job_id, deadline_s=600.0)
        record = await service.wait(job_id)
        await service.stop()
        return record, service.report_bytes(job_id)

    record, report = asyncio.run(resume_session())
    assert record.state == "finished"
    assert report == expected


def test_config_default_deadline_applies(tmp_path):
    async def session():
        service = CampaignService(
            num_workers=1,
            checkpoint_dir=tmp_path,
            service_config=ServiceConfig(job_deadline_s=1e-4),
        )
        _job_id, record = await drive(service, make_scenarios("python"))
        return record

    assert asyncio.run(session()).state == "timeout"


@pytest.mark.chaos
def test_injected_deadline_composes_with_stage_retries(tmp_path):
    """A mid-schedule deadline injection wins even when a stage RetryPolicy
    is armed: job-level deadlines compose with stage-level timeouts."""

    async def session():
        service = CampaignService(
            num_workers=1,
            checkpoint_dir=tmp_path,
            service_config=ServiceConfig(
                retry=RetryPolicy(max_attempts=3, backoff_base_s=0.0)
            ),
            lifecycle_chaos=LifecycleChaosPlan.cancel_after_stages(
                3, action="deadline"
            ),
        )
        _job_id, record = await drive(service, make_scenarios("python"))
        return record

    record = asyncio.run(session())
    assert record.state == "timeout"
    (cancelled,) = [e for e in record.events if isinstance(e, JobCancelled)]
    assert cancelled.reason == "timeout" and cancelled.checkpointed


def test_submit_rejects_nonpositive_deadline(tmp_path):
    async def session():
        service = CampaignService(num_workers=1)
        await service.start()
        with pytest.raises(ValueError):
            await service.submit(make_scenarios("python"), deadline_s=0.0)
        await service.stop()

    asyncio.run(session())


# --------------------------------------------------------------------- #
# Bounded shutdown
# --------------------------------------------------------------------- #
def test_stop_cancel_requeues_and_restart_resumes(tmp_path):
    """stop(mode="cancel"): the in-flight job checkpoint-stops, queued jobs
    are skipped, and the next start() resumes *both* to oracle bytes."""
    expected = oracle_bytes("python")

    async def shutdown_session():
        service = CampaignService(num_workers=1, checkpoint_dir=tmp_path)
        await service.start()
        running = await service.submit(make_scenarios("python"))
        queued = await service.submit(make_scenarios("python"))
        # Make sure the first job is genuinely in flight (with a durable
        # checkpoint) before shutting down, so this tests the
        # cancel-the-running-job path rather than skip-a-queued-job.
        async for event in service.stream(running):
            if isinstance(event, StageFinished):
                break
        stop = asyncio.create_task(service.stop(mode="cancel", timeout_s=60.0))
        await asyncio.sleep(0)
        with pytest.raises(ServiceStoppedError):
            await service.submit(make_scenarios("python"))
        await stop
        return running, queued, service

    running, queued, service = asyncio.run(shutdown_session())
    assert service.job(running).state == "cancelled"
    (cancelled,) = [
        e for e in service.job(running).events if isinstance(e, JobCancelled)
    ]
    assert cancelled.reason == "shutdown"
    # The skipped job never ran and was never terminalized in error.
    assert service.job(queued).state == "queued"
    assert service.job(queued).counters.stages_started == 0

    async def restart():
        service = CampaignService(num_workers=1, checkpoint_dir=tmp_path)
        recovered = await service.start()
        # No terminal marker was written: shutdown-cancel leaves both
        # pending on disk and the restart resumes them.
        assert recovered == [running, queued]
        for job_id in recovered:
            record = await service.wait(job_id)
            assert record.state == "finished"
        await service.stop()
        return (
            service.report_bytes(running),
            service.report_bytes(queued),
        )

    report_running, report_queued = asyncio.run(restart())
    assert report_running == expected
    assert report_queued == expected


def test_stop_drain_timeout_escalates_to_cancel(tmp_path):
    """A drain that overruns timeout_s falls back to the cancel path: the
    in-flight job is checkpoint-stopped instead of stranding stop()."""

    async def session():
        service = CampaignService(num_workers=1, checkpoint_dir=tmp_path)
        await service.start()
        job_id = await service.submit(make_scenarios("python"))
        try:
            await service.stop(mode="drain", timeout_s=1e-3)
        except asyncio.TimeoutError:
            # Even the escalated cooperative stop can overrun a 1ms budget
            # (it waits for the current stage); stop() is re-entrant.
            await service.stop(mode="cancel", timeout_s=60.0)
        return job_id, service.job(job_id).state

    job_id, state = asyncio.run(session())
    # "queued" if the drain never dequeued it before escalation skipped it;
    # "finished" if the job won the race outright.
    assert state in ("cancelled", "queued", "finished")

    async def restart():
        service = CampaignService(num_workers=1, checkpoint_dir=tmp_path)
        recovered = await service.start()
        if recovered:  # pending -> resumes to completion
            record = await service.wait(job_id)
            assert record.state == "finished"
        await service.stop()
        return service.report_bytes(job_id)

    assert asyncio.run(restart()) == oracle_bytes("python")


def test_stop_is_idempotent(tmp_path):
    async def session():
        service = CampaignService(num_workers=1, checkpoint_dir=tmp_path)
        await service.start()
        job_id = await service.submit(make_scenarios("python"))
        await service.wait(job_id)
        await service.stop()
        await service.stop()
        await service.stop(mode="cancel")

    asyncio.run(session())


def test_submit_during_stop_regression(tmp_path):
    """The historical bug: a submit racing stop() was accepted, enqueued
    behind the sentinel, and stuck in "queued" forever.  Now it raises
    ServiceStoppedError and leaves no record behind."""

    async def session():
        service = CampaignService(num_workers=1, checkpoint_dir=tmp_path)
        await service.start()
        job_id = await service.submit(make_scenarios("python"))
        stop = asyncio.create_task(service.stop())
        await asyncio.sleep(0)  # stop() pushed the sentinel
        with pytest.raises(ServiceStoppedError):
            await service.submit(make_scenarios("python"), job_id="late-job")
        with pytest.raises(ServiceStoppedError):
            await service.resume(job_id)
        await stop
        return service

    service = asyncio.run(session())
    assert "late-job" not in service._jobs
    stuck = [r.job_id for r in service._jobs.values() if r.state == "queued"]
    assert stuck == []


# --------------------------------------------------------------------- #
# Queue backpressure
# --------------------------------------------------------------------- #
def test_queue_full_error_is_typed():
    async def session():
        service = CampaignService(
            num_workers=1, service_config=ServiceConfig(max_queue_depth=1)
        )
        await service.start()
        # No awaits between these submits, so the drain task cannot run:
        # the first fills the queue, the second must overflow.
        await service.submit(make_scenarios("python"))
        with pytest.raises(QueueFullError) as excinfo:
            await service.submit(make_scenarios("python"))
        assert excinfo.value.depth == 1
        assert excinfo.value.qsize == 1
        await service.stop()

    asyncio.run(session())


def test_submit_wait_awaits_capacity():
    async def session():
        service = CampaignService(
            num_workers=1, service_config=ServiceConfig(max_queue_depth=1)
        )
        await service.start()
        jobs = [await service.submit(make_scenarios("python"))]
        # These would raise QueueFullError; wait=True blocks for capacity.
        for _ in range(2):
            jobs.append(
                await service.submit(make_scenarios("python"), wait=True)
            )
        states = [(await service.wait(job_id)).state for job_id in jobs]
        await service.stop()
        return states

    assert asyncio.run(session()) == ["finished"] * 3


def test_submit_wait_raises_when_stopped_while_waiting():
    async def session():
        service = CampaignService(
            num_workers=1, service_config=ServiceConfig(max_queue_depth=1)
        )
        await service.start()
        await service.submit(make_scenarios("python"))
        while service._queue.qsize():  # let the drain pick the job up
            await asyncio.sleep(0.01)
        await service.submit(make_scenarios("python"))  # fills the queue
        waiter = asyncio.create_task(
            service.submit(make_scenarios("python"), wait=True)
        )
        await asyncio.sleep(0)  # waiter is parked on the capacity event
        stop = asyncio.create_task(service.stop())
        with pytest.raises(ServiceStoppedError):
            await waiter
        await stop

    asyncio.run(session())


# --------------------------------------------------------------------- #
# Recovery: non-contiguous ids, prune guard
# --------------------------------------------------------------------- #
def test_recovery_with_non_contiguous_job_ids(tmp_path):
    """Recovery handles gaps in the checkpointed id sequence and the id
    counter resumes past the highest, never colliding."""
    expected = oracle_bytes("python")

    async def first_session():
        service = CampaignService(num_workers=1, checkpoint_dir=tmp_path)
        await service.start()
        job_id = await service.submit(make_scenarios("python"))
        assert job_id == "job-000001"
        await service.wait(job_id)
        await service.stop()

    asyncio.run(first_session())

    # Fabricate pending jobs with gaps, exactly what a crashed service
    # that had already completed/pruned the intermediate ids leaves.
    store = CheckpointStore(tmp_path)
    for job_id in ("job-000003", "job-000007"):
        store.save_spec(
            job_id,
            JobSpec(job_id=job_id, scenarios=tuple(make_scenarios("python"))),
        )

    async def recovery_session():
        service = CampaignService(num_workers=1, checkpoint_dir=tmp_path)
        recovered = await service.start()
        assert recovered == ["job-000003", "job-000007"]
        for job_id in recovered:
            record = await service.wait(job_id)
            assert record.state == "finished"
        fresh = await service.submit(make_scenarios("python"))
        assert fresh == "job-000008"  # counter passed the gap
        await service.wait(fresh)
        await service.stop()
        return [service.report_bytes(job_id) for job_id in recovered]

    for report in asyncio.run(recovery_session()):
        assert report == expected


def test_prune_never_evicts_record_with_open_stream():
    async def session():
        service = CampaignService(
            num_workers=1, service_config=ServiceConfig(retain_jobs=0)
        )
        await service.start()
        first = await service.submit(make_scenarios("python"))
        stream = service.stream(first)
        await stream.__anext__()  # open subscriber mid-replay
        await service.wait(first)

        second = await service.submit(make_scenarios("python"))
        await service.wait(second)
        await service._queue.join()  # drain's prune pass has run
        # retain_jobs=0 would evict both, but first has a live subscriber.
        assert first in service._jobs

        async for _event in stream:  # drain the stream to its terminal
            pass
        third = await service.submit(make_scenarios("python"))
        await service.wait(third)
        await service._queue.join()
        assert first not in service._jobs  # subscriber gone -> prunable
        await service.stop()

    asyncio.run(session())


# --------------------------------------------------------------------- #
# Crash-loop quarantine
# --------------------------------------------------------------------- #
@pytest.mark.chaos
def test_poison_job_quarantined_while_siblings_finish(tmp_path):
    """The acceptance criterion: a spec that kills the service on every
    resume attempt is quarantined after max_resume_attempts restarts, and
    sibling jobs submitted alongside (and after) it finish normally."""

    poison_chaos = lambda: LifecycleChaosPlan.crash_every_run(stage=":poison/")
    config = ServiceConfig(max_resume_attempts=2)

    async def first_session():
        service = CampaignService(
            num_workers=1,
            checkpoint_dir=tmp_path,
            service_config=config,
            lifecycle_chaos=poison_chaos(),
        )
        await service.start()
        poison = await service.submit(poison_scenarios("python"))
        sibling = await service.submit(make_named_scenarios("svc"))
        poison_record = await service.wait(poison)
        sibling_record = await service.wait(sibling)
        await service.stop()
        return poison, sibling, poison_record, sibling_record

    poison, sibling, poison_record, sibling_record = asyncio.run(first_session())
    assert poison_record.state == "failed"
    (failed,) = [e for e in poison_record.events if isinstance(e, JobFailed)]
    assert failed.interrupted  # resumable: checkpoint survived the crash
    assert sibling_record.state == "finished"
    sibling_report = CheckpointStore(tmp_path).load_report(sibling)
    assert sibling_report == oracle_bytes("python")

    async def crashing_restart():
        service = CampaignService(
            num_workers=1,
            checkpoint_dir=tmp_path,
            service_config=config,
            lifecycle_chaos=poison_chaos(),
        )
        recovered = await service.start()
        record = await service.wait(poison) if recovered else service.job(poison)
        await service.stop()
        return recovered, record

    # Restarts 1 and 2 burn the two allowed resume attempts.
    for _attempt in range(config.max_resume_attempts):
        recovered, record = asyncio.run(crashing_restart())
        assert recovered == [poison]
        assert record.state == "failed"

    # The next restart quarantines instead of re-enqueueing -- and a fresh
    # sibling submitted in the same session is unaffected.
    async def quarantine_session():
        service = CampaignService(
            num_workers=1,
            checkpoint_dir=tmp_path,
            service_config=config,
            lifecycle_chaos=poison_chaos(),
        )
        recovered = await service.start()
        assert recovered == []  # the poison job was NOT re-enqueued
        record = service.job(poison)
        fresh = await service.submit(make_named_scenarios("svc2"))
        fresh_record = await service.wait(fresh)
        await service.stop()
        return record, fresh_record

    record, fresh_record = asyncio.run(quarantine_session())
    assert record.state == "quarantined"
    (quarantined,) = [e for e in record.events if isinstance(e, JobQuarantined)]
    assert quarantined.resume_attempts == 3
    assert quarantined.limit == 2
    assert fresh_record.state == "finished"

    # Spec and partial progress stay on disk for inspection, and the
    # quarantine itself is durable across further restarts.
    store = CheckpointStore(tmp_path)
    assert store.load_spec(poison) is not None
    assert store.has_progress(poison)
    recovered, record = asyncio.run(crashing_restart())
    assert recovered == [] and record.state == "quarantined"

    # An explicit resume clears the quarantine; without the poison chaos
    # the job completes to the clean oracle bytes.
    async def operator_resume():
        service = CampaignService(
            num_workers=1, checkpoint_dir=tmp_path, service_config=config
        )
        await service.start()
        await service.resume(poison)
        record = await service.wait(poison)
        await service.stop()
        return record, service.report_bytes(poison)

    record, report = asyncio.run(operator_resume())
    assert record.state == "finished"
    assert report == oracle_bytes("python", poison_scenarios)


@pytest.mark.chaos
def test_waiting_sibling_does_not_burn_resume_attempts(tmp_path):
    """A job that never *started* (it waited behind the poison job when the
    service died) is recovered without consuming a resume attempt."""

    async def first_session():
        service = CampaignService(
            num_workers=1,
            checkpoint_dir=tmp_path,
            service_config=ServiceConfig(max_resume_attempts=0),
            lifecycle_chaos=LifecycleChaosPlan.crash_every_run(stage=":poison/"),
        )
        await service.start()
        poison = await service.submit(poison_scenarios("python"))
        await service.wait(poison)
        await service.stop()
        return poison

    poison = asyncio.run(first_session())
    # The sibling "waited in the queue when the service died": its spec is
    # durable but it never started, so it carries no lifecycle record.
    waiting = "job-000002"
    CheckpointStore(tmp_path).save_spec(
        waiting,
        JobSpec(job_id=waiting, scenarios=tuple(make_named_scenarios("svc"))),
    )

    async def restart():
        service = CampaignService(
            num_workers=1,
            checkpoint_dir=tmp_path,
            service_config=ServiceConfig(max_resume_attempts=0),
        )
        recovered = await service.start()
        # max_resume_attempts=0: the started poison job quarantines on its
        # first recovery, the never-started sibling is recovered normally.
        assert recovered == [waiting]
        assert service.job(poison).state == "quarantined"
        record = await service.wait(waiting)
        await service.stop()
        return record, service.report_bytes(waiting)

    record, report = asyncio.run(restart())
    assert record.state == "finished"
    assert report == oracle_bytes("python")
