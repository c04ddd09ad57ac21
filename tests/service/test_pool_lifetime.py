"""The worker pool outlives a job: one pool per service, reaped by ``stop``.

A pooled :class:`~repro.service.CampaignService` opens its runner's pool at
its first job and keeps it until :meth:`~repro.service.CampaignService.stop`,
so a later job runs on the same workers and the kernels they compiled.  A
job that ends early replaces only the workers still running its stages,
and a worker a job loses is respawned within that job; either way the next
job's report equals the serial oracle.  A standalone
:meth:`~repro.campaign.CampaignRunner.run` still reaps its own pool.
"""

import asyncio
import multiprocessing
import os
import time
from dataclasses import dataclass

import pytest

from repro.campaign import (
    CampaignRunner,
    ExplicitChaosPlan,
    Injection,
    LifecycleChaosPlan,
    LifecycleInjection,
)
from repro.campaign.scheduler import StageNode, _ResilientPool
from repro.core.config import RetryPolicy, ServiceConfig
from repro.service import CampaignService
from repro.service.events import StageFinished

from test_checkpoint_resume import make_scenarios, oracle_bytes
from test_resilience import FAST_RETRY

pytestmark = [pytest.mark.service, pytest.mark.multiprocess]

#: The first fault-sim shard of the service's first job.
JOB1_SHARD = "job-000001/s0:svc/fault_sim/shard0"


def pool_pids(service) -> dict[int, int]:
    """Worker id -> pid of the service's open pool."""
    return {
        worker_id: handle.process.pid
        for worker_id, handle in service.runner.pool.handles.items()
    }


def run_jobs(service, jobs: int = 2):
    """Start ``service``, run ``jobs`` jobs one after another, stop it.

    Returns each job's record and the pool's worker pids after it.
    """

    async def main():
        await service.start()
        assert service.runner.pool is None  # start() forks nothing
        records, pids = [], []
        try:
            for _ in range(jobs):
                job_id = await service.submit(make_scenarios("python"))
                records.append(await asyncio.wait_for(service.wait(job_id), 120))
                pids.append(pool_pids(service))
        finally:
            await service.stop()
        return records, pids

    return asyncio.run(main())


def stages_of(record) -> set[str]:
    return {event.stage for event in record.events if isinstance(event, StageFinished)}


def test_jobs_share_workers_and_stop_reaps_them():
    expected = oracle_bytes("python")
    service = CampaignService(num_workers=2)
    (first, second), (pids_first, pids_second) = run_jobs(service)
    assert first.report == second.report == expected
    assert pids_second == pids_first
    assert service.runner.pool is None
    assert multiprocessing.active_children() == []


@pytest.mark.lifecycle
def test_job_after_a_cancel_mid_stage_matches_oracle():
    """Job 1 is cancelled the moment a pooled shard is dispatched; job 2
    runs on the reset pool and sees none of job 1's results."""
    expected = oracle_bytes("python")
    service = CampaignService(
        num_workers=2,
        lifecycle_chaos=LifecycleChaosPlan(
            [LifecycleInjection(stage=JOB1_SHARD, on="start", action="cancel")]
        ),
    )
    (first, second), (pids_first, pids_second) = run_jobs(service)
    assert first.state == "cancelled"
    assert second.state == "finished" and second.report == expected
    assert all(key.startswith("job-000002/") for key in stages_of(second))
    # The cancel found at least one worker busy with job 1 and replaced it.
    assert len(pids_first) == 2 and max(pids_first) >= 2
    assert pids_second == pids_first
    assert multiprocessing.active_children() == []


@pytest.mark.chaos
def test_worker_lost_in_job_one_is_respawned_once():
    expected = oracle_bytes("python")
    service = CampaignService(
        num_workers=2,
        service_config=ServiceConfig(retry=FAST_RETRY),
        chaos=ExplicitChaosPlan([Injection(stage=JOB1_SHARD, kind="kill")]),
    )
    (first, second), (pids_first, pids_second) = run_jobs(service)
    assert first.report == second.report == expected
    # Workers 0 and 1 started the pool; the one killed was replaced by 2.
    assert len(pids_first) == 2 and max(pids_first) == 2
    assert pids_second == pids_first
    assert multiprocessing.active_children() == []


def test_standalone_run_reaps_its_workers():
    runner = CampaignRunner(num_workers=2)
    result = runner.run(make_scenarios("python"))
    assert result.report_bytes() == oracle_bytes("python")
    assert runner.pool is None
    assert multiprocessing.active_children() == []


@dataclass(frozen=True)
class Sleep:
    """A stage that sleeps, then names the worker that ran it."""

    seconds: float

    def run(self) -> int:
        time.sleep(self.seconds)
        return os.getpid()


def test_reset_replaces_only_busy_workers():
    pool = _ResilientPool(2, RetryPolicy())
    try:
        pool.submit(StageNode("busy", Sleep(30.0)), [], 0, None, 0.0)
        pool.submit(StageNode("queued", Sleep(0.0)), [], 0, None, 60.0)
        [busy] = [h for h in pool.handles.values() if h.assignment is not None]
        [idle] = [h for h in pool.handles.values() if h.assignment is None]
        pool.reset()
        assert not pool.busy
        assert busy.worker_id not in pool.handles and not busy.process.is_alive()
        assert pool.handles[idle.worker_id] is idle and idle.alive()
        assert len(pool.handles) == 2
        pool.submit(StageNode("next", Sleep(0.0)), [], 0, None, 0.0)
        outcomes = []
        while pool.busy:
            outcomes += pool.collect(1.0)
        [(node, _, attempt, (pid, _), error)] = outcomes
        assert (node.key, attempt, error) == ("next", 0, None)
        assert pid in {handle.process.pid for handle in pool.handles.values()}
    finally:
        pool.shutdown()
    assert multiprocessing.active_children() == []
