"""Crash-injection differential tests for the campaign service.

The service's whole durability claim is byte-level: a job killed mid-run
and resumed from its checkpoint must produce final report bytes identical
to the uninterrupted run -- which itself must be identical to the serial
in-process :class:`~repro.campaign.CampaignRunner` oracle.  This suite
injects crashes at exact checkpoint boundaries (a
:class:`~repro.service.CheckpointStore` subclass that raises out of the
Nth progress save -- equivalent to a ``SIGKILL`` there, since the resumed
service instance shares no in-memory state with the crashed one) and
asserts:

* resumed report bytes == uninterrupted serial-oracle bytes, across
  workers {1, 2, 4} x both sim backends,
* the resumed job really resumed (preloaded stages > 0) rather than
  silently re-running from scratch,
* a fresh subscriber's event stream on the *resumed* job still reassembles
  into the full canonical report (the local stages that emit content
  events always re-run on resume),
* crashes at randomized checkpoint boundaries -- first save, a seeded
  random middle save, the last save -- and chained double crashes all
  converge to the same bytes.
"""

import asyncio
import random

import pytest

from repro.campaign import CampaignRunner, CampaignScenario
from repro.core.config import LogicBistConfig, ServiceConfig
from repro.cores.generator import SyntheticCoreConfig, generate_synthetic_core
from repro.service import CampaignService, CheckpointStore, EventReassembler
from repro.service.events import JobFailed, JobStarted

pytestmark = pytest.mark.service

WORKER_COUNTS = (
    1,
    pytest.param(2, marks=pytest.mark.multiprocess),
    pytest.param(4, marks=pytest.mark.multiprocess),
)
BACKENDS = ("python", pytest.param("numpy", marks=pytest.mark.numpy))


def make_core(seed: int, domains: int = 2):
    """A randomized small multi-domain core (fresh structure per seed)."""
    config = SyntheticCoreConfig(
        name=f"service_core_{seed}",
        clock_domains=tuple(f"clk{i + 1}" for i in range(domains)),
        num_inputs=8,
        num_outputs=5,
        register_width=6,
        pipeline_stages=1,
        adder_slices=1,
        adder_width=4,
        comparator_widths=(6,),
        decode_cone_width=5,
        cross_domain_links=1,
        seed=seed,
    )
    return generate_synthetic_core(config).circuit


def make_scenarios(backend: str):
    """One full-featured scenario: every canonical report section streams.

    Top-up, transition measurement and the skew sweep are all enabled so a
    crash/resume cycle exercises every section and both coverage curves.
    """
    config = LogicBistConfig(
        random_patterns=48,
        signature_patterns=8,
        total_scan_chains=4,
        sim_backend=backend,
        campaign_topup=True,
        measure_transition_coverage=True,
        skew_trials=6,
    )
    return [CampaignScenario("svc", make_core(seed=31), config)]


_ORACLES: dict = {}


def oracle_bytes(backend: str, scenarios_factory=make_scenarios) -> bytes:
    """Uninterrupted serial in-process oracle bytes (cached per backend)."""
    key = (backend, scenarios_factory)
    if key not in _ORACLES:
        runner = CampaignRunner(num_workers=1)
        _ORACLES[key] = runner.run(scenarios_factory(backend)).report_bytes()
    return _ORACLES[key]


class SimulatedCrash(RuntimeError):
    """Stands in for a kill at a checkpoint boundary."""


class CrashingStore(CheckpointStore):
    """Counts progress saves; raises out of the ``crash_after``-th one.

    The save itself completes *before* the crash (the journal is durable,
    the process dies immediately after), which is the adversarial timing:
    resume must replay from exactly that boundary.  ``crash_after=None``
    only counts -- used to discover how many checkpoints a run writes.
    """

    def __init__(self, root, crash_after=None) -> None:
        super().__init__(root)
        self.saves = 0
        self.crash_after = crash_after

    def save_progress(self, job_id, run):
        super().save_progress(job_id, run)
        self.saves += 1
        if self.crash_after is not None and self.saves >= self.crash_after:
            raise SimulatedCrash(f"killed at checkpoint {self.saves}")


def run_service(
    tmp_path,
    scenarios=None,
    *,
    num_workers: int = 1,
    crash_after=None,
    resume_job: str = None,
    service_config: ServiceConfig = None,
):
    """One full service lifetime: start, submit (or recover), drain, stop.

    Returns ``(job_id, record, events, store)``.  A fresh
    :class:`CampaignService` per call is exactly the restart semantics the
    crash tests need -- the resumed instance shares nothing in memory with
    the crashed one except the checkpoint directory.
    """

    async def main():
        service = CampaignService(
            num_workers=num_workers,
            checkpoint_dir=tmp_path,
            service_config=service_config,
        )
        store = CrashingStore(tmp_path, crash_after)
        service.checkpoints = store
        recovered = await service.start()
        if resume_job is None:
            job_id = await service.submit(scenarios)
        else:
            assert resume_job in recovered, (resume_job, recovered)
            job_id = resume_job
        events = []
        async for event in service.stream(job_id):
            events.append(event)
        record = await service.wait(job_id)
        await service.stop()
        return job_id, record, events, store

    return asyncio.run(main())


def assert_stream_well_formed(events, job_id):
    seqs = [event.seq for event in events]
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
    assert all(event.job_id == job_id for event in events)


# --------------------------------------------------------------------- #
# Uninterrupted service == serial oracle
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("num_workers", WORKER_COUNTS)
def test_service_job_matches_serial_oracle(tmp_path, num_workers, backend):
    scenarios = make_scenarios(backend)
    expected = oracle_bytes(backend)
    job_id, record, events, _ = run_service(
        tmp_path, scenarios, num_workers=num_workers
    )
    assert record.state == "finished"
    assert record.report == expected
    assert_stream_well_formed(events, job_id)
    reassembled = EventReassembler().feed_all(events)
    assert reassembled.report_bytes() == expected
    reassembled.verify()


# --------------------------------------------------------------------- #
# Kill + resume across the worker/backend matrix
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("num_workers", WORKER_COUNTS)
def test_crash_resume_byte_identity(tmp_path, num_workers, backend):
    scenarios = make_scenarios(backend)
    expected = oracle_bytes(backend)

    job_id, record, events, _ = run_service(
        tmp_path, scenarios, num_workers=num_workers, crash_after=3
    )
    assert record.state == "failed"
    failure = events[-1]
    assert isinstance(failure, JobFailed) and failure.interrupted
    assert "checkpoint" in record.error

    _, resumed, resumed_events, _ = run_service(
        tmp_path, num_workers=num_workers, resume_job=job_id
    )
    started = next(e for e in resumed_events if isinstance(e, JobStarted))
    assert started.resumed
    assert started.preloaded_stages > 0
    assert resumed.state == "finished"
    assert resumed.report == expected
    # A subscriber that only ever saw the resumed service still reassembles
    # the complete canonical report: the local stages that emit content
    # events re-ran.
    assert_stream_well_formed(resumed_events, job_id)
    reassembled = EventReassembler().feed_all(resumed_events)
    assert reassembled.report_bytes() == expected
    reassembled.verify()


# --------------------------------------------------------------------- #
# Randomized checkpoint boundaries (serial; every boundary class)
# --------------------------------------------------------------------- #
def _two_scenario_factory(backend: str):
    """A full-featured scenario plus a plain one in a single job."""
    scenarios = make_scenarios(backend)
    plain = LogicBistConfig(
        random_patterns=48,
        signature_patterns=8,
        total_scan_chains=4,
        sim_backend=backend,
    )
    scenarios.append(CampaignScenario("plain", make_core(seed=32), plain))
    return scenarios


def test_randomized_crash_boundaries(tmp_path):
    backend = "python"
    expected = oracle_bytes(backend, _two_scenario_factory)

    # Discover the checkpoint count of an uninterrupted two-scenario run.
    _, record, _, store = run_service(
        tmp_path / "count", _two_scenario_factory(backend)
    )
    assert record.state == "finished" and record.report == expected
    total_saves = store.saves
    assert total_saves >= 5

    rng = random.Random(20260807)
    boundaries = {1, rng.randrange(2, total_saves), total_saves}
    for crash_after in sorted(boundaries):
        workdir = tmp_path / f"crash_{crash_after}"
        job_id, crashed, _, _ = run_service(
            workdir, _two_scenario_factory(backend), crash_after=crash_after
        )
        assert crashed.state == "failed"
        _, resumed, events, _ = run_service(workdir, resume_job=job_id)
        assert resumed.state == "finished", (crash_after, resumed.error)
        assert resumed.report == expected, f"crash at save {crash_after}"
        assert EventReassembler().feed_all(events).report_bytes() == expected


def test_double_crash_still_converges(tmp_path):
    """Crash, resume into another crash, resume again: same bytes."""
    backend = "python"
    scenarios = make_scenarios(backend)
    expected = oracle_bytes(backend)

    job_id, crashed, _, _ = run_service(tmp_path, scenarios, crash_after=2)
    assert crashed.state == "failed"
    _, crashed_again, _, _ = run_service(
        tmp_path, resume_job=job_id, crash_after=3
    )
    assert crashed_again.state == "failed"
    _, resumed, events, _ = run_service(tmp_path, resume_job=job_id)
    assert resumed.state == "finished"
    assert resumed.report == expected
    assert EventReassembler().feed_all(events).report_bytes() == expected


def test_coarse_checkpoint_cadence(tmp_path):
    """``checkpoint_every > 1`` re-runs a few stages on resume, same bytes."""
    backend = "python"
    scenarios = make_scenarios(backend)
    expected = oracle_bytes(backend)
    coarse = ServiceConfig(checkpoint_every=5)

    job_id, crashed, _, store = run_service(
        tmp_path, scenarios, crash_after=2, service_config=coarse
    )
    assert crashed.state == "failed"
    _, resumed, _, _ = run_service(
        tmp_path, resume_job=job_id, service_config=coarse
    )
    assert resumed.state == "finished"
    assert resumed.report == expected


def test_finished_job_report_survives_restart(tmp_path):
    """Reports are durable: a restarted service serves them from disk."""
    backend = "python"
    scenarios = make_scenarios(backend)
    expected = oracle_bytes(backend)
    job_id, record, _, _ = run_service(tmp_path, scenarios)
    assert record.report == expected

    async def main():
        service = CampaignService(num_workers=1, checkpoint_dir=tmp_path)
        recovered = await service.start()
        assert recovered == []  # finished jobs are not pending
        assert service.report_bytes(job_id) == expected
        await service.stop()

    asyncio.run(main())
