"""Service-tier resilience: partial jobs, retry events, corrupt checkpoints.

The campaign service inherits the schedulers' fault tolerance and must
surface it faithfully: a degraded scenario becomes a ``"partial"`` job
whose report carries the canonical ``failures`` section (byte-identical
to the in-process runner's), :class:`~repro.service.StageRetrying` /
:class:`~repro.service.ScenarioFailed` events stream live, and the
:class:`~repro.service.EventReassembler` rebuilds the partial report
exactly.  Separately, the checkpoint store must *detect* corrupt or
truncated snapshots (sha256-framed pickles) and fall back to re-running
from the spec instead of crashing recovery.
"""

import asyncio
import json
import pickle

import pytest

from repro.campaign import (
    CampaignRunner,
    CampaignScenario,
    ExplicitChaosPlan,
    Injection,
)
from repro.core import LogicBistConfig
from repro.core.config import RetryPolicy, ServiceConfig
from repro.cores.generator import SyntheticCoreConfig, generate_synthetic_core
from repro.service import (
    CampaignService,
    CheckpointStore,
    EventReassembler,
    JobFinished,
    ScenarioFailed,
    StageRetrying,
)
from repro.service.checkpoint import (
    CHECKSUM_MAGIC,
    PROGRESS_FILE,
    REPORT_FILE,
    SPEC_FILE,
)

pytestmark = [pytest.mark.service, pytest.mark.chaos]

FAST_RETRY = RetryPolicy(
    max_attempts=3,
    backoff_base_s=0.001,
    backoff_max_s=0.002,
    stage_timeout_s=2.0,
    heartbeat_s=0.05,
)


def make_core(seed: int, domains: int = 2):
    config = SyntheticCoreConfig(
        name=f"resilience_core_{seed}",
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


def make_scenarios():
    config = LogicBistConfig(
        random_patterns=48,
        signature_patterns=8,
        total_scan_chains=4,
        tpi_method="none",
        observation_point_budget=0,
    )
    return [
        CampaignScenario("good", make_core(71), config),
        CampaignScenario("bad", make_core(72, domains=1), config),
    ]


def run_service(tmp_path, *, chaos=None, service_config=None, num_workers=1,
                scenarios=None):
    """One service lifetime; returns ``(job_id, record, events, service)``."""

    async def main():
        service = CampaignService(
            num_workers=num_workers,
            checkpoint_dir=tmp_path,
            service_config=service_config,
            chaos=chaos,
        )
        await service.start()
        job_id = await service.submit(scenarios or make_scenarios())
        events = []
        async for event in service.stream(job_id):
            events.append(event)
        record = await service.wait(job_id)
        status = service.status()
        await service.stop()
        return job_id, record, events, status

    return asyncio.run(main())


PERMANENT_BAD = ExplicitChaosPlan(
    [Injection(stage="bad/core", attempts=(), message="permanent")]
)
RESILIENT_CONFIG = ServiceConfig(retry=FAST_RETRY)


# --------------------------------------------------------------------- #
# Partial jobs
# --------------------------------------------------------------------- #
def test_degraded_scenario_yields_partial_job(tmp_path):
    job_id, record, events, status = run_service(
        tmp_path, chaos=PERMANENT_BAD, service_config=RESILIENT_CONFIG
    )
    assert record.state == "partial"
    assert record.done
    assert status["jobs"][job_id] == "partial"
    [finished] = [e for e in events if isinstance(e, JobFinished)]
    assert finished.partial
    assert finished.failed_scenarios == ("bad",)
    assert finished.scenarios == ("good",)
    report = json.loads(record.report)
    assert sorted(report) == ["failures", "good"]
    assert report["failures"]["bad"] == [
        {
            "stage": "core",
            "phase": "scan_insertion",
            "error_type": "ChaosError",
            "error": "permanent",
            "attempts": FAST_RETRY.max_attempts,
        }
    ]


def test_partial_report_matches_runner_oracle(tmp_path):
    """The service's partial bytes == the in-process runner's, same plan."""
    _, record, _, _ = run_service(
        tmp_path, chaos=PERMANENT_BAD, service_config=RESILIENT_CONFIG
    )
    oracle = CampaignRunner(
        num_workers=1, retry_policy=FAST_RETRY, chaos=PERMANENT_BAD
    ).run(make_scenarios())
    assert oracle.partial
    assert record.report == oracle.report_bytes()


def test_scenario_failed_events_reassemble_partial_report(tmp_path):
    _, record, events, _ = run_service(
        tmp_path, chaos=PERMANENT_BAD, service_config=RESILIENT_CONFIG
    )
    assembled = EventReassembler().feed_all(events)
    assert assembled.report_bytes() == record.report
    assembled.verify()
    assert assembled.failed_scenarios() == json.loads(record.report)["failures"]
    assert any(isinstance(e, ScenarioFailed) for e in events)


@pytest.mark.multiprocess
def test_partial_job_is_byte_identical_across_worker_counts(tmp_path):
    reports = []
    for num_workers in (1, 2):
        _, record, _, _ = run_service(
            tmp_path / str(num_workers),
            chaos=PERMANENT_BAD,
            service_config=RESILIENT_CONFIG,
            num_workers=num_workers,
        )
        assert record.state == "partial"
        reports.append(record.report)
    assert reports[0] == reports[1]


def test_degradation_can_be_disabled(tmp_path):
    config = ServiceConfig(retry=FAST_RETRY, degrade_scenarios=False)
    _, record, _, _ = run_service(tmp_path, chaos=PERMANENT_BAD, service_config=config)
    assert record.state == "failed"
    assert "permanent" in record.error


# --------------------------------------------------------------------- #
# Retry events
# --------------------------------------------------------------------- #
def test_transient_fault_streams_retry_events_and_finishes_clean(tmp_path):
    plan = ExplicitChaosPlan([Injection(stage="bad/core", attempts=(0, 1))])
    job_id, record, events, _ = run_service(
        tmp_path, chaos=plan, service_config=RESILIENT_CONFIG
    )
    assert record.state == "finished"
    retries = [e for e in events if isinstance(e, StageRetrying)]
    assert [r.attempt for r in retries] == [1, 2]
    assert all(r.scenario == "bad" for r in retries)
    assert record.counters.stages_retried == 2
    assert record.counters.scenarios_failed == 0
    clean = CampaignRunner(num_workers=1).run(make_scenarios()).report_bytes()
    assert record.report == clean


def test_failures_is_a_reserved_scenario_name(tmp_path):
    async def main():
        service = CampaignService(checkpoint_dir=tmp_path)
        await service.start()
        config = LogicBistConfig(random_patterns=16, signature_patterns=4)
        with pytest.raises(ValueError, match="reserved"):
            await service.submit(
                [CampaignScenario("failures", make_core(71), config)]
            )
        await service.stop()

    asyncio.run(main())


# --------------------------------------------------------------------- #
# Checkpoint corruption (satellite)
# --------------------------------------------------------------------- #
def test_checksum_frame_round_trip(tmp_path):
    store = CheckpointStore(tmp_path)
    payload = {"answer": 42}
    store.save_spec("job-x", payload)
    raw = (tmp_path / "job-x" / SPEC_FILE).read_bytes()
    assert raw.startswith(CHECKSUM_MAGIC)
    assert store.load_spec("job-x") == payload


def test_unframed_spec_reads_as_none_and_job_is_skipped(tmp_path, caplog):
    """A bare pickled spec (no checksum frame) is never unpickled: it reads
    as ``None``, logged, and a service started over the directory comes up
    without running that job."""

    async def submit_without_draining():
        service = CampaignService(checkpoint_dir=tmp_path)
        service._queue = asyncio.Queue()  # started enough to accept submits
        service._loop = asyncio.get_running_loop()
        return await service.submit(make_scenarios())

    job_id = asyncio.run(submit_without_draining())
    path = tmp_path / job_id / SPEC_FILE
    framed = path.read_bytes()
    path.write_bytes(framed[framed.index(b"\n", len(CHECKSUM_MAGIC)) + 1 :])
    with caplog.at_level("WARNING", logger="repro.service.checkpoint"):
        assert CheckpointStore(tmp_path).load_spec(job_id) is None
    assert any("unframed" in record.getMessage() for record in caplog.records)

    async def recover():
        service = CampaignService(checkpoint_dir=tmp_path)
        recovered = await service.start()
        await service.stop()
        return recovered, service.status()

    recovered, status = asyncio.run(recover())
    assert recovered == []
    assert job_id not in status["jobs"]
    assert not (tmp_path / job_id / REPORT_FILE).exists()


@pytest.mark.parametrize(
    "corruptor",
    [
        lambda raw: raw[: len(raw) // 2],  # truncated mid-payload
        lambda raw: raw[: len(CHECKSUM_MAGIC) + 10],  # truncated header
        lambda raw: raw[:-8] + b"\x00" * 8,  # flipped payload bytes
        lambda raw: b"\x80garbage",  # unpicklable, unframed
    ],
)
def test_corrupt_spec_reads_as_none(tmp_path, corruptor, caplog):
    store = CheckpointStore(tmp_path)
    store.save_spec("job-x", {"answer": 42})
    path = tmp_path / "job-x" / SPEC_FILE
    path.write_bytes(corruptor(path.read_bytes()))
    with caplog.at_level("WARNING", logger="repro.service.checkpoint"):
        assert store.load_spec("job-x") is None
    assert caplog.records  # the fallback is logged, not silent


def test_corrupt_progress_reads_as_none_and_wrong_shape_rejected(tmp_path):
    store = CheckpointStore(tmp_path)
    (tmp_path / "job-x").mkdir()
    path = tmp_path / "job-x" / PROGRESS_FILE
    path.write_bytes(b"not a checkpoint at all")
    assert store.load_progress("job-x") is None
    # A valid pickle of the wrong shape is also rejected, not crashed on.
    path.write_bytes(pickle.dumps(["definitely", "not", "a", "snapshot"]))
    assert store.load_progress("job-x") is None


def test_corrupt_progress_falls_back_to_rerun_from_spec(tmp_path):
    """A service restart with a torn progress snapshot re-runs the job from
    its spec -- logged recovery, byte-identical report, no crash."""

    async def submit_without_draining():
        service = CampaignService(checkpoint_dir=tmp_path)
        service._queue = asyncio.Queue()  # started enough to accept submits
        service._loop = asyncio.get_running_loop()
        return await service.submit(make_scenarios())

    job_id = asyncio.run(submit_without_draining())
    progress = tmp_path / job_id / PROGRESS_FILE
    progress.write_bytes(b"torn write")

    async def recover():
        service = CampaignService(checkpoint_dir=tmp_path)
        recovered = await service.start()
        assert recovered == [job_id]
        record = await service.wait(job_id)
        await service.stop()
        return record

    record = asyncio.run(recover())
    assert record.state == "finished"
    clean = CampaignRunner(num_workers=1).run(make_scenarios()).report_bytes()
    assert record.report == clean


def test_corrupt_spec_skips_job_at_recovery(tmp_path):
    store = CheckpointStore(tmp_path)
    store.save_spec("job-000009", {"not": "a real spec"})
    path = tmp_path / "job-000009" / SPEC_FILE
    path.write_bytes(path.read_bytes()[:20])

    async def recover():
        service = CampaignService(checkpoint_dir=tmp_path)
        recovered = await service.start()
        await service.stop()
        return recovered

    assert asyncio.run(recover()) == []
