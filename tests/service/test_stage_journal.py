"""The append-only stage journal behind service checkpoints.

``progress.pkl`` holds one sha256-framed ``(stage key, value)`` record per
finished non-local stage, appended as the job runs.  This suite pins down
what that format promises:

* only non-local stages are journaled, each value as it was when its stage
  finished, and a save with nothing to append still leaves the file on disk,
* a journal starts with the shard plan its records were made under, in
  one fixed format (``{"fault_shards": n, "pattern_shards": 1}``); a
  resume under another plan (e.g. another worker count) ignores it, since
  shard records are keyed by index only,
* a torn tail -- cut mid-header, cut mid-payload, or a flipped byte in the
  last record -- keeps the valid record prefix (logged), the next append
  truncates the garbage first, and a job resumed from such a journal still
  produces the serial oracle's bytes,
* a whole-store snapshot written by older code, or any unframed blob, is
  logged and ignored without being unpickled,
* records at stage keys an older graph had and today's has not are
  preloaded but satisfy no node, so such a journal resumes to the oracle,
* records at the keys of stages that were pooled then and run in the
  parent now (bundle, signatures, transition prep, skew) are preloaded and
  satisfy their nodes, and such a journal resumes to the oracle too,
* a cancel flushes the records a coarse ``checkpoint_every`` buffered,
* saves never rewrite: on a pooled multi-scenario job the bytes written
  across every ``save_progress`` add up to the journal's final size.
"""

import asyncio
import pickle

import pytest

from repro.campaign import (
    CampaignRunner,
    CampaignScenario,
    LifecycleChaosPlan,
    LifecycleInjection,
)
from repro.campaign.scheduler import StageNode, StageObserver
from repro.core.config import LogicBistConfig, ServiceConfig
from repro.service import CampaignService, CheckpointStore, EventReassembler
from repro.service.checkpoint import (
    CHECKSUM_MAGIC,
    JOURNAL_MAGIC,
    PLAN_KEY,
    PROGRESS_FILE,
    _frame,
    _journal_record,
)
from repro.service.events import JobStarted, StageFinished, StageStarted
from repro.timing import MonteCarloSummary

from test_checkpoint_resume import (
    make_core,
    make_scenarios,
    oracle_bytes,
    run_service,
)
from test_lifecycle import drive

pytestmark = pytest.mark.service

#: Record header: magic + 16 hex length chars + 64 hex digest chars + newline.
HEADER_LEN = len(JOURNAL_MAGIC) + 16 + 64 + 1

LOGGER = "repro.service.checkpoint"

#: The shard plan of a one-worker service with default sharding.
SERIAL_PLAN = {"fault_shards": 1, "pattern_shards": 1}


def record_spans(blob: bytes) -> list[tuple[int, int]]:
    """``(start, payload length)`` of every record in an intact journal."""
    spans = []
    offset = 0
    while offset < len(blob):
        assert blob.startswith(JOURNAL_MAGIC, offset)
        field = offset + len(JOURNAL_MAGIC)
        length = int(blob[field : field + 16], 16)
        spans.append((offset, length))
        offset += HEADER_LEN + length
    assert offset == len(blob)
    return spans


def node(key: str, local: bool = False) -> StageNode:
    return StageNode(key=key, task=None, local=local)


def journal_of(store: CheckpointStore, job_id: str, values: dict) -> None:
    for key, value in values.items():
        store.record_stage(job_id, node(key), value)
    store.save_progress(job_id, None)


# --------------------------------------------------------------------- #
# Store-level format
# --------------------------------------------------------------------- #
def test_only_non_local_stages_are_journaled(tmp_path):
    store = CheckpointStore(tmp_path)
    store.record_stage("job-x", node("a"), {"value": 1})
    store.record_stage("job-x", node("merge", local=True), "never written")
    store.save_progress("job-x", None)
    store.record_stage("job-x", node("b"), [2, 3])
    store.save_progress("job-x", None)
    assert CheckpointStore(tmp_path).load_progress("job-x") == {
        "a": {"value": 1},
        "b": [2, 3],
    }


def test_values_are_captured_at_finish_time(tmp_path):
    """A value mutated after its stage finished (as the local merge stages
    mutate the bundle) is journaled as it was at finish, even when the
    flush comes later (``checkpoint_every > 1``)."""
    store = CheckpointStore(tmp_path)
    bundle = {"detected": []}
    store.record_stage("job-x", node("bundle"), bundle)
    bundle["detected"].append("fault")
    store.save_progress("job-x", None)
    assert store.load_progress("job-x") == {"bundle": {"detected": []}}


def test_empty_save_leaves_the_journal_on_disk(tmp_path):
    store = CheckpointStore(tmp_path)
    store.record_stage("job-x", node("report", local=True), "local only")
    store.save_progress("job-x", None)
    path = tmp_path / "job-x" / PROGRESS_FILE
    assert len(record_spans(path.read_bytes())) == 1  # the plan record
    assert store.has_progress("job-x")
    assert store.load_progress("job-x") is None


def test_journal_from_another_shard_plan_is_ignored(tmp_path, caplog):
    """Shard records are keyed ``shard{i}`` whatever the shard count, so a
    journal made under one plan must not preload another plan's nodes."""
    four = {"fault_shards": 4, "pattern_shards": 1}
    store = CheckpointStore(tmp_path)
    assert store.load_progress("job-x", plan=four) is None
    journal_of(store, "job-x", {"a/shard0": 1, "a/shard1": 2})
    assert CheckpointStore(tmp_path).load_progress("job-x", plan=four) == {
        "a/shard0": 1, "a/shard1": 2,
    }

    resumed = CheckpointStore(tmp_path)
    with caplog.at_level("WARNING", logger=LOGGER):
        assert resumed.load_progress("job-x", plan=SERIAL_PLAN) is None
    assert any("shard plan" in record.getMessage() for record in caplog.records)
    # The next save starts a fresh journal headed by the new plan.
    journal_of(resumed, "job-x", {"a/shard0": 10})
    path = tmp_path / "job-x" / PROGRESS_FILE
    assert len(record_spans(path.read_bytes())) == 2
    assert CheckpointStore(tmp_path).load_progress(
        "job-x", plan=SERIAL_PLAN
    ) == {"a/shard0": 10}
    assert CheckpointStore(tmp_path).load_progress("job-x", plan=four) is None


def test_unsaved_records_are_dropped_on_load(tmp_path):
    """Records captured but never saved died with their run; loading the
    journal for a resume must not append them later."""
    store = CheckpointStore(tmp_path)
    journal_of(store, "job-x", {"a": 1})
    store.record_stage("job-x", node("lost"), 2)
    assert store.load_progress("job-x") == {"a": 1}
    store.save_progress("job-x", None)
    assert CheckpointStore(tmp_path).load_progress("job-x") == {"a": 1}


#: Ways to damage the last record, given the blob and that record's
#: ``(start, payload length)``.
TORN_TAILS = {
    "mid_header": lambda blob, start, n: blob[: start + HEADER_LEN // 2],
    "mid_payload": lambda blob, start, n: blob[: start + HEADER_LEN + n // 2],
    "flipped_byte": lambda blob, start, n: blob[:-1] + bytes([blob[-1] ^ 0xFF]),
}


@pytest.mark.parametrize("damage", sorted(TORN_TAILS))
def test_torn_tail_keeps_prefix_and_is_truncated_before_append(
    tmp_path, damage, caplog
):
    store = CheckpointStore(tmp_path)
    journal_of(store, "job-x", {"a": 1, "b": 2, "c": 3})
    path = tmp_path / "job-x" / PROGRESS_FILE
    blob = path.read_bytes()
    start, length = record_spans(blob)[-1]
    path.write_bytes(TORN_TAILS[damage](blob, start, length))

    resumed = CheckpointStore(tmp_path)
    with caplog.at_level("WARNING", logger=LOGGER):
        assert resumed.load_progress("job-x") == {"a": 1, "b": 2}
    assert any("re-run" in record.getMessage() for record in caplog.records)

    # The next append lands right after the valid prefix: the new record is
    # readable and nothing is stranded behind the garbage.
    journal_of(resumed, "job-x", {"c": 30, "d": 4})
    caplog.clear()
    with caplog.at_level("WARNING", logger=LOGGER):
        assert CheckpointStore(tmp_path).load_progress("job-x") == {
            "a": 1, "b": 2, "c": 30, "d": 4,
        }
    assert not caplog.records
    assert len(record_spans(path.read_bytes())) == 5  # plan + a, b, c, d


TRIPPED = []


def _tripwire():
    TRIPPED.append(True)
    return {"store": {}, "expansions": {}}


class Tripwire:
    """Unpickling this object calls :func:`_tripwire`."""

    def __reduce__(self):
        return (_tripwire, ())


@pytest.mark.parametrize(
    "blob, kind",
    [
        (_frame(pickle.dumps(Tripwire())), "older code"),
        (pickle.dumps(Tripwire()), "unframed"),
    ],
)
def test_foreign_progress_is_ignored_unpickled(tmp_path, blob, kind, caplog):
    """A pre-journal whole-store snapshot (or any unframed blob) reads as
    no progress, is never unpickled, and is overwritten by the next save."""
    assert blob.startswith(CHECKSUM_MAGIC) == (kind == "older code")
    (tmp_path / "job-x").mkdir()
    path = tmp_path / "job-x" / PROGRESS_FILE
    path.write_bytes(blob)
    store = CheckpointStore(tmp_path)
    with caplog.at_level("WARNING", logger=LOGGER):
        assert store.load_progress("job-x") is None
    assert not TRIPPED
    assert any(kind in record.getMessage() for record in caplog.records)

    journal_of(store, "job-x", {"a": 1})
    assert path.read_bytes().startswith(JOURNAL_MAGIC)
    assert CheckpointStore(tmp_path).load_progress("job-x") == {"a": 1}


# --------------------------------------------------------------------- #
# Service level: torn journals resume to the oracle
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("damage", sorted(TORN_TAILS))
def test_torn_journal_resumes_to_oracle_bytes(tmp_path, damage, caplog):
    expected = oracle_bytes("python")
    job_id, crashed, _, _ = run_service(
        tmp_path, make_scenarios("python"), crash_after=8
    )
    assert crashed.state == "failed"
    path = tmp_path / job_id / PROGRESS_FILE
    blob = path.read_bytes()
    spans = record_spans(blob)
    assert len(spans) >= 3
    start, length = spans[-1]
    path.write_bytes(TORN_TAILS[damage](blob, start, length))

    with caplog.at_level("WARNING", logger=LOGGER):
        _, resumed, events, _ = run_service(tmp_path, resume_job=job_id)
    assert any("re-run" in record.getMessage() for record in caplog.records)
    started = next(e for e in events if isinstance(e, JobStarted))
    # Every record but the plan and the damaged last one is preloaded.
    assert started.resumed and started.preloaded_stages == len(spans) - 2
    assert resumed.state == "finished"
    assert resumed.report == expected
    assert EventReassembler().feed_all(events).report_bytes() == expected


@pytest.mark.multiprocess
def test_resume_under_another_worker_count_matches_oracle(tmp_path, caplog):
    """A job journaled by a 4-worker service (four fault-sim shards) and
    resumed by a 1-worker one (one shard) must not preload the old
    ``shard0``: it covers only a quarter of the faults."""
    expected = oracle_bytes("python")
    # Crash right after the fourth fault-sim shard is journaled.
    after_shards = LifecycleChaosPlan(
        [LifecycleInjection(stage="fault_sim/shard", action="crash",
                            occurrences=(3,))]
    )
    service = CampaignService(
        num_workers=4, checkpoint_dir=tmp_path, lifecycle_chaos=after_shards
    )
    job_id, crashed = asyncio.run(drive(service, make_scenarios("python")))
    assert crashed.state == "failed"
    four = {"fault_shards": 4, "pattern_shards": 1}
    journal = CheckpointStore(tmp_path).load_progress(job_id, plan=four)
    assert sum("/fault_sim/shard" in key for key in journal) == 4

    with caplog.at_level("WARNING", logger=LOGGER):
        _, resumed, events, _ = run_service(
            tmp_path, num_workers=1, resume_job=job_id
        )
    assert any("shard plan" in record.getMessage() for record in caplog.records)
    started = next(e for e in events if isinstance(e, JobStarted))
    assert started.resumed and started.preloaded_stages == 0
    assert resumed.state == "finished"
    assert resumed.report == expected
    assert EventReassembler().feed_all(events).report_bytes() == expected


@pytest.mark.parametrize("pattern_shards", (1, 2))
def test_journal_plan_header_compatibility(tmp_path, caplog, pattern_shards):
    """A journal headed ``{"fault_shards": n, "pattern_shards": 1}`` -- the
    header every service has written -- resumes with its shard outcomes
    preloaded.  One headed ``pattern_shards: 2`` holds shards cut along
    the block stream, which no service plans, so it is logged and dropped,
    never preloaded."""
    expected = oracle_bytes("python")
    after_shards = LifecycleChaosPlan(
        [LifecycleInjection(stage="fault_sim/shard", action="crash",
                            occurrences=(2,))]
    )
    service = CampaignService(
        fault_shards=3, checkpoint_dir=tmp_path, lifecycle_chaos=after_shards
    )
    job_id, crashed = asyncio.run(drive(service, make_scenarios("python")))
    assert crashed.state == "failed"
    path = tmp_path / job_id / PROGRESS_FILE
    blob = path.read_bytes()
    header = {"fault_shards": 3, "pattern_shards": 1}
    _, plan_length = record_spans(blob)[0]
    assert pickle.loads(blob[HEADER_LEN : HEADER_LEN + plan_length]) == (
        PLAN_KEY, header,
    )
    journal = CheckpointStore(tmp_path).load_progress(job_id, plan=header)
    assert sum("/fault_sim/shard" in key for key in journal) == 3

    path.write_bytes(
        _journal_record(PLAN_KEY, {**header, "pattern_shards": pattern_shards})
        + blob[HEADER_LEN + plan_length :]
    )
    with caplog.at_level("WARNING", logger=LOGGER):
        _, resumed = asyncio.run(
            drive(CampaignService(fault_shards=3, checkpoint_dir=tmp_path),
                  job_id=job_id)
        )
    dropped = any("shard plan" in record.getMessage() for record in caplog.records)
    assert dropped == (pattern_shards != 1)
    assert resumed.resumed
    assert resumed.preloaded_stages == (len(journal) if pattern_shards == 1 else 0)
    assert resumed.state == "finished"
    assert resumed.report == expected


def test_journal_with_retired_stage_keys_resumes_to_oracle(tmp_path):
    """Older graphs journaled the signature's responses stage and
    per-domain folds, and the skew sweep's trial shards.  No node of
    today's graph has those keys, so a journal holding them -- with values
    that would corrupt the report if any node consumed them -- resumes to
    the serial oracle's bytes."""
    expected = oracle_bytes("python")
    job_id, crashed, _, _ = run_service(
        tmp_path, make_scenarios("python"), crash_after=4
    )
    assert crashed.state == "failed"
    journal = CheckpointStore(tmp_path).load_progress(job_id, plan=SERIAL_PLAN)
    [core_key] = [key for key in journal if key.endswith("/core")]
    prefix = core_key[: -len("/core")]
    retired = {
        f"{prefix}/signatures/responses": ({"never": 1},),
        f"{prefix}/signatures/fold:clk1": ("clk1", 12345),
        f"{prefix}/skew/trials0": MonteCarloSummary(trials=999, clean=999),
    }
    with open(tmp_path / job_id / PROGRESS_FILE, "ab") as handle:
        for key, value in retired.items():
            handle.write(_journal_record(key, value))

    _, resumed, events, _ = run_service(tmp_path, resume_job=job_id)
    started = next(e for e in events if isinstance(e, JobStarted))
    assert started.resumed
    assert started.preloaded_stages == len(journal) + len(retired)
    assert resumed.state == "finished"
    assert resumed.report == expected
    assert EventReassembler().feed_all(events).report_bytes() == expected


def test_journal_without_stage_values_still_reports_resumed(tmp_path):
    """A journal holding no stage values (only local stages finished
    before the crash, say on a warm job) is still a resume point."""
    job_id, crashed, _, _ = run_service(
        tmp_path, make_scenarios("python"), crash_after=1
    )
    assert crashed.state == "failed"
    path = tmp_path / job_id / PROGRESS_FILE
    blob = path.read_bytes()
    _, plan_length = record_spans(blob)[0]
    path.write_bytes(blob[: HEADER_LEN + plan_length])

    _, resumed, events, _ = run_service(tmp_path, resume_job=job_id)
    started = next(e for e in events if isinstance(e, JobStarted))
    assert started.resumed and started.preloaded_stages == 0
    assert resumed.resumed
    assert resumed.report == oracle_bytes("python")


def test_failed_job_releases_its_unsaved_records(tmp_path):
    """A job that dies between coarse saves must not keep its buffered
    (pickled, possibly MB-sized) records alive in the service."""
    service = CampaignService(
        checkpoint_dir=tmp_path,
        service_config=ServiceConfig(checkpoint_every=10_000),
        lifecycle_chaos=LifecycleChaosPlan.cancel_after_stages(6, "crash"),
    )
    _, record = asyncio.run(drive(service, make_scenarios("python")))
    assert record.state == "failed"
    assert not service.checkpoints._pending


#: The stages that ran in pool workers, and so were journaled, before they
#: moved into the parent.
PARENT_SIDE = ("bundle", "signatures", "transition_prep", "skew")


class FinishPickles(StageObserver):
    """Pickles each named stage's value as it finishes, as a journal did."""

    def __init__(self, keys) -> None:
        self.keys = set(keys)
        self.blobs: dict[str, bytes] = {}

    def on_stage_finish(self, node, value, seconds) -> None:
        if node.key in self.keys:
            self.blobs[node.key] = pickle.dumps(value)


def test_journal_with_parent_side_stage_records_resumes_to_oracle(tmp_path):
    """Journals written while the bundle, signature, transition preparation
    and skew sweep were pooled hold records at those stage keys.  The keys
    did not change, so a resume preloads such records, skips their stages
    and still produces the serial oracle's bytes."""
    expected = oracle_bytes("python")
    job_id, crashed, _, _ = run_service(
        tmp_path, make_scenarios("python"), crash_after=1
    )
    assert crashed.state == "failed"
    journal = CheckpointStore(tmp_path).load_progress(job_id, plan=SERIAL_PLAN)
    assert not any(key.endswith(PARENT_SIDE) for key in journal)

    runner = CampaignRunner()
    plan = runner.plan(make_scenarios("python"), prefix=f"{job_id}/")
    keys = plan.artifact_keys["svc"]
    observer = FinishPickles(keys[name] for name in PARENT_SIDE)
    runner.scheduler().run(plan.nodes, observer=observer)
    assert sorted(observer.blobs) == sorted(keys[name] for name in PARENT_SIDE)
    with open(tmp_path / job_id / PROGRESS_FILE, "ab") as handle:
        for key, blob in observer.blobs.items():
            handle.write(_journal_record(key, pickle.loads(blob)))

    _, resumed, events, _ = run_service(tmp_path, resume_job=job_id)
    started = next(e for e in events if isinstance(e, JobStarted))
    assert started.resumed
    assert started.preloaded_stages == len(journal) + len(PARENT_SIDE)
    ran = {e.stage for e in events if isinstance(e, StageStarted)}
    assert not ran & set(observer.blobs)
    assert resumed.state == "finished"
    assert resumed.report == expected
    assert EventReassembler().feed_all(events).report_bytes() == expected


def non_local_keys(scenarios, job_id: str) -> set:
    """The keys of every pooled stage a clean serial run of ``scenarios``
    under ``job_id`` finishes, spliced shard stages included."""
    runner = CampaignRunner()
    plan = runner.plan(scenarios, prefix=f"{job_id}/")
    run = runner.scheduler().run(plan.nodes)
    return {record.key for record in run.trace if not record.local}


def test_cancel_flushes_records_buffered_by_a_coarse_cadence(tmp_path):
    """With ``checkpoint_every`` larger than the job, nothing is appended
    while it runs; a cancel must still flush every finished stage: the
    journal holds exactly the non-local stages that finished before the
    cancel."""
    coarse = ServiceConfig(checkpoint_every=10_000)

    async def cancel_session():
        service = CampaignService(
            checkpoint_dir=tmp_path,
            service_config=coarse,
            lifecycle_chaos=LifecycleChaosPlan.cancel_after_stages(6),
        )
        _, record = await drive(service, make_scenarios("python"))
        return record

    cancelled = asyncio.run(cancel_session())
    assert cancelled.state == "cancelled"
    journal = CheckpointStore(tmp_path).load_progress(
        cancelled.job_id, plan=SERIAL_PLAN
    )
    finished = [e.stage for e in cancelled.events if isinstance(e, StageFinished)]
    assert len(finished) == 7
    pooled = non_local_keys(make_scenarios("python"), cancelled.job_id)
    assert sorted(journal) == sorted(key for key in finished if key in pooled)
    assert journal

    async def resume_session():
        service = CampaignService(checkpoint_dir=tmp_path, service_config=coarse)
        await service.start()
        await service.resume(cancelled.job_id)
        record = await service.wait(cancelled.job_id)
        await service.stop()
        return record

    resumed = asyncio.run(resume_session())
    assert resumed.preloaded_stages == len(journal)
    assert resumed.report == oracle_bytes("python")


# --------------------------------------------------------------------- #
# Saves append; they never rewrite
# --------------------------------------------------------------------- #
class AppendCountingStore(CheckpointStore):
    """Counts the bytes every ``save_progress`` writes.

    A save that leaves the previous file contents as a prefix wrote only
    the new tail; any other save rewrote the file and counts in full.
    """

    def __init__(self, root) -> None:
        super().__init__(root)
        self.saves = 0
        self.written = 0
        self.final_size = None

    def save_progress(self, job_id, run):
        path = self.job_dir(job_id) / PROGRESS_FILE
        before = path.read_bytes() if path.exists() else b""
        super().save_progress(job_id, run)
        after = path.read_bytes()
        self.saves += 1
        if after.startswith(before):
            self.written += len(after) - len(before)
        else:
            self.written += len(after)

    def discard_progress(self, job_id):
        self.final_size = (self.job_dir(job_id) / PROGRESS_FILE).stat().st_size
        super().discard_progress(job_id)


def four_scenarios():
    config = LogicBistConfig(
        random_patterns=48,
        signature_patterns=8,
        total_scan_chains=4,
        tpi_method="none",
        observation_point_budget=0,
    )
    return [
        CampaignScenario(f"s{seed}", make_core(seed=seed), config)
        for seed in (41, 42, 43, 44)
    ]


@pytest.mark.multiprocess
def test_pooled_job_only_appends_to_its_journal(tmp_path):
    async def main():
        service = CampaignService(num_workers=2, checkpoint_dir=tmp_path)
        store = AppendCountingStore(tmp_path)
        service.checkpoints = store
        await service.start()
        job_id = await service.submit(four_scenarios())
        record = await service.wait(job_id)
        await service.stop()
        return record, store

    record, store = asyncio.run(main())
    assert record.state == "finished"
    assert record.report == CampaignRunner(num_workers=1).run(
        four_scenarios()
    ).report_bytes()
    assert store.saves > 4 * 5
    assert store.final_size > 0
    assert store.written == store.final_size
