"""The asyncio campaign service: submit, stream, checkpoint, resume.

:class:`CampaignService` is a queue, a journal, a prep cache and an event
stream around one :class:`~repro.campaign.runner.CampaignRunner`.
Submissions (lists of :class:`~repro.campaign.runner.CampaignScenario`)
enter an asyncio queue; one drain task executes jobs in submission order,
each job planned, scheduled and collected by the runner
(:meth:`~repro.campaign.runner.CampaignRunner.plan`,
:meth:`~repro.campaign.runner.CampaignRunner.scheduler`,
:meth:`~repro.campaign.runner.CampaignRunner.collect`), so a job's report
is the one ``CampaignRunner.run`` would return for the same scenarios.
The blocking schedule runs in a worker thread (``asyncio.to_thread``);
a :class:`~repro.campaign.scheduler.StageObserver` bridges its progress
back onto the event loop with ``call_soon_threadsafe``, so subscribers see
stage starts/finishes, coverage-curve deltas and section completions *live*
(:mod:`repro.service.events`).

Durability: with a checkpoint directory, every job persists its spec at
submission, journals every finished non-local stage (appended every
``checkpoint_every`` finished stages), and the final canonical report bytes
(:mod:`repro.service.checkpoint`).  A service killed mid-job restarts,
recovers the pending jobs from disk, preloads the journaled artifacts into
a fresh schedule, and re-executes the rest, local stages included -- the
resumed report bytes are identical to an uninterrupted run
(``tests/service/test_checkpoint_resume.py``).

Scenario keys are **deterministic** (``<job_id>/s<i>:<name>``): a resumed
schedule must address the same artifacts the crashed one checkpointed.

Job lifecycle (PR 10): every job moves through the state machine
``queued -> running -> finished | partial | failed | cancelled | timeout |
quarantined``.  :meth:`CampaignService.cancel` removes a queued job or
cooperatively stops a running one (a :class:`~repro.campaign.scheduler.
CancelToken` threaded into the scheduler's completion loop stops it at the
next stage boundary, checkpointed); a job-level deadline
(:attr:`~repro.core.config.ServiceConfig.job_deadline_s` or the per-submit
override) takes the same path into the ``"timeout"`` state;
``stop(mode="cancel", timeout_s=...)`` bounds shutdown by
checkpoint-stopping the in-flight job (it stays *pending* on disk, so a
restart resumes it); and recovery quarantines a job resumed more than
:attr:`~repro.core.config.ServiceConfig.max_resume_attempts` times instead
of letting a poison spec crash-loop the service.  Cancelled/timed-out jobs
persist a terminal marker (``state.json``) so a restart surfaces them
instead of silently resuming; an explicit :meth:`CampaignService.resume`
clears the marker and re-runs from the checkpoint -- byte-identical to an
uninterrupted run (``tests/service/test_lifecycle.py``).
"""

from __future__ import annotations

import asyncio
import itertools
import re
import time
from dataclasses import dataclass
from typing import Iterable, Optional

from ..campaign.pipeline import RandomPhaseOutcome, TransitionOutcome
from ..campaign.results import CampaignResult, ScenarioResult
from ..campaign.chaos import ServiceCrashError
from ..campaign.runner import (
    CampaignPlan,
    CampaignRunner,
    CampaignScenario,
    check_scenario_names,
)
from ..campaign.scheduler import CancelToken, ScheduleCancelled, StageObserver
from ..core.config import ServiceConfig
from ..simulation.kernel import KERNEL_CACHE
from .cache import ScenarioPrepCache
from .checkpoint import CheckpointStore
from .events import (
    TERMINAL_EVENTS,
    CoverageDelta,
    JobAccepted,
    JobCancelled,
    JobCounters,
    JobEvent,
    JobFailed,
    JobFinished,
    JobQuarantined,
    JobStarted,
    ScenarioCompleted,
    ScenarioFailed,
    SectionCompleted,
    StageFailed,
    StageFinished,
    StageRetrying,
    StageStarted,
    report_checksum,
)

_JOB_ID_PATTERN = re.compile(r"^job-(\d+)$")

#: Every terminal state of the job state machine.  ``"partial"`` is a
#: *successful* terminal state (degraded scenarios, canonical ``failures``
#: report section); the last four are the PR-10 lifecycle states.
TERMINAL_STATES = (
    "finished",
    "partial",
    "failed",
    "cancelled",
    "timeout",
    "quarantined",
)


class ServiceStoppedError(RuntimeError):
    """Submission rejected because :meth:`CampaignService.stop` has begun.

    Before this error existed a job enqueued behind the shutdown sentinel
    was *accepted* but never executed -- stuck in ``"queued"`` forever.
    """


class QueueFullError(RuntimeError):
    """The bounded job queue is at capacity.

    Carries ``depth`` (the configured
    :attr:`~repro.core.config.ServiceConfig.max_queue_depth`) and ``qsize``
    (the occupancy observed at submission), so callers can implement their
    own backpressure; or pass ``submit(..., wait=True)`` to await capacity
    instead of handling this error.
    """

    def __init__(self, depth: int, qsize: int) -> None:
        super().__init__(
            f"job queue is full (max_queue_depth={depth}, queued={qsize})"
        )
        self.depth = depth
        self.qsize = qsize


@dataclass(frozen=True)
class JobSpec:
    """The durable submission record: everything needed to (re-)run a job.

    ``deadline_s`` is the job's resolved wall-clock budget (per-submit
    override, else the service default at submission time; ``None`` =
    unbounded).  It lives in the spec so a restart enforces the same budget
    the submitter asked for.
    """

    job_id: str
    scenarios: tuple
    deadline_s: Optional[float] = None


class JobRecord:
    """In-memory state of one job: its spec, event log and final artifacts.

    Event ``seq`` numbers are allocated from the record (strictly
    increasing per job); events are appended only on the event loop thread,
    so readers on that thread never see partial updates.
    """

    def __init__(self, spec: JobSpec) -> None:
        self.spec = spec
        self.job_id = spec.job_id
        #: "queued" -> "running" -> one of :data:`TERMINAL_STATES`.
        #: "partial" is a *successful* terminal state in which one or more
        #: scenarios were degraded after exhausting their retries; the
        #: report carries their canonical failure records instead.
        self.state = "queued"
        self.events: list[JobEvent] = []
        self.counters = JobCounters()
        self.result: Optional[CampaignResult] = None
        self.report: Optional[bytes] = None
        self.error: Optional[str] = None
        self.resumed = False
        self.preloaded_stages = 0
        #: The running job's cooperative-stop handle (set by the drain task
        #: just before execution; ``None`` while queued/terminal).
        self.cancel_token: Optional[CancelToken] = None
        #: Open ``stream()`` iterators; a terminal record with subscribers
        #: is never pruned (they'd hang on a dropped event log).
        self.subscribers = 0
        self._seq = itertools.count()
        self._new_event = asyncio.Event()

    def next_seq(self) -> int:
        return next(self._seq)

    @property
    def done(self) -> bool:
        return self.state in TERMINAL_STATES


class _JobEmitter:
    """Constructs sequenced events in the worker thread and hands them off.

    ``sink`` must be thread-safe (the service passes a
    ``call_soon_threadsafe`` bridge); one emitter serves one job execution,
    and jobs execute one at a time, so seq allocation needs no locking.
    """

    def __init__(self, job_id: str, next_seq, sink, chunk: int) -> None:
        self.job_id = job_id
        self._next_seq = next_seq
        self._sink = sink
        self.chunk = chunk

    def emit(self, event_type, **fields) -> JobEvent:
        event = event_type(job_id=self.job_id, seq=self._next_seq(), **fields)
        self._sink(event)
        return event

    def emit_curve(self, scenario: str, section: str, curve) -> None:
        """Stream one coverage curve as consecutive chunked deltas."""
        points = [tuple(point) for point in curve]
        for start in range(0, len(points), self.chunk):
            chunk = tuple(points[start : start + self.chunk])
            self.emit(
                CoverageDelta,
                scenario=scenario,
                section=section,
                start_index=start,
                points=chunk,
                coverage=chunk[-1][1],
            )


class _JobObserver(StageObserver):
    """Bridges one schedule's progress into events and checkpoints.

    Content events are dispatched on artifact *type* as stages land
    (:class:`~repro.campaign.pipeline.RandomPhaseOutcome` -> ``random``
    curve deltas, :class:`~repro.campaign.pipeline.TransitionOutcome` ->
    ``transition`` deltas, :class:`~repro.campaign.results.ScenarioResult`
    -> section completions + scenario checksum).  All three come from local
    stages, which a resumed schedule always re-executes, so a fresh
    subscriber's stream on a resumed job still reassembles into the *full*
    canonical report.
    """

    def __init__(
        self,
        emitter: _JobEmitter,
        checkpoints: Optional[CheckpointStore],
        job_id: str,
        checkpoint_every: int,
        plan: CampaignPlan,
        cancel_token: Optional[CancelToken] = None,
        lifecycle_chaos=None,
    ) -> None:
        self._emitter = emitter
        self._checkpoints = checkpoints
        self._job_id = job_id
        self._checkpoint_every = checkpoint_every
        #: The job's stage graph, which canonicalises failure records.
        self._plan = plan
        self._cancel_token = cancel_token
        #: Optional :class:`~repro.campaign.chaos.LifecycleChaosPlan`:
        #: service-tier fault injection (cancel / deadline / crash) at the
        #: exact stage boundaries the lifecycle machinery acts on.
        self._lifecycle_chaos = lifecycle_chaos
        self._since_save = 0
        self._run = None

    # -- schedule callbacks -------------------------------------------- #
    def on_run_begin(self, run) -> None:
        self._run = run

    def on_stage_start(self, node) -> None:
        self._emitter.emit(
            StageStarted, stage=node.key, phase=node.phase, scenario=node.scenario
        )
        self._inject_lifecycle(node, "start")

    def on_stage_finish(self, node, value, seconds: float) -> None:
        self._emitter.emit(
            StageFinished,
            stage=node.key,
            phase=node.phase,
            scenario=node.scenario,
            seconds=seconds,
        )
        self._emit_content(node.scenario, value)
        if self._checkpoints is not None:
            self._checkpoints.record_stage(self._job_id, node, value)
            self._since_save += 1
            if self._since_save >= self._checkpoint_every:
                self._checkpoints.save_progress(self._job_id, self._run)
                self._since_save = 0
        # After the checkpoint write, so an injected crash/cancel lands in
        # the worst spot: progress durable, stage done, job not finished.
        self._inject_lifecycle(node, "finish")

    def _inject_lifecycle(self, node, event: str) -> None:
        """Apply a service-tier chaos action at this stage boundary."""
        if self._lifecycle_chaos is None:
            return
        action = self._lifecycle_chaos.action_for(node.key, event)
        if action is None:
            return
        if action == "crash":
            raise ServiceCrashError(
                f"injected service crash at {node.key} ({event})"
            )
        if self._cancel_token is not None:
            self._cancel_token.cancel(
                "timeout" if action == "deadline" else "cancelled"
            )

    def on_stage_error(self, node, error: BaseException) -> None:
        self._emitter.emit(
            StageFailed,
            stage=node.key,
            phase=node.phase,
            scenario=node.scenario,
            error=str(error),
        )

    def on_stage_retry(self, node, error, attempt: int, delay_s: float) -> None:
        self._emitter.emit(
            StageRetrying,
            stage=node.key,
            phase=node.phase,
            scenario=node.scenario,
            attempt=attempt,
            delay_s=delay_s,
            error=str(error),
        )

    def on_stage_failed(self, node, error, failure) -> None:
        """A stage exhausted its retries and its scenario was degraded."""
        self._emitter.emit(
            StageFailed,
            stage=node.key,
            phase=node.phase,
            scenario=node.scenario,
            error=str(error),
        )
        self._emitter.emit(
            ScenarioFailed,
            scenario=node.scenario,
            failure=self._plan.failure_record(failure),
        )

    # -- content dispatch ---------------------------------------------- #
    def _emit_content(self, scenario: str, value) -> None:
        if isinstance(value, RandomPhaseOutcome):
            self._emitter.emit_curve(scenario, "random", value.result.coverage_curve)
        elif isinstance(value, TransitionOutcome):
            self._emitter.emit_curve(scenario, "transition", value.coverage_curve)
        elif isinstance(value, ScenarioResult):
            for section, payload in value.canonical_sections().items():
                self._emitter.emit(
                    SectionCompleted,
                    scenario=scenario,
                    section=section,
                    payload=payload,
                )
            self._emitter.emit(
                ScenarioCompleted,
                scenario=scenario,
                checksum=report_checksum(value.report_bytes()),
            )


class CampaignService:
    """Long-lived asyncio front-end over one campaign runner.

    ``num_workers``, ``fault_shards``, ``mp_context`` and ``chaos`` build
    the service's :class:`~repro.campaign.runner.CampaignRunner` (as
    :attr:`runner`), together with ``service_config``'s ``retry`` and
    ``degrade_scenarios``.  The rest is the service tier:
    ``checkpoint_dir`` enables durability/resume, ``service_config``
    (:class:`~repro.core.config.ServiceConfig`) tunes checkpoint cadence,
    event chunking, cache sizes and the job lifecycle.  Use as::

        service = CampaignService(checkpoint_dir=path)
        await service.start()
        job_id = await service.submit([CampaignScenario(...), ...])
        async for event in service.stream(job_id):
            ...
        record = await service.wait(job_id)
        await service.stop()
    """

    def __init__(
        self,
        num_workers: int = 1,
        fault_shards: Optional[int] = None,
        checkpoint_dir=None,
        service_config: Optional[ServiceConfig] = None,
        mp_context=None,
        chaos=None,
        lifecycle_chaos=None,
    ) -> None:
        self.config = service_config or ServiceConfig()
        #: Plans, schedules and collects every job.  ``chaos`` (an optional
        #: :class:`~repro.campaign.chaos.ChaosPlan`) rides into every job's
        #: scheduler (testing/fault-drill hook; None in prod).
        self.runner = CampaignRunner(
            num_workers=num_workers,
            fault_shards=fault_shards,
            mp_context=mp_context,
            retry_policy=self.config.retry,
            chaos=chaos,
            degrade=self.config.degrade_scenarios,
        )
        #: Optional :class:`~repro.campaign.chaos.LifecycleChaosPlan`:
        #: service-tier injections (cancel/deadline/crash at stage
        #: boundaries) driving the lifecycle test suite; None in prod.
        self.lifecycle_chaos = lifecycle_chaos
        self.checkpoints = (
            CheckpointStore(checkpoint_dir) if checkpoint_dir is not None else None
        )
        self.prep_cache = ScenarioPrepCache(self.config.prep_cache_size)
        self._jobs: dict[str, JobRecord] = {}
        self._totals = JobCounters()
        self._queue: Optional[asyncio.Queue] = None
        self._drain_task: Optional[asyncio.Task] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._job_counter = itertools.count(1)
        #: True once stop() has begun: submissions are rejected with
        #: ServiceStoppedError instead of stranding behind the sentinel.
        self._stopping = False
        #: True in stop(mode="cancel"): the drain skips still-queued jobs
        #: (they stay pending on disk; a restart resumes them).
        self._stop_cancel = False
        #: The record currently executing in the worker thread, if any.
        self._current: Optional[JobRecord] = None
        #: Set whenever queue occupancy drops; submit(wait=True) awaits it.
        self._capacity: Optional[asyncio.Event] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> list[str]:
        """Start draining; recover and re-enqueue checkpointed pending jobs.

        Returns the re-enqueued job ids (oldest first).  Recovered jobs run
        before anything submitted afterwards and resume from their last
        saved stage journal.  Jobs whose durable lifecycle record says they
        were cancelled or timed out are surfaced as terminal records (not
        resumed -- an explicit :meth:`resume` restarts them); a job
        recovered-and-started more than
        :attr:`~repro.core.config.ServiceConfig.max_resume_attempts` times
        is quarantined instead of re-enqueued, so a poison spec cannot
        crash-loop the service.
        """
        if self._drain_task is not None:
            raise RuntimeError("service already started")
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue()
        self._capacity = asyncio.Event()
        self._stopping = False
        self._stop_cancel = False
        self._current = None
        recovered: list[str] = []
        if self.checkpoints is not None:
            highest = 0
            for job_id in self.checkpoints.job_ids():
                match = _JOB_ID_PATTERN.match(job_id)
                if match:
                    highest = max(highest, int(match.group(1)))
            self._job_counter = itertools.count(highest + 1)
            for job_id in self.checkpoints.pending_jobs():
                spec = self.checkpoints.load_spec(job_id)
                if spec is None:
                    continue
                record = JobRecord(spec)
                self._jobs[job_id] = record
                self._record_event(
                    record,
                    JobAccepted(
                        job_id=job_id,
                        seq=record.next_seq(),
                        position=self._queue.qsize(),
                    ),
                )
                lifecycle = self.checkpoints.load_lifecycle(job_id)
                state = lifecycle.get("state")
                if state in ("cancelled", "timeout"):
                    # Stopped on purpose: surface the terminal record, keep
                    # the checkpoint, and wait for an explicit resume().
                    self._record_event(
                        record,
                        JobCancelled(
                            job_id=job_id,
                            seq=record.next_seq(),
                            reason=lifecycle.get("reason") or state,
                            checkpointed=self.checkpoints.has_progress(job_id),
                        ),
                    )
                    continue
                attempts = int(lifecycle.get("resume_attempts", 0))
                if state != "quarantined" and lifecycle.get("started"):
                    # The previous run *began executing* and never reached a
                    # terminal state: this recovery burns a resume attempt.
                    # Jobs that merely waited in the queue don't.
                    attempts = self.checkpoints.bump_resume_attempts(job_id)
                if state == "quarantined" or attempts > self.config.max_resume_attempts:
                    if state != "quarantined":
                        self.checkpoints.mark_state(
                            job_id, "quarantined", "crash-loop"
                        )
                    self._record_event(
                        record,
                        JobQuarantined(
                            job_id=job_id,
                            seq=record.next_seq(),
                            resume_attempts=attempts,
                            limit=self.config.max_resume_attempts,
                        ),
                    )
                    continue
                record.resumed = True
                self._queue.put_nowait(record)
                recovered.append(job_id)
        self._drain_task = asyncio.create_task(self._drain())
        return recovered

    async def stop(
        self, mode: str = "drain", timeout_s: Optional[float] = None
    ) -> None:
        """Stop the service (idempotent); submissions are rejected at once.

        ``mode="drain"`` (default) keeps the historical semantics: every
        queued job runs to completion first.  ``mode="cancel"`` bounds
        shutdown instead: the in-flight job is cooperatively stopped at its
        next stage boundary and checkpointed, still-queued jobs are skipped
        -- both stay *pending* on disk (no terminal marker), so the next
        :meth:`start` resumes them where they left off.

        ``timeout_s`` bounds the wait.  A drain that overruns it escalates
        to the cancel path and waits one more ``timeout_s``; if the stop
        still hasn't completed (a stage blocking past every deadline),
        ``asyncio.TimeoutError`` propagates with the drain task intact --
        call ``stop()`` again to keep waiting.
        """
        if mode not in ("drain", "cancel"):
            raise ValueError(f"unknown stop mode {mode!r}")
        if self._drain_task is None:
            return
        assert self._queue is not None
        if not self._stopping:
            self._stopping = True
            self._queue.put_nowait(None)
            self._notify_capacity()  # wake submit(wait=True) waiters
        if mode == "cancel":
            self._begin_stop_cancel()
        drain = self._drain_task
        if timeout_s is None:
            await drain
        else:
            try:
                await asyncio.wait_for(asyncio.shield(drain), timeout_s)
            except asyncio.TimeoutError:
                if self._stop_cancel:
                    raise
                self._begin_stop_cancel()
                await asyncio.wait_for(asyncio.shield(drain), timeout_s)
        self._drain_task = None

    def _begin_stop_cancel(self) -> None:
        """Switch shutdown to the cancel path (loop thread only)."""
        self._stop_cancel = True
        current = self._current
        if current is not None and current.cancel_token is not None:
            # "shutdown" deliberately writes NO terminal marker: the job
            # stays pending on disk and the next start() resumes it.
            current.cancel_token.cancel("shutdown")

    # ------------------------------------------------------------------ #
    # Submission / observation
    # ------------------------------------------------------------------ #
    async def submit(
        self,
        scenarios: Iterable[CampaignScenario],
        job_id: Optional[str] = None,
        deadline_s: Optional[float] = None,
        wait: bool = False,
    ) -> str:
        """Queue a campaign; returns its job id immediately.

        ``deadline_s`` overrides the service-wide
        :attr:`~repro.core.config.ServiceConfig.job_deadline_s` wall-clock
        budget for this job.  With a bounded queue, ``wait=True`` awaits
        capacity instead of raising :class:`QueueFullError`.  Raises
        :class:`ServiceStoppedError` once :meth:`stop` has begun.
        """
        if self._queue is None:
            raise RuntimeError("service not started; await service.start() first")
        if self._stopping:
            raise ServiceStoppedError("service is stopping; submission rejected")
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError("deadline_s must be positive (or None)")
        scenarios = tuple(scenarios)
        if not scenarios:
            raise ValueError("a job needs at least one scenario")
        check_scenario_names(scenarios)
        depth = self.config.max_queue_depth
        if depth:
            if wait:
                # Everything that changes qsize runs on this loop thread and
                # sets _capacity afterwards, so clear-then-wait cannot lose
                # a wakeup.
                while self._queue.qsize() >= depth:
                    assert self._capacity is not None
                    self._capacity.clear()
                    await self._capacity.wait()
                    if self._stopping:
                        raise ServiceStoppedError(
                            "service stopped while awaiting queue capacity"
                        )
            elif self._queue.qsize() >= depth:
                raise QueueFullError(depth=depth, qsize=self._queue.qsize())
        if job_id is None:
            job_id = f"job-{next(self._job_counter):06d}"
        if job_id in self._jobs:
            raise ValueError(f"duplicate job id {job_id!r}")
        if deadline_s is None:
            deadline_s = self.config.job_deadline_s
        spec = JobSpec(job_id=job_id, scenarios=scenarios, deadline_s=deadline_s)
        record = JobRecord(spec)
        self._jobs[job_id] = record
        if self.checkpoints is not None:
            self.checkpoints.save_spec(job_id, spec)
        self._record_event(
            record,
            JobAccepted(
                job_id=job_id, seq=record.next_seq(), position=self._queue.qsize()
            ),
        )
        self._queue.put_nowait(record)
        return job_id

    async def cancel(self, job_id: str) -> bool:
        """Cancel a queued or running job; ``False`` if already terminal.

        A queued job becomes ``"cancelled"`` immediately (the drain skips
        its record).  A running job is stopped *cooperatively*: its
        :class:`~repro.campaign.scheduler.CancelToken` is latched and the
        scheduler raises out of its completion loop at the next stage
        boundary -- in-flight pool stages are abandoned, the pool stays
        healthy, and the job checkpoints its progress before landing in
        ``"cancelled"`` with a :class:`~repro.service.events.JobCancelled`
        event.  Await :meth:`wait` for the terminal state; :meth:`resume`
        restarts from the checkpoint, byte-identical to a clean run.
        """
        record = self.job(job_id)
        if record.done:
            return False
        if record.state == "queued":
            # Terminal marker first: if we die between these two writes the
            # restart still honours the cancellation.
            if self.checkpoints is not None:
                self.checkpoints.mark_state(job_id, "cancelled", "cancelled")
            self._record_event(
                record,
                JobCancelled(
                    job_id=job_id,
                    seq=record.next_seq(),
                    reason="cancelled",
                    checkpointed=False,
                ),
            )
            return True
        token = record.cancel_token
        if token is None:  # pragma: no cover - running implies a token
            return False
        token.cancel("cancelled")
        return True

    async def resume(
        self, job_id: str, deadline_s: Optional[float] = None
    ) -> str:
        """Re-enqueue a terminal (cancelled/timed-out/failed/quarantined)
        job; it resumes from its checkpoint.

        This is the explicit operator override: it clears the durable
        lifecycle record (terminal marker *and* resume-attempt counter), so
        it also releases a quarantined job for one more supervised run.
        ``deadline_s`` replaces the job's persisted deadline (``None``
        keeps it).  Returns the job id.
        """
        if self._queue is None:
            raise RuntimeError("service not started; await service.start() first")
        if self._stopping:
            raise ServiceStoppedError("service is stopping; resume rejected")
        old = self._jobs.get(job_id)
        if old is not None and not old.done:
            raise ValueError(f"job {job_id!r} is {old.state}; nothing to resume")
        spec = self.checkpoints.load_spec(job_id) if self.checkpoints else None
        if spec is None and old is not None:
            spec = old.spec
        if spec is None:
            raise KeyError(f"unknown job {job_id!r}")
        if deadline_s is not None:
            if deadline_s <= 0:
                raise ValueError("deadline_s must be positive")
            # Rebuild rather than dataclasses.replace: a legacy pickled
            # spec may predate the deadline_s field.
            spec = JobSpec(
                job_id=spec.job_id,
                scenarios=spec.scenarios,
                deadline_s=deadline_s,
            )
        record = JobRecord(spec)
        record.resumed = True
        self._jobs[job_id] = record
        if self.checkpoints is not None:
            self.checkpoints.clear_lifecycle(job_id)
            if deadline_s is not None:
                self.checkpoints.save_spec(job_id, spec)
        self._record_event(
            record,
            JobAccepted(
                job_id=job_id, seq=record.next_seq(), position=self._queue.qsize()
            ),
        )
        self._queue.put_nowait(record)
        return job_id

    def job(self, job_id: str) -> JobRecord:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise KeyError(f"unknown job {job_id!r}") from None

    async def stream(self, job_id: str):
        """Async-iterate a job's events: full history, then live to the end.

        Yields every recorded event from ``seq`` 0 (late subscribers replay
        the log first) and terminates after the job's terminal event.
        """
        record = self.job(job_id)
        record.subscribers += 1
        try:
            index = 0
            while True:
                record._new_event.clear()
                if index < len(record.events):
                    event = record.events[index]
                    index += 1
                    yield event
                    if isinstance(event, TERMINAL_EVENTS):
                        return
                    continue
                await record._new_event.wait()
        finally:
            record.subscribers -= 1

    async def wait(self, job_id: str) -> JobRecord:
        """Block until the job reaches a terminal state; returns its record."""
        record = self.job(job_id)
        while True:
            record._new_event.clear()
            if record.done:
                return record
            await record._new_event.wait()

    def report_bytes(self, job_id: str) -> Optional[bytes]:
        """The finished job's canonical report bytes (memory, then disk)."""
        record = self._jobs.get(job_id)
        if record is not None and record.report is not None:
            return record.report
        if self.checkpoints is not None:
            return self.checkpoints.load_report(job_id)
        return None

    def status(self) -> dict:
        """Service-level observability snapshot (the "status endpoint").

        Counters and cache statistics are monotone; ``kernel_cache`` reports
        the hits, misses, evictions and entries of this process's compiled
        kernel LRU (:func:`~repro.simulation.kernel.shared_kernel`; pool
        workers hold their own).
        """
        return {
            "queued": self._queue.qsize() if self._queue is not None else 0,
            "stopping": self._stopping,
            "jobs": {
                job_id: record.state for job_id, record in sorted(self._jobs.items())
            },
            "counters": self._totals.as_dict(),
            "prep_cache": {
                **self.prep_cache.stats.as_dict(),
                "entries": len(self.prep_cache),
            },
            "kernel_cache": {
                **KERNEL_CACHE.stats.as_dict(),
                "entries": len(KERNEL_CACHE),
            },
        }

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    async def _drain(self) -> None:
        assert self._queue is not None
        while True:
            record = await self._queue.get()
            try:
                if record is None:
                    return
                # Cancelled-while-queued records stay in the queue but are
                # already terminal; in stop(mode="cancel") every queued job
                # is skipped (still pending on disk -> a restart resumes).
                if record.done or self._stop_cancel:
                    continue
                # Synchronously on the loop thread, before the worker
                # thread exists: cancel() observing "queued" may safely
                # terminalize the record, and observing "running" has a
                # token to latch -- no window between the two.
                record.state = "running"
                record.cancel_token = CancelToken()
                self._current = record
                try:
                    await asyncio.to_thread(self._execute_job, record)
                finally:
                    self._current = None
                    record.cancel_token = None
            finally:
                self._queue.task_done()
                self._notify_capacity()
                self._prune_records()

    def _notify_capacity(self) -> None:
        """Wake submit(wait=True) waiters after occupancy drops."""
        if self._capacity is not None:
            self._capacity.set()

    def _record_event(self, record: JobRecord, event: JobEvent) -> None:
        """Append one event (event-loop thread only) and wake subscribers."""
        record.events.append(event)
        record.counters.observe(event)
        self._totals.observe(event)
        if isinstance(event, JobStarted):
            record.state = "running"
            record.resumed = event.resumed
            record.preloaded_stages = event.preloaded_stages
        elif isinstance(event, JobFinished):
            record.state = "partial" if event.partial else "finished"
        elif isinstance(event, JobFailed):
            record.state = "failed"
            record.error = event.error
        elif isinstance(event, JobCancelled):
            record.state = "timeout" if event.reason == "timeout" else "cancelled"
        elif isinstance(event, JobQuarantined):
            record.state = "quarantined"
        record._new_event.set()

    def _prune_records(self) -> None:
        """Forget the oldest terminal jobs beyond ``retain_jobs``.

        Only in-memory records are pruned; checkpointed reports stay on
        disk and remain readable through :meth:`report_bytes`.  A record
        with an open :meth:`stream` subscriber is never evicted -- the
        subscriber would hang mid-replay on a dropped event log.
        """
        done = [
            job_id
            for job_id, record in self._jobs.items()
            if record.done and record.subscribers == 0
        ]
        excess = len(done) - self.config.retain_jobs
        for job_id in done[:max(0, excess)]:
            del self._jobs[job_id]

    def _execute_job(self, record: JobRecord) -> None:
        """Run one job to completion (worker thread; blocking)."""
        assert self._loop is not None
        loop = self._loop

        def sink(event: JobEvent) -> None:
            loop.call_soon_threadsafe(self._record_event, record, event)

        emitter = _JobEmitter(
            record.job_id, record.next_seq, sink, self.config.event_chunk
        )
        start = time.perf_counter()
        token = record.cancel_token or CancelToken()
        # Per-execution wall-clock budget (per-submit override baked into
        # the spec at submission; config default covers legacy specs).
        deadline_s = getattr(record.spec, "deadline_s", None)
        if deadline_s is None:
            deadline_s = self.config.job_deadline_s
        token.arm_deadline(deadline_s)
        try:
            if self.checkpoints is not None:
                # From here on, dying without a terminal state burns one of
                # the job's resume attempts at the next recovery.
                self.checkpoints.mark_started(record.job_id)
            scenarios = record.spec.scenarios
            plan = self.runner.plan(scenarios, prefix=f"{record.job_id}/")
            preloads: dict[str, object] = {}
            for scenario in scenarios:
                preloads.update(
                    self.prep_cache.preloads(
                        scenario.circuit,
                        scenario.config,
                        plan.artifact_keys[scenario.name],
                    )
                )

            resumed = False
            if self.checkpoints is not None:
                resumed = self.checkpoints.has_progress(record.job_id)
                # Shard children are keyed by index only: a journal from
                # another shard plan is dropped, never preloaded.  The
                # header keeps its pattern-shard entry, always 1, so
                # journals written before that axis went still resume.
                progress = self.checkpoints.load_progress(
                    record.job_id,
                    plan={
                        "fault_shards": self.runner.fault_shards,
                        "pattern_shards": 1,
                    },
                )
                # Journaled values win over (content-equal) cache preloads.
                preloads.update(progress or {})
            emitter.emit(
                JobStarted,
                resumed=resumed,
                preloaded_stages=len(preloads),
            )

            observer = _JobObserver(
                emitter,
                checkpoints=self.checkpoints,
                job_id=record.job_id,
                checkpoint_every=self.config.checkpoint_every,
                plan=plan,
                cancel_token=token,
                lifecycle_chaos=self.lifecycle_chaos,
            )
            run = self.runner.scheduler().run(
                plan.nodes,
                observer=observer,
                preloaded=preloads,
                cancel_token=token,
            )
            campaign = self.runner.collect(plan, run, start)
            report = campaign.report_bytes()
            for scenario in scenarios:
                if scenario.name in campaign.failures:
                    continue
                self.prep_cache.harvest(
                    scenario.circuit,
                    scenario.config,
                    run,
                    plan.artifact_keys[scenario.name],
                )
            record.result = campaign
            record.report = report
            if self.checkpoints is not None:
                self.checkpoints.save_report(record.job_id, report)
                self.checkpoints.discard_progress(record.job_id)
                self.checkpoints.clear_lifecycle(record.job_id)
            emitter.emit(
                JobFinished,
                scenarios=tuple(sorted(campaign.scenarios)),
                checksum=report_checksum(report),
                partial=campaign.partial,
                failed_scenarios=tuple(sorted(campaign.failures)),
            )
        except ScheduleCancelled as stop:
            # Cooperative stop at a stage boundary: flush the stages the
            # journal has not written yet, then record the terminal
            # state.  reason "shutdown" (stop(mode="cancel")) writes NO
            # terminal marker -- the job stays pending on disk and the next
            # start() resumes it; user cancels and deadline timeouts write
            # one, so a restart surfaces them instead of resuming.
            checkpointed = False
            if self.checkpoints is not None:
                if stop.run is not None:
                    self.checkpoints.save_progress(record.job_id, stop.run)
                    checkpointed = True
                if stop.reason != "shutdown":
                    self.checkpoints.mark_state(
                        record.job_id,
                        "timeout" if stop.reason == "timeout" else "cancelled",
                        stop.reason,
                    )
            emitter.emit(
                JobCancelled, reason=stop.reason, checkpointed=checkpointed
            )
        except BaseException as error:
            # With a checkpoint store the failure is resumable: the spec and
            # the saved stage journal survive; a restarted service picks
            # the job up from CheckpointStore.pending_jobs().
            if self.checkpoints is not None:
                self.checkpoints.drop_unsaved(record.job_id)
            emitter.emit(
                JobFailed,
                error=str(error),
                interrupted=self.checkpoints is not None,
            )
