"""The service's incremental event stream and its canonical reassembly.

A running job publishes a totally ordered (per-job ``seq``) stream of frozen
event records: lifecycle events (:class:`JobAccepted` ... :class:`JobFinished`),
per-stage progress (:class:`StageStarted` / :class:`StageFinished` /
:class:`StageFailed`), and -- the part that makes the stream more than a
progress bar -- the *content* events :class:`CoverageDelta` and
:class:`SectionCompleted`.  Content events carry canonical report fragments
(:meth:`~repro.campaign.results.ScenarioResult.canonical_sections` payloads
and chunked coverage-curve points), so a subscriber that saw every content
event can rebuild the job's canonical report bytes without ever touching the
service again: :class:`EventReassembler` does exactly that, and
``tests/service/test_stream_properties.py`` proves the rebuild is invariant
under arbitrary event interleavings and chunk boundaries.

Events are plain frozen dataclasses (pickleable, hashable-by-field) rather
than serialised wire messages: transports can attach whatever encoding they
like later, while in-process subscribers (and the test suite) consume them
directly.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..campaign.results import (
    CURVE_NAMES,
    FAILURES_KEY,
    SECTION_NAMES,
    assemble_scenario_canonical,
    canonical_report_bytes,
    sort_failures,
)


def report_checksum(report: bytes) -> str:
    """Hex digest identifying a canonical report (cheap byte-identity probe)."""
    return hashlib.sha256(report).hexdigest()


# --------------------------------------------------------------------- #
# Event records
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class JobEvent:
    """Base record: every event names its job and its per-job sequence slot.

    ``seq`` increases strictly (by one) within a job's stream; subscribers
    detect gaps/reordering with it, and the property suite asserts the
    service never violates it.
    """

    job_id: str
    seq: int


@dataclass(frozen=True)
class JobAccepted(JobEvent):
    """The submission was validated and queued at ``position``."""

    position: int = 0


@dataclass(frozen=True)
class JobStarted(JobEvent):
    """The job left the queue and its stage graph is about to execute.

    ``resumed`` jobs were recovered from a checkpoint: ``preloaded_stages``
    artifacts of their stage graph (journaled stage values plus any
    prep-cache hits) were satisfied up front and will not execute again.
    Local stages are never journaled; they re-run against those artifacts.
    """

    resumed: bool = False
    preloaded_stages: int = 0


@dataclass(frozen=True)
class StageStarted(JobEvent):
    """A stage node began executing (or was submitted to the pool)."""

    stage: str = ""
    phase: str = ""
    scenario: str = ""


@dataclass(frozen=True)
class StageFinished(JobEvent):
    """A stage node finished and its artifact is merged into the run."""

    stage: str = ""
    phase: str = ""
    scenario: str = ""
    seconds: float = 0.0


@dataclass(frozen=True)
class StageFailed(JobEvent):
    """A stage node raised; the job is about to abort with this error."""

    stage: str = ""
    phase: str = ""
    scenario: str = ""
    error: str = ""


@dataclass(frozen=True)
class StageRetrying(JobEvent):
    """A stage attempt failed retryably; the stage will run again.

    ``attempt`` is the 1-based index of the attempt that failed; the retry
    dispatches after ``delay_s`` of deterministic backoff.
    """

    stage: str = ""
    phase: str = ""
    scenario: str = ""
    attempt: int = 0
    delay_s: float = 0.0
    error: str = ""


@dataclass(frozen=True)
class ScenarioFailed(JobEvent):
    """A scenario was quarantined: one of its stages exhausted its retries.

    Sibling scenarios keep running; the job will finish ``"partial"``.
    ``failure`` is the canonical failure record
    (:func:`~repro.campaign.results.canonical_failure`) that will appear --
    byte-identically -- in the partial report's ``failures`` section, so
    the stream alone suffices to reassemble it.
    """

    scenario: str = ""
    failure: dict = field(default_factory=dict)


@dataclass(frozen=True)
class CoverageDelta(JobEvent):
    """A chunk of one scenario's coverage curve, streamed as it merges.

    ``points`` are consecutive canonical curve points ``(pattern_index,
    coverage)`` starting at curve position ``start_index`` of the ``section``
    curve (:data:`~repro.campaign.results.CURVE_NAMES`); ``coverage`` is the
    running coverage after this chunk (the last point's value), monotone
    non-decreasing along each section's stream.
    """

    scenario: str = ""
    section: str = "random"
    start_index: int = 0
    points: tuple = ()
    coverage: float = 0.0


@dataclass(frozen=True)
class SectionCompleted(JobEvent):
    """One curve-free canonical report section of a scenario is final.

    ``payload`` is the exact
    :meth:`~repro.campaign.results.ScenarioResult.canonical_sections` entry
    for ``section`` (:data:`~repro.campaign.results.SECTION_NAMES`).
    """

    scenario: str = ""
    section: str = "base"
    payload: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ScenarioCompleted(JobEvent):
    """Every section and curve of ``scenario`` has been streamed."""

    scenario: str = ""
    checksum: str = ""


@dataclass(frozen=True)
class JobFinished(JobEvent):
    """The job's canonical report is final (and checkpointed when enabled).

    ``partial`` marks a degraded run: ``failed_scenarios`` were quarantined
    (each previously announced by a :class:`ScenarioFailed` event) and the
    report carries a canonical ``failures`` section; ``scenarios`` lists
    only the completed ones.
    """

    scenarios: tuple = ()
    checksum: str = ""
    partial: bool = False
    failed_scenarios: tuple = ()


@dataclass(frozen=True)
class JobFailed(JobEvent):
    """The job aborted; ``error`` is the stringified cause.

    An ``interrupted`` failure left a resumable checkpoint behind (the
    crash-injection suite resumes exactly these).
    """

    error: str = ""
    interrupted: bool = False


@dataclass(frozen=True)
class JobCancelled(JobEvent):
    """The job was cooperatively stopped at a stage boundary.

    ``reason`` distinguishes the three stop paths sharing this event:
    ``"cancelled"`` (explicit :meth:`~repro.service.CampaignService.cancel`),
    ``"timeout"`` (the job-level deadline fired; the record lands in the
    ``"timeout"`` terminal state), and ``"shutdown"``
    (``stop(mode="cancel")`` -- the job stays *pending* on disk and a
    restart resumes it).  ``checkpointed`` says whether a resume point was
    persisted at the stop, so a resubmission continues instead of
    restarting.
    """

    reason: str = "cancelled"
    checkpointed: bool = False


@dataclass(frozen=True)
class JobQuarantined(JobEvent):
    """The job exceeded its crash-loop budget and will not be resumed.

    Emitted at recovery when a previously-started job has been resumed
    ``resume_attempts`` times against a ``limit`` of
    :attr:`~repro.core.config.ServiceConfig.max_resume_attempts`.  Spec and
    partial progress stay on disk for inspection; an operator can clear the
    record with an explicit resume.
    """

    resume_attempts: int = 0
    limit: int = 0


TERMINAL_EVENTS = (JobFinished, JobFailed, JobCancelled, JobQuarantined)


# --------------------------------------------------------------------- #
# Counters
# --------------------------------------------------------------------- #
@dataclass
class JobCounters:
    """Monotone progress counters, observable while the job runs.

    Mirrors the LiteX BIST generator/checker shape: start/done/error tallies
    a poller can watch without subscribing to the full stream.  Every field
    only ever increases (asserted by the stream property suite).
    """

    stages_started: int = 0
    stages_finished: int = 0
    stages_failed: int = 0
    stages_retried: int = 0
    scenarios_completed: int = 0
    scenarios_failed: int = 0
    events: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "stages_started": self.stages_started,
            "stages_finished": self.stages_finished,
            "stages_failed": self.stages_failed,
            "stages_retried": self.stages_retried,
            "scenarios_completed": self.scenarios_completed,
            "scenarios_failed": self.scenarios_failed,
            "events": self.events,
        }

    def observe(self, event: JobEvent) -> None:
        self.events += 1
        if isinstance(event, StageStarted):
            self.stages_started += 1
        elif isinstance(event, StageFinished):
            self.stages_finished += 1
        elif isinstance(event, StageFailed):
            self.stages_failed += 1
        elif isinstance(event, StageRetrying):
            self.stages_retried += 1
        elif isinstance(event, ScenarioCompleted):
            self.scenarios_completed += 1
        elif isinstance(event, ScenarioFailed):
            self.scenarios_failed += 1


# --------------------------------------------------------------------- #
# Reassembly
# --------------------------------------------------------------------- #
class EventReassembler:
    """Rebuild canonical report bytes from a job's content events.

    Feed events in *any* order (the stream is totally ordered, but a
    subscriber may buffer, shard or replay it): curve chunks carry their
    ``start_index`` and sections are keyed, so assembly is
    interleaving-invariant.  After every :class:`ScenarioCompleted` scenario
    has been fed, :meth:`report_bytes` equals the
    :meth:`~repro.campaign.results.CampaignResult.report_bytes` of the
    uninterrupted in-process run, byte for byte.
    """

    def __init__(self) -> None:
        self._sections: dict[str, dict[str, dict]] = {}
        self._chunks: dict[str, dict[str, dict[int, Sequence]]] = {}
        self._completed: dict[str, str] = {}
        self._failures: dict[str, list[dict]] = {}

    # -- feeding ------------------------------------------------------- #
    def feed(self, event: JobEvent) -> None:
        """Absorb one event (non-content events are ignored)."""
        if isinstance(event, ScenarioFailed):
            records = self._failures.setdefault(event.scenario, [])
            if event.failure not in records:  # replay/duplication tolerant
                records.append(dict(event.failure))
        elif isinstance(event, CoverageDelta):
            if event.section not in CURVE_NAMES:
                raise ValueError(f"unknown curve section {event.section!r}")
            curves = self._chunks.setdefault(event.scenario, {})
            chunks = curves.setdefault(event.section, {})
            existing = chunks.get(event.start_index)
            if existing is not None and tuple(existing) != tuple(event.points):
                raise ValueError(
                    f"conflicting curve chunk at {event.scenario!r}/"
                    f"{event.section!r}[{event.start_index}]"
                )
            chunks[event.start_index] = event.points
        elif isinstance(event, SectionCompleted):
            if event.section not in SECTION_NAMES:
                raise ValueError(f"unknown report section {event.section!r}")
            self._sections.setdefault(event.scenario, {})[event.section] = (
                event.payload
            )
        elif isinstance(event, ScenarioCompleted):
            self._completed[event.scenario] = event.checksum

    def feed_all(self, events) -> "EventReassembler":
        for event in events:
            self.feed(event)
        return self

    # -- assembly ------------------------------------------------------ #
    def curve(self, scenario: str, section: str) -> list[list]:
        """The reassembled ``section`` curve of ``scenario``, index-ordered."""
        chunks = self._chunks.get(scenario, {}).get(section, {})
        points: list[list] = []
        for start_index in sorted(chunks):
            if start_index != len(points):
                raise ValueError(
                    f"curve {scenario!r}/{section!r} is missing points before "
                    f"index {start_index} (have {len(points)})"
                )
            points.extend(list(point) for point in chunks[start_index])
        return points

    def scenario_canonical(self, scenario: str) -> dict:
        """The reassembled canonical dict of one scenario."""
        sections = self._sections.get(scenario)
        if not sections:
            raise KeyError(f"no sections streamed for scenario {scenario!r}")
        curves = {
            section: self.curve(scenario, section)
            for section in self._chunks.get(scenario, {})
        }
        return assemble_scenario_canonical(sections, curves)

    def scenarios(self) -> list[str]:
        """Scenario names with streamed content, sorted."""
        return sorted(set(self._sections) | set(self._chunks))

    def completed_scenarios(self) -> dict[str, str]:
        """Scenario -> streamed checksum, for scenarios marked complete."""
        return dict(self._completed)

    def failed_scenarios(self) -> dict[str, list[dict]]:
        """Scenario -> sorted canonical failure records (degraded jobs)."""
        return {
            name: sort_failures(records)
            for name, records in sorted(self._failures.items())
        }

    def campaign_canonical(self) -> dict:
        """The reassembled canonical dict of the whole job.

        A failed scenario contributes only its ``failures`` records: any
        content it streamed before the quarantine (partial curves, early
        sections) is deliberately dropped, exactly as the in-process
        :meth:`~repro.campaign.results.CampaignResult.canonical_dict` holds
        no entry for a scenario that never produced a report.
        """
        canonical = {
            name: self.scenario_canonical(name)
            for name in self.scenarios()
            if name not in self._failures
        }
        if self._failures:
            canonical[FAILURES_KEY] = self.failed_scenarios()
        return canonical

    def report_bytes(self) -> bytes:
        """Canonical report bytes of the reassembled campaign."""
        return canonical_report_bytes(self.campaign_canonical())

    def verify(self) -> None:
        """Check every completed scenario's bytes against its checksum.

        Raises ``ValueError`` on any mismatch -- the end-to-end guard a
        subscriber runs after a stream terminates.
        """
        for name, expected in sorted(self._completed.items()):
            actual = report_checksum(
                canonical_report_bytes(self.scenario_canonical(name))
            )
            if actual != expected:
                raise ValueError(
                    f"scenario {name!r} reassembled to checksum {actual}, "
                    f"stream promised {expected}"
                )
