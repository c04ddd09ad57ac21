"""Deterministic fault injection for the campaign schedulers.

The resilience layer's whole test story is differential: *any* injected
fault schedule that eventually succeeds must yield report bytes identical
to the clean serial run.  That only works if the fault schedule itself is
deterministic -- the same stage attempt draws the same fault in the serial
oracle, in every pooled schedule, and on every rerun.  So chaos plans here
key off the **stage key** (deterministic: ``s<i>:<name>/...`` in the runner,
``<job>/s<i>:<name>/...`` in the service) and the 0-based **attempt
index**, and decide faults with seeded hashes -- never global RNG state,
never wall-clock.

Fault kinds (:class:`ChaosFault`):

``raise``
    Raise :class:`ChaosError` in place of running the stage -- a transient
    stage exception, the bread-and-butter retryable failure.
``hang``
    Worker: sleep ``sleep_s`` before running the stage, so a sleep chosen
    past :attr:`~repro.core.config.RetryPolicy.stage_timeout_s` trips the
    pooled scheduler's deadline (worker terminated, stage retried).
    In-process: degenerates immediately to the same
    :class:`~repro.campaign.scheduler.StageTimeoutError` the pooled parent
    would synthesize -- the serial scheduler cannot preempt itself, and the
    *outcome* (error type, message, attempt count) is what must replay.
``exit``
    Worker: ``os._exit(exit_code)`` -- sudden death, no cleanup, no reply.
``kill``
    Worker: ``SIGKILL`` ourselves -- death the process cannot even observe.
    Both degenerate in-process to the pooled parent's synthesized
    :class:`~repro.campaign.scheduler.WorkerCrashError` with the matching
    exit code, so serial replays of worker-death plans stay the byte oracle.

Faults are *decided in the parent* (the schedulers call
:meth:`ChaosPlan.fault_for` before executing or dispatching an attempt) and
applied at the execution site, so serial and pooled schedules consume
identical attempt sequences per stage.

Service-tier lifecycle injections (:class:`LifecycleChaosPlan`) extend the
harness above the schedulers: instead of faulting a stage *body*, they trip
a job's :class:`~repro.campaign.scheduler.CancelToken` (``cancel`` /
``deadline``) or crash the whole service (``crash``, the SIGKILL stand-in
-- it aborts the job out of an observer callback, leaving exactly the
resumable checkpoint a killed process would) at a deterministic stage
boundary.  The service's job observer consults the plan on every stage
start/finish; occurrence indices are counted per injection, so "cancel at
the 7th stage completion" is a reproducible schedule whichever scheduler
drains the graph.  These drive the job-lifecycle differential suite
(``tests/service/test_lifecycle.py``): any cancel/deadline/crash schedule
that lets a job eventually complete must reproduce the clean serial oracle
bytes.
"""

from __future__ import annotations

import hashlib
import os
import signal
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from ..core.config import RetryPolicy
from .scheduler import (
    StageTimeoutError,
    WorkerCrashError,
    crash_error_message,
    timeout_error_message,
)

#: Fault kinds a plan may emit.
FAULT_KINDS = ("raise", "hang", "exit", "kill")


class ChaosError(RuntimeError):
    """The injected transient stage exception (retryable by default)."""


@dataclass(frozen=True)
class ChaosFault:
    """One fault to apply to one stage attempt."""

    kind: str
    message: str = "injected chaos fault"
    #: ``hang`` only: seconds slept in the worker before the stage body.
    #: Choose it past the policy's ``stage_timeout_s`` or the "hang" is just
    #: a slow stage (and serial/pooled replays would diverge).
    sleep_s: float = 60.0
    #: ``exit`` only: the worker's exit code.
    exit_code: int = 1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown chaos fault kind {self.kind!r}")

    def apply_in_worker(self) -> None:
        """Apply inside a pool worker process, before the stage body runs."""
        if self.kind == "raise":
            raise ChaosError(self.message)
        if self.kind == "hang":
            time.sleep(self.sleep_s)
            return  # then run the stage; the parent's deadline decides
        if self.kind == "exit":
            os._exit(self.exit_code)
        os.kill(os.getpid(), signal.SIGKILL)

    def apply_in_process(self, policy: RetryPolicy) -> None:
        """Apply in the parent process (serial scheduler / local stages).

        Process-killing and hanging faults cannot be taken literally here;
        they degenerate to the exact error the pooled parent synthesizes
        for the real thing, so attempt counts and canonical failure records
        match across schedulers byte for byte.
        """
        if self.kind == "raise":
            raise ChaosError(self.message)
        if self.kind == "hang":
            timeout_s = policy.stage_timeout_s
            if timeout_s is None:
                # No deadline configured: a pooled worker would simply run
                # the stage after the sleep; mirror that (without sleeping).
                return
            raise StageTimeoutError(timeout_error_message(timeout_s))
        exit_code = self.exit_code if self.kind == "exit" else -int(signal.SIGKILL)
        raise WorkerCrashError(crash_error_message(exit_code))


class ChaosPlan:
    """Base plan: no faults.  Subclasses override :meth:`fault_for`."""

    def fault_for(self, stage_key: str, attempt: int) -> Optional[ChaosFault]:
        """The fault to inject on ``attempt`` (0-based) of ``stage_key``."""
        return None


@dataclass(frozen=True)
class Injection:
    """One explicit injection rule.

    ``stage`` matches any stage whose key ends with it (a full key also
    matches itself); ``attempts`` lists the 0-based attempt indices to
    fault, or ``()`` for *every* attempt -- that is how a permanent failure
    is spelled.
    """

    stage: str
    kind: str = "raise"
    attempts: tuple[int, ...] = (0,)
    message: str = ""
    sleep_s: float = 60.0
    exit_code: int = 1

    def fault(self) -> ChaosFault:
        message = self.message or f"injected {self.kind} at {self.stage}"
        return ChaosFault(
            kind=self.kind,
            message=message,
            sleep_s=self.sleep_s,
            exit_code=self.exit_code,
        )


class ExplicitChaosPlan(ChaosPlan):
    """Inject exactly the listed faults (suffix-matched on canonical keys)."""

    def __init__(self, injections: Sequence[Injection]) -> None:
        self.injections = tuple(injections)

    @classmethod
    def single(cls, stage: str, kind: str = "raise", **kwargs) -> "ExplicitChaosPlan":
        """Fault one stage's first attempt (transient unless ``attempts=()``)."""
        return cls([Injection(stage=stage, kind=kind, **kwargs)])

    def fault_for(self, stage_key: str, attempt: int) -> Optional[ChaosFault]:
        for injection in self.injections:
            if not stage_key.endswith(injection.stage):
                continue
            if injection.attempts and attempt not in injection.attempts:
                continue
            return injection.fault()
        return None


@dataclass(frozen=True)
class SeededChaosPlan(ChaosPlan):
    """Randomized-but-reproducible injection: hash-seeded per stage attempt.

    Each ``(stage key, attempt)`` pair draws independently from a
    sha256 stream keyed by ``seed`` -- with probability ``rate`` it gets a
    fault, whose kind is drawn uniformly from ``kinds``.  Attempt indices at
    or above ``transient_attempts`` never fault, so any plan with
    ``transient_attempts < policy.max_attempts`` is guaranteed to let every
    stage eventually succeed -- the precondition of the byte-identity
    differential suite.  Set ``transient_attempts`` large (or negative
    ``rate`` tricks aside, use :class:`ExplicitChaosPlan` with
    ``attempts=()``) to model permanent failures.
    """

    seed: int = 0
    rate: float = 0.2
    kinds: tuple[str, ...] = ("raise",)
    #: Attempts ``0 .. transient_attempts-1`` may fault; later attempts are
    #: always clean.
    transient_attempts: int = 1
    #: Restrict injection to stages whose key contains this.
    match: str = ""
    sleep_s: float = 60.0
    exit_code: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        for kind in self.kinds:
            if kind not in FAULT_KINDS:
                raise ValueError(f"unknown chaos fault kind {kind!r}")

    def fault_for(self, stage_key: str, attempt: int) -> Optional[ChaosFault]:
        if attempt >= self.transient_attempts:
            return None
        if self.match and self.match not in stage_key:
            return None
        digest = hashlib.sha256(
            f"{self.seed}:{stage_key}:{attempt}".encode("utf-8")
        ).digest()
        draw = int.from_bytes(digest[:8], "big") / 2.0**64
        if draw >= self.rate:
            return None
        kind = self.kinds[int.from_bytes(digest[8:12], "big") % len(self.kinds)]
        return ChaosFault(
            kind=kind,
            message=f"chaos[{kind}] at {stage_key} attempt {attempt}",
            sleep_s=self.sleep_s,
            exit_code=self.exit_code,
        )


# --------------------------------------------------------------------- #
# Service-tier lifecycle injections
# --------------------------------------------------------------------- #
class ServiceCrashError(RuntimeError):
    """Injected service-tier crash (the lifecycle harness's SIGKILL stand-in).

    Raised out of the service's stage observer, which aborts the schedule
    and fails the job with ``interrupted=True`` -- the spec and the stage
    journal saved so far survive on disk, exactly as if the process had been
    killed there (the resumed service shares no memory with the crashed
    run either way).  Feeding one of these on *every* attempt produces the
    crash-looping poison job the quarantine machinery must contain.
    """


#: Lifecycle actions a :class:`LifecycleInjection` may fire.
LIFECYCLE_ACTIONS = ("cancel", "deadline", "crash")

#: Stage-boundary events lifecycle injections can attach to.
LIFECYCLE_EVENTS = ("start", "finish")


@dataclass(frozen=True)
class LifecycleInjection:
    """One service-tier injection rule.

    ``stage`` substring-matches stage keys (``""`` matches every
    stage) -- substring rather than the suffix match of :class:`Injection`
    so a rule can target one *scenario* of one job (service stage keys are
    ``<job_id>/s<i>:<scenario>/<stage>``, so ``stage=":poison/"`` hits
    every stage of the scenario named ``poison`` and nothing else); ``on``
    picks the boundary (``"start"`` / ``"finish"``); ``occurrences`` lists which
    0-based matching events fire (``()`` = every one -- how a
    crash-on-every-resume poison job is spelled).  Actions:

    ``cancel``
        Trip the job's cancel token (reason ``"cancelled"``): the job
        checkpoints and lands in the ``"cancelled"`` state.
    ``deadline``
        Trip the token with reason ``"timeout"`` -- the same stop path an
        expired job deadline takes, injected mid-schedule.
    ``crash``
        Raise :class:`ServiceCrashError` from the observer callback: the
        job dies ``interrupted`` with its checkpoint intact, and the next
        service start must recover (or quarantine) it.
    """

    stage: str = ""
    on: str = "finish"
    action: str = "cancel"
    occurrences: tuple[int, ...] = (0,)

    def __post_init__(self) -> None:
        if self.on not in LIFECYCLE_EVENTS:
            raise ValueError(f"unknown lifecycle event {self.on!r}")
        if self.action not in LIFECYCLE_ACTIONS:
            raise ValueError(f"unknown lifecycle action {self.action!r}")


class LifecycleChaosPlan:
    """Deterministic service-tier lifecycle injections at stage boundaries.

    One plan instance rides one job execution (occurrence counters are
    per-plan state); construct a fresh plan per run.  The service's job
    observer calls :meth:`action_for` on every stage start and finish and
    applies the first matching rule's action.
    """

    def __init__(self, injections: Sequence[LifecycleInjection]) -> None:
        self.injections = tuple(injections)
        self._seen = [0] * len(self.injections)
        #: ``(stage key, event, action)`` per fired injection.
        self.fired: list[tuple[str, str, str]] = []

    @classmethod
    def cancel_after_stages(
        cls, count: int, action: str = "cancel"
    ) -> "LifecycleChaosPlan":
        """Fire ``action`` at the ``count``-th (0-based) stage completion.

        The randomized-boundary differential tests draw ``count`` from a
        seeded RNG: every stage boundary of a job is a valid cancel point.
        """
        return cls(
            [LifecycleInjection(stage="", on="finish", action=action,
                                occurrences=(count,))]
        )

    @classmethod
    def crash_every_run(cls, stage: str = "") -> "LifecycleChaosPlan":
        """Crash the service at the first matching stage finish, every run.

        Applied to every execution of a job (fresh plan per service start),
        this is the deterministic poison job: each resume attempt dies at
        the same boundary until quarantine contains it.
        """
        return cls(
            [LifecycleInjection(stage=stage, on="finish", action="crash",
                                occurrences=(0,))]
        )

    def action_for(self, stage_key: str, event: str) -> Optional[str]:
        """The action to apply at ``event`` of ``stage_key``, or ``None``."""
        action = None
        for index, injection in enumerate(self.injections):
            if injection.on != event:
                continue
            if injection.stage and injection.stage not in stage_key:
                continue
            occurrence = self._seen[index]
            self._seen[index] += 1
            if injection.occurrences and occurrence not in injection.occurrences:
                continue
            if action is None:
                action = injection.action
                self.fired.append((stage_key, event, action))
        return action


class RecordingChaosPlan(ChaosPlan):
    """Wrap a plan and record what it injected (parent-side, test support).

    Plans are consulted in the scheduler's parent process only, so the
    record is complete even when the faults themselves fire in workers.
    """

    def __init__(self, plan: ChaosPlan) -> None:
        self.plan = plan
        #: ``(stage key, attempt, kind)`` per injected fault.
        self.injected: list[tuple[str, int, str]] = []

    def fault_for(self, stage_key: str, attempt: int) -> Optional[ChaosFault]:
        fault = self.plan.fault_for(stage_key, attempt)
        if fault is not None:
            self.injected.append((stage_key, attempt, fault.kind))
        return fault
