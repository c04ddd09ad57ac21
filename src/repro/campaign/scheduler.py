"""Stage-graph scheduling: one completion loop, two executors.

The campaign pipeline (:mod:`repro.campaign.pipeline`) describes a BIST
scenario as a graph of :class:`StageNode` records -- typed, pickleable stage
tasks with declared data dependencies.  Both schedulers execute such graphs
with the same completion loop and differ only in the executor their
non-local stages run on:

* :class:`SerialScheduler` runs every stage on the in-process executor,
  which runs a stage the moment it is submitted.  The walk is deterministic
  -- :class:`~repro.core.flow.LogicBistFlow`, a one-scenario campaign, runs
  on it -- which keeps the serial walk the bit-exactness oracle of every
  pooled run with one shared stage implementation.
* :class:`PooledScheduler` submits non-local stages to a resilient
  ``multiprocessing`` worker pool.  Every ready stage is submitted
  immediately, so stages of *different* scenarios overlap freely: scenario
  B's TPI profiling runs while scenario A's fault-sim shards are still in
  flight.  Local stages (planning, order-independent merges, report
  assembly) always run in the parent, on the in-process executor, the
  moment their inputs land.

The loop is linear in graph size: each node counts its missing
dependencies and each artifact key lists the nodes waiting on it, so an
arriving artifact readies exactly its dependents.  Ready nodes leave in the
order of the serial walk's passes over the graph (:class:`_ReadyQueue`).

A stage's ``run(*inputs)`` returns either its artifact value or, for local
*expander* stages, an :class:`Expansion`: new nodes spliced into the graph
plus the key of the artifact the expander's own key aliases to.  This is how
fan-out whose width is only known at run time (fault shards over a prepared
fault list) stays a plain graph node: the shard plan is data-dependent, the
plan's *execution* is just more nodes.

Determinism: artifact values are keyed, never ordered, and every merge stage
downstream is order-independent by construction, so the pooled schedule --
whatever interleaving the pool produces -- yields byte-identical results to
the serial walk (``tests/campaign`` asserts this end to end).

Fault tolerance is decided in one place for both executors, so the serial
walk stays the oracle of every chaos replay:

* a :class:`~repro.core.config.RetryPolicy` grants each stage several
  attempts with deterministic seeded backoff; the pool additionally
  enforces per-stage soft timeouts and a heartbeat health check on its
  workers -- a dead or hung worker is detected, terminated, respawned, and
  the in-flight stage resubmitted as a retry (never a silent hang),
* ``KeyboardInterrupt`` / ``SystemExit`` (any non-``Exception``
  ``BaseException``) abort the whole schedule immediately and are never
  retried,
* with ``degrade=True``, a stage that exhausts its attempts *quarantines
  its scenario subgraph*: the stage's key is poisoned, every pending
  descendant is cancelled, sibling scenarios keep running, and the run
  records a :class:`StageFailure` per poisoned root
  (``PipelineRun.failures``) instead of raising, and
* a chaos plan (:mod:`repro.campaign.chaos`) can be threaded through
  either scheduler to inject deterministic faults -- transient raises,
  hangs past the timeout, worker death -- for the differential resilience
  suite.

Both schedulers additionally support the service tier
(:mod:`repro.service`):

* a :class:`StageObserver` receives start/retry/finish/error/failed
  callbacks as stages execute -- the hook the service uses to stream
  incremental events and to persist checkpoints at stage boundaries, and
* ``run(nodes, preloaded=...)`` resumes a half-finished graph: preloaded
  artifact values are injected into the store and their nodes are skipped
  (original or spliced alike); everything else, expanders included, runs
  against them as usual, and
* a :class:`CancelToken` (``run(..., cancel_token=...)``) stops either
  schedule cooperatively at the next stage boundary --
  :class:`ScheduleCancelled` carries the half-finished
  :class:`PipelineRun`, a checkpoint-consistent resume point.  The token
  doubles as the job-deadline mechanism: an armed deadline trips it with
  reason ``"timeout"``.  The pooled scheduler abandons its outstanding
  stages: it drops their queued attempts and replaces the workers still
  running them, so nothing leaks into the next schedule on the same pool.
"""

from __future__ import annotations

import heapq
import itertools
import multiprocessing
import pickle
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import Mapping, Optional, Sequence

from ..core.config import RetryPolicy

#: Stage categories, used by the benchmark layer to attribute compute:
#: ``prep`` covers scenario preparation (scan insertion, TPI profiling,
#: STUMPS assembly / pattern generation, signature-response derivation),
#: ``sim`` the fault-simulation shard scans, ``control`` the parent-side
#: planning/merge/report work that remains serial in the pooled schedule.
CATEGORY_PREP = "prep"
CATEGORY_SIM = "sim"
CATEGORY_CONTROL = "control"


class WorkerCrashError(RuntimeError):
    """A pool worker died (crash, OOM kill, ``os._exit``) mid-stage."""


class StageTimeoutError(RuntimeError):
    """A stage exceeded its :attr:`RetryPolicy.stage_timeout_s` deadline."""


class ScheduleCancelled(BaseException):
    """A schedule stopped cooperatively at a stage boundary.

    Raised by either scheduler when its :class:`CancelToken` trips.  The
    half-finished :class:`PipelineRun` rides along so the caller can persist
    a checkpoint-consistent resume point (``run.store`` is only ever mutated
    between stages, never mid-stage).  Deliberately a
    ``BaseException``: no :class:`~repro.core.config.RetryPolicy`
    classification may retry or degrade a cancellation.
    """

    def __init__(self, reason: str, run: "PipelineRun") -> None:
        super().__init__(f"schedule cancelled ({reason})")
        self.reason = reason
        self.run = run


class CancelToken:
    """Cooperative cancellation signal threaded through the schedulers.

    Thread-safe: the service's event loop cancels while the scheduler runs
    in a worker thread.  The first :meth:`cancel` wins (``reason`` is
    latched); an armed deadline auto-cancels with reason ``"timeout"`` once
    it passes, so job deadlines and explicit cancellation share one stop
    path.  Schedulers poll the token at stage boundaries only -- a running
    stage is never preempted (the same cooperative contract as the retry
    policy's soft timeouts).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._reason: Optional[str] = None
        self._deadline: Optional[float] = None

    def cancel(self, reason: str = "cancelled") -> None:
        """Trip the token (idempotent; the first reason is kept)."""
        with self._lock:
            if self._reason is None:
                self._reason = reason

    def arm_deadline(self, seconds: Optional[float]) -> None:
        """Auto-cancel with reason ``"timeout"`` after ``seconds`` from now.

        ``None`` disarms.  Re-arming replaces the previous deadline (a
        resumed job gets a fresh budget).
        """
        with self._lock:
            self._deadline = (
                None if seconds is None else time.monotonic() + seconds
            )

    @property
    def cancelled(self) -> bool:
        with self._lock:
            if (
                self._reason is None
                and self._deadline is not None
                and time.monotonic() >= self._deadline
            ):
                self._reason = "timeout"
            return self._reason is not None

    @property
    def reason(self) -> Optional[str]:
        """The latched stop reason (``None`` while the token is clear)."""
        with self._lock:
            return self._reason

    def raise_if_cancelled(self, run: "PipelineRun") -> None:
        """Raise :class:`ScheduleCancelled` carrying ``run`` if tripped."""
        if self.cancelled:
            raise ScheduleCancelled(self.reason, run)


def timeout_error_message(timeout_s: float) -> str:
    """Canonical message of a soft-timeout failure.

    Shared with :mod:`repro.campaign.chaos` so an injected hang produces the
    *same* error text whichever scheduler replays it -- the failure record
    must be byte-identical across worker counts.
    """
    return f"stage exceeded its soft timeout ({timeout_s:g}s)"


def crash_error_message(exit_code) -> str:
    """Canonical message of a dead-worker failure (see above)."""
    return f"stage worker died (exit code {exit_code})"


@dataclass(frozen=True)
class StageNode:
    """One node of a scenario stage graph.

    ``task`` is any object with a ``run(*inputs)`` method; inputs arrive in
    ``deps`` order, each dep naming another node's artifact key.  Non-local
    tasks must be pickleable (they may execute in a worker process); local
    tasks run in the parent and may return an :class:`Expansion`.
    """

    key: str
    task: object
    deps: tuple[str, ...] = ()
    #: Run in the parent process (planning / merging / report assembly).
    local: bool = False
    #: Flow phase this stage's time is accounted to (e.g. "random_patterns").
    phase: str = ""
    #: Scenario label, for traces and progress accounting.
    scenario: str = ""
    #: Compute category: "prep", "sim" or "control" (see module constants).
    category: str = CATEGORY_CONTROL


@dataclass(frozen=True)
class Expansion:
    """Returned by a local expander stage: splice ``nodes`` into the graph.

    The expander's own key becomes an *alias* for ``result`` (usually the
    spliced-in reduce node), so downstream nodes that declared a dependency
    on the expander transparently receive the reduced artifact.
    """

    nodes: tuple[StageNode, ...]
    result: str


class StageObserver:
    """No-op base class for schedule observers (service tier hooks).

    An observer rides one graph execution: :meth:`on_run_begin` fires once
    the graph state (preloaded artifacts included) is assembled but before
    any stage executes; the per-stage callbacks fire in the parent process
    as stages start and land.  ``on_stage_finish`` runs *after* the stage's
    artifact is recorded, so the :class:`PipelineRun` the observer holds is
    always a consistent resume point -- the service's checkpointer journals
    the finished stage there.  Callbacks execute on the scheduler's
    thread; an exception raised from one aborts the schedule (the pooled
    scheduler abandons the stages still in flight), which is exactly the
    semantics a failed checkpoint write wants.
    """

    def on_run_begin(self, run: "PipelineRun") -> None:
        """The graph is assembled; ``run`` already holds preloaded state."""

    def on_stage_start(self, node: "StageNode") -> None:
        """``node`` is about to execute (or was just submitted to the pool)."""

    def on_stage_retry(
        self, node: "StageNode", error: BaseException, attempt: int, delay_s: float
    ) -> None:
        """Attempt ``attempt`` of ``node`` failed retryably; it will rerun."""

    def on_stage_finish(self, node: "StageNode", value, seconds: float) -> None:
        """``node`` finished; its artifact/expansion is recorded in the run."""

    def on_stage_error(self, node: "StageNode", error: BaseException) -> None:
        """``node`` raised; the schedule is about to abort with ``error``."""

    def on_stage_failed(
        self, node: "StageNode", error: BaseException, failure: "StageFailure"
    ) -> None:
        """``node`` exhausted its attempts; its subgraph was quarantined.

        Only fires in ``degrade`` mode -- the schedule keeps running sibling
        scenarios.  ``failure`` is the recorded :class:`StageFailure`.
        """


@dataclass(frozen=True)
class StageTrace:
    """Timing record of one executed stage (feeds benchmarks and reports)."""

    key: str
    phase: str
    scenario: str
    category: str
    local: bool
    seconds: float


@dataclass(frozen=True)
class StageRetry:
    """Diagnostic record of one retried stage attempt."""

    key: str
    scenario: str
    phase: str
    #: 1-based index of the attempt that failed.
    attempt: int
    delay_s: float
    error_type: str
    error: str


@dataclass(frozen=True)
class StageFailure:
    """A stage that exhausted its attempts and poisoned its subgraph."""

    key: str
    scenario: str
    phase: str
    error_type: str
    error: str
    #: Attempts consumed (== the policy's max_attempts unless the error was
    #: classified non-retryable earlier).
    attempts: int
    #: Pending descendant stage keys cancelled by this failure (diagnostic;
    #: shard-geometry dependent, deliberately not part of the canonical
    #: failure record).
    cancelled: tuple[str, ...] = ()


@dataclass
class PipelineRun:
    """Everything a finished graph execution produced.

    ``store`` maps artifact keys to values; ``aliases`` maps expander keys to
    the keys they resolved to.  Use :meth:`value` to read an artifact through
    the alias chain.
    """

    store: dict[str, object] = field(default_factory=dict)
    aliases: dict[str, str] = field(default_factory=dict)
    trace: list[StageTrace] = field(default_factory=list)
    #: Retried attempts, in the order the scheduler observed them.
    retries: list[StageRetry] = field(default_factory=list)
    #: Stages that exhausted their attempts (degrade mode only).
    failures: list[StageFailure] = field(default_factory=list)
    #: Pending stages cancelled because an ancestor failed.
    cancelled: list[str] = field(default_factory=list)
    #: End-to-end wall-clock of the schedule.
    seconds: float = 0.0

    def resolve_key(self, key: str) -> str:
        seen = set()
        while key in self.aliases:
            if key in seen:
                raise ValueError(f"alias cycle at {key!r}")
            seen.add(key)
            key = self.aliases[key]
        return key

    def value(self, key: str) -> object:
        return self.store[self.resolve_key(key)]

    def seconds_by_phase(self) -> dict[str, float]:
        """Total stage compute per flow phase (serial: equals phase wall time)."""
        totals: dict[str, float] = {}
        for record in self.trace:
            totals[record.phase] = totals.get(record.phase, 0.0) + record.seconds
        return totals

    def seconds_by_category(self) -> dict[str, float]:
        """Total stage compute per category ("prep" / "sim" / "control")."""
        totals: dict[str, float] = {}
        for record in self.trace:
            totals[record.category] = totals.get(record.category, 0.0) + record.seconds
        return totals

    def trace_only(self) -> "PipelineRun":
        """A retention-safe copy: the trace and timings without the artifacts.

        The store (and with it every scenario's packed
        session, core and fault list) are dropped, so :meth:`value` on the
        copy raises ``KeyError`` by design -- use it where only the timing
        and resilience diagnostics (:meth:`seconds_by_phase`, ``retries``,
        ``failures``) should outlive the run, e.g. ``CampaignRunner.last_run``.
        """
        return PipelineRun(
            trace=list(self.trace),
            retries=list(self.retries),
            failures=list(self.failures),
            cancelled=list(self.cancelled),
            seconds=self.seconds,
        )


def run_stage(task, inputs: Sequence[object]) -> tuple[object, float]:
    """Execute one stage task (worker-process entry point).

    Returns ``(artifact value, compute seconds)``; the timer runs inside the
    worker, so recorded stage seconds measure real compute, not pool
    dispatch.  Expansions are a parent-side (local) concept and are rejected
    here: a worker cannot splice nodes into the parent's graph.
    """
    start = time.perf_counter()
    value = task.run(*inputs)
    if isinstance(value, Expansion):
        raise TypeError(
            f"stage task {type(task).__name__} returned an Expansion from a "
            "worker; expander stages must be marked local=True"
        )
    return value, time.perf_counter() - start


def _fatal(error: BaseException) -> bool:
    """Abort-the-schedule errors: ``KeyboardInterrupt``, ``SystemExit`` and
    every other non-``Exception`` ``BaseException``.  Never retried, never
    degraded."""
    return not isinstance(error, Exception)


class _ReadyQueue:
    """Ready nodes in the serial walk's order.

    The walk makes passes over the graph in insertion order.  A pass visits
    the nodes that existed when it began; a node that becomes ready ahead of
    the cursor runs in the current pass, while one that becomes ready behind
    it -- or was spliced in during the pass -- waits for the next pass.  Two
    heaps keyed by insertion sequence hold the two passes.  One heap would
    not do: it would run a node readied behind the cursor before the rest
    of the current pass.
    """

    def __init__(self) -> None:
        self._current: list = []
        self._next: list = []
        self._cursor = -1
        #: Sequence numbers below this existed when the current pass began.
        self._horizon = 0

    def push(self, seq: int, node: StageNode) -> None:
        if self._cursor < seq < self._horizon:
            heapq.heappush(self._current, (seq, node))
        else:
            heapq.heappush(self._next, (seq, node))

    def pop(self, horizon: int) -> Optional[StageNode]:
        """The next ready node, or ``None``.  An exhausted pass starts the
        next one over the ``horizon`` nodes added so far."""
        if not self._current:
            if not self._next:
                return None
            self._current, self._next = self._next, []
            self._cursor, self._horizon = -1, horizon
        self._cursor, node = heapq.heappop(self._current)
        return node


class _GraphState:
    """Graph bookkeeping of the completion loop: store, aliases, readiness.

    Every node counts its missing dependencies and every missing artifact
    key lists the nodes waiting on it, so recording an artifact readies
    exactly its dependents: scheduling is linear in nodes plus edges.  An
    :class:`Expansion` moves the waiters of the expander's key onto the key
    it aliases.

    ``preloaded`` resumes a half-finished schedule: preloaded artifact values
    land in the store up front and their nodes are *skipped* when added
    (original or spliced alike).  Each preloaded key is consumed exactly
    once, so a genuinely duplicated stage key still raises.

    ``poisoned`` tracks quarantine (degrade mode): the keys of permanently
    failed stages plus every cancelled descendant, found by a breadth-first
    walk over the waiters.  A node spliced in later that depends on a
    poisoned key is cancelled on arrival, so the cut propagates through
    aliases and future expansions while unrelated subgraphs keep executing.
    """

    def __init__(
        self,
        nodes: Sequence[StageNode],
        preloaded: Optional[Mapping[str, object]] = None,
    ) -> None:
        self.run = PipelineRun()
        self.run.store.update(preloaded or {})
        self._skip = set(preloaded or ())
        self.ready = _ReadyQueue()
        #: Nodes still missing a dependency, in insertion order.
        self.blocked: dict[str, StageNode] = {}
        self._missing: dict[str, int] = {}
        #: Artifact key -> keys of the blocked nodes waiting for it.
        self._waiters: dict[str, list[str]] = {}
        #: Insertion sequence of every node ever added (the duplicate check).
        self._seq: dict[str, int] = {}
        #: Permanently failed stage keys and their cancelled descendants.
        self.poisoned: set[str] = set()
        for node in nodes:
            self.add(node)

    @property
    def added(self) -> int:
        return len(self._seq)

    def add(self, node: StageNode) -> None:
        key = node.key
        if key in self._skip:
            # Satisfied from a checkpoint: value is already in the store.
            self._skip.discard(key)
            return
        if key in self._seq or key in self.run.store:
            raise ValueError(f"duplicate stage key {key!r}")
        self._seq[key] = len(self._seq)
        missing = 0
        for dep in node.deps:
            target = self.run.resolve_key(dep)
            if target in self.poisoned:
                # Waiter entries already made are stale; readiness and the
                # poison walk skip nodes that are no longer blocked.
                self.poisoned.add(key)
                self.run.cancelled.append(key)
                self._poison(key)
                return
            if target not in self.run.store:
                self._waiters.setdefault(target, []).append(key)
                missing += 1
        if missing:
            self._missing[key] = missing
            self.blocked[key] = node
        else:
            self.ready.push(self._seq[key], node)

    def _land(self, waiters) -> None:
        """One awaited artifact arrived for each of ``waiters``."""
        for waiter in waiters:
            if waiter in self.blocked:
                self._missing[waiter] -= 1
                if not self._missing[waiter]:
                    self.ready.push(self._seq[waiter], self.blocked.pop(waiter))

    def _poison(self, root: str) -> list[str]:
        """Cancel every blocked node waiting, transitively, on poisoned
        ``root``; returns the cancelled keys in insertion order."""
        cancelled: list[str] = []
        frontier = deque([root])
        while frontier:
            for waiter in self._waiters.pop(frontier.popleft(), ()):
                if self.blocked.pop(waiter, None) is not None:
                    self.poisoned.add(waiter)
                    cancelled.append(waiter)
                    frontier.append(waiter)
        cancelled.sort(key=self._seq.__getitem__)
        self.run.cancelled.extend(cancelled)
        return cancelled

    def inputs_for(self, node: StageNode) -> list[object]:
        """Dep values in declaration order (``node`` must be ready)."""
        store = self.run.store
        return [store[self.run.resolve_key(dep)] for dep in node.deps]

    def finish(self, node: StageNode, value: object, seconds: float) -> None:
        if isinstance(value, Expansion):
            for child in value.nodes:
                self.add(child)
            self.run.aliases[node.key] = value.result
            waiters = self._waiters.pop(node.key, [])
            target = self.run.resolve_key(node.key)
            if target in self.run.store:
                self._land(waiters)
            else:
                self._waiters.setdefault(target, []).extend(waiters)
                if target in self.poisoned:
                    self._poison(target)
        else:
            self.run.store[node.key] = value
            self._land(self._waiters.pop(node.key, ()))
        self.run.trace.append(
            StageTrace(
                key=node.key,
                phase=node.phase,
                scenario=node.scenario,
                category=node.category,
                local=node.local,
                seconds=seconds,
            )
        )

    def fail(self, node: StageNode, error: BaseException, attempts: int) -> StageFailure:
        """Quarantine ``node``'s subgraph after its attempts ran out.

        Poisons the stage key, cancels every blocked transitive dependant,
        and records the :class:`StageFailure`.  Only the descendants go:
        stages of *other* scenarios (or independent branches of the same
        scenario) are untouched.
        """
        self.poisoned.add(node.key)
        cancelled = self._poison(node.key)
        failure = StageFailure(
            key=node.key,
            scenario=node.scenario,
            phase=node.phase,
            error_type=type(error).__name__,
            error=str(error),
            attempts=attempts,
            cancelled=tuple(sorted(cancelled)),
        )
        self.run.failures.append(failure)
        return failure

    def unsatisfied(self) -> str:
        missing = {
            key: [
                dep
                for dep in node.deps
                if self.run.resolve_key(dep) not in self.run.store
            ]
            for key, node in self.blocked.items()
        }
        return f"stage graph stalled; unsatisfied dependencies: {missing!r}"


#: An executor's report of one finished attempt:
#: ``(node, inputs, attempt, (value, seconds) or None, error or None)``.
Outcome = tuple


class _InProcessExecutor:
    """Runs each stage attempt in the parent the moment it is submitted.

    Injected chaos degenerates to the error the pooled parent would
    synthesize (:meth:`~repro.campaign.chaos.ChaosFault.apply_in_process`),
    and a retry's backoff is a plain sleep before the rerun -- so a retried
    stage reruns before any other stage starts.
    """

    def __init__(self, policy: RetryPolicy) -> None:
        self.policy = policy
        self._done: list[Outcome] = []

    @property
    def busy(self) -> bool:
        return bool(self._done)

    def submit(self, node: StageNode, inputs, attempt: int, fault, delay: float) -> None:
        if delay > 0:
            time.sleep(delay)
        start = time.perf_counter()
        try:
            if fault is not None:
                fault.apply_in_process(self.policy)
            value = node.task.run(*inputs)
        except BaseException as error:
            self._done.append((node, inputs, attempt, None, error))
        else:
            seconds = time.perf_counter() - start
            self._done.append((node, inputs, attempt, (value, seconds), None))

    def collect(self, timeout: float) -> list[Outcome]:
        done, self._done = self._done, []
        return done


class _StageScheduler:
    """The completion loop both schedulers run; subclasses pick the executor.

    ``retry_policy`` / ``chaos`` / ``degrade`` configure the one retry,
    fatal and degrade decision (``resolve`` in :meth:`_drain`).
    """

    def __init__(
        self,
        retry_policy: Optional[RetryPolicy] = None,
        chaos=None,
        degrade: bool = False,
    ) -> None:
        self.retry_policy = retry_policy
        self.chaos = chaos
        self.degrade = degrade

    def _executor(self, local: _InProcessExecutor):
        """The executor non-local stages run on."""
        raise NotImplementedError

    def run(
        self,
        nodes: Sequence[StageNode],
        observer: Optional[StageObserver] = None,
        preloaded: Optional[Mapping[str, object]] = None,
        cancel_token: Optional[CancelToken] = None,
    ) -> PipelineRun:
        state = _GraphState(nodes, preloaded=preloaded)
        observer = observer or StageObserver()
        observer.on_run_begin(state.run)
        start = time.perf_counter()
        local = _InProcessExecutor(self.retry_policy or RetryPolicy())
        executor = self._executor(local)
        try:
            self._drain(state, local, executor, observer, cancel_token)
        except BaseException:
            self._release(executor, ended_early=True)
            raise
        self._release(executor, ended_early=False)
        state.run.seconds = time.perf_counter() - start
        return state.run

    def _release(self, executor, ended_early: bool) -> None:
        """Hand the executor back after a run (the in-process one holds
        nothing)."""

    def _drain(self, state, local, executor, observer, cancel_token) -> None:
        policy = local.policy

        def submit(node: StageNode, inputs, attempt: int, delay: float = 0.0) -> None:
            fault = self.chaos.fault_for(node.key, attempt) if self.chaos else None
            target = local if node.local else executor
            target.submit(node, inputs, attempt, fault, delay)

        def resolve(outcome: Outcome) -> None:
            """Record a finished attempt: land it, retry it, fail the
            schedule, or quarantine its subgraph."""
            node, inputs, attempt, result, error = outcome
            if error is None:
                value, seconds = result
                state.finish(node, value, seconds)
                observer.on_stage_finish(node, value, seconds)
                return
            if _fatal(error):
                observer.on_stage_error(node, error)
                raise error
            attempt += 1
            if policy.retryable(error) and attempt < policy.max_attempts:
                delay = policy.delay_for(node.key, attempt)
                state.run.retries.append(
                    StageRetry(
                        key=node.key,
                        scenario=node.scenario,
                        phase=node.phase,
                        attempt=attempt,
                        delay_s=delay,
                        error_type=type(error).__name__,
                        error=str(error),
                    )
                )
                observer.on_stage_retry(node, error, attempt, delay)
                submit(node, inputs, attempt, delay)
                return
            if not self.degrade:
                observer.on_stage_error(node, error)
                raise error
            observer.on_stage_failed(node, error, state.fail(node, error, attempt))

        while True:
            # Start every ready stage.  In-process attempts (every stage of
            # the serial walk, local stages of a pooled one) land before the
            # next stage starts.
            node = state.ready.pop(state.added)
            while node is not None:
                if cancel_token is not None:
                    cancel_token.raise_if_cancelled(state.run)
                observer.on_stage_start(node)
                submit(node, state.inputs_for(node), 0)
                while local.busy:
                    for outcome in local.collect(0.0):
                        resolve(outcome)
                node = state.ready.pop(state.added)
            if not executor.busy:
                break
            # Cooperative stop, checked on every wake-up of a pooled run
            # (bounded by the policy heartbeat).
            if cancel_token is not None:
                cancel_token.raise_if_cancelled(state.run)
            for outcome in executor.collect(policy.heartbeat_s):
                resolve(outcome)
        if state.blocked:
            raise RuntimeError(state.unsatisfied())


class SerialScheduler(_StageScheduler):
    """Deterministic in-process walk of a stage graph (the oracle schedule).

    Nodes execute in insertion order as their dependencies resolve; expander
    nodes splice their children in place, so the walk is exactly the serial
    flow's phase order when the graph is authored topologically.

    Every stage runs on the in-process executor, under the same retry,
    chaos and degrade decision as a pooled run (in-process, a worker-death
    or hang fault degenerates to the synthesized error the pooled parent
    would raise), so the serial walk remains the byte-exactness oracle of
    every recovered or degraded pooled run.
    """

    def _executor(self, local: _InProcessExecutor) -> _InProcessExecutor:
        return local


# --------------------------------------------------------------------- #
# The resilient worker pool
# --------------------------------------------------------------------- #
def _picklable_error(error: BaseException) -> BaseException:
    """``error`` if it survives a pickle round-trip, else a summary stand-in.

    A worker result channel silently fails on unpicklable payloads; sending
    a stand-in keeps the parent's completion loop informed (and the stage
    retryable) instead of waiting on a message that never arrives.
    """
    try:
        if type(pickle.loads(pickle.dumps(error))) is type(error):
            return error
    except Exception:
        pass
    return RuntimeError(f"{type(error).__name__}: {error}")


def _resilient_worker_main(inbox, conn) -> None:
    """Worker loop: take ``(key, attempt, task, inputs, fault)``, answer
    ``(key, attempt, result, error)`` on ``conn``.

    An injected chaos fault is applied *before* the stage body -- a ``kill``
    or ``exit`` fault therefore dies without replying, which is exactly the
    silent-death scenario the parent's heartbeat must catch.  A fatal
    (non-``Exception``) error is reported and then ends the worker; the
    parent aborts the schedule when it sees it.
    """
    while True:
        try:
            item = inbox.get()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        if item is None:
            return
        key, attempt, task, inputs, fault = item
        try:
            if fault is not None:
                fault.apply_in_worker()
            result = run_stage(task, inputs)
        except BaseException as error:
            try:
                conn.send((key, attempt, None, _picklable_error(error)))
            except Exception:
                pass
            if not isinstance(error, Exception):
                return
        else:
            try:
                conn.send((key, attempt, result, None))
            except Exception as send_error:
                # The artifact itself failed to pickle/transmit: report that
                # as the stage's error rather than dying silently.
                try:
                    conn.send((key, attempt, None, _picklable_error(send_error)))
                except Exception:
                    pass


class _WorkerHandle:
    """One pool worker: its process, task inbox and result pipe.

    The inbox is a ``multiprocessing`` queue (its feeder thread means the
    parent never blocks against a dead worker's pipe); results come back on
    a dedicated one-way pipe per worker, so a worker killed mid-send can
    corrupt only its *own* channel -- the parent marks it broken and
    replaces it, while every other worker's channel stays intact.
    """

    def __init__(self, ctx, worker_id: int) -> None:
        self.worker_id = worker_id
        self.inbox = ctx.Queue()
        self.conn, child_conn = ctx.Pipe(duplex=False)
        self.process = ctx.Process(
            target=_resilient_worker_main,
            args=(self.inbox, child_conn),
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        #: The attempt the worker is running, ``(node, inputs, attempt)``,
        #: or ``None`` while it is idle.
        self.assignment: Optional[tuple] = None
        #: Soft-timeout deadline of the assigned stage (monotonic seconds).
        self.deadline: Optional[float] = None
        #: The result channel returned garbage or EOF; replace the worker.
        self.broken = False

    def alive(self) -> bool:
        return self.process.is_alive()

    def assign(self, node: StageNode, inputs, attempt: int, fault, timeout_s) -> None:
        self.assignment = (node, inputs, attempt)
        self.deadline = None if timeout_s is None else time.monotonic() + timeout_s
        self.inbox.put((node.key, attempt, node.task, inputs, fault))

    def finish(self, result, error) -> Outcome:
        """The outcome of the assigned attempt; the worker is idle again."""
        node, inputs, attempt = self.assignment
        self.assignment = self.deadline = None
        return (node, inputs, attempt, result, error)

    def drain(self) -> list:
        """Already-delivered results (a worker may finish and *then* die)."""
        messages = []
        try:
            while self.conn.poll(0):
                messages.append(self.conn.recv())
        except Exception:
            self.broken = True
        return messages

    def terminate(self) -> None:
        if self.process.is_alive():
            self.process.terminate()

    def abandon(self) -> None:
        """Stop tracking the worker without joining its queue feeder (the
        process may be dead behind a full pipe)."""
        try:
            self.conn.close()
        except OSError:
            pass
        self.inbox.close()
        self.inbox.cancel_join_thread()


class _ResilientPool:
    """A fixed-width worker pool that survives worker death.

    The executor of :class:`PooledScheduler`.  ``multiprocessing.Pool``
    would not do: ``Pool.apply_async`` results are simply lost when a worker
    dies (SIGKILL, ``os._exit``, OOM), leaving the completion loop hanging
    forever.  Here the parent owns the assignment table -- one stage per
    worker, explicit -- so a worker that dies or hangs is detected by the
    heartbeat (``is_alive`` + per-stage deadlines), terminated, respawned,
    and its attempt reported as failed for the scheduler to retry.

    Submitted attempts queue for an idle worker in order of the time they
    become due, so a retry's backoff is a later due time and never blocks
    the completion loop while other stages dispatch.

    The pool outlives a schedule when its owner keeps it: a schedule that
    drains finishes with every worker idle, and one that ends early calls
    :meth:`reset`.  Its owner calls :meth:`shutdown` to reap the workers.
    """

    def __init__(self, num_workers: int, policy: RetryPolicy, mp_context=None) -> None:
        # ``fork`` is the cheap start method where available (Linux); stage
        # inputs and results always travel as pickles, so the choice only
        # affects pool start-up cost.
        self.ctx = mp_context or multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods() else None
        )
        self.policy = policy
        self._ids = itertools.count()
        self.handles: dict[int, _WorkerHandle] = {}
        #: Attempts awaiting a worker, a heap of
        #: (due time, tiebreak, node, inputs, attempt, fault).
        self._queue: list = []
        self._tiebreak = itertools.count()
        for _ in range(num_workers):
            self._spawn()

    def _spawn(self) -> None:
        handle = _WorkerHandle(self.ctx, next(self._ids))
        self.handles[handle.worker_id] = handle

    @property
    def busy(self) -> bool:
        return bool(self._queue) or any(
            handle.assignment is not None for handle in self.handles.values()
        )

    def submit(self, node: StageNode, inputs, attempt: int, fault, delay: float) -> None:
        due = time.monotonic() + delay
        heapq.heappush(
            self._queue, (due, next(self._tiebreak), node, inputs, attempt, fault)
        )
        self._dispatch()

    def _dispatch(self) -> None:
        now = time.monotonic()
        while self._queue and self._queue[0][0] <= now:
            handle = self.idle_worker()
            if handle is None:
                return
            _, _, node, inputs, attempt, fault = heapq.heappop(self._queue)
            handle.assign(node, inputs, attempt, fault, self.policy.stage_timeout_s)

    def collect(self, timeout: float) -> list[Outcome]:
        """Attempts that finished within ``timeout``, plus the synthesized
        failures of workers found dead or past their stage deadline."""
        self._dispatch()
        outcomes: list[Outcome] = []
        now = time.monotonic()
        if self._queue and self._queue[0][0] > now:
            timeout = min(timeout, self._queue[0][0] - now)
        deadline = self.nearest_deadline()
        if deadline is not None:
            timeout = min(timeout, deadline - now)
        for handle, message in self.poll(max(timeout, 0.005)):
            if message is not None:
                self._complete(handle, message, outcomes)
        now = time.monotonic()
        for handle in self.unhealthy(now):
            if handle.worker_id not in self.handles:
                continue  # already replaced this sweep
            # A worker may have delivered its result just before dying (or
            # just before its deadline): prefer the real result over a
            # synthesized failure.
            for message in handle.drain():
                self._complete(handle, message, outcomes)
            dead = handle.broken or not handle.alive()
            timed_out = handle.deadline is not None and now >= handle.deadline
            if not dead and not timed_out:
                continue  # drained its completion; healthy again
            if handle.assignment is not None:
                if timed_out and not dead:
                    error: Exception = StageTimeoutError(
                        timeout_error_message(self.policy.stage_timeout_s)
                    )
                else:
                    # A worker detected via its broken channel may not be
                    # reaped yet (exitcode None); join briefly so the
                    # synthesized message carries the real exit code -- the
                    # serial oracle replays it.
                    handle.process.join(timeout=1.0)
                    exit_code = handle.process.exitcode
                    error = WorkerCrashError(crash_error_message(exit_code))
                outcomes.append(handle.finish(None, error))
            self.replace(handle)
        self._dispatch()
        return outcomes

    @staticmethod
    def _complete(handle: _WorkerHandle, message: tuple, outcomes: list) -> None:
        key, attempt, result, error = message
        assigned = handle.assignment
        if assigned is not None and (assigned[0].key, assigned[2]) == (key, attempt):
            outcomes.append(handle.finish(result, error))

    def idle_worker(self) -> Optional[_WorkerHandle]:
        for handle in self.handles.values():
            if handle.assignment is None and not handle.broken and handle.alive():
                return handle
        return None

    def nearest_deadline(self) -> Optional[float]:
        deadlines = [
            handle.deadline
            for handle in self.handles.values()
            if handle.deadline is not None
        ]
        return min(deadlines) if deadlines else None

    def unhealthy(self, now: float) -> list[_WorkerHandle]:
        """Workers needing intervention: dead, broken channel, or past their
        stage deadline."""
        return [
            handle
            for handle in self.handles.values()
            if handle.broken
            or not handle.alive()
            or (handle.deadline is not None and now >= handle.deadline)
        ]

    def poll(self, timeout: float) -> list[tuple[_WorkerHandle, Optional[tuple]]]:
        """Result messages ready within ``timeout`` (``None`` = broken read)."""
        conns = {handle.conn: handle for handle in self.handles.values()}
        try:
            ready = mp_connection.wait(list(conns), timeout)
        except OSError:
            return []
        results = []
        for conn in ready:
            handle = conns[conn]
            try:
                results.append((handle, conn.recv()))
            except Exception:
                handle.broken = True
                results.append((handle, None))
        return results

    def replace(self, handle: _WorkerHandle) -> None:
        """Terminate ``handle`` (it may already be dead) and spawn a fresh
        worker in its place."""
        handle.terminate()
        self.handles.pop(handle.worker_id, None)
        handle.process.join(timeout=2.0)
        handle.abandon()
        self._spawn()

    def reset(self) -> None:
        """End a schedule early: drop its queued attempts and replace (with
        their result channels) the workers still running its stages."""
        self._queue.clear()
        for handle in [h for h in self.handles.values() if h.assignment is not None]:
            self.replace(handle)

    def shutdown(self, force: bool = False) -> None:
        for handle in self.handles.values():
            if force:
                handle.terminate()
            else:
                try:
                    handle.inbox.put_nowait(None)
                except Exception:
                    handle.terminate()
        for handle in self.handles.values():
            handle.process.join(timeout=2.0)
            if handle.process.is_alive():
                handle.terminate()
                handle.process.join(timeout=2.0)
            handle.abandon()
        self.handles.clear()


class PooledScheduler(_StageScheduler):
    """Drains a stage graph through a resilient ``multiprocessing`` pool.

    Every ready non-local node is submitted immediately (no phase barriers),
    so preparation stages of one scenario overlap fault-sim shards of
    another; local nodes run in the parent on the in-process executor as
    soon as their inputs land.  Results are keyed, never ordered, so
    completion-order nondeterminism cannot leak into any artifact.

    The completion loop never blocks longer than the policy heartbeat: each
    wake-up collects finished results, then health-checks the pool -- a dead
    worker (``is_alive`` false) or a stage past its soft deadline gets its
    worker terminated and respawned and the stage resubmitted as a retry
    attempt under the same :class:`~repro.core.config.RetryPolicy` that
    governs ordinary stage exceptions.

    Without ``pool``, each :meth:`run` opens a pool of ``num_workers`` and
    reaps it before returning.  With one, the run leaves it open for the
    next; a run that ends early (cancel, deadline, fatal error) only resets
    it (:meth:`_ResilientPool.reset`).
    """

    def __init__(
        self,
        num_workers: int,
        mp_context=None,
        retry_policy: Optional[RetryPolicy] = None,
        chaos=None,
        degrade: bool = False,
        pool: Optional[_ResilientPool] = None,
    ) -> None:
        if num_workers < 2:
            raise ValueError(
                "PooledScheduler needs >= 2 workers; use SerialScheduler for "
                "the in-process walk"
            )
        super().__init__(retry_policy=retry_policy, chaos=chaos, degrade=degrade)
        self.num_workers = num_workers
        self.mp_context = mp_context
        #: The caller's pool, which outlives this scheduler's runs.
        self.pool = pool

    def _executor(self, local: _InProcessExecutor) -> _ResilientPool:
        if self.pool is not None:
            return self.pool
        return _ResilientPool(self.num_workers, local.policy, self.mp_context)

    def _release(self, executor: _ResilientPool, ended_early: bool) -> None:
        if executor is not self.pool:
            executor.shutdown(force=ended_early)
        elif ended_early:
            executor.reset()


def make_scheduler(
    num_workers: int,
    mp_context=None,
    retry_policy: Optional[RetryPolicy] = None,
    chaos=None,
    degrade: bool = False,
    pool: Optional[_ResilientPool] = None,
) -> _StageScheduler:
    """The serial walk for ``num_workers <= 1``, else a pool that wide
    (``pool``, when given, which the scheduler leaves open)."""
    if num_workers >= 2:
        return PooledScheduler(
            num_workers,
            mp_context=mp_context,
            retry_policy=retry_policy,
            chaos=chaos,
            degrade=degrade,
            pool=pool,
        )
    return SerialScheduler(retry_policy=retry_policy, chaos=chaos, degrade=degrade)
