"""Stage-graph schedulers: one DAG, two execution strategies.

The campaign pipeline (:mod:`repro.campaign.pipeline`) describes a BIST
scenario as a graph of :class:`StageNode` records -- typed, pickleable stage
tasks with declared data dependencies.  This module executes such graphs:

* :class:`SerialScheduler` walks the graph in-process in deterministic
  topological order.  It is the degenerate form of the pipeline: the serial
  :class:`~repro.core.flow.LogicBistFlow` walk *is* this scheduler, which
  keeps the serial flow the bit-exactness oracle of the pooled path with one
  shared stage implementation.
* :class:`PooledScheduler` drains the same graph through a resilient
  ``multiprocessing`` worker pool.  Every ready non-local stage is submitted
  immediately, so stages of *different* scenarios overlap freely: scenario
  B's TPI profiling runs while scenario A's fault-sim shards are still in
  flight.  Local stages (planning, order-independent merges, report
  assembly) run in the parent the moment their inputs land.

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

Fault tolerance (both schedulers, same semantics so serial stays the
oracle):

* a :class:`~repro.core.config.RetryPolicy` grants each stage several
  attempts with deterministic seeded backoff; the pooled scheduler
  additionally enforces per-stage soft timeouts and a heartbeat health
  check on its workers -- a dead or hung worker is detected, terminated,
  respawned, and the in-flight stage resubmitted as a retry (never a
  silent hang),
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
  stages (the pool is force-terminated, per-schedule, so nothing leaks into
  the next job).
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
    scheduler tears its pool down), which is exactly the semantics a failed
    checkpoint write wants.
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


def make_pool_context(mp_context=None):
    """The multiprocessing context campaign pools run on.

    ``fork`` is the cheap option where available (Linux); elsewhere fall back
    to the platform default.  Stage inputs and results always travel through
    task pickles, so the choice only affects pool start-up cost.
    """
    if mp_context is not None:
        return mp_context
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


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


class _GraphState:
    """Shared bookkeeping of both schedulers: pending nodes, store, aliases.

    ``preloaded`` resumes a half-finished schedule: preloaded artifact values
    land in the store up front and their nodes are *skipped* when added
    (original or spliced alike).  Each preloaded key is consumed exactly
    once, so a genuinely duplicated stage key still raises.

    ``poisoned`` tracks quarantine (degrade mode): the keys of permanently
    failed stages plus every cancelled descendant.  A pending node whose
    dependency chain touches a poisoned key is swept out of ``pending`` --
    and poisoned itself, so the cut propagates through aliases and future
    expansions -- while unrelated subgraphs keep executing.
    """

    def __init__(
        self,
        nodes: Sequence[StageNode],
        preloaded: Optional[Mapping[str, object]] = None,
    ) -> None:
        self.pending: dict[str, StageNode] = {}
        #: Keys handed to the pool and not yet finished -- an expansion must
        #: not be able to silently shadow an in-flight node's artifact.
        self.reserved: set[str] = set()
        #: Permanently failed stage keys and their cancelled descendants.
        self.poisoned: set[str] = set()
        self.run = PipelineRun()
        self._skip = set(preloaded or ())
        self.run.store.update(preloaded or {})
        for node in nodes:
            self.add(node)

    def add(self, node: StageNode) -> None:
        if node.key in self._skip:
            # Satisfied from a checkpoint: value is already in the store.
            self._skip.discard(node.key)
            return
        if (
            node.key in self.pending
            or node.key in self.reserved
            or node.key in self.run.store
            or node.key in self.run.aliases
        ):
            raise ValueError(f"duplicate stage key {node.key!r}")
        self.pending[node.key] = node

    def inputs_for(self, node: StageNode) -> Optional[list[object]]:
        """Dep values in declaration order, or ``None`` while any is missing."""
        values = []
        store = self.run.store
        for dep in node.deps:
            resolved = self.run.resolve_key(dep)
            if resolved not in store:
                return None
            values.append(store[resolved])
        return values

    def finish(self, node: StageNode, value: object, seconds: float) -> None:
        if isinstance(value, Expansion):
            for child in value.nodes:
                self.add(child)
            self.run.aliases[node.key] = value.result
            if self.poisoned:
                # Spliced-in children may depend on an already-poisoned key.
                self.sweep_poisoned()
        else:
            self.run.store[node.key] = value
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

        Poisons the stage key, sweeps every pending transitive dependant out
        of the schedule, and records the :class:`StageFailure`.  Only the
        descendants go: pending stages of *other* scenarios (or independent
        branches of the same scenario) are untouched.
        """
        self.poisoned.add(node.key)
        self.reserved.discard(node.key)
        cancelled = self.sweep_poisoned()
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

    def sweep_poisoned(self) -> list[str]:
        """Cancel pending nodes depending (transitively) on a poisoned key."""
        cancelled: list[str] = []
        changed = True
        while changed:
            changed = False
            for key, node in list(self.pending.items()):
                for dep in node.deps:
                    if dep in self.poisoned or self.run.resolve_key(dep) in self.poisoned:
                        del self.pending[key]
                        self.poisoned.add(key)
                        self.run.cancelled.append(key)
                        cancelled.append(key)
                        changed = True
                        break
        return cancelled

    def unsatisfied(self) -> str:
        missing = {
            key: [
                dep
                for dep in node.deps
                if self.run.resolve_key(dep) not in self.run.store
            ]
            for key, node in self.pending.items()
        }
        return f"stage graph stalled; unsatisfied dependencies: {missing!r}"


class _StagePolicy:
    """Retry / chaos / degradation decisions for in-process stage execution.

    One instance rides one schedule.  The serial scheduler routes *every*
    stage through :meth:`execute`; the pooled scheduler routes its local
    (parent-process) stages here and mirrors the same decision sequence --
    same chaos lookups, same attempt numbering, same backoff delays -- in
    its completion loop for pooled stages.  That mirroring is what keeps the
    serial walk the byte-exact oracle of every chaos replay.
    """

    def __init__(self, policy: Optional[RetryPolicy], chaos, degrade: bool) -> None:
        self.policy = policy or RetryPolicy()
        self.chaos = chaos
        self.degrade = degrade

    def execute(
        self,
        node: StageNode,
        inputs: list,
        observer: StageObserver,
        state: _GraphState,
    ) -> bool:
        """Run ``node`` in-process to a terminal outcome.

        Returns ``True`` when an artifact landed, ``False`` when the stage
        permanently failed and was quarantined (degrade mode).  Fatal errors
        -- and permanent failures with degradation off -- raise.
        """
        attempt = 0
        observer.on_stage_start(node)
        while True:
            fault = self.chaos.fault_for(node.key, attempt) if self.chaos else None
            stage_start = time.perf_counter()
            try:
                if fault is not None:
                    fault.apply_in_process(self.policy)
                value = node.task.run(*inputs)
            except BaseException as error:
                if _fatal(error):
                    observer.on_stage_error(node, error)
                    raise
                attempt += 1
                if self.policy.retryable(error) and attempt < self.policy.max_attempts:
                    delay = self.policy.delay_for(node.key, attempt)
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
                    if delay > 0:
                        time.sleep(delay)
                    continue
                if not self.degrade:
                    observer.on_stage_error(node, error)
                    raise
                failure = state.fail(node, error, attempt)
                observer.on_stage_failed(node, error, failure)
                return False
            seconds = time.perf_counter() - stage_start
            state.finish(node, value, seconds)
            observer.on_stage_finish(node, value, seconds)
            return True


class SerialScheduler:
    """Deterministic in-process walk of a stage graph (the oracle schedule).

    Nodes execute in insertion order as their dependencies resolve; expander
    nodes splice their children in place, so the walk is exactly the serial
    flow's phase order when the graph is authored topologically.

    ``retry_policy`` / ``chaos`` / ``degrade`` mirror the pooled scheduler's
    resilience semantics exactly (in-process, a worker-death or hang fault
    degenerates to the synthesized error the pooled parent would raise), so
    the serial walk remains the byte-exactness oracle of every recovered or
    degraded pooled run.
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
        executor = _StagePolicy(self.retry_policy, self.chaos, self.degrade)
        start = time.perf_counter()
        while state.pending:
            progressed = False
            for key in list(state.pending):
                if cancel_token is not None:
                    cancel_token.raise_if_cancelled(state.run)
                node = state.pending.get(key)
                if node is None:
                    continue
                inputs = state.inputs_for(node)
                if inputs is None:
                    continue
                del state.pending[key]
                executor.execute(node, inputs, observer, state)
                progressed = True
            if not progressed:
                raise RuntimeError(state.unsatisfied())
        state.run.seconds = time.perf_counter() - start
        return state.run


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
        #: Stage key currently assigned (None = idle).
        self.key: Optional[str] = None
        self.attempt = 0
        #: Soft-timeout deadline of the assigned stage (monotonic seconds).
        self.deadline: Optional[float] = None
        #: The result channel returned garbage or EOF; replace the worker.
        self.broken = False

    @property
    def busy(self) -> bool:
        return self.key is not None

    def alive(self) -> bool:
        return self.process.is_alive()

    def assign(self, node: StageNode, attempt: int, inputs, fault, timeout_s) -> None:
        self.key = node.key
        self.attempt = attempt
        self.deadline = None if timeout_s is None else time.monotonic() + timeout_s
        self.inbox.put((node.key, attempt, node.task, inputs, fault))

    def release(self) -> None:
        self.key = None
        self.attempt = 0
        self.deadline = None

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

    Replaces ``multiprocessing.Pool`` for the pooled scheduler:
    ``Pool.apply_async`` results are simply lost when a worker dies
    (SIGKILL, ``os._exit``, OOM), leaving the completion loop hanging
    forever.  Here the parent owns the assignment table -- one stage per
    worker, explicit -- so a worker that dies or hangs is detected by the
    heartbeat (``is_alive`` + per-stage deadlines), terminated, respawned,
    and its stage resubmitted by the scheduler.
    """

    def __init__(self, ctx, num_workers: int) -> None:
        self.ctx = ctx
        self._ids = itertools.count()
        self.handles: dict[int, _WorkerHandle] = {}
        for _ in range(num_workers):
            self._spawn()

    def _spawn(self) -> _WorkerHandle:
        handle = _WorkerHandle(self.ctx, next(self._ids))
        self.handles[handle.worker_id] = handle
        return handle

    def idle_worker(self) -> Optional[_WorkerHandle]:
        for handle in self.handles.values():
            if not handle.busy and not handle.broken and handle.alive():
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

    def replace(self, handle: _WorkerHandle) -> _WorkerHandle:
        """Terminate ``handle`` (it may already be dead) and spawn a fresh
        worker in its place."""
        handle.terminate()
        self.handles.pop(handle.worker_id, None)
        handle.process.join(timeout=2.0)
        handle.abandon()
        return self._spawn()

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


@dataclass
class _InFlight:
    """Parent-side record of a stage currently assigned to a worker."""

    node: StageNode
    inputs: list
    #: 0-based index of the executing attempt.
    attempt: int
    worker_id: int


class PooledScheduler:
    """Drains a stage graph through a resilient ``multiprocessing`` pool.

    Every ready non-local node is submitted immediately (no phase barriers),
    so preparation stages of one scenario overlap fault-sim shards of
    another; local nodes run in the parent as soon as their inputs land.
    Results are keyed, never ordered, so completion-order nondeterminism
    cannot leak into any artifact.

    The completion loop never blocks longer than the policy heartbeat: each
    wake-up collects finished results, then health-checks the pool -- a dead
    worker (``is_alive`` false) or a stage past its soft deadline gets its
    worker terminated and respawned and the stage resubmitted as a retry
    attempt under the same :class:`~repro.core.config.RetryPolicy` that
    governs ordinary stage exceptions.  Retry backoff never blocks the loop:
    delayed attempts sit in a wake-time heap while other stages dispatch.
    """

    def __init__(
        self,
        num_workers: int,
        mp_context=None,
        retry_policy: Optional[RetryPolicy] = None,
        chaos=None,
        degrade: bool = False,
    ) -> None:
        if num_workers < 2:
            raise ValueError(
                "PooledScheduler needs >= 2 workers; use SerialScheduler for "
                "the in-process walk"
            )
        self.num_workers = num_workers
        self.mp_context = mp_context
        self.retry_policy = retry_policy
        self.chaos = chaos
        self.degrade = degrade

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
        policy = self.retry_policy or RetryPolicy()
        local_executor = _StagePolicy(policy, self.chaos, self.degrade)
        start = time.perf_counter()
        ctx = make_pool_context(self.mp_context)
        pool = _ResilientPool(ctx, self.num_workers)
        #: Dispatchable (node, inputs, attempt) triples awaiting a worker.
        ready: deque = deque()
        #: Backoff heap: (wake time, tiebreak, node, inputs, attempt).
        delayed: list = []
        in_flight: dict[str, _InFlight] = {}
        tiebreak = itertools.count()

        def launch_ready() -> None:
            progressed = True
            while progressed:
                progressed = False
                for key in list(state.pending):
                    node = state.pending.get(key)
                    if node is None:
                        continue
                    inputs = state.inputs_for(node)
                    if inputs is None:
                        continue
                    del state.pending[key]
                    progressed = True
                    state.reserved.add(key)
                    if node.local:
                        if local_executor.execute(node, inputs, observer, state):
                            state.reserved.discard(key)
                    else:
                        ready.append((node, inputs, 0))

        def resolve_failure(node: StageNode, inputs, attempt: int, error) -> None:
            """Terminal or retry decision for a failed pooled attempt.

            Mirrors :meth:`_StagePolicy.execute` exactly -- same attempt
            numbering, same chaos schedule, same jittered delays -- except
            the backoff is a heap entry instead of a sleep.
            """
            if _fatal(error):
                observer.on_stage_error(node, error)
                raise error
            attempts_done = attempt + 1
            if policy.retryable(error) and attempts_done < policy.max_attempts:
                delay = policy.delay_for(node.key, attempts_done)
                state.run.retries.append(
                    StageRetry(
                        key=node.key,
                        scenario=node.scenario,
                        phase=node.phase,
                        attempt=attempts_done,
                        delay_s=delay,
                        error_type=type(error).__name__,
                        error=str(error),
                    )
                )
                observer.on_stage_retry(node, error, attempts_done, delay)
                heapq.heappush(
                    delayed,
                    (time.monotonic() + delay, next(tiebreak), node, inputs, attempts_done),
                )
                return
            if not self.degrade:
                observer.on_stage_error(node, error)
                raise error
            failure = state.fail(node, error, attempts_done)
            observer.on_stage_failed(node, error, failure)

        def dispatch() -> None:
            while ready:
                handle = pool.idle_worker()
                if handle is None:
                    return
                node, inputs, attempt = ready.popleft()
                fault = self.chaos.fault_for(node.key, attempt) if self.chaos else None
                if attempt == 0:
                    observer.on_stage_start(node)
                handle.assign(node, attempt, inputs, fault, policy.stage_timeout_s)
                in_flight[node.key] = _InFlight(node, inputs, attempt, handle.worker_id)

        def complete(handle: _WorkerHandle, message: tuple) -> None:
            key, attempt, result, error = message
            if handle.key == key:
                handle.release()
            entry = in_flight.get(key)
            if (
                entry is None
                or entry.worker_id != handle.worker_id
                or entry.attempt != attempt
            ):
                return  # stale: the stage was already recovered elsewhere
            del in_flight[key]
            if error is not None:
                resolve_failure(entry.node, entry.inputs, entry.attempt, error)
            else:
                state.reserved.discard(key)
                value, seconds = result
                state.finish(entry.node, value, seconds)
                observer.on_stage_finish(entry.node, value, seconds)

        def lost(handle: _WorkerHandle, error: Exception) -> None:
            """The worker owning a stage died or blew its deadline."""
            key = handle.key
            worker_id = handle.worker_id
            pool.replace(handle)
            if key is None:
                return
            entry = in_flight.get(key)
            if entry is None or entry.worker_id != worker_id:
                return
            del in_flight[key]
            resolve_failure(entry.node, entry.inputs, entry.attempt, error)

        try:
            if cancel_token is not None:
                cancel_token.raise_if_cancelled(state.run)
            launch_ready()
            dispatch()
            while in_flight or ready or delayed:
                # Cooperative stop: checked once per completion-loop wake-up
                # (bounded by the policy heartbeat), so a cancel abandons the
                # outstanding pooled stages at the next boundary; the
                # ``except`` below force-terminates the pool, leaving nothing
                # behind for the next schedule.
                if cancel_token is not None:
                    cancel_token.raise_if_cancelled(state.run)
                now = time.monotonic()
                while delayed and delayed[0][0] <= now:
                    _, _, node, inputs, attempt = heapq.heappop(delayed)
                    ready.append((node, inputs, attempt))
                dispatch()
                if not (in_flight or ready or delayed):
                    break
                timeout = policy.heartbeat_s
                if delayed:
                    timeout = min(timeout, delayed[0][0] - now)
                deadline = pool.nearest_deadline()
                if deadline is not None:
                    timeout = min(timeout, deadline - now)
                for handle, message in pool.poll(max(timeout, 0.005)):
                    if message is not None:
                        complete(handle, message)
                now = time.monotonic()
                for handle in pool.unhealthy(now):
                    if handle.worker_id not in pool.handles:
                        continue  # already replaced this sweep
                    # A worker may have delivered its result just before
                    # dying (or just before its deadline): prefer the real
                    # result over a synthesized failure.
                    for message in handle.drain():
                        complete(handle, message)
                    dead = handle.broken or not handle.alive()
                    timed_out = (
                        handle.deadline is not None and now >= handle.deadline
                    )
                    if not dead and not timed_out:
                        continue  # drained its completion; healthy again
                    if handle.busy:
                        if timed_out and not dead:
                            error: Exception = StageTimeoutError(
                                timeout_error_message(policy.stage_timeout_s)
                            )
                        else:
                            # A worker detected via its broken channel may
                            # not be reaped yet (exitcode None); join briefly
                            # so the synthesized message carries the real
                            # exit code -- the serial oracle replays it.
                            handle.process.join(timeout=1.0)
                            error = WorkerCrashError(
                                crash_error_message(handle.process.exitcode)
                            )
                        lost(handle, error)
                    else:
                        pool.replace(handle)
                launch_ready()
                dispatch()
            if state.pending:
                raise RuntimeError(state.unsatisfied())
        except BaseException:
            pool.shutdown(force=True)
            raise
        else:
            pool.shutdown()
        state.run.seconds = time.perf_counter() - start
        return state.run
