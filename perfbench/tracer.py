"""Span tracer for the benchmark's traced run.

The tracer wraps the public entry points of each layer of ``repro`` from
the outside (nothing inside the program changes), keeps every span in
memory and writes them once, at the end, as trace-event JSON that opens
offline in Perfetto or ``chrome://tracing``.

A span is ``(name, start, end, parent, thread)``; the parent is the span
open on the same thread when this one began.  A layer's *self time* is its
span minus the part its child spans cover.  Pooled stages run in worker
processes the tracer cannot see; their compute seconds arrive with the
stage-finished callback and are drawn on a separate "workers" track.
"""

from __future__ import annotations

import contextlib
import functools
import json
import multiprocessing.connection
import os
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from multiprocessing.reduction import ForkingPickler
from typing import Callable, Optional

from repro.atpg import podem
from repro.bist import stumps
from repro.campaign import pipeline, scheduler
from repro.faults import fault_sim, transition_sim
from repro.service import checkpoint
from repro.simulation import kernel, numpy_backend

#: Thread key of the synthetic track that shows worker-process stage compute.
WORKER_TRACK = "workers"


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    thread: object = None
    args: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder plus the layer wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        #: ``(scheduler.run span index, PipelineRun, workers)`` per schedule.
        self.schedules: list[tuple[int, object, int]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        # Pool workers are forked while the wrappers are installed; a lock
        # another thread held at that moment would stay held in the child.
        os.register_at_fork(after_in_child=self._new_lock)

    def _new_lock(self) -> None:
        self._lock = threading.Lock()

    # -- spans --------------------------------------------------------- #
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, **args) -> int:
        stack = self._stack()
        span = Span(
            name,
            time.perf_counter(),
            parent=stack[-1] if stack else None,
            thread=threading.get_ident(),
            args=args,
        )
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        stack = self._stack()
        if index in stack:
            stack.remove(index)

    @contextlib.contextmanager
    def span(self, name: str, **args):
        index = self.begin(name, **args)
        try:
            yield index
        finally:
            self.end(index)

    def add_closed(self, name: str, start: float, end: float, thread, **args) -> None:
        """Record a span observed after the fact (worker stage compute)."""
        with self._lock:
            self.spans.append(Span(name, start, end, None, thread, args))

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += amount

    def reset(self) -> list[Span]:
        """Start a fresh operation; returns the finished operation's spans."""
        spans = self.spans
        self.spans = []
        self.counters = defaultdict(float)
        self.schedules = []
        return spans

    # -- analysis ------------------------------------------------------ #
    def self_seconds(self) -> list[float]:
        """Each span's duration minus the part its children cover."""
        own = [span.seconds for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.seconds
        return own

    def total(self, prefix: str, own: Optional[list[float]] = None) -> float:
        """Summed self time (or, with ``own=None``, duration) of spans whose
        name starts with ``prefix``."""
        return sum(
            own[index] if own is not None else span.seconds
            for index, span in enumerate(self.spans)
            if span.name.startswith(prefix)
        )

    # -- patching ------------------------------------------------------ #
    def patch(self, owner, attr: str, make: Callable) -> None:
        """Replace ``owner.attr`` with ``make(original)``; :meth:`restore`
        undoes it.

        For a module-level function, every loaded ``repro`` module that
        bound the same object by ``from ... import`` is patched too, so
        callers see the wrapper whichever name they use.
        """
        original = getattr(owner, attr)
        wrapper = make(original)
        if callable(wrapper) and not isinstance(wrapper, classmethod):
            functools.update_wrapper(wrapper, original)
        targets = [owner]
        if isinstance(owner, type(sys)):
            targets += [
                module
                for name, module in list(sys.modules.items())
                if name.startswith("repro")
                and module is not owner
                and getattr(module, attr, None) is original
            ]
        for target in targets:
            raw = vars(target).get(attr, original)
            self._patches.append((target, attr, raw))
            setattr(target, attr, wrapper)

    def timed(self, owner, attr: str, name: str) -> None:
        """Wrap ``owner.attr`` in a span called ``name``."""

        def make(original):
            def wrapper(*args, **kwargs):
                with self.span(name):
                    return original(*args, **kwargs)

            return wrapper

        self.patch(owner, attr, make)

    def restore(self) -> None:
        for target, attr, raw in reversed(self._patches):
            setattr(target, attr, raw)
        self._patches.clear()


def write_chrome_trace(path, operations: list[list[Span]], metadata: dict) -> None:
    """Write every traced operation's spans as one trace-event JSON file.

    Each operation is one process row; each thread one track, with pooled
    stage compute on its own "workers" track.
    """
    starts = [span.start for spans in operations for span in spans]
    origin = min(starts) if starts else 0.0
    events = []
    for number, spans in enumerate(operations, start=1):
        events.append(
            {"name": "process_name", "ph": "M", "pid": number, "tid": 0,
             "args": {"name": f"operation {number}"}}
        )
        threads: dict[object, int] = {}
        for span in spans:
            tid = threads.setdefault(span.thread, len(threads) + 1)
            args = {key: str(value) for key, value in span.args.items()}
            if span.parent is not None:
                args["parent"] = spans[span.parent].name
            events.append(
                {
                    "name": span.name,
                    "cat": span.name.split(".")[0],
                    "ph": "X",
                    "ts": round((span.start - origin) * 1e6, 3),
                    "dur": round(span.seconds * 1e6, 3),
                    "pid": number,
                    "tid": tid,
                    "args": args,
                }
            )
        for thread, tid in threads.items():
            label = "workers (pooled stages)" if thread == WORKER_TRACK else f"thread {tid}"
            events.append(
                {"name": "thread_name", "ph": "M", "pid": number, "tid": tid,
                 "args": {"name": label}}
            )
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "otherData": metadata}, handle)


# --------------------------------------------------------------------- #
# Layer wrappers
# --------------------------------------------------------------------- #
class TracingObserver(scheduler.StageObserver):
    """Records stage spans, then defers to the scheduler's real observer.

    Callbacks into the wrapped observer (the service's event emitter and
    checkpointer) are spanned as ``service.observer``: that is service work
    done on the scheduler thread.
    """

    def __init__(self, tracer: Tracer, inner, in_process: bool) -> None:
        self.tracer = tracer
        self.inner = inner
        self.in_process = in_process
        self.open: dict[str, int] = {}

    def _delegate(self, method: str, *args) -> None:
        if self.inner is not None:
            with self.tracer.span("service.observer"):
                getattr(self.inner, method)(*args)

    def _runs_here(self, node) -> bool:
        return self.in_process or node.local

    def _close(self, node) -> None:
        index = self.open.pop(node.key, None)
        if index is not None:
            self.tracer.end(index)

    def on_run_begin(self, run) -> None:
        self._delegate("on_run_begin", run)

    def on_stage_start(self, node) -> None:
        self._delegate("on_stage_start", node)
        if self._runs_here(node):
            self.open[node.key] = self.tracer.begin(
                f"stage.{node.phase}", category=node.category, stage=node.key
            )

    def on_stage_retry(self, node, error, attempt, delay_s) -> None:
        self._delegate("on_stage_retry", node, error, attempt, delay_s)

    def on_stage_finish(self, node, value, seconds) -> None:
        self._close(node)
        if not self._runs_here(node):
            now = time.perf_counter()
            self.tracer.add_closed(
                f"stage.{node.phase}", now - seconds, now, WORKER_TRACK,
                category=node.category, stage=node.key,
            )
        if isinstance(node.task, pipeline.SkewTrialsStage):
            self.tracer.count("timing.skew_trials_s", seconds)
        self._delegate("on_stage_finish", node, value, seconds)

    def on_stage_error(self, node, error) -> None:
        self._close(node)
        self._delegate("on_stage_error", node, error)

    def on_stage_failed(self, node, error, failure) -> None:
        self._close(node)
        self._delegate("on_stage_failed", node, error, failure)


def _counting(items, measure, tracer: Tracer, counter: str):
    """Pass ``items`` through, adding ``measure(item)`` to ``counter``."""
    for item in items:
        tracer.count(counter, measure(item))
        yield item


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the per-layer metrics read."""
    # repro.simulation: compile, tile build, scan.
    tracer.timed(kernel, "shared_kernel", "kernel.compile")
    tracer.timed(numpy_backend, "numpy_kernel_for", "kernel.compile")
    tracer.timed(numpy_backend.FaultScanKernel, "__init__", "kernel.tile_build")
    tracer.timed(numpy_backend.FaultScanKernel, "maybe_prune", "kernel.tile_build")

    def scan_list(original):
        # (self, fault_list, ...): live faults at entry x patterns scanned.
        def wrapper(self, fault_list, *args, **kwargs):
            live = len(fault_list.undetected())
            with tracer.span("kernel.scan"):
                result = original(self, fault_list, *args, **kwargs)
            scanned = getattr(result, "patterns_simulated", None)
            if scanned is None:
                scanned = result.pairs_simulated
            tracer.count("kernel.fault_patterns", live * scanned)
            return result

        return wrapper

    def scan_shard(original):
        # (self, faults, blocks): live faults x patterns of each block drawn.
        def wrapper(self, faults, blocks):
            live = len(faults)
            counted = _counting(
                blocks, lambda item: live * item[1].num_patterns,
                tracer, "kernel.fault_patterns",
            )
            with tracer.span("kernel.scan"):
                return original(self, faults, counted)

        return wrapper

    tracer.patch(fault_sim.FaultSimulator, "simulate_blocks", scan_list)
    tracer.patch(fault_sim.FaultSimulator, "first_detections", scan_shard)
    tracer.patch(transition_sim.TransitionFaultSimulator, "simulate_pairs", scan_list)
    tracer.patch(transition_sim.TransitionFaultSimulator, "first_detections", scan_shard)

    # repro.bist: PRPG streaming (timed per block drawn) and MISR folds.
    def prpg(original):
        def wrapper(*args, **kwargs):
            blocks = original(*args, **kwargs)
            while True:
                with tracer.span("bist.prpg"):
                    block = next(blocks, None)
                if block is None:
                    return
                yield block

        return wrapper

    tracer.patch(stumps.StumpsArchitecture, "generate_packed_blocks", prpg)
    tracer.timed(stumps.StumpsDomain, "fold_responses", "bist.misr")

    # repro.atpg: PODEM, once per target.
    tracer.timed(podem.PodemAtpg, "generate", "atpg.podem")

    # repro.service: checkpoint writes (count, time, bytes on disk).
    files = {
        "save_spec": checkpoint.SPEC_FILE,
        "save_progress": checkpoint.PROGRESS_FILE,
        "save_report": checkpoint.REPORT_FILE,
        "save_lifecycle": checkpoint.STATE_FILE,
    }
    for method, filename in files.items():

        def make(original, filename=filename):
            def wrapper(store, job_id, *args, **kwargs):
                with tracer.span("service.checkpoint"):
                    value = original(store, job_id, *args, **kwargs)
                tracer.count("service.checkpoint_saves")
                tracer.count(
                    "service.checkpoint_bytes",
                    (store.job_dir(job_id) / filename).stat().st_size,
                )
                return value

            return wrapper

        tracer.patch(checkpoint.CheckpointStore, method, make)

    # repro.campaign.scheduler: schedule spans, stage spans, waits on
    # workers, parent-side pickled bytes.
    for cls in (scheduler.SerialScheduler, scheduler.PooledScheduler):

        def make(original, in_process=cls is scheduler.SerialScheduler):
            def wrapper(self, nodes, observer=None, **kwargs):
                workers = 1 if in_process else self.num_workers
                spy = TracingObserver(tracer, observer, in_process)
                with tracer.span("scheduler.run") as index:
                    run = original(self, nodes, observer=spy, **kwargs)
                tracer.schedules.append((index, run, workers))
                return run

            return wrapper

        tracer.patch(cls, "run", make)

    tracer.timed(multiprocessing.connection, "wait", "scheduler.wait_workers")

    def dumps(original):
        def wrapper(cls, *args, **kwargs):
            payload = original(*args, **kwargs)
            tracer.count("scheduler.ipc_bytes", len(payload))
            return payload

        return classmethod(wrapper)

    tracer.patch(ForkingPickler, "dumps", dumps)
