"""Per-layer metrics of the traced run.

Each traced operation is reduced to one row of per-layer numbers, read from
the tracer's spans and counters, from the :class:`PipelineRun` of every
schedule (the public phase and category traces) and from what the client
saw.  The reported value of each metric is its typical value over the
traced operations (:func:`workloads.typical`: per-variant medians, averaged).
"""

from __future__ import annotations

from tracer import WORKER_TRACK, Tracer, install
from workloads import typical

from repro.campaign.pipeline import PHASE_ORDER
from repro.campaign.scheduler import CATEGORY_CONTROL, CATEGORY_PREP, CATEGORY_SIM

#: Per-layer metric -> unit, in report order.
PER_LAYER_UNITS = {
    "kernel.compile_s": "s",
    "kernel.tile_build_s": "s",
    "kernel.scan_s": "s",
    "kernel.fault_patterns_per_s": "1/s",
    "bist.prpg_s": "s",
    "bist.misr_s": "s",
    "atpg.podem_s": "s",
    "atpg.targets": "count",
    "atpg.aborted": "count",
    "atpg.backtracks": "count",
    "atpg.detect_ratio": "ratio",
    **{f"stage.{phase}_s": "s" for phase in PHASE_ORDER},
    **{f"stage.{category}_s": "s" for category in (CATEGORY_PREP, CATEGORY_SIM, CATEGORY_CONTROL)},
    "timing.skew_trials_s": "s",
    "scheduler.run_s": "s",
    "scheduler.stages": "count",
    "scheduler.stage_compute_s": "s",
    "scheduler.parallel_efficiency": "ratio",
    "scheduler.idle_s": "s",
    "scheduler.ipc_bytes": "bytes",
    "scheduler.retries": "count",
    "service.queue_wait_s": "s",
    "service.events": "count",
    "service.checkpoint_saves": "count",
    "service.checkpoint_s": "s",
    "service.checkpoint_bytes": "bytes",
    "service.prep_cache_hit_ratio": "ratio",
    "service.self_s": "s",
    "trace.overhead_fraction": "ratio",
    "trace.residual_fraction": "ratio",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def operation_row(tracer: Tracer, op) -> dict:
    """Per-layer numbers of one traced operation."""
    own = tracer.self_seconds()
    counters = tracer.counters
    row = {
        "kernel.compile_s": tracer.total("kernel.compile", own),
        "kernel.tile_build_s": tracer.total("kernel.tile_build", own),
        "kernel.scan_s": tracer.total("kernel.scan", own),
        "bist.prpg_s": tracer.total("bist.prpg", own),
        "bist.misr_s": tracer.total("bist.misr", own),
        "atpg.podem_s": tracer.total("atpg.podem", own),
        "timing.skew_trials_s": counters["timing.skew_trials_s"],
        "scheduler.ipc_bytes": counters["scheduler.ipc_bytes"],
        "service.checkpoint_saves": counters["service.checkpoint_saves"],
        "service.checkpoint_s": tracer.total("service.checkpoint"),
        "service.checkpoint_bytes": counters["service.checkpoint_bytes"],
    }
    row["kernel.fault_patterns_per_s"] = _ratio(
        counters["kernel.fault_patterns"], row["kernel.scan_s"]
    )

    topup = op.topup
    row["atpg.targets"] = topup.attempted_faults if topup else 0
    row["atpg.aborted"] = topup.aborted_faults if topup else 0
    row["atpg.backtracks"] = topup.backtracks if topup else 0
    row["atpg.detect_ratio"] = (
        _ratio(topup.successful_faults, topup.attempted_faults) if topup else 0.0
    )

    # Stages and scheduler, from every schedule the operation ran.
    phases: dict[str, float] = {}
    categories: dict[str, float] = {}
    run_s = capacity = compute = 0.0
    stages = retries = 0
    for index, run, workers in tracer.schedules:
        for key, seconds in run.seconds_by_phase().items():
            phases[key] = phases.get(key, 0.0) + seconds
        for key, seconds in run.seconds_by_category().items():
            categories[key] = categories.get(key, 0.0) + seconds
        span_s = tracer.spans[index].seconds
        run_s += span_s
        capacity += span_s * workers
        compute += sum(record.seconds for record in run.trace)
        stages += len(run.trace)
        retries += len(run.retries)
    for phase in PHASE_ORDER:
        row[f"stage.{phase}_s"] = phases.get(phase, 0.0)
    for category in (CATEGORY_PREP, CATEGORY_SIM, CATEGORY_CONTROL):
        row[f"stage.{category}_s"] = categories.get(category, 0.0)
    row.update({
        "scheduler.run_s": run_s,
        "scheduler.stages": stages,
        "scheduler.stage_compute_s": compute,
        "scheduler.parallel_efficiency": _ratio(compute, capacity),
        "scheduler.idle_s": capacity - compute,
        "scheduler.retries": retries,
    })

    # Service, from the client's view of each job.
    jobs = op.jobs
    latency = sum(job["end"] - job["submit"] for job in jobs)
    hits = op.prep_cache.get("hits", 0)
    lookups = hits + op.prep_cache.get("misses", 0)
    row.update({
        "service.queue_wait_s": sum(job["started"] - job["submit"] for job in jobs),
        "service.events": sum(len(job["events"]) for job in jobs),
        "service.prep_cache_hit_ratio": _ratio(hits, lookups),
        "service.self_s": latency - run_s if jobs else 0.0,
    })

    # Additivity: the parent-side layers should add back up to the wall.
    parent_stages = sum(
        span.seconds
        for span in tracer.spans
        if span.name.startswith("stage.") and span.thread != WORKER_TRACK
    )
    accounted = (
        row["service.self_s"]
        + tracer.total("service.observer")
        + parent_stages
        + tracer.total("scheduler.wait_workers")
    )
    row["trace.residual_fraction"] = _ratio(op.wall_s - accounted, op.wall_s)
    return row


class TracedOperation:
    """``operation`` with every layer wrapped while it runs.

    The wrappers are installed for the call only, so untraced operations in
    between run the program unchanged.  Each traced result carries its
    per-layer row (``layer_row``) and its spans (``spans``).
    """

    def __init__(self, operation) -> None:
        self.operation = operation
        self.tracer = Tracer()

    def __call__(self, variant: int = 0):
        tracer = self.tracer
        tracer.reset()
        install(tracer)
        try:
            with tracer.span("operation"):
                op = self.operation(variant)
        finally:
            tracer.restore()
        op.layer_row = operation_row(tracer, op)
        op.spans = tracer.reset()
        return op


def _on_reference_host(name: str, value: float, op) -> float:
    """A per-layer value in reference-host units, like the end-to-end ones."""
    unit = PER_LAYER_UNITS[name]
    if unit == "s":
        return value * op.time_scale
    if unit == "1/s":
        return value / op.time_scale
    return value


def summary(traced_ops, untraced_wall: float) -> dict:
    """Every per-layer metric over the traced operations.

    ``untraced_wall`` is the untraced ``wall_s`` on the reference host, like
    the traced walls it is compared with.
    """
    metrics = {
        name: typical(
            traced_ops, lambda op, name=name: _on_reference_host(name, op.layer_row[name], op)
        )
        for name in PER_LAYER_UNITS
        if name != "trace.overhead_fraction"
    }
    traced_wall = typical(traced_ops, lambda op: op.wall_s * op.time_scale)
    metrics["trace.overhead_fraction"] = traced_wall / untraced_wall - 1.0
    return {name: metrics[name] for name in PER_LAYER_UNITS}


def sanity_lines(metrics: dict) -> list[str]:
    """The trace against the ROADMAP baseline findings it should reproduce."""
    lines = []
    kernel = sum(metrics[f"kernel.{part}_s"] for part in ("compile", "tile_build", "scan"))
    if metrics["kernel.tile_build_s"] > 0:
        lines.append(
            f"sanity: tile build is {metrics['kernel.tile_build_s'] / kernel:.0%} of numpy "
            "kernel time (baseline: a large share)"
        )
    if metrics["service.events"] > 0:
        lines.append(
            f"sanity: parallel efficiency {metrics['scheduler.parallel_efficiency']:.2f} "
            "(baseline: below 0.5 at 2 workers)"
        )
    lines.append(
        f"sanity: {metrics['trace.residual_fraction']:.1%} of wall time is outside "
        "every parent-side layer (bar: 10%)"
    )
    return lines
