"""The benchmark's three workloads: inputs from a seed, one timed operation,
and the output check against the serial python-backend oracle.

Each workload object is built once per process (inputs generated from the
seed) and then runs :meth:`operation` repeatedly.  An operation returns an
:class:`Op`: the timings a user sees, what the traced run needs, and a list
of problems found while checking its outputs (empty when correct).
:meth:`check_against_oracle` runs the oracle once and adds any mismatch to
the problems of each operation.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
import os
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.campaign import CampaignRunner, CampaignScenario
from repro.core import (
    LogicBistConfig,
    LogicBistFlow,
    build_table1_report,
    coverage_shape_checks,
)
from repro.cores import core_x_recipe, core_y_recipe
from repro.cores.generator import SyntheticCoreConfig, generate_synthetic_core
from repro.service import CampaignService
from repro.service.events import (
    EventReassembler,
    JobFinished,
    JobStarted,
    ScenarioCompleted,
    report_checksum,
)

#: Shape checks ``bench_table1`` asserts at this scale.
TABLE1_SHAPE_CHECKS = (
    "random_coverage_below_final",
    "one_prpg_misr_pair_per_domain",
    "at_speed_schedule_valid",
    "topup_is_small_fraction",
    "topup_gain_same_order_as_paper",
)


def cpus_available() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass
class Op:
    """One timed operation and what was observed around it."""

    wall_s: float
    first_scenario_s: float
    #: Service workload: latency of the first and of the resubmitted job.
    #: ``None`` for the flows, whose every run is cold.
    cold_s: Optional[float] = None
    warm_s: Optional[float] = None
    #: Which of the workload's input variants the operation ran.
    variant: int = 0
    #: Factor from this operation's wall times to reference-host seconds
    #: (set by the measuring loop).
    time_scale: float = 1.0
    problems: list[str] = field(default_factory=list)
    fingerprint: object = None
    #: Flow workloads: the top-up result (per-layer ATPG counters).
    topup: object = None
    #: Service workload: per-job client-side timestamps and events.
    jobs: list[dict] = field(default_factory=list)
    prep_cache: dict = field(default_factory=dict)
    #: Traced run only: per-layer numbers and spans of this operation.
    layer_row: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)


def typical(ops: list[Op], value) -> float:
    """``value(op)`` over a run's operations: the median over the operations
    of each input variant, averaged over the variants (so a run weighs every
    variant alike, however many operations each got)."""
    by_variant: dict[int, list[float]] = {}
    for op in ops:
        by_variant.setdefault(op.variant, []).append(value(op))
    return statistics.fmean(statistics.median(values) for values in by_variant.values())


def flow_config(recipe, seed: int, **overrides) -> LogicBistConfig:
    """``bench_table1``'s Table-1 config for ``recipe`` with ``bist_seed=seed``."""
    return LogicBistConfig(
        total_scan_chains=recipe.total_scan_chains,
        observation_point_budget=recipe.observation_point_budget,
        tpi_profile_patterns=recipe.tpi_profile_patterns,
        prpg_length=recipe.prpg_length,
        clock_frequencies_mhz=recipe.clock_frequencies_mhz,
        signature_patterns=32,
        bist_seed=seed,
        **overrides,
    )


def flow_fingerprint(recipe, result) -> dict:
    """Everything a flow reports except its timings, in comparable form."""
    table = build_table1_report(result, recipe.paper_reference).as_dict()
    table.pop("CPU Time")
    faults = hashlib.sha256()
    for fault in result.fault_list:
        record = result.fault_list.record(fault)
        faults.update(f"{fault}|{record.status.name}|{record.first_detection}\n".encode())
    topup = result.topup
    transition = result.transition
    return {
        "table1": {key: str(value) for key, value in table.items()},
        "signatures": sorted(result.signatures.items()),
        "coverage_curve": [list(point) for point in result.coverage_curve],
        "faults": faults.hexdigest(),
        "topup": [
            topup.attempted_faults,
            topup.successful_faults,
            topup.untestable_faults,
            topup.aborted_faults,
            topup.backtracks,
            json.dumps(topup.patterns, sort_keys=True),
        ],
        "transition": None
        if transition is None
        else [
            transition.coverage,
            transition.total_faults,
            transition.detected,
            transition.patterns_simulated,
            [list(point) for point in transition.coverage_curve],
            sorted(transition.first_detections.items()),
        ],
        "skew": None if result.skew_sweep is None else result.skew_sweep.canonical_dict(),
    }


class FlowWorkload:
    """A :class:`LogicBistFlow` run on one generated core.

    Every operation runs the flow on the same circuit, with one of the
    workload's configs (its input variants).  The single scenario's result
    arrives when ``run`` returns, so ``first_scenario_s`` is the run itself.
    The flow is single-threaded: it keeps one CPU busy.
    """

    name = ""
    busy_cpus = 1

    def __init__(self, recipe, configs: list[LogicBistConfig]) -> None:
        self.recipe = recipe
        self.configs = configs
        self.variants = len(configs)
        self.circuit = recipe.build().circuit

    def operation(self, variant: int = 0) -> Op:
        start = time.perf_counter()
        result = LogicBistFlow(self.configs[variant]).run(self.circuit, core_name=self.recipe.name)
        wall = time.perf_counter() - start
        op = Op(wall, wall, variant=variant, topup=result.topup)
        op.fingerprint = flow_fingerprint(self.recipe, result)
        op.problems = self.shape_problems(result)
        return op

    def shape_problems(self, result) -> list[str]:
        return []

    def setup(self) -> None:
        """Nothing beyond imports and core generation."""

    def oracle_fingerprint(self, variant: int, ops: list[Op]):
        """The serial python-backend result for this seed and variant."""
        raise NotImplementedError

    def check_against_oracle(self, ops: list[Op]) -> None:
        for variant in range(self.variants):
            of_variant = [op for op in ops if op.variant == variant]
            if not of_variant:
                continue
            expected = self.oracle_fingerprint(variant, of_variant)
            for op in of_variant:
                op.problems += [
                    f"{key} differs from the oracle"
                    for key, value in expected.items()
                    if op.fingerprint[key] != value
                ]


class Table1CoreX(FlowWorkload):
    """The paper's Table-1 column for Core X, as a user runs it.

    The seed sets ``bist_seed`` (PRPG seeds and phase shifters); the core
    itself is the Table-1 Core X at its recipe seed.  Other generator seeds
    change the population of hard faults and swing top-up ATPG time by 2x,
    which no benchmark bound could absorb.  Even ``bist_seed`` moves the
    top-up work by +-10% (3900 to 4500 backtracks), so the operations of a
    run cycle through three variants, ``bist_seed`` 3S, 3S+1 and 3S+2, and
    the run reports their mean.
    """

    name = "table1_core_x"

    def __init__(self, seed: int, scratch: str) -> None:
        recipe = core_x_recipe()
        super().__init__(
            recipe,
            [
                flow_config(recipe, 3 * seed + k, random_patterns=1024, topup_backtrack_limit=60)
                for k in range(3)
            ],
        )

    def shape_problems(self, result) -> list[str]:
        checks = coverage_shape_checks(result, self.recipe.paper_reference)
        return [f"shape check {name} failed" for name in TABLE1_SHAPE_CHECKS if not checks[name]]

    def oracle_fingerprint(self, variant: int, ops: list[Op]):
        # This workload *is* the oracle configuration (python backend,
        # serial scheduler), so the oracle is its first run of the variant:
        # every later run in the process must reproduce it exactly.
        return ops[0].fingerprint


class CoreYAtSpeed(FlowWorkload):
    """Core Y's eight-domain at-speed flow on the numpy kernels."""

    name = "core_y_at_speed"

    def __init__(self, seed: int, scratch: str) -> None:
        recipe = core_y_recipe(scale=2, seed=seed)
        super().__init__(
            recipe,
            [
                flow_config(
                    recipe,
                    seed,
                    sim_backend="numpy",
                    block_size=1024,
                    random_patterns=4096,
                    measure_transition_coverage=True,
                    transition_patterns=1024,
                    skew_trials=1000,
                    topup_max_faults=0,
                )
            ],
        )

    def oracle_fingerprint(self, variant: int, ops: list[Op]):
        config = dataclasses.replace(self.configs[variant], sim_backend="python")
        oracle = LogicBistFlow(config).run(self.recipe.build().circuit, core_name=self.recipe.name)
        return flow_fingerprint(self.recipe, oracle)


def pipeline_scenarios(seed: int) -> list[CampaignScenario]:
    """``bench_pipeline``'s four TPI-heavy two-domain scenarios, with
    transition coverage and a 500-trial skew sweep; fresh circuits."""
    scenarios = []
    for index in range(4):
        core = generate_synthetic_core(
            SyntheticCoreConfig(
                name=f"tpi_heavy_{index}",
                clock_domains=("clk1", "clk2"),
                num_inputs=10,
                num_outputs=6,
                register_width=8,
                pipeline_stages=2,
                adder_slices=2,
                adder_width=6,
                comparator_widths=(8,),
                decode_cone_width=6,
                cross_domain_links=2,
                seed=600 + 4 * seed + index,
            )
        )
        config = LogicBistConfig(
            total_scan_chains=4,
            tpi_method="fault_sim",
            observation_point_budget=6,
            tpi_profile_patterns=256,
            random_patterns=512,
            signature_patterns=32,
            block_size=64,
            measure_transition_coverage=True,
            skew_trials=500,
            bist_seed=seed,
        )
        scenarios.append(CampaignScenario(f"scenario_{index}", core.circuit, config))
    return scenarios


class ServiceCampaign:
    """One closed-loop asyncio client against a :class:`CampaignService`.

    An operation starts a fresh service (checkpointing into a scratch
    directory), submits the four scenarios, consumes the whole event stream,
    then resubmits the identical scenario objects -- the second job finds
    the scan-inserted, TPI-profiled cores in the service's prep cache.  The
    pool keeps every CPU busy.
    """

    name = "service_campaign"
    variants = 1

    def __init__(self, seed: int, scratch: str) -> None:
        self.seed = seed
        self.scratch = scratch
        self.workers = cpus_available()
        self.busy_cpus = self.workers

    async def start_service(self, directory: str) -> CampaignService:
        service = CampaignService(num_workers=self.workers, checkpoint_dir=directory)
        await service.start()
        return service

    async def _job(self, service: CampaignService, scenarios) -> dict:
        submit = time.perf_counter()
        job_id = await service.submit(scenarios)
        job = {"submit": submit, "events": []}
        async for event in service.stream(job_id):
            now = time.perf_counter()
            job["events"].append(event)
            if isinstance(event, JobStarted):
                job.setdefault("started", now)
            elif isinstance(event, ScenarioCompleted):
                job.setdefault("first_scenario", now)
        record = await service.wait(job_id)
        job["end"] = time.perf_counter()
        job["state"] = record.state
        job["report"] = service.report_bytes(job_id)
        return job

    async def _operation(self) -> Op:
        scenarios = pipeline_scenarios(self.seed)
        with tempfile.TemporaryDirectory(dir=self.scratch) as directory:
            service = await self.start_service(directory)
            try:
                cold = await self._job(service, scenarios)
                warm = await self._job(service, scenarios)
                prep_cache = service.status()["prep_cache"]
            finally:
                await service.stop()
        op = Op(
            wall_s=warm["end"] - cold["submit"],
            # Latency of the first streamed scenario result, both jobs.
            first_scenario_s=sum(
                job.get("first_scenario", job["end"]) - job["submit"] for job in (cold, warm)
            ) / 2,
            cold_s=cold["end"] - cold["submit"],
            warm_s=warm["end"] - warm["submit"],
            jobs=[cold, warm],
            prep_cache=prep_cache,
        )
        for label, job in (("cold", cold), ("warm", warm)):
            if job["state"] != "finished":
                op.problems.append(f"{label} job ended {job['state']}")
                continue
            rebuilt = EventReassembler().feed_all(job["events"]).report_bytes()
            if rebuilt != job["report"]:
                op.problems.append(f"{label} job: event stream does not rebuild the report")
            finished = [event for event in job["events"] if isinstance(event, JobFinished)]
            job["checksum"] = finished[-1].checksum if finished else None
            if job["checksum"] != report_checksum(job["report"]):
                op.problems.append(f"{label} job: JobFinished checksum is not the report's")
        return op

    def operation(self, variant: int = 0) -> Op:
        return asyncio.run(self._operation())

    def check_against_oracle(self, ops: list[Op]) -> None:
        expected = report_checksum(
            CampaignRunner(num_workers=1).run(pipeline_scenarios(self.seed)).report_bytes()
        )
        for op in ops:
            op.problems += [
                f"job {number} checksum differs from the serial oracle"
                for number, job in enumerate(op.jobs, start=1)
                if job.get("checksum") != expected
            ]

    def setup(self) -> None:
        """Generate the scenarios, start and stop one service: the set-up a
        user pays once."""
        pipeline_scenarios(self.seed)

        async def cycle() -> None:
            with tempfile.TemporaryDirectory(dir=self.scratch) as directory:
                service = await self.start_service(directory)
                await service.stop()

        asyncio.run(cycle())


WORKLOADS = {
    Table1CoreX.name: Table1CoreX,
    CoreYAtSpeed.name: CoreYAtSpeed,
    ServiceCampaign.name: ServiceCampaign,
}
