"""Sharded multi-process fault-simulation campaign runner.

The runner fans a fault-simulation campaign out across ``multiprocessing``
workers along the axes planned by :mod:`repro.campaign.sharding`:

* **fault shards** of the collapsed fault list (site-local keyed round-robin:
  faults sharing a fault site stay in one shard, so every site's fanout-cone
  plan is compiled by exactly one worker),
* **pattern shards** of the packed STUMPS block stream (contiguous runs),
* **signature shards**, one per clock domain (each domain's MISR only reads
  its own chains, so domains fold independently),
* and, at the top level, many **(core, LogicBistConfig) scenario pairs**
  whose stages all drain through one worker pool.

Since the stage-graph pipeline (:mod:`repro.campaign.pipeline`), scenario
*preparation* is pooled work too: :class:`CampaignRunner` builds one
multi-scenario stage DAG (scan prep -> TPI -> STUMPS/session -> fault-sim
fan-out -> signature fan-out -> report) and drains it through one
:class:`~repro.campaign.scheduler.PooledScheduler`, so scenario B's TPI
profiling -- itself a full fault simulation under ``tpi_method="fault_sim"``
-- runs while scenario A's shards are still in flight.  With
``num_workers <= 1`` the same DAG executes on the in-process
:class:`~repro.campaign.scheduler.SerialScheduler`, the deterministic
fallback and the bit-exactness oracle.

Results come back as per-fault first-detection indices and are min-merged by
:mod:`repro.campaign.results` -- a reduction that is independent of shard
order and worker count, which is what makes the merged coverage curves,
detection records and MISR signatures **bit-identical** to the serial
compiled-kernel path (``tests/campaign`` asserts the equivalence across
shard counts, block sizes, permuted shard assignments, worker counts and
both execution backends).

:func:`run_sharded_fault_sim` and :func:`run_sharded_transition_sim` are
single-phase drop-ins for the serial simulators.  They build the pipeline's
own shard stages (:func:`~repro.campaign.pipeline.shard_stage_nodes`) and
drain them through the same schedulers, so there is one shard-task path
and one worker pool.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence, Union

from ..core.config import LogicBistConfig
from ..faults.fault_list import FaultList
from ..faults.fault_sim import FaultSimShardState, FaultSimulationResult
from ..faults.models import StuckAtFault, TransitionFault
from ..faults.transition_sim import (
    TransitionSimShardState,
    TransitionSimulationResult,
)
from ..netlist.circuit import Circuit
from ..netlist.library import CellLibrary
from ..simulation.packed import DEFAULT_BLOCK_SIZE, PatternBlock, iter_blocks
from .results import (
    CampaignResult,
    ScenarioResult,
    ShardOutcome,
    build_simulation_result,
    merge_first_detections,
)
from .scheduler import make_scheduler
from .sharding import fault_site_keys, plan_grid

#: Blocks may be given bare or as (global pattern offset, block) pairs.
OffsetBlocks = Sequence[Union[PatternBlock, tuple[int, PatternBlock]]]


# --------------------------------------------------------------------- #
# Shard payloads and task records (everything here must pickle cleanly)
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class ShardPayload:
    """One scenario's shared shard inputs.

    ``state`` is the pickleable compiled-kernel shard state (circuit,
    observation nets, canonical fault ordering); ``blocks`` is the full
    ordered stream the tasks index into -- ``(offset, PatternBlock)`` pairs
    for stuck-at campaigns, ``(offset, launch, capture)`` triples for
    transition campaigns.
    """

    state: Union[FaultSimShardState, TransitionSimShardState]
    blocks: tuple


@dataclass(frozen=True)
class FaultShardTask:
    """One stuck-at shard: fault indices scanned over a block-index run."""

    scenario_key: str
    shard_id: int
    fault_indices: tuple[int, ...]
    block_indices: tuple[int, ...]

    #: Engine kind the task scans with.
    kind = "stuck"


@dataclass(frozen=True)
class TransitionShardTask:
    """One transition shard over aligned (launch, capture) block pairs."""

    scenario_key: str
    shard_id: int
    fault_indices: tuple[int, ...]
    block_indices: tuple[int, ...]

    kind = "transition"


ShardTask = Union[FaultShardTask, TransitionShardTask]


def run_shard_task(task: ShardTask, payload: ShardPayload) -> ShardOutcome:
    """Run one fault/transition shard scan against its payload.

    The single execution path of every shard stage: builds an engine for
    the task's shard state (on the process's shared kernel for that circuit,
    so its cone plans, site plans and fault table are reused) and scans the
    task's fault indices over its block run.
    """
    # The timer covers engine construction too: a worker's first task of a
    # circuit really pays kernel compilation, and the recorded per-shard
    # seconds must reflect that full cost.
    start = time.perf_counter()
    engine = payload.state.build_simulator()
    # The stuck-at engine counts its own gate evaluations; the transition
    # engine delegates them to its embedded stuck-at observability engine.
    counter = engine if task.kind == "stuck" else engine.stuck_engine
    indices = task.fault_indices
    faults = [payload.state.faults[index] for index in indices]
    blocks = [payload.blocks[index] for index in task.block_indices]
    evals_before = counter.gate_evals
    found = engine.first_detections(faults, blocks)
    seconds = time.perf_counter() - start
    return ShardOutcome(
        scenario_key=task.scenario_key,
        shard_id=task.shard_id,
        first_detections={indices[k]: pattern for k, pattern in found.items()},
        gate_evals=counter.gate_evals - evals_before,
        seconds=seconds,
    )


# --------------------------------------------------------------------- #
# Shard planning helpers
# --------------------------------------------------------------------- #
def plan_shard_tasks(
    task_cls,
    scenario_key: str,
    circuit: Circuit,
    faults: Sequence[object],
    num_blocks: int,
    fault_shards: int,
    pattern_shards: int,
) -> list[ShardTask]:
    """The one task-construction path shared by every campaign entry point."""
    return [
        task_cls(
            scenario_key=scenario_key,
            shard_id=shard_id,
            fault_indices=fault_group,
            block_indices=block_group,
        )
        for shard_id, (fault_group, block_group) in enumerate(
            plan_grid(
                len(faults),
                num_blocks,
                fault_shards,
                pattern_shards,
                fault_keys=fault_site_keys(circuit, faults),
            )
        )
    ]


def with_offsets(
    blocks: OffsetBlocks, pattern_offset: int
) -> list[tuple[int, PatternBlock]]:
    """Normalise a block stream to contiguous (global offset, block) pairs."""
    result: list[tuple[int, PatternBlock]] = []
    cursor = pattern_offset
    for entry in blocks:
        if isinstance(entry, tuple):
            offset, block = entry
            if offset != cursor:
                raise ValueError(
                    f"non-contiguous block stream: expected offset {cursor}, got {offset}"
                )
        else:
            block = entry
        result.append((cursor, block))
        cursor += block.num_patterns
    return result


def build_pair_blocks(
    circuit: Circuit,
    launch_patterns: Sequence[Mapping[str, int]],
    capture_patterns: Sequence[Mapping[str, int]],
    block_size: int,
    pattern_offset: int = 0,
) -> tuple[tuple[int, PatternBlock, PatternBlock], ...]:
    """Pack aligned launch/capture lists into (offset, launch, capture) triples.

    The assembly path of :func:`run_sharded_transition_sim`, whose callers
    hand in pattern lists.  The pipeline's
    :class:`~repro.campaign.pipeline.TransitionPrepStage` builds the same
    triples from packed blocks with
    :func:`~repro.faults.transition_sim.derive_pair_blocks`.
    """
    stimulus_nets = circuit.stimulus_nets()
    launch_blocks = iter_blocks(
        launch_patterns, block_size=block_size, nets=stimulus_nets
    )
    capture_blocks = iter_blocks(
        capture_patterns, block_size=block_size, nets=stimulus_nets
    )
    pair_blocks: list[tuple[int, PatternBlock, PatternBlock]] = []
    cursor = pattern_offset
    for launch_block, capture_block in zip(launch_blocks, capture_blocks):
        pair_blocks.append((cursor, launch_block, capture_block))
        cursor += launch_block.num_patterns
    return tuple(pair_blocks)


def undetected_of_kind(fault_list: FaultList, kind: type) -> tuple[tuple, tuple]:
    """``(positions, faults)`` of the list's undetected faults of ``kind``:
    a shard state's canonical order and where the merge marks it."""
    positions = fault_list.undetected_positions()
    pairs = [
        (position, fault)
        for position, fault in zip(positions, fault_list.faults_at(positions))
        if isinstance(fault, kind)
    ]
    return tuple(p for p, _ in pairs), tuple(f for _, f in pairs)


def _boundaries(offset_blocks: Sequence[tuple[int, PatternBlock]]) -> list[int]:
    """Cumulative pattern counts after each block (serial curve sample points)."""
    boundaries: list[int] = []
    cumulative = 0
    for _, block in offset_blocks:
        cumulative += block.num_patterns
        boundaries.append(cumulative)
    return boundaries


# --------------------------------------------------------------------- #
# Drop-in sharded fault simulation (single-phase fan-out)
# --------------------------------------------------------------------- #
def _run_shards(
    task_cls,
    state: Union[FaultSimShardState, TransitionSimShardState],
    blocks: tuple,
    scenario_key: str,
    num_workers: int,
    fault_shards: Optional[int],
    pattern_shards: int,
    mp_context,
) -> dict[int, int]:
    """Drain one scenario's shard stages and min-merge their detections.

    The nodes are the pipeline's own shard stages; they run on the serial
    walk (``num_workers <= 1``) or the resilient worker pool.
    """
    from .pipeline import shard_stage_nodes

    nodes = shard_stage_nodes(
        task_cls,
        scenario_key,
        state,
        blocks,
        fault_shards if fault_shards is not None else max(1, num_workers),
        pattern_shards,
        prefix=scenario_key,
    )
    run = make_scheduler(num_workers, mp_context=mp_context).run(nodes)
    return merge_first_detections(run.value(node.key) for node in nodes)


def run_sharded_fault_sim(
    circuit: Circuit,
    fault_list: FaultList,
    blocks: OffsetBlocks,
    observe_nets: Optional[Sequence[str]] = None,
    num_workers: int = 1,
    fault_shards: Optional[int] = None,
    pattern_shards: int = 1,
    pattern_offset: int = 0,
    mp_context=None,
    scenario_key: str = "fault-sim",
    sim_backend: str = "python",
    sim_memory_budget_mb: Optional[float] = None,
) -> FaultSimulationResult:
    """Sharded drop-in for :meth:`FaultSimulator.simulate_blocks`.

    Shards the undetected stuck-at faults of ``fault_list`` (site-local
    round-robin) and optionally the pattern blocks (contiguous runs) across
    ``num_workers`` processes, then min-merges the per-shard first
    detections.  The returned :class:`FaultSimulationResult` -- statuses,
    first-detection indices, coverage curve, per-pattern detection credits
    -- is bit-identical to the serial engine's (fault dropping enabled).
    ``sim_backend`` selects the execution backend every shard worker
    compiles ("python" or "numpy"); merged results are backend-invariant.
    ``sim_memory_budget_mb`` bounds each worker's peak numpy fault-scan
    memory (carried in the shard states, so it survives pickling into the
    pool); results are budget-invariant.
    """
    offset_blocks = with_offsets(blocks, pattern_offset)
    positions, faults = undetected_of_kind(fault_list, StuckAtFault)
    state = FaultSimShardState(
        circuit=circuit,
        observe_nets=tuple(
            observe_nets if observe_nets is not None else circuit.observation_nets()
        ),
        faults=faults,
        sim_backend=sim_backend,
        sim_memory_budget_mb=sim_memory_budget_mb,
    )
    merged = _run_shards(
        FaultShardTask,
        state,
        tuple(offset_blocks),
        scenario_key,
        num_workers,
        fault_shards,
        pattern_shards,
        mp_context,
    )
    return build_simulation_result(
        fault_list,
        positions,
        merged,
        _boundaries(offset_blocks),
        pattern_offset=pattern_offset,
    )


def run_sharded_transition_sim(
    circuit: Circuit,
    fault_list: FaultList,
    launch_patterns: Sequence[Mapping[str, int]],
    capture_patterns: Sequence[Mapping[str, int]],
    observe_nets: Optional[Sequence[str]] = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
    num_workers: int = 1,
    fault_shards: Optional[int] = None,
    pattern_shards: int = 1,
    pattern_offset: int = 0,
    mp_context=None,
    scenario_key: str = "transition-sim",
    sim_backend: str = "python",
    sim_memory_budget_mb: Optional[float] = None,
) -> TransitionSimulationResult:
    """Sharded drop-in for :meth:`TransitionFaultSimulator.simulate_pairs`."""
    if len(launch_patterns) != len(capture_patterns):
        raise ValueError("launch and capture pattern lists must have equal length")
    pair_blocks = build_pair_blocks(
        circuit, launch_patterns, capture_patterns, block_size, pattern_offset
    )
    positions, faults = undetected_of_kind(fault_list, TransitionFault)
    state = TransitionSimShardState(
        circuit=circuit,
        observe_nets=tuple(
            observe_nets if observe_nets is not None else circuit.observation_nets()
        ),
        faults=faults,
        sim_backend=sim_backend,
        sim_memory_budget_mb=sim_memory_budget_mb,
    )
    merged = _run_shards(
        TransitionShardTask,
        state,
        pair_blocks,
        scenario_key,
        num_workers,
        fault_shards,
        pattern_shards,
        mp_context,
    )
    boundaries = _boundaries([(offset, launch) for offset, launch, _ in pair_blocks])
    sim_result = build_simulation_result(
        fault_list, positions, merged, boundaries, pattern_offset=pattern_offset
    )
    return TransitionSimulationResult(
        fault_list,
        pairs_simulated=len(launch_patterns),
        coverage_curve=sim_result.coverage_curve,
    )


# --------------------------------------------------------------------- #
# Multi-scenario campaigns
# --------------------------------------------------------------------- #
@dataclass
class CampaignScenario:
    """One (core, config) pair of a campaign.

    ``circuit`` is the raw IP-core netlist; the pipeline performs the same
    BIST-ready preparation the flow does (scan insertion, test-point
    insertion, per-domain STUMPS, chain-flush credit) before
    fault-simulating the random-pattern session.
    """

    name: str
    circuit: Circuit
    config: LogicBistConfig = field(default_factory=LogicBistConfig)


class CampaignRunner:
    """Fans many (core, config) scenarios out over one worker pool.

    Each scenario becomes a stage subgraph (scan prep -> TPI -> STUMPS +
    session -> fault-sim shard fan-out -> signature fan-out -> report); the
    subgraphs concatenate into one multi-scenario DAG that a single
    :class:`~repro.campaign.scheduler.PooledScheduler` drains, so *all*
    work -- preparation included -- keeps every worker busy even while
    small scenarios finish early.  Only the shard planning and the
    order-independent merges stay in the parent, which is what drops the
    serial (Amdahl) fraction of a TPI-heavy campaign to the few percent
    ``benchmarks/bench_pipeline.py`` records.

    With ``num_workers <= 1`` the identical DAG runs on the in-process
    :class:`~repro.campaign.scheduler.SerialScheduler` -- the deterministic
    fallback and the bit-exactness oracle.

    Fault tolerance: ``retry_policy`` (default: the scenarios' config
    ``retry``, else single-attempt) grants stages retries with
    deterministic backoff, plus soft timeouts and worker-crash recovery in
    the pooled schedule.  With ``degrade=True`` (the default), a stage that
    exhausts its attempts quarantines only its scenario -- siblings finish,
    and the returned :class:`~repro.campaign.results.CampaignResult` is
    *partial*: the failed scenario moves from ``scenarios`` into the
    canonical ``failures`` section.  ``degrade=False`` restores
    fail-the-whole-campaign semantics.  ``chaos`` threads a
    :class:`~repro.campaign.chaos.ChaosPlan` through the scheduler (test /
    drill support).
    """

    def __init__(
        self,
        num_workers: int = 1,
        fault_shards: Optional[int] = None,
        pattern_shards: int = 1,
        mp_context=None,
        retry_policy=None,
        chaos=None,
        degrade: bool = True,
    ) -> None:
        self.num_workers = num_workers
        self.fault_shards = fault_shards if fault_shards is not None else max(1, num_workers)
        self.pattern_shards = pattern_shards
        self.mp_context = mp_context
        self.retry_policy = retry_policy
        self.chaos = chaos
        self.degrade = degrade
        self.library = CellLibrary()
        #: The last campaign's stage trace, as a trace-only
        #: :class:`~repro.campaign.scheduler.PipelineRun` (no artifact
        #: store) -- timing and resilience diagnostics (``trace``,
        #: ``retries``, ``failures``, ``cancelled``) only, never part of
        #: the canonical report.
        self.last_run = None

    # ------------------------------------------------------------------ #
    def run(
        self, scenarios: Iterable[CampaignScenario], cancel_token=None
    ) -> CampaignResult:
        """Run every scenario's random-pattern fault-sim + signature session.

        ``cancel_token`` (a :class:`~repro.campaign.scheduler.CancelToken`)
        stops the schedule cooperatively at the next stage boundary:
        :class:`~repro.campaign.scheduler.ScheduleCancelled` propagates to
        the caller carrying the half-finished run.  The service tier layers
        checkpointing on top; here the token is the raw mechanism (and the
        clean-run overhead probe ``benchmarks/bench_resilience.py`` arms).

        Scenarios whose config sets ``campaign_topup=True`` additionally run
        the deterministic ATPG top-up phase: PODEM target shards fan out
        through the same pool as everything else (site-local keyed
        round-robin, the PR-2 partitioning), and a deterministic screen /
        compact replay merges the cubes -- the scenario's reported coverage
        and first detections then include the top-up patterns (indices >=
        :data:`repro.atpg.topup.TOPUP_PATTERN_BASE`), byte-identical to the
        serial walk at any worker count.

        Scenarios whose config sets ``measure_transition_coverage`` run the
        launch-on-capture transition fan-out and their canonical report
        gains a ``transition`` section; ``skew_trials > 0`` adds the sharded
        Fig. 3 Monte-Carlo skew sweep as a ``skew`` section.  Both are
        sharded through the same pool and byte-identical to the serial walk
        at any worker/shard count.
        """
        from .pipeline import scenario_stage_nodes
        from .results import FAILURES_KEY, canonical_failure, sort_failures

        start = time.perf_counter()
        scenarios = list(scenarios)
        names = [scenario.name for scenario in scenarios]
        duplicates = sorted({name for name in names if names.count(name) > 1})
        if duplicates:
            raise ValueError(
                f"duplicate scenario names {duplicates!r}: results are keyed "
                "by name, so every scenario needs a distinct one"
            )
        if FAILURES_KEY in names:
            raise ValueError(
                f"scenario name {FAILURES_KEY!r} is reserved for the "
                "canonical report's failure section"
            )
        nodes = []
        scenario_keys: list[str] = []
        report_keys: dict[str, str] = {}
        for index, scenario in enumerate(scenarios):
            key = f"s{index}:{scenario.name}"
            scenario_keys.append(key)
            scenario_nodes, artifact_keys = scenario_stage_nodes(
                key,
                scenario.circuit,
                scenario.config,
                library=self.library,
                scenario_name=scenario.name,
                fault_shards=self.fault_shards,
                pattern_shards=self.pattern_shards,
                num_workers=self.num_workers,
                include_topup=scenario.config.campaign_topup,
                include_transition=scenario.config.measure_transition_coverage,
                include_skew=scenario.config.skew_trials > 0,
                include_report=True,
            )
            nodes.extend(scenario_nodes)
            report_keys[scenario.name] = artifact_keys["report"]

        retry_policy = self.retry_policy
        if retry_policy is None:
            # Scenario configs share one scheduler; the first explicit
            # per-config policy governs the whole campaign.
            retry_policy = next(
                (s.config.retry for s in scenarios if s.config.retry is not None),
                None,
            )
        scheduler = make_scheduler(
            self.num_workers,
            mp_context=self.mp_context,
            retry_policy=retry_policy,
            chaos=self.chaos,
            degrade=self.degrade,
        )
        pipeline_run = scheduler.run(nodes, cancel_token=cancel_token)
        # Keep the trace (the Amdahl/benchmark diagnostics), drop the
        # artifact store: it holds every scenario's packed session.
        self.last_run = pipeline_run.trace_only()

        key_by_name = dict(zip(names, scenario_keys))
        failures: dict[str, list[dict]] = {}
        for failure in pipeline_run.failures:
            records = failures.setdefault(failure.scenario, [])
            records.append(
                canonical_failure(failure, key_by_name[failure.scenario])
            )
        failures = {name: sort_failures(records) for name, records in failures.items()}
        results: dict[str, ScenarioResult] = {
            name: pipeline_run.value(key)
            for name, key in report_keys.items()
            if name not in failures
        }
        return CampaignResult(
            scenarios=results,
            failures=failures,
            num_workers=self.num_workers,
            seconds=time.perf_counter() - start,
        )
