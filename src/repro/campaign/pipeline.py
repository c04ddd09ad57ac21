"""Typed stage tasks + graph builder for the BIST scenario pipeline.

The paper's flow is a fixed sequence of phases: scan prep -> test-point
insertion -> STUMPS/PRPG session -> fault simulation -> MISR signature ->
ATPG top-up -> transition test -> report.  This module expresses that
sequence as an explicit **stage graph**: each phase is a small pickleable
task object, each data hand-off a declared dependency, and
:func:`scenario_stage_nodes` wires one scenario's phases into
:class:`~repro.campaign.scheduler.StageNode` records that either scheduler
(serial walk or worker pool) can execute.

Two properties carry the whole design:

* **One code path.**  Every stage body calls the same module-level flow
  helpers (:func:`~repro.core.flow.insert_test_points`,
  :func:`~repro.core.flow.derive_signature_responses`, ...) the serial flow
  always used, so the serial walk *is* the oracle and the pooled schedule
  cannot drift from it.
* **Fan-out is just expansion.**  The shard planners of
  :mod:`repro.campaign.sharding` become the fan-out rule of
  :class:`FaultSimStage` / :class:`TransitionStage`: once a scenario's fault
  list and pattern blocks exist, a local expander splices one shard node per
  grid cell plus an order-independent merge node into the graph.  Pooled
  preparation and pooled simulation therefore drain through the *same* pool
  -- scenario B's TPI profiling (itself a full fault simulation under
  ``tpi_method="fault_sim"``) runs while scenario A's shards are in flight,
  which removes the serial-preparation Amdahl cap of the pre-pipeline
  campaign runner.

Every shard of either fault model is one :class:`ShardScanStage`, built by
:func:`shard_stage_nodes`: a shard state (stuck-at or transition), the
shard's fault indices and its own contiguous run of ``(global offset, ...)``
blocks.  It is the only shard-execution path; sharded simulation outside a
scenario drains the same nodes through
:func:`~repro.campaign.scheduler.make_scheduler`.

Stage tasks ship their scenario's ``LogicBistConfig`` and read everything
else from their inputs; ``sim_backend`` and the memory budget ride inside
the shard states, so they survive pickling into pool workers.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass
from typing import Optional, Union

from ..atpg.podem import AtpgResult
from ..atpg.topup import TopUpAtpg, TopUpResult
from ..bist.input_selector import InputSelector, InputSource
from ..bist.stumps import StumpsArchitecture
from ..core.bist_ready import BistReadyCore, prepare_scan_core
from ..core.config import LogicBistConfig
from ..core.flow import (
    build_clock_tree,
    build_shift_path_parameters,
    build_stumps,
    credit_chain_flush,
    derive_signature_responses,
    expand_leading_patterns,
    fresh_fault_list,
    insert_test_points,
)
from ..faults.fault_list import FaultList
from ..faults.fault_sim import FaultSimShardState, FaultSimulationResult
from ..faults.models import StuckAtFault, TransitionFault
from ..faults.transition_sim import TransitionSimShardState, derive_pair_blocks
from ..netlist.circuit import Circuit
from ..netlist.library import CellLibrary
from ..simulation.packed import PatternBlock
from ..timing.clocks import ClockTreeModel
from ..timing.double_capture import CaptureSchedule, CaptureWindowScheduler
from ..timing.skew_analysis import (
    MonteCarloSummary,
    ShiftPathParameters,
    run_skew_trials,
)
from ..tpi.observation_points import ObservationPointPlan
from .results import (
    ScenarioResult,
    ShardOutcome,
    build_simulation_result,
    merge_first_detections,
)
from .scheduler import (
    CATEGORY_CONTROL,
    CATEGORY_PREP,
    CATEGORY_SIM,
    Expansion,
    StageNode,
)
from .sharding import (
    contiguous_shards,
    fault_site_keys,
    keyed_round_robin_shards,
    plan_grid,
)

#: Flow phase names the stage graph accounts its time to -- exactly the
#: five :class:`~repro.core.flow.PhaseTiming` buckets the flow has always
#: reported, in their canonical order.
PHASE_SCAN = "scan_insertion"
PHASE_TPI = "test_point_insertion"
PHASE_RANDOM = "random_patterns"
PHASE_TOPUP = "topup_atpg"
PHASE_AT_SPEED = "at_speed_analysis"
PHASE_ORDER = (PHASE_SCAN, PHASE_TPI, PHASE_RANDOM, PHASE_TOPUP, PHASE_AT_SPEED)


# --------------------------------------------------------------------- #
# Artifacts flowing between stages (everything here must pickle cleanly)
# --------------------------------------------------------------------- #
@dataclass
class TpiOutcome:
    """The BIST-ready core after test-point insertion, plus the chosen plan."""

    core: BistReadyCore
    plan: Optional[ObservationPointPlan]


@dataclass
class ScenarioBundle:
    """Everything the post-preparation phases of one scenario consume.

    Produced by :class:`BuildStumpsStage`; the fan-out payload of the
    fault-sim shards (``state`` + ``offset_blocks``) and the structural
    objects the flow result reports (stumps, clock tree, capture schedule)
    travel together because every downstream stage needs some slice of them.
    """

    scenario_key: str
    core: BistReadyCore
    stumps: StumpsArchitecture
    clock_tree: ClockTreeModel
    capture_schedule: CaptureSchedule
    fault_list: FaultList
    state: FaultSimShardState
    #: Fault-list position of each fault of ``state.faults`` (what the
    #: merge marks).
    positions: tuple[int, ...]
    offset_blocks: tuple[tuple[int, PatternBlock], ...]
    boundaries: tuple[int, ...]


@dataclass
class RandomPhaseOutcome:
    """Merged result of the random-pattern fault-sim fan-out."""

    result: FaultSimulationResult
    #: Coverage right after the random phase (before any top-up credit).
    coverage_random: float
    num_shards: int = 1
    gate_evals: int = 0
    seconds: float = 0.0


@dataclass
class TopUpOutcome:
    """Top-up ATPG result plus the fault list it credited.

    The fault list rides along because a pooled top-up stage mutates its
    *own* (pickled) copy; downstream consumers must read detection state
    from here, never from the pre-top-up bundle.
    """

    result: TopUpResult
    fault_list: FaultList


@dataclass
class TopUpInput:
    """What the top-up stage actually reads -- a trimmed bundle slice.

    Pooled stage inputs are pickled per submission, so stages that need only
    a corner of the :class:`ScenarioBundle` receive one of these trim
    records (built by a cheap local node) instead of re-shipping the whole
    packed session.
    """

    core: BistReadyCore
    fault_list: FaultList


@dataclass
class TransitionInput:
    """Trimmed bundle slice for the transition preparation stage."""

    scenario_key: str
    circuit: Circuit
    stumps: StumpsArchitecture
    capture_schedule: CaptureSchedule


@dataclass
class TransitionBundle:
    """Fan-out payload of the transition-fault measurement."""

    scenario_key: str
    state: TransitionSimShardState
    pair_blocks: tuple[tuple[int, PatternBlock, PatternBlock], ...]
    fault_list: FaultList
    #: Fault-list position of each fault of ``state.faults``.
    positions: tuple[int, ...]
    boundaries: tuple[int, ...]


@dataclass
class TransitionOutcome:
    """Merged result of the at-speed transition-fault fan-out.

    Everything the canonical report's ``transition`` section needs, in
    deterministic (shard/worker-invariant) form: the min-merged first
    detections use ``str(fault)`` keys exactly as the stuck-at report does.
    """

    coverage: float
    total_faults: int
    detected: int
    patterns_simulated: int
    coverage_curve: list[tuple[int, float]]
    #: ``str(fault)`` (e.g. ``"g12 STR"``) -> global first-detection index.
    first_detections: dict[str, int]
    #: Diagnostics (never serialised into report bytes).
    num_shards: int = 1
    gate_evals: int = 0
    seconds: float = 0.0


@dataclass
class SkewInput:
    """Trimmed bundle slice for the Monte-Carlo skew sweep.

    Carries the double-capture schedule's verdict alongside the timing
    numbers: the sweep reports the schedule's validity so one campaign
    report answers both Fig. 2 (is the capture window sound?) and Fig. 3
    (do the shift-path interfaces survive the sampled skew?).
    """

    schedule_valid: bool
    schedule_problems: tuple[str, ...]
    d3_ns: float
    max_skew_ns: float


@dataclass
class SkewOutcome:
    """Merged result of the sharded Fig. 3 Monte-Carlo skew sweep."""

    summary: MonteCarloSummary
    schedule_valid: bool
    schedule_problems: tuple[str, ...]
    d3_ns: float
    max_skew_ns: float
    skew_range_ns: float
    bist_clock_advance_ns: float
    num_shards: int = 1

    def canonical_dict(self) -> dict:
        """Deterministic content-only view for the scenario report bytes."""
        return {
            "schedule_valid": self.schedule_valid,
            "schedule_problems": list(self.schedule_problems),
            "d3_ns": self.d3_ns,
            "max_skew_ns": self.max_skew_ns,
            "skew_range_ns": self.skew_range_ns,
            "bist_clock_advance_ns": self.bist_clock_advance_ns,
            "monte_carlo": self.summary.as_dict(),
        }


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


# --------------------------------------------------------------------- #
# Stage tasks
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class PrepareCoreStage:
    """Phase 1: full-scan insertion + X blocking (the BIST-ready core)."""

    circuit: Circuit
    config: LogicBistConfig
    library: Optional[CellLibrary] = None

    def run(self) -> BistReadyCore:
        return prepare_scan_core(self.circuit, self.config, self.library)


@dataclass(frozen=True)
class TpiProfileStage:
    """Phase 2: test-point insertion on the prepared core.

    Under ``tpi_method="fault_sim"`` this runs a full preliminary fault
    simulation -- the single heaviest preparation stage, and the reason
    preparation is pooled work: profiling one scenario must not serialise a
    whole campaign behind it.
    """

    config: LogicBistConfig

    def run(self, core: BistReadyCore) -> TpiOutcome:
        plan = insert_test_points(core, self.config)
        return TpiOutcome(core=core, plan=plan)


@dataclass(frozen=True)
class BuildStumpsStage:
    """Phase 3: STUMPS + clock tree + capture schedule + session generation.

    Streams the whole random-pattern session into packed blocks and bundles
    the pickleable fault-sim shard state -- the fan-out payload of
    :class:`FaultSimStage`.
    """

    scenario_key: str
    config: LogicBistConfig

    def run(self, tpi: TpiOutcome) -> ScenarioBundle:
        config = self.config
        core = tpi.core
        clock_tree = build_clock_tree(core.circuit, config)
        stumps = build_stumps(core, config)
        capture_schedule = CaptureWindowScheduler(clock_tree).schedule()
        fault_list = fresh_fault_list(core.circuit, config)
        credit_chain_flush(core, fault_list)
        offset_blocks = tuple(
            stumps.packed_session(
                config.random_patterns,
                block_size=config.block_size,
                backend=config.sim_backend,
            )
        )
        positions, faults = undetected_of_kind(fault_list, StuckAtFault)
        state = FaultSimShardState(
            circuit=core.circuit,
            observe_nets=tuple(core.circuit.observation_nets()),
            faults=faults,
            sim_backend=config.sim_backend,
            sim_memory_budget_mb=config.sim_memory_budget_mb,
        )
        return ScenarioBundle(
            scenario_key=self.scenario_key,
            core=core,
            stumps=stumps,
            clock_tree=clock_tree,
            capture_schedule=capture_schedule,
            fault_list=fault_list,
            state=state,
            positions=positions,
            offset_blocks=offset_blocks,
            boundaries=tuple(
                offset + block.num_patterns for offset, block in offset_blocks
            ),
        )


@dataclass(frozen=True)
class FaultSimStage:
    """Phase 4 fan-out rule: shard the fault universe over the session.

    A local expander: once the bundle exists, the PR-2 shard planner
    (site-local keyed round-robin faults x contiguous block runs) decides the
    grid, and the expansion splices one :class:`ShardScanStage` per cell
    plus a :class:`MergeDetectionsStage` reducer into the graph.
    """

    bundle_key: str
    prefix: str
    scenario: str
    fault_shards: int
    pattern_shards: int = 1

    def run(self, bundle: ScenarioBundle) -> Expansion:
        shard_nodes = shard_stage_nodes(
            bundle.scenario_key,
            bundle.state,
            bundle.offset_blocks,
            self.fault_shards,
            self.pattern_shards,
            prefix=self.prefix,
            phase=PHASE_RANDOM,
            scenario=self.scenario,
        )
        merge_key = f"{self.prefix}/merged"
        merge = StageNode(
            key=merge_key,
            task=MergeDetectionsStage(),
            deps=(self.bundle_key, *(node.key for node in shard_nodes)),
            local=True,
            phase=PHASE_RANDOM,
            scenario=self.scenario,
            category=CATEGORY_CONTROL,
        )
        return Expansion(nodes=(*shard_nodes, merge), result=merge_key)


def shard_stage_nodes(
    scenario_key: str,
    state: Union[FaultSimShardState, TransitionSimShardState],
    blocks: tuple,
    fault_shards: int,
    pattern_shards: int,
    prefix: str,
    phase: str = "",
    scenario: str = "",
) -> tuple[StageNode, ...]:
    """One :class:`ShardScanStage` per cell of the shard grid (site-local
    keyed round-robin faults x contiguous block runs) over ``state`` and
    ``blocks``, keyed ``<prefix>/shard<i>``.

    Each stage embeds only the blocks of its own pattern run.  The pooled
    scheduler pickles a stage per submission, so this keeps the total
    shipped bytes at fault_shards x session (independent of pattern
    shards).
    """
    grid = plan_grid(
        len(state.faults),
        len(blocks),
        fault_shards,
        pattern_shards,
        fault_keys=fault_site_keys(state.circuit, state.faults),
    )
    return tuple(
        StageNode(
            key=f"{prefix}/shard{shard_id}",
            task=ShardScanStage(
                scenario_key=scenario_key,
                shard_id=shard_id,
                state=state,
                fault_indices=fault_group,
                blocks=tuple(blocks[index] for index in block_group),
            ),
            phase=phase,
            scenario=scenario,
            category=CATEGORY_SIM,
        )
        for shard_id, (fault_group, block_group) in enumerate(grid)
    )


@dataclass(frozen=True)
class ShardScanStage:
    """One fault-simulation shard: ``fault_indices`` of ``state.faults``
    scanned over ``blocks``.

    ``blocks`` is the shard's own contiguous run of the session, each entry
    self-describing -- ``(global offset, PatternBlock)`` pairs under a
    stuck-at state, ``(global offset, launch, capture)`` triples under a
    transition state -- so the shard reports campaign-global pattern
    indices, and its fault indices stay campaign-global for the min-merge.
    """

    scenario_key: str
    shard_id: int
    state: Union[FaultSimShardState, TransitionSimShardState]
    fault_indices: tuple[int, ...]
    blocks: tuple

    def run(self) -> ShardOutcome:
        # The timer covers engine construction too: a worker's first shard
        # of a circuit really pays kernel compilation, and the recorded
        # per-shard seconds must reflect that full cost.
        start = time.perf_counter()
        engine = self.state.build_simulator()
        # The stuck-at engine counts its own gate evaluations; the
        # transition engine delegates them to its embedded stuck-at
        # observability engine.
        counter = (
            engine
            if isinstance(self.state, FaultSimShardState)
            else engine.stuck_engine
        )
        indices = self.fault_indices
        faults = [self.state.faults[index] for index in indices]
        evals_before = counter.gate_evals
        found = engine.first_detections(faults, self.blocks)
        seconds = time.perf_counter() - start
        return ShardOutcome(
            scenario_key=self.scenario_key,
            shard_id=self.shard_id,
            first_detections={indices[k]: pattern for k, pattern in found.items()},
            gate_evals=counter.gate_evals - evals_before,
            seconds=seconds,
        )


@dataclass(frozen=True)
class MergeDetectionsStage:
    """Min-merge the shard outcomes back into the serial-equivalent result."""

    def run(self, bundle: ScenarioBundle, *outcomes) -> RandomPhaseOutcome:
        merged = merge_first_detections(outcomes)
        result = build_simulation_result(
            bundle.fault_list,
            bundle.positions,
            merged,
            list(bundle.boundaries),
        )
        return RandomPhaseOutcome(
            result=result,
            coverage_random=bundle.fault_list.coverage(),
            num_shards=len(outcomes),
            gate_evals=sum(outcome.gate_evals for outcome in outcomes),
            seconds=sum(outcome.seconds for outcome in outcomes),
        )


@dataclass(frozen=True)
class SignatureStage:
    """MISR signature fan-out: derive responses once, fold per clock domain.

    A local expander over the bundle: response derivation (two compiled-kernel
    passes over the leading signature slice) becomes one pooled stage, and
    each clock domain's MISR fold -- independent because a domain's MISR only
    reads its own chains -- becomes its own node.
    """

    bundle_key: str
    prefix: str
    scenario: str
    config: LogicBistConfig

    def run(self, bundle: ScenarioBundle):
        if self.config.signature_patterns <= 0:
            return {}
        responses_key = f"{self.prefix}/responses"
        # Embed only the leading blocks the signature slice can reach (plus
        # the circuit and schedule), not the whole session: pooled inputs
        # are pickled per submission.
        count = min(self.config.signature_patterns, self.config.random_patterns)
        leading_blocks: list[PatternBlock] = []
        covered = 0
        for _, block in bundle.offset_blocks:
            if covered >= count:
                break
            leading_blocks.append(block)
            covered += block.num_patterns
        nodes = [
            StageNode(
                key=responses_key,
                task=SignatureResponsesStage(
                    self.config,
                    circuit=bundle.core.circuit,
                    blocks=tuple(leading_blocks),
                    capture_schedule=bundle.capture_schedule,
                ),
                phase=PHASE_RANDOM,
                scenario=self.scenario,
                category=CATEGORY_PREP,
            )
        ]
        fold_keys = []
        for domain_name, domain in bundle.stumps.domains.items():
            fold_key = f"{self.prefix}/fold:{domain_name}"
            fold_keys.append(fold_key)
            nodes.append(
                StageNode(
                    key=fold_key,
                    # Deep copy: the fold advances the MISR it holds, and
                    # must never advance the bundle's own stumps state --
                    # in-process (serial walk) the bundle is the caller's.
                    # Embedding the copy also keeps the pooled fold's pickle
                    # down to one domain, not the whole bundle.
                    task=SignatureFoldStage(
                        self.config, domain_name, copy.deepcopy(domain)
                    ),
                    deps=(responses_key,),
                    phase=PHASE_RANDOM,
                    scenario=self.scenario,
                    # "sim", not "prep": the per-domain folds are shard
                    # work, so the Amdahl accounting must not credit them
                    # to the parent-serial bucket.
                    category=CATEGORY_SIM,
                )
            )
        gather_key = f"{self.prefix}/gathered"
        nodes.append(
            StageNode(
                key=gather_key,
                task=GatherSignaturesStage(),
                deps=tuple(fold_keys),
                local=True,
                phase=PHASE_RANDOM,
                scenario=self.scenario,
                category=CATEGORY_CONTROL,
            )
        )
        return Expansion(nodes=tuple(nodes), result=gather_key)


@dataclass(frozen=True)
class SignatureResponsesStage:
    """Derive the double-capture response stream for the signature slice.

    Self-contained (built by the :class:`SignatureStage` expander, which has
    the bundle in hand): carries the circuit, the capture schedule and only
    the leading blocks the signature slice reads.
    """

    config: LogicBistConfig
    circuit: Circuit
    blocks: tuple[PatternBlock, ...]
    capture_schedule: CaptureSchedule

    def run(self) -> tuple[dict[str, int], ...]:
        config = self.config
        count = min(config.signature_patterns, config.random_patterns)
        patterns = expand_leading_patterns(list(self.blocks), count)
        count = min(config.signature_patterns, len(patterns))
        return tuple(
            derive_signature_responses(
                self.circuit,
                config,
                patterns[:count],
                self.capture_schedule,
            )
        )


@dataclass(frozen=True)
class SignatureFoldStage:
    """Fold one clock domain's filtered response stream into its MISR.

    Carries its own (already deep-copied) :class:`StumpsDomain`, so a
    pooled fold ships one domain, not the whole bundle.
    """

    config: LogicBistConfig
    domain: str
    stumps_domain: object

    def run(self, responses) -> tuple[str, int]:
        cells = self.stumps_domain.cells()
        filtered = [
            {cell: response.get(cell, 0) for cell in cells}
            for response in responses
        ]
        signature = self.stumps_domain.fold_responses(
            filtered, backend=self.config.sim_backend
        )
        return (self.domain, signature)


@dataclass(frozen=True)
class GatherSignaturesStage:
    """Collect the per-domain folds into the signatures mapping."""

    def run(self, *folds: tuple[str, int]) -> dict[str, int]:
        return dict(folds)


@dataclass(frozen=True)
class TrimTopUpInputStage:
    """Repackage the bundle + merged detections into the top-up's inputs."""

    def run(
        self, bundle: ScenarioBundle, random_outcome: RandomPhaseOutcome
    ) -> TopUpInput:
        return TopUpInput(
            core=bundle.core, fault_list=random_outcome.result.fault_list
        )


def build_topup_atpg(circuit: Circuit, config: LogicBistConfig) -> TopUpAtpg:
    """The flow's top-up driver for ``circuit`` under ``config``.

    The single construction path shared by the serial top-up stage, the
    pooled merge replay and the PODEM shard workers, so every stage agrees
    on the engine, backtrace heuristic, screening width and RNG seed.
    """
    return TopUpAtpg(
        circuit,
        backtrack_limit=config.topup_backtrack_limit,
        seed=config.topup_seed,
        max_faults=config.topup_max_faults,
        engine=config.atpg_engine,
        backtrace=config.atpg_backtrace,
        block_size=(
            config.topup_block_size
            if config.topup_block_size is not None
            else config.block_size
        ),
        sim_backend=config.sim_backend,
    )


def _apply_input_selector(core: BistReadyCore, config: LogicBistConfig,
                          result: TopUpResult) -> None:
    """Route the generated top-up patterns through the Fig. 1 input selector."""
    if result.patterns:
        selector = InputSelector(build_stumps(core, config))
        selector.load_external_patterns(result.patterns)
        selector.select(InputSource.EXTERNAL)


@dataclass(frozen=True)
class TopUpStage:
    """Phase 5 fan-out rule: PODEM top-up ATPG on the post-random fault list.

    A local expander (mirrors :class:`FaultSimStage`): the undetected
    stuck-at targets are partitioned with the PR-2 site-local keyed
    round-robin (faults sharing a fault site stay in one shard, so each
    site's cone plans compile in exactly one worker's shared kernel), one
    :class:`PodemShardStage` per shard speculatively generates every
    target's cube in a pool worker, and :class:`TopUpMergeStage` replays the
    serial skip/fill/screen/compact walk over the pre-generated attempts.

    Because a PODEM attempt depends only on the circuit and the fault --
    never on the detection state -- the replay consumes exactly the cubes
    the serial walk would have generated and discards the speculated
    attempts for targets the screen skips; the merged result is therefore
    byte-identical to the serial walk at any shard/worker count.  With one
    shard (the serial schedule) the expansion degenerates to a single
    :class:`TopUpSerialStage`, which generates lazily and never speculates.
    """

    input_key: str
    prefix: str
    scenario: str
    config: LogicBistConfig
    fault_shards: int = 1

    def run(self, inputs: TopUpInput) -> Expansion:
        circuit = inputs.core.circuit
        topup = build_topup_atpg(circuit, self.config)
        targets, _skipped = topup.plan_targets(inputs.fault_list, log=False)
        if self.fault_shards <= 1 or len(targets) <= 1:
            serial_key = f"{self.prefix}/serial"
            node = StageNode(
                key=serial_key,
                task=TopUpSerialStage(self.config),
                deps=(self.input_key,),
                phase=PHASE_TOPUP,
                scenario=self.scenario,
                category=CATEGORY_PREP,
            )
            return Expansion(nodes=(node,), result=serial_key)
        groups = keyed_round_robin_shards(
            fault_site_keys(circuit, targets), self.fault_shards
        )
        shard_nodes = tuple(
            StageNode(
                key=f"{self.prefix}/podem{shard_id}",
                task=PodemShardStage(
                    circuit=circuit,
                    config=self.config,
                    targets=tuple((index, targets[index]) for index in group),
                ),
                phase=PHASE_TOPUP,
                scenario=self.scenario,
                category=CATEGORY_PREP,
            )
            for shard_id, group in enumerate(groups)
        )
        merge_key = f"{self.prefix}/merged"
        merge = StageNode(
            key=merge_key,
            task=TopUpMergeStage(self.config),
            deps=(self.input_key, *(node.key for node in shard_nodes)),
            phase=PHASE_TOPUP,
            scenario=self.scenario,
            category=CATEGORY_SIM,
        )
        return Expansion(nodes=(*shard_nodes, merge), result=merge_key)


@dataclass(frozen=True)
class TopUpSerialStage:
    """The unsharded top-up stage: generate lazily, screen in blocks."""

    config: LogicBistConfig

    def run(self, inputs: TopUpInput) -> TopUpOutcome:
        config = self.config
        fault_list = inputs.fault_list
        topup = build_topup_atpg(inputs.core.circuit, config)
        if config.topup_compaction:
            result = topup.run_with_compaction(fault_list)
        else:
            result = topup.run(fault_list)
        # The top-up patterns reach the core through the input selector.
        _apply_input_selector(inputs.core, config, result)
        return TopUpOutcome(result=result, fault_list=fault_list)


@dataclass(frozen=True)
class PodemShardStage:
    """Speculative PODEM generation for one site-local target shard.

    Returns ``(target index, AtpgResult)`` pairs keyed by the target's
    position in the scenario's canonical target order -- the merge indexes
    by position, so shard order and worker count cannot leak into the
    replay.  Screening is deliberately absent here: whether a target's cube
    is *used* depends on the global pattern order, which only the merge
    stage knows.
    """

    circuit: Circuit
    config: LogicBistConfig
    targets: tuple[tuple[int, StuckAtFault], ...]

    def run(self) -> tuple[tuple[int, AtpgResult], ...]:
        atpg = build_topup_atpg(self.circuit, self.config).podem()
        return tuple(
            (index, atpg.generate(fault)) for index, fault in self.targets
        )


@dataclass(frozen=True)
class TopUpMergeStage:
    """Deterministic screen/compact replay over the shards' PODEM attempts."""

    config: LogicBistConfig

    def run(self, inputs: TopUpInput, *shard_results) -> TopUpOutcome:
        config = self.config
        fault_list = inputs.fault_list
        topup = build_topup_atpg(inputs.core.circuit, config)
        targets, _skipped = topup.plan_targets(fault_list, log=False)
        prepared: dict[StuckAtFault, AtpgResult] = {}
        for shard in shard_results:
            for index, attempt in shard:
                prepared[targets[index]] = attempt
        result = topup.run_prepared(
            fault_list, prepared, compaction=config.topup_compaction
        )
        _apply_input_selector(inputs.core, config, result)
        return TopUpOutcome(result=result, fault_list=fault_list)


@dataclass(frozen=True)
class TrimTransitionInputStage:
    """Repackage the bundle into the transition preparation's inputs."""

    def run(self, bundle: ScenarioBundle) -> TransitionInput:
        return TransitionInput(
            scenario_key=bundle.scenario_key,
            circuit=bundle.core.circuit,
            stumps=bundle.stumps,
            capture_schedule=bundle.capture_schedule,
        )


@dataclass(frozen=True)
class TransitionPrepStage:
    """Phase 6 preparation: packed launch blocks + derived capture blocks.

    The launch blocks stream straight from the reset PRPG
    (``generate_packed_blocks`` on the scenario's backend, pattern for
    pattern what ``generate_patterns`` loads) and each capture block is
    derived from its launch block in place
    (:func:`~repro.faults.transition_sim.derive_pair_blocks`), so no
    per-pattern dict is built.  This is the serial half of the transition
    measurement; as a pooled stage it overlaps everything else in the
    campaign.
    """

    config: LogicBistConfig

    def run(self, inputs: TransitionInput) -> TransitionBundle:
        config = self.config
        circuit = inputs.circuit
        stumps = inputs.stumps
        stumps.reset()
        pair_blocks = derive_pair_blocks(
            circuit,
            stumps.generate_packed_blocks(
                config.transition_patterns,
                block_size=config.block_size,
                backend=config.sim_backend,
            ),
            inputs.capture_schedule.pulse_order,
        )
        fault_list = FaultList.transition(circuit)
        positions, faults = undetected_of_kind(fault_list, TransitionFault)
        state = TransitionSimShardState(
            circuit=circuit,
            observe_nets=tuple(circuit.observation_nets()),
            faults=faults,
            sim_backend=config.sim_backend,
            sim_memory_budget_mb=config.sim_memory_budget_mb,
        )
        return TransitionBundle(
            scenario_key=inputs.scenario_key,
            state=state,
            pair_blocks=pair_blocks,
            fault_list=fault_list,
            positions=positions,
            boundaries=tuple(
                offset + launch_block.num_patterns
                for offset, launch_block, _ in pair_blocks
            ),
        )


@dataclass(frozen=True)
class TransitionStage:
    """Transition-fault fan-out rule (mirrors :class:`FaultSimStage`)."""

    prep_key: str
    prefix: str
    scenario: str
    fault_shards: int
    pattern_shards: int = 1

    def run(self, prep: TransitionBundle) -> Expansion:
        shard_nodes = shard_stage_nodes(
            prep.scenario_key,
            prep.state,
            prep.pair_blocks,
            self.fault_shards,
            self.pattern_shards,
            prefix=self.prefix,
            phase=PHASE_AT_SPEED,
            scenario=self.scenario,
        )
        merge_key = f"{self.prefix}/merged"
        merge = StageNode(
            key=merge_key,
            task=TransitionMergeStage(),
            deps=(self.prep_key, *(node.key for node in shard_nodes)),
            local=True,
            phase=PHASE_AT_SPEED,
            scenario=self.scenario,
            category=CATEGORY_CONTROL,
        )
        return Expansion(nodes=(*shard_nodes, merge), result=merge_key)


@dataclass(frozen=True)
class TransitionMergeStage:
    """Merge transition shard outcomes into the at-speed measurement.

    The same min-merge + curve rebuild as :class:`MergeDetectionsStage`, so
    the outcome (coverage, curve and first detections alike) is identical to
    the serial transition simulation at any shard/worker count.
    """

    def run(self, prep: TransitionBundle, *outcomes) -> TransitionOutcome:
        merged = merge_first_detections(outcomes)
        result = build_simulation_result(
            prep.fault_list, prep.positions, merged, list(prep.boundaries)
        )
        fault_list = prep.fault_list
        return TransitionOutcome(
            coverage=fault_list.coverage(),
            total_faults=len(fault_list),
            detected=fault_list.detected_count(),
            patterns_simulated=result.patterns_simulated,
            coverage_curve=list(result.coverage_curve),
            first_detections=fault_list.first_detection_labels(),
            num_shards=len(outcomes),
            gate_evals=sum(outcome.gate_evals for outcome in outcomes),
            seconds=sum(outcome.seconds for outcome in outcomes),
        )


@dataclass(frozen=True)
class TrimSkewInputStage:
    """Repackage the bundle's capture schedule into the skew sweep's inputs.

    Validates the double-capture schedule on the way: cheap, local, and it
    keeps the pooled trial stages free of the (unpicklable-size) bundle.
    """

    def run(self, bundle: ScenarioBundle) -> SkewInput:
        schedule = bundle.capture_schedule
        problems = tuple(schedule.validate())
        return SkewInput(
            schedule_valid=not problems,
            schedule_problems=problems,
            d3_ns=schedule.d3_ns,
            max_skew_ns=schedule.max_skew_ns,
        )


@dataclass(frozen=True)
class SkewSweepStage:
    """Fig. 3 Monte-Carlo fan-out rule (mirrors :class:`FaultSimStage`).

    A local expander: ``config.skew_trials`` trial indices split into
    balanced contiguous runs, one pooled :class:`SkewTrialsStage` per run,
    and a :class:`SkewMergeStage` absorbing the per-run summaries.  Because
    every trial seeds its own RNG from its index
    (:func:`~repro.timing.skew_analysis.sample_shift_path_report`), the
    merged counters are identical to the unsharded
    :func:`~repro.timing.skew_analysis.run_skew_trials` sweep at any
    shard/worker count.
    """

    input_key: str
    prefix: str
    scenario: str
    config: LogicBistConfig
    trial_shards: int = 1

    def run(self, skew_input: SkewInput) -> Expansion:
        config = self.config
        parameters = build_shift_path_parameters(config)
        runs = contiguous_shards(
            config.skew_trials, max(1, min(self.trial_shards, config.skew_trials))
        )
        shard_nodes = tuple(
            StageNode(
                key=f"{self.prefix}/trials{shard_id}",
                task=SkewTrialsStage(
                    parameters=parameters,
                    skew_range_ns=config.skew_range_ns,
                    bist_clock_advance_ns=config.bist_clock_advance_ns,
                    seed=config.skew_seed,
                    trial_indices=run,
                ),
                phase=PHASE_AT_SPEED,
                scenario=self.scenario,
                category=CATEGORY_SIM,
            )
            for shard_id, run in enumerate(runs)
        )
        merge_key = f"{self.prefix}/merged"
        merge = StageNode(
            key=merge_key,
            task=SkewMergeStage(self.config),
            deps=(self.input_key, *(node.key for node in shard_nodes)),
            local=True,
            phase=PHASE_AT_SPEED,
            scenario=self.scenario,
            category=CATEGORY_CONTROL,
        )
        return Expansion(nodes=(*shard_nodes, merge), result=merge_key)


@dataclass(frozen=True)
class SkewTrialsStage:
    """One contiguous run of trial-indexed shift-path skew samples."""

    parameters: ShiftPathParameters
    skew_range_ns: float
    bist_clock_advance_ns: float
    seed: int
    trial_indices: tuple[int, ...]

    def run(self) -> MonteCarloSummary:
        return run_skew_trials(
            self.parameters,
            self.skew_range_ns,
            self.trial_indices,
            bist_clock_advance_ns=self.bist_clock_advance_ns,
            # The paper's deployment always applies the re-timing fix (the
            # parent-side shift-path check does the same).
            retiming=True,
            seed=self.seed,
        )


@dataclass(frozen=True)
class SkewMergeStage:
    """Absorb per-run skew summaries (additive counters, order-independent)."""

    config: LogicBistConfig

    def run(self, skew_input: SkewInput, *summaries) -> SkewOutcome:
        merged = MonteCarloSummary()
        for summary in summaries:
            merged.absorb(summary)
        return SkewOutcome(
            summary=merged,
            schedule_valid=skew_input.schedule_valid,
            schedule_problems=skew_input.schedule_problems,
            d3_ns=skew_input.d3_ns,
            max_skew_ns=skew_input.max_skew_ns,
            skew_range_ns=self.config.skew_range_ns,
            bist_clock_advance_ns=self.config.bist_clock_advance_ns,
            num_shards=len(summaries),
        )


@dataclass(frozen=True)
class ReportStage:
    """Assemble one scenario's canonical campaign report.

    With a top-up outcome in its inputs the report covers both phases: the
    fault list (and hence coverage and first detections, top-up indices >=
    ``TOPUP_PATTERN_BASE`` included) comes from the top-up stage's
    authoritative copy, and the deterministic top-up accounting lands in the
    report's ``topup`` section.  The optional at-speed artifacts arrive as
    trailing positional deps in declared order (top-up, transition, skew);
    the ``has_*`` flags say which are present, so a missing section can
    never mis-bind to another's parameter.
    """

    name: str
    core_name: str
    num_workers: int = 1
    has_topup: bool = False
    has_transition: bool = False
    has_skew: bool = False

    def run(
        self,
        bundle: ScenarioBundle,
        random_outcome: RandomPhaseOutcome,
        signatures: dict[str, int],
        *extras,
    ) -> ScenarioResult:
        expected = self.has_topup + self.has_transition + self.has_skew
        if len(extras) != expected:
            raise ValueError(
                f"report stage expected {expected} optional inputs, got {len(extras)}"
            )
        remaining = list(extras)
        topup: Optional[TopUpOutcome] = (
            remaining.pop(0) if self.has_topup else None
        )
        transition: Optional[TransitionOutcome] = (
            remaining.pop(0) if self.has_transition else None
        )
        skew: Optional[SkewOutcome] = (
            remaining.pop(0) if self.has_skew else None
        )
        # Post-top-up detection state: with a pooled scheduler the top-up
        # stage credited its own pickled copy, so the outcome's list -- not
        # the bundle's -- is authoritative whenever top-up ran.
        fault_list = topup.fault_list if topup is not None else bundle.fault_list
        first_detections = fault_list.first_detection_labels()
        result = ScenarioResult(
            name=self.name,
            core_name=self.core_name,
            total_faults=len(fault_list),
            patterns_simulated=random_outcome.result.patterns_simulated,
            coverage=fault_list.coverage(),
            coverage_curve=list(random_outcome.result.coverage_curve),
            first_detections=first_detections,
            signatures=dict(sorted(signatures.items())),
            num_shards=random_outcome.num_shards,
            num_workers=self.num_workers,
            gate_evals=random_outcome.gate_evals,
            seconds=random_outcome.seconds,
            fault_list=fault_list,
        )
        if topup is not None:
            result.coverage_random = random_outcome.coverage_random
            result.topup_pattern_count = topup.result.pattern_count
            result.topup_attempted = topup.result.attempted_faults
            result.topup_successful = topup.result.successful_faults
            result.topup_untestable = topup.result.untestable_faults
            result.topup_aborted = topup.result.aborted_faults
            result.topup_skipped_targets = topup.result.skipped_targets
        if transition is not None:
            result.transition_coverage = transition.coverage
            result.transition_total_faults = transition.total_faults
            result.transition_detected = transition.detected
            result.transition_patterns = transition.patterns_simulated
            result.transition_coverage_curve = list(transition.coverage_curve)
            result.transition_first_detections = dict(
                transition.first_detections
            )
        if skew is not None:
            result.skew = skew.canonical_dict()
        return result


# --------------------------------------------------------------------- #
# Graph builder
# --------------------------------------------------------------------- #
def scenario_stage_nodes(
    scenario_key: str,
    circuit: Circuit,
    config: LogicBistConfig,
    *,
    library: Optional[CellLibrary] = None,
    scenario_name: Optional[str] = None,
    fault_shards: int = 1,
    pattern_shards: int = 1,
    num_workers: int = 1,
    include_topup: bool = False,
    include_transition: Optional[bool] = None,
    include_skew: Optional[bool] = None,
    include_report: bool = False,
) -> tuple[list[StageNode], dict[str, str]]:
    """Wire one (core, config) scenario into stage-graph nodes.

    Returns ``(nodes, artifacts)`` where ``artifacts`` maps logical names
    (``"core"``, ``"tpi"``, ``"bundle"``, ``"fault_sim"``, ``"signatures"``,
    and, when included, ``"topup"`` / ``"transition"`` / ``"skew"`` /
    ``"report"``) to the node keys whose values a finished
    :class:`~repro.campaign.scheduler.PipelineRun` holds.  Many scenarios'
    node lists concatenate into one multi-scenario DAG; ``scenario_key`` must
    be unique within the DAG.

    ``include_transition`` / ``include_skew`` default to the scenario
    config's own measurement requests (``measure_transition_coverage`` /
    ``skew_trials > 0``): a config asking for an at-speed measurement gets
    the stages without every caller having to re-plumb the flags -- the
    campaign runner dropped ``measure_transition_coverage`` silently for
    exactly that reason.  Pass an explicit bool to override either way.
    """
    if include_transition is None:
        include_transition = config.measure_transition_coverage
    if include_skew is None:
        include_skew = config.skew_trials > 0
    name = scenario_name or circuit.name
    keys = {
        "core": f"{scenario_key}/core",
        "tpi": f"{scenario_key}/tpi",
        "bundle": f"{scenario_key}/bundle",
        "fault_sim": f"{scenario_key}/fault_sim",
        "signatures": f"{scenario_key}/signatures",
    }
    nodes = [
        StageNode(
            key=keys["core"],
            task=PrepareCoreStage(circuit, config, library),
            phase=PHASE_SCAN,
            scenario=name,
            category=CATEGORY_PREP,
        ),
        StageNode(
            key=keys["tpi"],
            task=TpiProfileStage(config),
            deps=(keys["core"],),
            phase=PHASE_TPI,
            scenario=name,
            category=CATEGORY_PREP,
        ),
        StageNode(
            key=keys["bundle"],
            task=BuildStumpsStage(scenario_key, config),
            deps=(keys["tpi"],),
            phase=PHASE_RANDOM,
            scenario=name,
            category=CATEGORY_PREP,
        ),
        StageNode(
            key=keys["fault_sim"],
            task=FaultSimStage(
                bundle_key=keys["bundle"],
                prefix=keys["fault_sim"],
                scenario=name,
                fault_shards=max(1, fault_shards),
                pattern_shards=max(1, pattern_shards),
            ),
            deps=(keys["bundle"],),
            local=True,
            phase=PHASE_RANDOM,
            scenario=name,
            category=CATEGORY_CONTROL,
        ),
        StageNode(
            key=keys["signatures"],
            task=SignatureStage(
                bundle_key=keys["bundle"],
                prefix=keys["signatures"],
                scenario=name,
                config=config,
            ),
            deps=(keys["bundle"],),
            local=True,
            phase=PHASE_RANDOM,
            scenario=name,
            category=CATEGORY_CONTROL,
        ),
    ]
    if include_topup:
        keys["topup_input"] = f"{scenario_key}/topup_input"
        keys["topup"] = f"{scenario_key}/topup"
        nodes.append(
            StageNode(
                key=keys["topup_input"],
                task=TrimTopUpInputStage(),
                deps=(keys["bundle"], keys["fault_sim"]),
                local=True,
                phase=PHASE_TOPUP,
                scenario=name,
                category=CATEGORY_CONTROL,
            )
        )
        nodes.append(
            StageNode(
                key=keys["topup"],
                task=TopUpStage(
                    input_key=keys["topup_input"],
                    prefix=keys["topup"],
                    scenario=name,
                    config=config,
                    fault_shards=max(1, fault_shards),
                ),
                deps=(keys["topup_input"],),
                local=True,
                phase=PHASE_TOPUP,
                scenario=name,
                category=CATEGORY_CONTROL,
            )
        )
    if include_transition:
        keys["transition_input"] = f"{scenario_key}/transition_input"
        keys["transition_prep"] = f"{scenario_key}/transition_prep"
        keys["transition"] = f"{scenario_key}/transition"
        nodes.append(
            StageNode(
                key=keys["transition_input"],
                task=TrimTransitionInputStage(),
                deps=(keys["bundle"],),
                local=True,
                phase=PHASE_AT_SPEED,
                scenario=name,
                category=CATEGORY_CONTROL,
            )
        )
        nodes.append(
            StageNode(
                key=keys["transition_prep"],
                task=TransitionPrepStage(config),
                deps=(keys["transition_input"],),
                phase=PHASE_AT_SPEED,
                scenario=name,
                category=CATEGORY_PREP,
            )
        )
        nodes.append(
            StageNode(
                key=keys["transition"],
                task=TransitionStage(
                    prep_key=keys["transition_prep"],
                    prefix=keys["transition"],
                    scenario=name,
                    fault_shards=max(1, fault_shards),
                    pattern_shards=max(1, pattern_shards),
                ),
                deps=(keys["transition_prep"],),
                local=True,
                phase=PHASE_AT_SPEED,
                scenario=name,
                category=CATEGORY_CONTROL,
            )
        )
    if include_skew:
        keys["skew_input"] = f"{scenario_key}/skew_input"
        keys["skew"] = f"{scenario_key}/skew"
        nodes.append(
            StageNode(
                key=keys["skew_input"],
                task=TrimSkewInputStage(),
                deps=(keys["bundle"],),
                local=True,
                phase=PHASE_AT_SPEED,
                scenario=name,
                category=CATEGORY_CONTROL,
            )
        )
        nodes.append(
            StageNode(
                key=keys["skew"],
                task=SkewSweepStage(
                    input_key=keys["skew_input"],
                    prefix=keys["skew"],
                    scenario=name,
                    config=config,
                    trial_shards=max(1, fault_shards),
                ),
                deps=(keys["skew_input"],),
                local=True,
                phase=PHASE_AT_SPEED,
                scenario=name,
                category=CATEGORY_CONTROL,
            )
        )
    if include_report:
        keys["report"] = f"{scenario_key}/report"
        report_deps = [keys["bundle"], keys["fault_sim"], keys["signatures"]]
        if include_topup:
            report_deps.append(keys["topup"])
        if include_transition:
            report_deps.append(keys["transition"])
        if include_skew:
            report_deps.append(keys["skew"])
        nodes.append(
            StageNode(
                key=keys["report"],
                task=ReportStage(
                    name=name,
                    core_name=circuit.name,
                    num_workers=num_workers,
                    has_topup=include_topup,
                    has_transition=include_transition,
                    has_skew=include_skew,
                ),
                deps=tuple(report_deps),
                local=True,
                phase=PHASE_RANDOM,
                scenario=name,
                category=CATEGORY_CONTROL,
            )
        )
    return nodes, keys
