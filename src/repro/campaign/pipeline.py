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

* **One code path.**  Every stage body calls the same module-level
  structure helpers (:func:`~repro.core.bist_ready.insert_test_points`,
  :func:`~repro.core.bist_ready.derive_signature_responses`, ...), and the
  flow (:class:`~repro.core.flow.LogicBistFlow`) is a one-scenario campaign
  over this graph, so the serial walk *is* the oracle and the pooled
  schedule cannot drift from it.
* **Pool only what pays.**  One pooled dispatch costs about 10-15 ms:
  the task is pickled in the parent and unpickled in a worker, and its
  result is pickled back, unpickled and pickled once more for the
  service journal, so the cost grows with what the stage ships.  A stage
  runs in a worker only when its compute is well above that cost.  The
  placement is static: it is the ``local`` flag :func:`scenario_stage_nodes`
  sets.  (Stage times here are from the service benchmark's TPI-heavy
  scenarios on a 2-CPU host.)

  - Pooled: scan insertion (:class:`PrepareCoreStage`), TPI profiling
    (:class:`TpiProfileStage`, 50-100 ms under ``tpi_method="fault_sim"``)
    and the stages of the three phases that fan out: the stuck-at and
    transition scans (:class:`FaultSimStage` splices one
    :class:`ShardScanStage` per fault shard plus a local merge) and
    top-up (:class:`TopUpStage` splices one speculative
    :class:`PodemShardStage` per target shard plus the replay that
    screens their cubes).
  - Local: the bundle (:class:`BuildStumpsStage`, which generates no
    pattern), the signature (2-3 ms), the transition preparation and the
    skew sweep (11-13 ms), each of which reads the bundle in place, plus
    every expander, merge and the report.

  Pooled preparation and pooled simulation drain through the *same*
  pool -- scenario B's TPI profiling runs while scenario A's shards are
  in flight.

Every shard of either fault model is one :class:`ShardScanStage`, built by
:func:`shard_stage_nodes`: one shard state holding only the shard's own
faults, as rows of the circuit's stuck-at table (a transition fault is its
equivalent stuck-at row), their campaign-global indices and the session's
:class:`SessionSpec` -- the seed a BIST tester stores, not the patterns --
from which the shard regenerates the blocks it scans.
It is the only shard-execution path; sharded simulation outside a scenario
drains the same nodes through
:func:`~repro.campaign.scheduler.make_scheduler`.

Stage tasks ship their scenario's ``LogicBistConfig`` and read everything
else from their inputs; ``sim_backend`` and the memory budget ride inside
the shard states, so they survive pickling into pool workers.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, replace
from typing import Iterator, Optional, Sequence

from ..atpg.podem import AtpgResult
from ..atpg.topup import TopUpAtpg, TopUpResult
from ..bist.stumps import StumpsArchitecture
from ..core.bist_ready import (
    BistReadyCore,
    build_clock_tree,
    build_shift_path_parameters,
    build_stumps,
    credit_chain_flush,
    derive_signature_responses,
    fresh_fault_list,
    insert_test_points,
    prepare_scan_core,
)
from ..core.config import LogicBistConfig
from ..faults.fault_list import FaultList, stuck_at_table
from ..faults.fault_sim import FaultSimShardState, FaultSimulationResult
from ..faults.models import StuckAtFault
from ..faults.transition_sim import derive_pair_blocks
from ..netlist.circuit import Circuit
from ..netlist.library import CellLibrary
from ..simulation.packed import PatternBlock
from ..timing.clocks import ClockTreeModel
from ..timing.double_capture import CaptureSchedule, CaptureWindowScheduler
from ..timing.skew_analysis import MonteCarloSummary, run_skew_trials
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
from .sharding import keyed_round_robin_shards

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


@dataclass(frozen=True)
class SessionSpec:
    """A BIST session as a tester stores it, and the only form in which a
    session crosses a stage boundary: the STUMPS whose reset PRPGs generate
    it (or any source with ``reset_copy`` and ``generate_packed_blocks``),
    its pattern count and its block size.  The stream starts from a
    :meth:`~repro.bist.stumps.StumpsArchitecture.reset_copy`, so it never
    moves ``stumps`` and yields the same blocks on every run, even from an
    advanced STUMPS (as in older journals' bundles)."""

    stumps: StumpsArchitecture
    patterns: int
    block_size: int

    def blocks(self) -> Iterator[tuple[int, PatternBlock]]:
        """The session as ``(global pattern offset, block)`` pairs, generated
        a chunk of blocks at a time as they are drawn."""
        offset = 0
        for block in self.stumps.reset_copy().generate_packed_blocks(
            self.patterns, block_size=self.block_size
        ):
            yield offset, block
            offset += block.num_patterns

    def pair_blocks(self, circuit: Circuit, pulse_order) -> tuple:
        """The session as launch-on-capture ``(offset, launch, capture)``
        triples (:func:`~repro.faults.transition_sim.derive_pair_blocks`)."""
        return derive_pair_blocks(circuit, (b for _, b in self.blocks()), pulse_order)

    @property
    def boundaries(self) -> tuple[int, ...]:
        """Cumulative pattern count after each block (all full but the last)."""
        ends = range(self.block_size, self.patterns + self.block_size, self.block_size)
        return tuple(min(end, self.patterns) for end in ends)


@dataclass
class ScenarioBundle:
    """Everything the post-preparation phases of one scenario consume.

    Produced by :class:`BuildStumpsStage` in the parent: the stuck-at fault
    list with the positions the random-pattern scan shards, and the
    structural objects the flow result reports, which every downstream
    stage reads some slice of in place.  A consumer of the session builds a
    :class:`SessionSpec` from ``stumps``; no stage moves them.  The bundle
    is not journaled, but journals written when the stage was pooled hold it
    at ``<scenario>/bundle`` (with a shard state and the session older code
    kept here, which nothing reads) and a resume preloads that record, so
    its fields keep their names.
    """

    scenario_key: str
    core: BistReadyCore
    stumps: StumpsArchitecture
    clock_tree: ClockTreeModel
    capture_schedule: CaptureSchedule
    fault_list: FaultList
    #: Fault-list positions of the faults the scan shards, in canonical
    #: order (what the merge marks).
    positions: tuple[int, ...]


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

    Built by a cheap local node from the bundle and the merged random
    phase: the core and the post-random fault list, which the top-up
    credits.
    """

    core: BistReadyCore
    fault_list: FaultList


@dataclass
class TransitionBundle:
    """The transition-fault universe the at-speed scan shards.

    Built in the parent and not journaled; like :class:`ScenarioBundle`,
    older journals hold it at ``<scenario>/transition_prep`` (with a shard
    state and pair blocks, which nothing reads), so its fields keep their
    names; its shards read their session from the :class:`ScenarioBundle`.
    """

    scenario_key: str
    fault_list: FaultList
    #: Fault-list positions of the faults the scan shards, in canonical order.
    positions: tuple[int, ...]


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
class SkewOutcome:
    """Result of the Fig. 3 Monte-Carlo skew sweep.

    Carries the double-capture schedule's verdict alongside the timing
    numbers, so one campaign report answers both Fig. 2 (is the capture
    window sound?) and Fig. 3 (do the shift-path interfaces survive the
    sampled skew?).
    """

    summary: MonteCarloSummary
    schedule_valid: bool
    schedule_problems: tuple[str, ...]
    d3_ns: float
    max_skew_ns: float
    skew_range_ns: float
    bist_clock_advance_ns: float

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
    """Phase 3: STUMPS + clock tree + capture schedule + stuck-at universe.

    Bundles the reset STUMPS (the session's seed) with the fault list whose
    undetected faults the stuck-at :class:`FaultSimStage` shards.  No
    pattern is generated here.
    """

    scenario_key: str
    config: LogicBistConfig

    def run(self, tpi: TpiOutcome) -> ScenarioBundle:
        config = self.config
        core = tpi.core
        clock_tree = build_clock_tree(core.circuit, config)
        stumps = build_stumps(core, config)
        capture_schedule = CaptureWindowScheduler(clock_tree).schedule()
        fault_list = fresh_fault_list(core.circuit)
        credit_chain_flush(core, fault_list)
        return ScenarioBundle(
            scenario_key=self.scenario_key,
            core=core,
            stumps=stumps,
            clock_tree=clock_tree,
            capture_schedule=capture_schedule,
            fault_list=fault_list,
            positions=tuple(fault_list.undetected_positions()),
        )


@dataclass(frozen=True)
class FaultSimStage:
    """Fan-out rule of both fault scans: shard a bundle's faults over its
    session.

    A local expander.  Given the :class:`ScenarioBundle` alone it shards the
    random-pattern stuck-at scan; given the :class:`TransitionBundle` too,
    the launch-on-capture transition scan.  Either way the faults at the
    bundle's ``positions`` become stuck-at table rows in one shard state,
    the site-local keyed round-robin planner decides the shards, and the
    expansion splices one :class:`ShardScanStage` per shard, each over the
    scan's :class:`SessionSpec`, plus the local merge
    (:class:`MergeDetectionsStage` or :class:`TransitionMergeStage`) into
    the graph.
    """

    bundle_key: str
    prefix: str
    scenario: str
    fault_shards: int
    config: LogicBistConfig

    def run(
        self, bundle: ScenarioBundle, prep: Optional[TransitionBundle] = None
    ) -> Expansion:
        config = self.config
        if prep is None:
            faults, patterns, phase, merge = (
                bundle, config.random_patterns, PHASE_RANDOM, MergeDetectionsStage
            )
        else:
            faults, patterns, phase, merge = (
                prep, config.transition_patterns, PHASE_AT_SPEED, TransitionMergeStage
            )
        session = SessionSpec(bundle.stumps, patterns, config.block_size)
        circuit = bundle.core.circuit
        state = FaultSimShardState(
            circuit=circuit,
            observe_nets=tuple(circuit.observation_nets()),
            rows=tuple(
                faults.fault_list.table_ids(stuck_at_table(circuit), faults.positions)
            ),
            sim_backend=config.sim_backend,
            sim_memory_budget_mb=config.sim_memory_budget_mb,
            transition=prep is not None,
        )
        shard_nodes = shard_stage_nodes(
            bundle.scenario_key,
            state,
            session,
            self.fault_shards,
            prefix=self.prefix,
            phase=phase,
            scenario=self.scenario,
            pulse_order=None if prep is None else bundle.capture_schedule.pulse_order,
        )
        merge_key = f"{self.prefix}/merged"
        merge = StageNode(
            key=merge_key,
            task=merge(session.boundaries),
            deps=(self.bundle_key, *(node.key for node in shard_nodes)),
            local=True,
            phase=phase,
            scenario=self.scenario,
            category=CATEGORY_CONTROL,
        )
        return Expansion(nodes=(*shard_nodes, merge), result=merge_key)


def shard_stage_nodes(
    scenario_key: str,
    state: FaultSimShardState,
    session: SessionSpec,
    fault_shards: int,
    prefix: str,
    phase: str = "",
    scenario: str = "",
    pulse_order: Optional[Sequence[Sequence[str]]] = None,
) -> tuple[StageNode, ...]:
    """One :class:`ShardScanStage` per site-local keyed round-robin fault
    shard of ``state``, each over the whole ``session``, keyed
    ``<prefix>/shard<i>``.

    Rows are keyed by the stuck-at table's ``site`` column.  Each shard's
    state holds only that shard's rows, in ``fault_indices`` order, so the
    pooled scheduler ships each fault once plus fault_shards x the spec,
    whatever the session's length.  A row outside the enumerated universe
    is refused: it exists in this process's table alone.
    """
    table = stuck_at_table(state.circuit)
    foreign = [row for row in state.rows if row >= table.universe]
    if foreign:
        raise ValueError(
            f"stuck-at rows {foreign[:5]} lie outside the enumerated universe "
            f"of {table.universe} rows; no worker's table holds them"
        )
    groups = keyed_round_robin_shards(
        [table.site[row] for row in state.rows], fault_shards
    )
    return tuple(
        StageNode(
            key=f"{prefix}/shard{shard_id}",
            task=ShardScanStage(
                scenario_key=scenario_key,
                shard_id=shard_id,
                state=replace(state, rows=tuple(state.rows[i] for i in fault_group)),
                fault_indices=fault_group,
                session=session,
                pulse_order=pulse_order,
            ),
            phase=phase,
            scenario=scenario,
            category=CATEGORY_SIM,
        )
        for shard_id, fault_group in enumerate(groups)
    )


@dataclass(frozen=True)
class ShardScanStage:
    """One fault-simulation shard: ``state.rows`` scanned over ``session``.

    ``state.rows[k]`` is the campaign's fault ``fault_indices[k]``, and the
    outcome reports that campaign-global index for the min-merge.  The
    shard scans its regenerated session as it is drawn -- under a
    transition state as pairs whose capture blocks it derives under
    ``pulse_order`` -- so it reports campaign-global pattern indices too.
    """

    scenario_key: str
    shard_id: int
    state: FaultSimShardState
    fault_indices: tuple[int, ...]
    session: SessionSpec
    pulse_order: Optional[Sequence[Sequence[str]]] = None

    def run(self) -> ShardOutcome:
        # The timer covers engine construction and session generation too:
        # a worker's first shard of a circuit really pays kernel
        # compilation, and the recorded per-shard seconds must reflect that
        # full cost.
        start = time.perf_counter()
        state = self.state
        engine = state.build_simulator()
        blocks = (
            self.session.pair_blocks(state.circuit, self.pulse_order)
            if state.transition
            else self.session.blocks()
        )
        indices = self.fault_indices
        evals_before = engine.gate_evals
        found = engine.first_detections(state.rows, blocks)
        seconds = time.perf_counter() - start
        return ShardOutcome(
            scenario_key=self.scenario_key,
            shard_id=self.shard_id,
            first_detections={indices[k]: pattern for k, pattern in found.items()},
            gate_evals=engine.gate_evals - evals_before,
            seconds=seconds,
        )


@dataclass(frozen=True)
class MergeDetectionsStage:
    """Min-merge the shard outcomes back into the serial-equivalent result,
    sampling the curve at the session's block ``boundaries``."""

    boundaries: tuple[int, ...]

    def run(self, bundle: ScenarioBundle, *outcomes) -> RandomPhaseOutcome:
        merged = merge_first_detections(outcomes)
        result = build_simulation_result(
            bundle.fault_list,
            bundle.positions,
            merged,
            list(self.boundaries),
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
    """Per-clock-domain MISR signatures of the leading signature slice.

    Regenerates the session's leading ``signature_patterns`` (a
    :class:`SessionSpec` of that length), derives their double-capture
    responses once, packed, and folds each domain's own cells into its MISR
    (:meth:`~repro.bist.stumps.StumpsDomain.fold_responses`).  The folds
    advance deep copies of the bundle's domains made inside ``run``, so the
    bundle's MISRs never move and a re-run signs the same values.
    """

    config: LogicBistConfig

    def run(self, bundle: ScenarioBundle) -> dict[str, int]:
        config = self.config
        if config.signature_patterns <= 0:
            return {}
        count = min(config.signature_patterns, config.random_patterns)
        session = SessionSpec(bundle.stumps, count, config.block_size)
        responses = derive_signature_responses(
            bundle.core.circuit,
            (block for _, block in session.blocks()),
            bundle.capture_schedule,
        )
        return {
            name: domain.fold_responses(responses)
            for name, domain in copy.deepcopy(bundle.stumps.domains).items()
        }


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
    on the backtrack limit, screening width and RNG seed.
    """
    return TopUpAtpg(
        circuit,
        backtrack_limit=config.topup_backtrack_limit,
        seed=config.topup_seed,
        max_faults=config.topup_max_faults,
        block_size=config.block_size,
        sim_backend=config.sim_backend,
    )


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
        table = stuck_at_table(circuit)
        groups = keyed_round_robin_shards(
            [table.site[row] for row in table.ids_of(targets)], self.fault_shards
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
        result = build_topup_atpg(inputs.core.circuit, config).run(fault_list)
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
        result = topup.run_prepared(fault_list, prepared)
        return TopUpOutcome(result=result, fault_list=fault_list)


@dataclass(frozen=True)
class TransitionPrepStage:
    """Phase 6 preparation: the transition-fault universe of the core.

    No pattern is generated here: each transition shard regenerates the
    launch blocks from the bundle's :class:`SessionSpec` and derives their
    capture blocks itself.
    """

    def run(self, bundle: ScenarioBundle) -> TransitionBundle:
        fault_list = FaultList.transition(bundle.core.circuit)
        return TransitionBundle(
            scenario_key=bundle.scenario_key,
            fault_list=fault_list,
            positions=tuple(fault_list.undetected_positions()),
        )


@dataclass(frozen=True)
class TransitionMergeStage:
    """Merge transition shard outcomes into the at-speed measurement.

    The same min-merge + curve rebuild as :class:`MergeDetectionsStage`, so
    the outcome (coverage, curve and first detections alike) is identical to
    the serial transition simulation at any shard/worker count.
    """

    boundaries: tuple[int, ...]

    def run(self, prep: TransitionBundle, *outcomes) -> TransitionOutcome:
        merged = merge_first_detections(outcomes)
        result = build_simulation_result(
            prep.fault_list, prep.positions, merged, list(self.boundaries)
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
class SkewTrialsStage:
    """The Fig. 3 Monte-Carlo sweep: ``config.skew_trials`` trial-indexed
    shift-path samples, reported with the bundle's capture schedule and its
    verdict.

    A thousand trials take about 10 ms on a 2-CPU host (16 ms while each
    trial built a report), less than one pooled dispatch, so the sweep
    neither fans out nor leaves the parent.
    """

    config: LogicBistConfig

    def run(self, bundle: ScenarioBundle) -> SkewOutcome:
        config = self.config
        schedule = bundle.capture_schedule
        problems = tuple(schedule.validate())
        summary = run_skew_trials(
            build_shift_path_parameters(config),
            config.skew_range_ns,
            range(config.skew_trials),
            bist_clock_advance_ns=config.bist_clock_advance_ns,
            # The paper's deployment always applies the re-timing fix (the
            # parent-side shift-path check does the same).
            retiming=True,
            seed=config.skew_seed,
        )
        return SkewOutcome(
            summary=summary,
            schedule_valid=not problems,
            schedule_problems=problems,
            d3_ns=schedule.d3_ns,
            max_skew_ns=schedule.max_skew_ns,
            skew_range_ns=config.skew_range_ns,
            bist_clock_advance_ns=config.bist_clock_advance_ns,
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
    num_workers: int = 1,
) -> tuple[list[StageNode], dict[str, str]]:
    """Wire one (core, config) scenario into stage-graph nodes.

    The graph follows the config alone: the top-up stages come from
    ``campaign_topup``, the transition stages from
    ``measure_transition_coverage``, the skew stage from ``skew_trials > 0``,
    and the report stage is always built.

    Only ``core`` and ``tpi`` are pooled nodes here; every other node runs
    in the parent, and the expanders splice in the pooled scan shards and
    top-up stages.

    Returns ``(nodes, artifacts)`` where ``artifacts`` maps logical names
    (``"core"``, ``"tpi"``, ``"bundle"``, ``"fault_sim"``, ``"signatures"``,
    ``"report"``, and, when the config asks for them, ``"topup_input"`` /
    ``"topup"``, ``"transition_prep"`` / ``"transition"`` and ``"skew"``) to
    the node keys whose values a finished
    :class:`~repro.campaign.scheduler.PipelineRun` holds.  Many scenarios'
    node lists concatenate into one multi-scenario DAG; ``scenario_key`` must
    be unique within the DAG.
    """
    include_topup = config.campaign_topup
    include_transition = config.measure_transition_coverage
    include_skew = config.skew_trials > 0
    name = scenario_name or circuit.name
    keys = {"core": f"{scenario_key}/core", "tpi": f"{scenario_key}/tpi"}
    # The two pooled nodes; every node ``add`` builds runs in the parent.
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
    ]

    def add(artifact, task, deps, phase, category=CATEGORY_CONTROL):
        keys[artifact] = f"{scenario_key}/{artifact}"
        nodes.append(
            StageNode(
                key=keys[artifact],
                task=task,
                deps=tuple(keys[dep] for dep in deps),
                local=True,
                phase=phase,
                scenario=name,
                category=category,
            )
        )

    def add_scan(artifact, bundles, phase):
        task = FaultSimStage(
            bundle_key=keys[bundles[-1]],
            prefix=f"{scenario_key}/{artifact}",
            scenario=name,
            fault_shards=fault_shards,
            config=config,
        )
        add(artifact, task, bundles, phase)

    bundle = BuildStumpsStage(scenario_key, config)
    add("bundle", bundle, ("tpi",), PHASE_RANDOM, CATEGORY_PREP)
    add_scan("fault_sim", ("bundle",), PHASE_RANDOM)
    add("signatures", SignatureStage(config), ("bundle",), PHASE_RANDOM, CATEGORY_PREP)
    if include_topup:
        add("topup_input", TrimTopUpInputStage(), ("bundle", "fault_sim"), PHASE_TOPUP)
        task = TopUpStage(
            input_key=keys["topup_input"],
            prefix=f"{scenario_key}/topup",
            scenario=name,
            config=config,
            fault_shards=fault_shards,
        )
        add("topup", task, ("topup_input",), PHASE_TOPUP)
    if include_transition:
        add(
            "transition_prep",
            TransitionPrepStage(),
            ("bundle",),
            PHASE_AT_SPEED,
            CATEGORY_PREP,
        )
        add_scan("transition", ("bundle", "transition_prep"), PHASE_AT_SPEED)
    if include_skew:
        add("skew", SkewTrialsStage(config), ("bundle",), PHASE_AT_SPEED, CATEGORY_SIM)
    extras = {
        "topup": include_topup,
        "transition": include_transition,
        "skew": include_skew,
    }
    task = ReportStage(
        name=name,
        core_name=circuit.name,
        num_workers=num_workers,
        has_topup=include_topup,
        has_transition=include_transition,
        has_skew=include_skew,
    )
    deps = ("bundle", "fault_sim", "signatures")
    deps += tuple(extra for extra, included in extras.items() if included)
    add("report", task, deps, PHASE_RANDOM)
    return nodes, keys
