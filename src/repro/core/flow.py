"""The end-to-end flexible logic BIST flow (the paper's primary contribution).

:class:`LogicBistFlow` ties every subsystem together in the order a real DFT
insertion + sign-off flow would run them:

1. **BIST-ready core preparation** -- full-scan insertion with PI/PO wrapper
   cells, X-source blocking, per-domain scan chains
   (:mod:`repro.core.bist_ready`).
2. **Test point insertion** -- a preliminary random-pattern fault simulation
   (patterns taken from the real PRPG + phase shifter) identifies the
   random-resistant faults, and observation points are chosen from their
   fault-effect profile (:mod:`repro.tpi.observation_points`); no control
   points are used.
3. **Random-pattern BIST phase** -- the STUMPS architecture (one PRPG/MISR
   pair per clock domain) generates the configured number of patterns; fault
   simulation with dropping gives "Fault Coverage 1"; MISR signatures are
   computed for a leading slice of the session.
4. **Top-up ATPG phase** -- PODEM targets the remaining faults, cubes are
   compacted and random-filled, and the patterns are applied through the
   input selector, giving "# of Top-Up Patterns" and "Fault Coverage 2".
   This phase runs kernel-indexed PODEM with first-X backtrace and
   candidate screening in ``block_size``-wide blocks; the name-keyed PODEM
   search and one-pattern-at-a-time walk it must match are oracles in
   :mod:`repro.oracle`, called only by tests and benchmarks.  A pooled
   :class:`~repro.campaign.runner.CampaignRunner` runs the same
   :class:`~repro.campaign.pipeline.TopUpStage`, fanning PODEM targets out
   across site-local worker shards -- results byte-identical to the flow's
   serial walk.
5. **At-speed timing assembly** -- the clock-gating block and the
   double-capture scheduler produce the Fig. 2 capture schedule; optionally a
   launch-on-capture transition-fault simulation quantifies the at-speed test
   quality; the Fig. 3 shift-path analysis checks the PRPG/chain/MISR
   interfaces under the configured phase advance.
6. **Reporting** -- everything Table 1 reports (plus the extras) is gathered
   into :class:`LogicBistResult`, which :mod:`repro.core.report` renders.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from ..atpg.topup import TopUpResult
from ..bist.stumps import StumpsArchitecture, StumpsDomainConfig
from ..faults.collapse import collapse_stuck_at
from ..faults.fault_list import GATE_TYPES, FaultList, stuck_at_table
from ..faults.fault_sim import FaultSimulator
from ..faults.models import OUTPUT_PIN
from ..faults.transition_sim import capture_group_updates, derive_capture_block
from ..netlist.circuit import Circuit
from ..netlist.library import CellLibrary
from ..netlist.gates import GateType
from ..simulation.kernel import shared_kernel
from ..simulation.packed import iter_blocks, unpack_words
from ..timing.clocks import ClockTreeModel, make_clock_tree
from ..timing.double_capture import CaptureSchedule
from ..timing.skew_analysis import ShiftPathAnalyzer, ShiftPathParameters, ShiftPathReport
from ..tpi.observability_tpi import ObservabilityGuidedTpi
from ..tpi.observation_points import FaultSimGuidedObservationTpi, ObservationPointPlan
from .bist_ready import BistReadyCore, finalize_with_observation_points
from .config import DEFAULT_FREQUENCY_MHZ, LogicBistConfig


@dataclass
class PhaseTiming:
    """Compute seconds of one flow phase (the paper reports CPU time).

    Summed over the phase's pipeline stages, which the flow runs one after
    another, so this is the phase's wall-clock.
    """

    name: str
    seconds: float


# --------------------------------------------------------------------- #
# Structure builders (module-level so the sharded campaign runner can
# assemble the exact same STUMPS / clock-tree structures the flow uses)
# --------------------------------------------------------------------- #
def build_shift_path_parameters(config: LogicBistConfig) -> ShiftPathParameters:
    """The flow's Fig. 3 shift-path electrical parameters under ``config``.

    One construction path shared by the parent-side shift-path check and the
    campaign's Monte-Carlo skew stage, so both analyses always agree
    on the compactor depth the chain->MISR interface sees.
    """
    return ShiftPathParameters(
        compactor_depth=0 if not config.use_space_compactor else 3
    )


def build_clock_tree(circuit: Circuit, config: LogicBistConfig) -> ClockTreeModel:
    """The flow's clock-tree model for ``circuit`` under ``config``."""
    frequencies = {
        domain: float(
            config.clock_frequencies_mhz.get(domain, DEFAULT_FREQUENCY_MHZ)
        )
        for domain in circuit.clock_domains()
    }
    return make_clock_tree(
        frequencies, intra_domain_skew_ns=config.intra_domain_skew_ns
    )


def build_stumps(core: BistReadyCore, config: LogicBistConfig) -> StumpsArchitecture:
    """The flow's STUMPS architecture (one PRPG/MISR pair per clock domain)."""
    domain_configs = []
    for index, domain in enumerate(core.architecture.domains()):
        chains = len(core.architecture.chains_in_domain(domain))
        domain_configs.append(
            StumpsDomainConfig(
                domain=domain,
                prpg_length=config.prpg_length,
                prpg_seed=config.bist_seed + index + 1,
                phase_shifter_seed=config.bist_seed + 100 + index,
                compactor_outputs=(
                    min(config.compacted_misr_length, chains)
                    if config.use_space_compactor
                    else None
                ),
                # The paper's MISRs are never shorter than the 19-bit PRPG
                # (small domains get 19-bit MISRs, the big domain gets one
                # as wide as its chain count); mirror that rule here.
                misr_length=(
                    config.compacted_misr_length
                    if config.use_space_compactor
                    else max(chains, config.prpg_length)
                ),
            )
        )
    return StumpsArchitecture(core.architecture, domain_configs)


def insert_test_points(
    core: BistReadyCore, config: LogicBistConfig
) -> Optional[ObservationPointPlan]:
    """The flow's test-point-insertion phase (phase 2), on a prepared core.

    Mutates ``core`` in place (observation flops become real scan cells) and
    returns the chosen plan, or ``None`` when TPI is disabled.  Module-level
    so the campaign runner performs exactly the same BIST-ready preparation
    the flow does.
    """
    if config.tpi_method == "none" or config.observation_point_budget <= 0:
        return None
    if config.tpi_method == "observability":
        plan = ObservabilityGuidedTpi(
            core.circuit, budget=config.observation_point_budget
        ).select()
    else:
        blocks = list(
            build_stumps(core, config).generate_packed_blocks(
                config.tpi_profile_patterns, block_size=config.block_size
            )
        )
        fault_list = fresh_fault_list(core.circuit)
        simulator = FaultSimulator(
            core.circuit,
            backend=config.sim_backend,
            memory_budget_mb=config.sim_memory_budget_mb,
        )
        simulator.simulate_blocks(fault_list, blocks)
        tpi = FaultSimGuidedObservationTpi(
            core.circuit,
            budget=config.observation_point_budget,
            profile_patterns=min(config.tpi_profile_patterns, 128),
        )
        plan = tpi.select(fault_list, blocks)
    if plan.nets:
        finalize_with_observation_points(core, plan, config)
    else:
        core.tpi_plan = plan
    return plan


def fresh_fault_list(circuit: Circuit) -> FaultList:
    """The flow's collapsed stuck-at fault universe: every collapsed fault
    but those on primary-input pad nets (outside the wrapped core)."""
    collapsed = collapse_stuck_at(circuit)
    table = collapsed.table
    pad = GATE_TYPES.index(GateType.INPUT)
    ids = [
        fid
        for fid in collapsed.representative_ids
        if not (table.pin[fid] == OUTPUT_PIN and table.gate_type[fid] == pad)
    ]
    return FaultList.from_table(table, ids)


def derive_signature_responses(
    circuit: Circuit,
    config: LogicBistConfig,
    patterns: list[dict],
    schedule: CaptureSchedule,
) -> list[dict[str, int]]:
    """The captured responses of the double-capture window, per pattern.

    Apply the staggered launch pulses, then the capture pulses, and read the
    flop contents that would be shifted into the MISRs.  Input wrapper cells
    capture the (statically driven) pad value at the launch pulse, which is
    exactly how they contribute launch transitions for delay faults.  The
    campaign's signature stage derives one stream and folds every clock
    domain's cells from it.

    The patterns are packed once, both pulse passes run on the packed blocks
    (:func:`~repro.faults.transition_sim.derive_capture_block`) and the flop
    words are unpacked once.
    """
    kernel = shared_kernel(circuit)
    group_updates = capture_group_updates(kernel, schedule.pulse_order)
    flop_names = circuit.flop_names()
    responses: list[dict[str, int]] = []
    for block in iter_blocks(
        patterns, block_size=config.block_size, nets=kernel.stimulus_names
    ):
        after_launch = derive_capture_block(kernel, block, group_updates)
        after_capture = derive_capture_block(kernel, after_launch, group_updates)
        words = after_capture.assignments
        responses.extend(
            unpack_words({name: words[name] for name in flop_names}, block.num_patterns)
        )
    return responses


def credit_chain_flush(core: BistReadyCore, fault_list: FaultList) -> int:
    """Credit the scan-chain flush (integrity) test.

    Before any BIST pattern is applied, a standard chain flush test shifts
    a known sequence through every chain; a stuck value on any scan cell
    output corrupts everything passing through it, so output-stem faults
    of scan cells are detected by that test.  Commercial flows count this
    coverage, and so does the paper's tool.
    """
    table = stuck_at_table(core.circuit)
    net_id = table.kernel.net_id
    flops = {net_id[name] for name in core.circuit.flop_names()}
    positions = fault_list.undetected_positions()
    credited = 0
    for position, fid in zip(positions, fault_list.table_ids(table, positions)):
        if table.pin[fid] == OUTPUT_PIN and table.gate[fid] in flops:
            fault_list.mark_detected_at(position, pattern_index=-1)
            credited += 1
    return credited


@dataclass
class LogicBistResult:
    """Everything the flow measured -- the superset of a Table 1 column."""

    core_name: str
    config: LogicBistConfig
    bist_ready: BistReadyCore
    stumps: StumpsArchitecture
    clock_tree: ClockTreeModel
    capture_schedule: CaptureSchedule

    # Structure numbers (Table 1 upper half).
    gate_count: int = 0
    flop_count: int = 0
    scan_chain_count: int = 0
    max_chain_length: int = 0
    clock_domain_count: int = 0
    prpg_count: int = 0
    prpg_length: int = 0
    misr_count: int = 0
    misr_lengths: dict[str, int] = field(default_factory=dict)
    test_point_count: int = 0

    # Coverage numbers (Table 1 lower half).
    total_faults: int = 0
    random_pattern_count: int = 0
    fault_coverage_random: float = 0.0
    top_up_pattern_count: int = 0
    fault_coverage_final: float = 0.0
    area_overhead_fraction: float = 0.0
    cpu_time_seconds: float = 0.0

    # Extras beyond Table 1.
    coverage_curve: list[tuple[int, float]] = field(default_factory=list)
    transition_coverage: Optional[float] = None
    #: Full at-speed measurement (detected/total transition faults, pattern
    #: budget, curve) -- a :class:`~repro.campaign.pipeline.TransitionOutcome`
    #: when ``measure_transition_coverage`` is set, else ``None``.
    transition: Optional[object] = None
    #: Fig. 3 Monte-Carlo sweep -- a
    #: :class:`~repro.campaign.pipeline.SkewOutcome` when ``skew_trials > 0``.
    skew_sweep: Optional[object] = None
    signatures: dict[str, int] = field(default_factory=dict)
    shift_path_report: Optional[ShiftPathReport] = None
    topup: Optional[TopUpResult] = None
    phase_timings: list[PhaseTiming] = field(default_factory=list)
    tpi_plan: Optional[ObservationPointPlan] = None
    fault_list: Optional[FaultList] = None

    @property
    def coverage_gain_from_topup(self) -> float:
        """Fault-coverage improvement contributed by the top-up patterns."""
        return self.fault_coverage_final - self.fault_coverage_random


class LogicBistFlow:
    """Configuration-driven implementation of the paper's logic BIST scheme.

    The flow *is* the degenerate serial walk of the campaign
    stage graph (:mod:`repro.campaign.pipeline`): ``run`` wires the
    scenario's phases -- scan prep, TPI, STUMPS/session assembly, fault-sim
    shard fan-out, per-domain MISR signatures, top-up ATPG, optional
    transition measurement -- into stage nodes and executes them on the
    in-process :class:`~repro.campaign.scheduler.SerialScheduler` (the
    bit-exactness oracle) with one fault shard.  A pooled run of the same
    graph is a :class:`~repro.campaign.runner.CampaignRunner` with
    ``num_workers >= 2``; it reports the same numbers.

    Note: the signature stage folds copies of the clock domains, so
    ``result.stumps`` carries no post-fold MISR state
    -- read signatures from ``result.signatures``, the values are identical.
    PRPG/MISR *register state* in ``result.stumps`` was never part of the
    contract either.
    """

    def __init__(self, config: Optional[LogicBistConfig] = None) -> None:
        self.config = config or LogicBistConfig()
        self.library = CellLibrary()

    # ------------------------------------------------------------------ #
    # Public entry point
    # ------------------------------------------------------------------ #
    def run(self, circuit: Circuit, core_name: Optional[str] = None) -> LogicBistResult:
        """Run the complete flow on ``circuit`` and return the measurements."""
        from ..campaign.pipeline import PHASE_AT_SPEED, PHASE_ORDER, scenario_stage_nodes
        from ..campaign.scheduler import SerialScheduler

        config = self.config
        flow_start = time.perf_counter()

        scenario_key = f"flow:{core_name or circuit.name}"
        nodes, keys = scenario_stage_nodes(
            scenario_key,
            circuit,
            config,
            library=self.library,
            scenario_name=core_name or circuit.name,
            include_topup=True,
            include_transition=config.measure_transition_coverage,
        )
        # The flow needs every artifact below, so there is no degraded
        # outcome here: a failing stage raises.
        pipeline_run = SerialScheduler().run(nodes)

        tpi: "TpiOutcome" = pipeline_run.value(keys["tpi"])
        bundle = pipeline_run.value(keys["bundle"])
        random_outcome = pipeline_run.value(keys["fault_sim"])
        signatures: dict[str, int] = pipeline_run.value(keys["signatures"])
        topup_outcome = pipeline_run.value(keys["topup"])
        transition_outcome = (
            pipeline_run.value(keys["transition"])
            if "transition" in keys
            else None
        )
        skew_outcome = (
            pipeline_run.value(keys["skew"]) if "skew" in keys else None
        )

        # The shift-path (Fig. 3) analysis is parent-side: it reads only the
        # clock tree and is far cheaper than a stage round-trip.
        start = time.perf_counter()
        shift_report = self._shift_path_check(bundle.clock_tree)
        shift_seconds = time.perf_counter() - start

        core = bundle.core
        stumps = bundle.stumps
        # Post-top-up detection state, as the campaign report reads it.
        fault_list = topup_outcome.fault_list

        phase_seconds = pipeline_run.seconds_by_phase()
        phase_seconds[PHASE_AT_SPEED] = (
            phase_seconds.get(PHASE_AT_SPEED, 0.0) + shift_seconds
        )
        timings = [
            PhaseTiming(phase, phase_seconds.get(phase, 0.0))
            for phase in PHASE_ORDER
        ]

        total_seconds = time.perf_counter() - flow_start

        result = LogicBistResult(
            core_name=core_name or circuit.name,
            config=config,
            bist_ready=core,
            stumps=stumps,
            clock_tree=bundle.clock_tree,
            capture_schedule=bundle.capture_schedule,
            gate_count=core.circuit.gate_count(),
            flop_count=core.circuit.flop_count(),
            scan_chain_count=core.architecture.chain_count,
            max_chain_length=core.architecture.max_chain_length,
            clock_domain_count=len(core.circuit.clock_domains()),
            prpg_count=stumps.prpg_count(),
            prpg_length=config.prpg_length,
            misr_count=stumps.misr_count(),
            misr_lengths=stumps.misr_lengths(),
            test_point_count=core.test_point_count,
            total_faults=len(fault_list),
            random_pattern_count=config.random_patterns,
            fault_coverage_random=random_outcome.coverage_random,
            top_up_pattern_count=topup_outcome.result.pattern_count,
            fault_coverage_final=fault_list.coverage(),
            area_overhead_fraction=self._area_overhead(core, stumps),
            cpu_time_seconds=total_seconds,
            coverage_curve=random_outcome.result.coverage_curve,
            transition_coverage=(
                transition_outcome.coverage
                if transition_outcome is not None
                else None
            ),
            transition=transition_outcome,
            skew_sweep=skew_outcome,
            signatures=signatures,
            shift_path_report=shift_report,
            topup=topup_outcome.result,
            phase_timings=timings,
            tpi_plan=tpi.plan,
            fault_list=fault_list,
        )
        return result

    # ------------------------------------------------------------------ #
    # Parent-side analyses
    # ------------------------------------------------------------------ #
    def _shift_path_check(self, clock_tree: ClockTreeModel) -> ShiftPathReport:
        config = self.config
        analyzer = ShiftPathAnalyzer(build_shift_path_parameters(config))
        skew = clock_tree.max_skew_overall()
        return analyzer.analyze(
            chain_clock_arrival_ns=skew + config.bist_clock_advance_ns,
            bist_clock_arrival_ns=skew,
            retiming=True,
        )

    # ------------------------------------------------------------------ #
    # Area accounting
    # ------------------------------------------------------------------ #
    def _bist_logic_area(self, stumps: StumpsArchitecture) -> float:
        """Area of the PRPGs, phase shifters, MISRs, compactors and controller."""
        library = self.library
        dff_area = library.area(GateType.DFF, 1)
        xor_area = library.area(GateType.XOR, 2)
        total = 0.0
        for domain in stumps.domains.values():
            total += domain.prpg.length * dff_area
            total += domain.misr.length * dff_area
            total += domain.misr.length * xor_area  # MISR input XORs
            total += domain.phase_shifter.xor_gate_count() * xor_area
            total += domain.compactor.xor_gate_count() * xor_area
            # Clock gating cell + control per domain (small fixed cost).
            total += 10.0
        # Controller + Boundary-Scan glue (fixed cost, a few hundred gates).
        total += 150.0
        return total

    def _area_overhead(self, core: BistReadyCore, stumps: StumpsArchitecture) -> float:
        original_area = core.scan_result.original_area
        if original_area <= 0:
            return 0.0
        overhead = (
            core.scan_result.area_overhead
            + core.observation_point_area(self.library)
            + self._bist_logic_area(stumps)
        )
        return overhead / original_area
