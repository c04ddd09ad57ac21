"""Preparation of the BIST-ready core (Section 2.1) and its BIST structures.

A *BIST-ready core* is "a full-scan circuit with unknown value (X) sources
properly blocked" plus the observation points chosen by fault simulation.
This module holds the preparation steps and the structure builders every
phase of the campaign pipeline (:mod:`repro.campaign.pipeline`) calls:

* :func:`prepare_scan_core` -- full-scan insertion + X-blocking + chain
  construction + structural validation,
* :func:`insert_test_points` / :func:`finalize_with_observation_points` --
  choose the observation points, physically insert them (new scan cells)
  and rebuild the chain architecture so the new cells are shifted and
  observed like any other cell,
* :func:`build_stumps`, :func:`build_clock_tree` and
  :func:`build_shift_path_parameters` -- the per-domain PRPG/MISR pairs,
  the clock tree and the Fig. 3 shift-path parameters,
* :func:`fresh_fault_list` / :func:`credit_chain_flush` -- the collapsed
  stuck-at universe and the chain-flush credit,
* :func:`derive_signature_responses` -- the double-capture responses the
  MISRs compact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from ..bist.stumps import StumpsArchitecture, StumpsDomainConfig
from ..faults.collapse import collapse_stuck_at
from ..faults.fault_list import GATE_TYPES, FaultList, stuck_at_table
from ..faults.fault_sim import FaultSimulator
from ..faults.models import OUTPUT_PIN
from ..faults.transition_sim import capture_group_updates, derive_capture_block
from ..netlist.circuit import Circuit
from ..netlist.gates import GateType
from ..netlist.library import CellLibrary
from ..netlist.validate import validate_circuit
from ..scan.chains import ScanChainArchitecture, build_scan_chains, verify_chain_architecture
from ..scan.insertion import ScanInsertionConfig, ScanInsertionResult, insert_scan
from ..scan.x_blocking import verify_x_clean
from ..simulation.kernel import shared_kernel
from ..simulation.packed import PatternBlock
from ..timing.clocks import ClockTreeModel, make_clock_tree
from ..timing.double_capture import CaptureSchedule
from ..timing.skew_analysis import ShiftPathParameters
from ..tpi.observability_tpi import ObservabilityGuidedTpi
from ..tpi.observation_points import (
    FaultSimGuidedObservationTpi,
    ObservationPointPlan,
    apply_observation_points,
)
from .config import DEFAULT_FREQUENCY_MHZ, LogicBistConfig


@dataclass
class BistReadyCore:
    """The scan-inserted, X-blocked, test-point-equipped core."""

    circuit: Circuit
    scan_result: ScanInsertionResult
    architecture: ScanChainArchitecture
    observation_nets: list[str] = field(default_factory=list)
    observation_flops: list[str] = field(default_factory=list)
    tpi_plan: Optional[ObservationPointPlan] = None

    def __setstate__(self, state: dict) -> None:
        # Pickles of older code carry the submitted circuit as ``original``;
        # nothing reads it.
        state.pop("original", None)
        self.__dict__.update(state)

    @property
    def test_point_count(self) -> int:
        """Number of inserted observation points (the paper's "# of Test Points")."""
        return len(self.observation_flops)

    def observation_point_area(self, library: Optional[CellLibrary] = None) -> float:
        """Area of the observation-point scan cells (gate equivalents)."""
        library = library or CellLibrary()
        return self.test_point_count * library.scan_cell_area()


def prepare_scan_core(
    circuit: Circuit, config: LogicBistConfig, library: Optional[CellLibrary] = None
) -> BistReadyCore:
    """Run scan insertion + X blocking and validate the result."""
    scan_config = config.scan
    if (
        scan_config.max_chain_length is None
        and scan_config.chains_per_domain is None
        and scan_config.total_chains is None
        and config.total_scan_chains is not None
    ):
        scan_config = ScanInsertionConfig(**{**scan_config.__dict__})
        scan_config.total_chains = config.total_scan_chains
    result = insert_scan(circuit, scan_config, library)
    if result.problems:
        raise ValueError(
            f"scan insertion produced an inconsistent chain architecture: {result.problems[:3]}"
        )
    report = validate_circuit(result.circuit)
    report.raise_if_errors()
    residual = verify_x_clean(result.circuit)
    if residual:
        raise ValueError(f"X sources still reach observation nets: {residual[:5]}")
    return BistReadyCore(
        circuit=result.circuit,
        scan_result=result,
        architecture=result.architecture,
    )


def finalize_with_observation_points(
    core: BistReadyCore,
    plan: ObservationPointPlan,
    config: LogicBistConfig,
) -> BistReadyCore:
    """Insert the selected observation points and rebuild the scan chains."""
    flops = apply_observation_points(core.circuit, plan.nets)
    scan_config = config.scan
    architecture = build_scan_chains(
        core.circuit,
        max_chain_length=scan_config.max_chain_length,
        chains_per_domain=scan_config.chains_per_domain,
        total_chains=scan_config.total_chains or config.total_scan_chains,
    )
    problems = verify_chain_architecture(core.circuit, architecture)
    if problems:
        raise ValueError(f"chain rebuild after TPI failed: {problems[:3]}")
    core.architecture = architecture
    core.observation_nets = list(plan.nets)
    core.observation_flops = flops
    core.tpi_plan = plan
    return core


def build_shift_path_parameters(config: LogicBistConfig) -> ShiftPathParameters:
    """The Fig. 3 shift-path electrical parameters under ``config``.

    One construction path shared by the flow's shift-path check and the
    campaign's Monte-Carlo skew stage, so both analyses always agree
    on the compactor depth the chain->MISR interface sees.
    """
    return ShiftPathParameters(
        compactor_depth=0 if not config.use_space_compactor else 3
    )


def build_clock_tree(circuit: Circuit, config: LogicBistConfig) -> ClockTreeModel:
    """The clock-tree model for ``circuit`` under ``config``."""
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
    """The STUMPS architecture (one PRPG/MISR pair per clock domain)."""
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
    """The test-point-insertion phase (phase 2), on a prepared core.

    Mutates ``core`` in place (observation flops become real scan cells) and
    returns the chosen plan, or ``None`` when TPI is disabled.
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
    """The collapsed stuck-at fault universe: every collapsed fault but
    those on primary-input pad nets (outside the wrapped core)."""
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
    blocks: Iterable[PatternBlock],
    schedule: CaptureSchedule,
) -> list[PatternBlock]:
    """The captured responses of the double-capture window, block by block.

    Apply the schedule's pulse order once -- it already lists every domain's
    launch pulse and its capture pulse, staggered in time -- and read the
    flop contents that would be shifted into the MISRs.  Input wrapper cells
    capture the (statically driven) pad value at the launch pulse, which is
    exactly how they contribute launch transitions for delay faults.  The
    campaign's signature stage derives one stream and folds every clock
    domain's cells from it.

    The pulses run on each packed session block in place
    (:func:`~repro.faults.transition_sim.derive_capture_block`; stimulus nets
    missing from a block read 0), and each returned block holds that block's
    packed flop words.
    """
    kernel = shared_kernel(circuit)
    group_updates = capture_group_updates(kernel, schedule.pulse_order)
    flop_names = circuit.flop_names()
    responses: list[PatternBlock] = []
    for block in blocks:
        words = derive_capture_block(kernel, block, group_updates).assignments
        responses.append(
            PatternBlock({name: words[name] for name in flop_names}, block.num_patterns)
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
