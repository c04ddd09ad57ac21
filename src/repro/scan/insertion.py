"""Full-scan insertion: the transform that produces the BIST-ready core.

Steps (mirroring Section 2.1 and the notes under Table 1):

1. optionally wrap every primary input and primary output with a scan cell
   ("Scan cells were inserted for all PIs and POs to increase delay fault
   coverage") -- the wrapper cells become ordinary scan cells of a chosen
   clock domain,
2. identify and block X sources,
3. convert every flop to a mux-D scan cell (area accounting only -- the
   functional netlist view is unchanged),
4. partition the cells into balanced per-domain scan chains.

The result bundles the modified circuit, the chain architecture, the scan-cell
records and the area overhead, which is what the top-level LBIST flow and the
Table 1 report consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import or_
from typing import Mapping, Optional

from ..netlist.circuit import Circuit
from ..netlist.gates import GateType
from ..netlist.library import CellLibrary
from .chains import ScanChainArchitecture, build_scan_chains, verify_chain_architecture
from .scan_cell import ScanCell, classify_flop, scan_conversion_area
from .x_blocking import XBlockingResult, block_x_sources, identify_x_sources


@dataclass
class ScanInsertionConfig:
    """Options controlling full-scan insertion."""

    #: Wrap primary inputs with scan cells (paper: yes).
    wrap_inputs: bool = True
    #: Wrap primary outputs with scan cells (paper: yes).
    wrap_outputs: bool = True
    #: Clock domain for wrapper cells; ``None`` picks each pin's nearest domain.
    wrapper_clock_domain: Optional[str] = None
    #: Block X sources (paper: required for a valid signature).
    block_x: bool = True
    #: Value X sources are forced to during self-test.
    x_blocked_value: int = 0
    #: Also treat un-wrapped primary inputs as X sources.
    treat_unwrapped_inputs_as_x: bool = False
    #: Target maximum chain length (drives the number of chains per domain).
    max_chain_length: Optional[int] = None
    #: Explicit chain counts per domain (overrides max_chain_length).
    chains_per_domain: Optional[Mapping[str, int]] = None
    #: Global chain budget (used when the other two sizing knobs are absent).
    total_chains: Optional[int] = None


@dataclass
class ScanInsertionResult:
    """Everything produced by :func:`insert_scan`."""

    circuit: Circuit
    architecture: ScanChainArchitecture
    scan_cells: list[ScanCell] = field(default_factory=list)
    wrapper_cells: list[str] = field(default_factory=list)
    x_blocking: Optional[XBlockingResult] = None
    #: Extra area in gate equivalents relative to the original core.
    area_overhead: float = 0.0
    #: Area of the original core (gate equivalents), for overhead percentages.
    original_area: float = 0.0
    problems: list[str] = field(default_factory=list)

    @property
    def overhead_fraction(self) -> float:
        """Area overhead as a fraction of the original core area."""
        if self.original_area <= 0:
            return 0.0
        return self.area_overhead / self.original_area


def _majority_domain(circuit: Circuit, nets: list[str], fallback: str) -> str:
    votes: dict[str, int] = {}
    for net in nets:
        for name in circuit.fanout_cone(net):
            gate = circuit.gate(name)
            if gate.is_flop and gate.clock_domain:
                votes[gate.clock_domain] = votes.get(gate.clock_domain, 0) + 1
    if not votes:
        return fallback
    return max(votes, key=lambda d: (votes[d], d))


def _input_domains(circuit: Circuit, fallback: str) -> dict[str, str]:
    """:func:`_majority_domain` of every primary input, from one topological
    sweep of int bitsets (bit i: the i-th PI reaches the net).  An input
    wrapper reads only its own PI, so wrapping changes no other PI's cone."""
    pis = circuit.primary_inputs
    reach = {pi: 1 << bit for bit, pi in enumerate(pis)}
    for name in circuit.topological_order():
        gate = circuit.gate(name)
        if name not in reach:  # cones stop at flops: a flop's output reaches none
            reach[name] = 0 if gate.is_flop else reduce(or_, (reach[n] for n in gate.inputs), 0)
    votes: list[dict[str, int]] = [{} for _ in pis]
    for flop in circuit.flops():
        mask = reduce(or_, (reach[n] for n in flop.inputs), 0) if flop.clock_domain else 0
        while mask:
            pi_votes = votes[(mask & -mask).bit_length() - 1]
            pi_votes[flop.clock_domain] = pi_votes.get(flop.clock_domain, 0) + 1
            mask &= mask - 1
    return {pi: max(v, key=lambda d: (v[d], d)) if v else fallback for pi, v in zip(pis, votes)}


def wrap_primary_inputs(
    circuit: Circuit, clock_domain: Optional[str] = None
) -> list[str]:
    """Insert an input wrapper scan cell after every primary input (in place).

    Every consumer of a PI is rewired to the wrapper flop's output, so in scan
    mode the PI value is fully controllable from the chain.  Returns the new
    flop names.
    """
    created: list[str] = []
    domains = circuit.clock_domains() or ["clk"]
    pi_domains = {} if clock_domain else _input_domains(circuit, domains[0])
    for pi in circuit.primary_inputs:
        # Deduplicate: a gate using the PI on several pins appears once here,
        # and replace_input_net rewires all of its pins in one call.
        consumers = list(dict.fromkeys(circuit.fanout(pi)))
        if not consumers:
            continue
        domain = clock_domain or pi_domains[pi]
        name = f"wrap_in_{pi}"
        circuit.add_gate(name, GateType.DFF, [pi], clock_domain=domain, wrapper_cell=True)
        for consumer in consumers:
            if consumer == name:
                continue
            circuit.replace_input_net(consumer, pi, name)
        created.append(name)
    return created


def wrap_primary_outputs(
    circuit: Circuit, clock_domain: Optional[str] = None
) -> list[str]:
    """Insert an output wrapper scan cell observing every primary output (in place)."""
    created: list[str] = []
    domains = circuit.clock_domains() or ["clk"]
    for po in circuit.primary_outputs:
        domain = clock_domain or _majority_domain(circuit, [po], domains[0])
        name = f"wrap_out_{po}"
        if name in circuit.gates:
            continue
        circuit.add_gate(name, GateType.DFF, [po], clock_domain=domain, wrapper_cell=True)
        created.append(name)
    return created


def insert_scan(
    circuit: Circuit,
    config: Optional[ScanInsertionConfig] = None,
    library: Optional[CellLibrary] = None,
) -> ScanInsertionResult:
    """Run full-scan insertion on a *copy* of ``circuit`` and return the result."""
    config = config or ScanInsertionConfig()
    library = library or CellLibrary()
    working = circuit.copy(f"{circuit.name}_scan")
    original_area = circuit.area(library)

    wrapper_cells: list[str] = []
    if config.wrap_inputs:
        wrapper_cells.extend(wrap_primary_inputs(working, config.wrapper_clock_domain))
    if config.wrap_outputs:
        wrapper_cells.extend(wrap_primary_outputs(working, config.wrapper_clock_domain))

    x_result: Optional[XBlockingResult] = None
    if config.block_x:
        sources = identify_x_sources(
            working, include_unwrapped_inputs=config.treat_unwrapped_inputs_as_x
        )
        if sources:
            x_result = block_x_sources(working, sources, config.x_blocked_value)

    architecture = build_scan_chains(
        working,
        max_chain_length=config.max_chain_length,
        chains_per_domain=config.chains_per_domain,
        total_chains=config.total_chains,
    )
    problems = verify_chain_architecture(working, architecture)

    chain_of_cell = architecture.chain_of_cell()
    scan_cells = []
    for flop in working.flops():
        record = classify_flop(flop)
        chain_info = chain_of_cell.get(flop.name)
        if chain_info is not None:
            record = ScanCell(
                flop=record.flop,
                clock_domain=record.clock_domain,
                chain=chain_info[0],
                position=chain_info[1],
                is_wrapper=record.is_wrapper,
                is_observation_point=record.is_observation_point,
            )
        scan_cells.append(record)

    # Area overhead: mux penalty on original flops + full scan cells for the
    # wrappers + blocking gates.
    overhead = scan_conversion_area(working, library)
    overhead += len(wrapper_cells) * library.scan_cell_area()
    if x_result is not None:
        overhead += sum(
            library.area(working.gate(g).gate_type, len(working.gate(g).inputs))
            for g in x_result.blocking_gates
        )

    return ScanInsertionResult(
        circuit=working,
        architecture=architecture,
        scan_cells=scan_cells,
        wrapper_cells=wrapper_cells,
        x_blocking=x_result,
        area_overhead=overhead,
        original_area=original_area,
        problems=problems,
    )
