"""Fault-simulation-guided observation-point insertion (the paper's method).

Section 2.1: *"some observation points are inserted based on the results of
fault simulation, instead of observability calculation commonly used in
previous logic BIST schemes.  In addition, no control point is used in order
to meet strict performance requirements for IP cores."*

The algorithm implemented here:

1. fault-simulate a sample of the random patterns and keep the faults that
   remain undetected (the random-pattern-resistant population),
2. for those faults, profile *where their effects travel*
   (:meth:`repro.faults.fault_sim.FaultSimulator.fault_effect_profile`):
   a net that frequently carries the effect of an undetected fault is a spot
   where an observation point would convert that fault into a detected one,
3. greedily pick nets maximising the number of newly covered faults
   (weighted set cover) until the test-point budget is exhausted.  A net's
   key is (uncovered faults it exposes at least ``min_effect_count`` times,
   their effect-count sum), ties broken by name.  The greedy is *lazy*
   (CELF; Leskovec et al., KDD 2007): a heap holds every net's key from its
   last evaluation, and only the top is re-evaluated, until its fresh key is
   the one already on the heap.  This is exact, not an approximation of the
   full rescan: covering faults can only lower a key (the count falls, or it
   stays and then the sum stays too), so a stale key bounds its net's fresh
   one, and a top whose key is fresh beats every other net's fresh key.
   The picks, their order and each pick's covered faults are those of a
   rescan of every net per round,
4. physically realise each observation point as a dedicated scan cell whose
   D input taps the chosen net -- the cell joins a scan chain and its content
   is compacted into the MISR like any other response bit, so it costs area
   but adds **zero** delay to functional paths (unlike control points).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from ..faults.fault_list import FaultList
from ..faults.fault_sim import FaultSimulator
from ..netlist.circuit import Circuit
from ..netlist.gates import GateType
from ..netlist.library import CellLibrary
from ..simulation.packed import PatternBlock, leading_blocks


@dataclass
class ObservationPointPlan:
    """Result of observation-point selection.

    Attributes
    ----------
    nets:
        Chosen tap locations, in selection order (most valuable first).
    covered_faults:
        Mapping net -> faults that become observable thanks to that net
        (credited greedily, so each fault appears under exactly one net).
    resistant_fault_count:
        Size of the undetected-fault population the selection started from.
    """

    nets: list[str] = field(default_factory=list)
    covered_faults: dict[str, list[object]] = field(default_factory=dict)
    resistant_fault_count: int = 0

    @property
    def total_covered(self) -> int:
        """Number of previously-undetected faults the plan makes observable."""
        return sum(len(faults) for faults in self.covered_faults.values())

    def area_overhead(self, library: Optional[CellLibrary] = None) -> float:
        """Added area in gate equivalents (one scan cell per observation point)."""
        library = library or CellLibrary()
        return len(self.nets) * library.scan_cell_area()


@dataclass
class FaultSimGuidedObservationTpi:
    """The paper's fault-simulation-guided observation-point selector."""

    circuit: Circuit
    #: Maximum number of observation points to insert.
    budget: int = 32
    #: How many of the supplied patterns to use for effect profiling.
    profile_patterns: int = 64
    #: Ignore candidate nets whose effect count (over the profiled patterns)
    #: is below this threshold -- they would be observation points that fire
    #: too rarely to help a random-pattern BIST session.
    min_effect_count: int = 1

    def select(
        self,
        fault_list: FaultList,
        blocks: Iterable[PatternBlock],
        observe_nets: Optional[Sequence[str]] = None,
    ) -> ObservationPointPlan:
        """Choose observation points for the currently-undetected faults.

        Parameters
        ----------
        fault_list:
            Fault list *after* the preliminary random-pattern fault simulation;
            only its undetected faults drive the selection (the fault list is
            not modified).
        blocks:
            Packed random patterns; the first :attr:`profile_patterns` of them
            are used for effect profiling.  Pack a pattern list with
            :func:`~repro.simulation.packed.iter_blocks` first.
        observe_nets:
            Current observation nets (defaults to the circuit's own).
        """
        simulator = FaultSimulator(self.circuit, observe_nets)
        resistant = fault_list.undetected_positions()
        if not resistant or self.budget <= 0:
            return ObservationPointPlan(resistant_fault_count=len(resistant))

        # Profile and cover in ID space: faults are indices into
        # ``resistant``, turned back into fault objects only for the plan.
        profile = simulator.fault_effect_profile_ids(
            fault_list.table_ids(simulator.table, resistant),
            leading_blocks(blocks, self.profile_patterns),
        )
        plan = self.plan_from_profile(range(len(resistant)), profile)
        plan.covered_faults = {
            net: fault_list.faults_at(resistant[index] for index in covered)
            for net, covered in plan.covered_faults.items()
        }
        return plan

    def plan_from_profile(
        self,
        resistant: Sequence[object],
        profile: Mapping[str, Mapping[object, int]],
    ) -> ObservationPointPlan:
        """The greedy set cover of :meth:`select` over a fault-effect profile.

        ``profile`` maps candidate net -> {fault: effect count}, as
        :meth:`~repro.faults.fault_sim.FaultSimulator.fault_effect_profile`
        returns it; each pick's covered faults keep the order of its entry.
        """
        plan = ObservationPointPlan(resistant_fault_count=len(resistant))
        # Greedy weighted set cover: each round pick the net covering the most
        # not-yet-covered faults; ties broken towards nets with higher total
        # effect counts (more frequently sensitised), then by name for
        # determinism.  Lazy (CELF): the heap holds each net's key from when
        # it was last evaluated; only the top is re-evaluated, and it is taken
        # once its fresh key is still the one on the heap.
        threshold = self.min_effect_count
        eligible: dict[str, list[tuple[object, int]]] = {}
        heap: list[tuple[int, int, str]] = []
        for net, per_fault in profile.items():
            entries = [(fault, count) for fault, count in per_fault.items() if count >= threshold]
            if entries:
                eligible[net] = entries
                heap.append((-len(entries), -sum(count for _, count in entries), net))
        heapq.heapify(heap)
        uncovered: set[object] = set(resistant)
        while heap and len(plan.nets) < self.budget and uncovered:
            stale = heap[0]
            net = stale[2]
            newly_covered = []
            effect_sum = 0
            for fault, count in eligible[net]:
                if fault in uncovered:
                    newly_covered.append(fault)
                    effect_sum += count
            if not newly_covered:
                heapq.heappop(heap)
                continue
            fresh = (-len(newly_covered), -effect_sum, net)
            if fresh != stale:
                heapq.heapreplace(heap, fresh)
                continue
            heapq.heappop(heap)
            plan.nets.append(net)
            plan.covered_faults[net] = newly_covered
            uncovered.difference_update(newly_covered)
        return plan


def apply_observation_points(
    circuit: Circuit,
    nets: Sequence[str],
    clock_domain: Optional[str] = None,
    prefix: str = "obs_point",
) -> list[str]:
    """Physically insert observation points as dedicated scan cells.

    Each chosen net gets a new DFF whose D input taps the net; the flop is
    annotated with ``observation_point=True`` so that scan-chain construction
    includes it and the reporting layer can count test points.  The circuit is
    modified in place; the new flop names are returned.

    Parameters
    ----------
    circuit:
        Netlist to modify.
    nets:
        Tap locations (typically ``ObservationPointPlan.nets``).
    clock_domain:
        Clock domain for the new cells.  Defaults to the domain of the
        majority of flops in each net's fanout cone (falling back to the
        circuit's first domain) so the added cell never creates a new
        cross-domain capture path.
    """
    created: list[str] = []
    domains = circuit.clock_domains() or ["clk"]
    for index, net in enumerate(nets):
        if net not in circuit.gates:
            raise KeyError(f"unknown net {net!r}")
        domain = clock_domain
        if domain is None:
            cone = circuit.fanout_cone(net)
            domain_votes: dict[str, int] = {}
            for name in cone:
                gate = circuit.gate(name)
                if gate.is_flop and gate.clock_domain:
                    domain_votes[gate.clock_domain] = domain_votes.get(gate.clock_domain, 0) + 1
            domain = (
                max(domain_votes, key=lambda d: (domain_votes[d], d))
                if domain_votes
                else domains[0]
            )
        name = f"{prefix}_{index}_{net}"
        circuit.add_gate(
            name,
            GateType.DFF,
            [net],
            clock_domain=domain,
            observation_point=True,
        )
        created.append(name)
    return created


def observation_point_flops(circuit: Circuit) -> list[str]:
    """Names of flops previously inserted by :func:`apply_observation_points`."""
    return [
        gate.name
        for gate in circuit.flops()
        if gate.attributes.get("observation_point")
    ]
