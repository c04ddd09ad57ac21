"""Tests for test-point insertion: fault-sim-guided, observability baseline, control points."""

import random

import pytest

from repro.faults import FaultList, FaultSimulator, collapse_stuck_at
from repro.netlist import CellLibrary, CircuitBuilder, validate_circuit
from repro.oracle import ReferencePackedSimulator
from repro.simulation import iter_blocks, pack_patterns
from repro.tpi import (
    FaultSimGuidedObservationTpi,
    ObservabilityGuidedTpi,
    apply_observation_points,
    observation_point_flops,
)


def blocked_observability_circuit():
    """Random-resistant core: two wide comparators gate interesting logic.

    The XOR cloud's faults propagate only through comparator-enabled AND
    gates, so random patterns rarely observe them -- the classical situation
    that observation points fix.
    """
    builder = CircuitBuilder(name="blocked")
    left = builder.inputs(10, prefix="l")
    right = builder.inputs(10, prefix="r")
    data = builder.inputs(6, prefix="d")
    match = builder.equality_comparator(left, right)
    xors = [builder.xor(data[i], data[(i + 1) % 6], name=f"cloud{i}") for i in range(6)]
    gated = [builder.and_(x, match, name=f"gated{i}") for i, x in enumerate(xors)]
    out = builder.tree(__import__("repro.netlist", fromlist=["GateType"]).GateType.OR, gated)
    builder.output(out)
    ff = builder.flop(out, name="state_ff", clock_domain="clkA")
    builder.output(ff)
    return builder.build()


def random_patterns(circuit, count, seed=0):
    rng = random.Random(seed)
    return [
        {net: rng.randint(0, 1) for net in circuit.stimulus_nets()} for _ in range(count)
    ]


def packed(circuit, patterns):
    """``patterns`` as the packed blocks ``select`` profiles."""
    return iter_blocks(patterns, nets=circuit.stimulus_nets())


class TestFaultSimGuidedTpi:
    def test_selection_improves_coverage(self):
        circuit = blocked_observability_circuit()
        collapsed = collapse_stuck_at(circuit)
        patterns = random_patterns(circuit, 128, seed=3)

        # Phase 1: random-pattern coverage without test points.
        baseline_list = collapsed.to_fault_list()
        FaultSimulator(circuit).simulate(baseline_list, patterns)
        baseline_cov = baseline_list.coverage()
        assert baseline_cov < 1.0

        # Phase 2: pick observation points from the undetected faults.
        tpi = FaultSimGuidedObservationTpi(circuit, budget=4, profile_patterns=64)
        plan = tpi.select(baseline_list, packed(circuit, patterns))
        assert 0 < len(plan.nets) <= 4
        assert plan.resistant_fault_count == len(baseline_list.undetected())
        assert plan.total_covered > 0

        # Phase 3: re-simulate with the observation points observed.
        improved_list = collapsed.to_fault_list()
        simulator = FaultSimulator(circuit)
        for net in plan.nets:
            simulator.add_observation_net(net)
        simulator.simulate(improved_list, patterns)
        assert improved_list.coverage() > baseline_cov

    def test_zero_budget_returns_empty_plan(self):
        circuit = blocked_observability_circuit()
        fl = collapse_stuck_at(circuit).to_fault_list()
        plan = FaultSimGuidedObservationTpi(circuit, budget=0).select(
            fl, packed(circuit, random_patterns(circuit, 8))
        )
        assert plan.nets == []

    def test_fully_covered_list_needs_no_points(self):
        circuit = blocked_observability_circuit()
        fl = FaultList()  # empty -> nothing undetected
        plan = FaultSimGuidedObservationTpi(circuit, budget=8).select(
            fl, packed(circuit, random_patterns(circuit, 8))
        )
        assert plan.nets == []
        assert plan.resistant_fault_count == 0

    def test_each_fault_credited_once(self):
        circuit = blocked_observability_circuit()
        collapsed = collapse_stuck_at(circuit)
        fl = collapsed.to_fault_list()
        patterns = random_patterns(circuit, 96, seed=3)
        FaultSimulator(circuit).simulate(fl, patterns)
        plan = FaultSimGuidedObservationTpi(circuit, budget=6).select(fl, packed(circuit, patterns))
        seen = set()
        for faults in plan.covered_faults.values():
            for fault in faults:
                assert fault not in seen
                seen.add(fault)

    def test_area_overhead_accounting(self):
        circuit = blocked_observability_circuit()
        collapsed = collapse_stuck_at(circuit)
        fl = collapsed.to_fault_list()
        patterns = random_patterns(circuit, 64, seed=3)
        FaultSimulator(circuit).simulate(fl, patterns)
        plan = FaultSimGuidedObservationTpi(circuit, budget=3).select(fl, packed(circuit, patterns))
        library = CellLibrary()
        assert plan.area_overhead(library) == pytest.approx(
            len(plan.nets) * library.scan_cell_area()
        )


class TestApplyObservationPoints:
    def test_inserts_scannable_flops(self):
        circuit = blocked_observability_circuit()
        before_flops = circuit.flop_count()
        created = apply_observation_points(circuit, ["cloud0", "cloud1"])
        assert len(created) == 2
        assert circuit.flop_count() == before_flops + 2
        assert set(observation_point_flops(circuit)) == set(created)
        report = validate_circuit(circuit)
        assert report.ok
        # Observation-point flops make their tapped net an observation net.
        assert "cloud0" in circuit.observation_nets()

    def test_domain_inherited_from_fanout(self):
        circuit = blocked_observability_circuit()
        created = apply_observation_points(circuit, ["gated0"])
        # The only flop downstream is state_ff in clkA.
        assert circuit.gate(created[0]).clock_domain == "clkA"

    def test_explicit_domain_and_unknown_net(self):
        circuit = blocked_observability_circuit()
        created = apply_observation_points(circuit, ["cloud2"], clock_domain="clkB")
        assert circuit.gate(created[0]).clock_domain == "clkB"
        with pytest.raises(KeyError):
            apply_observation_points(circuit, ["missing_net"])

    def test_functional_behaviour_unchanged(self):
        """Observation points must not change any functional output value."""
        circuit = blocked_observability_circuit()
        reference = circuit.copy("ref")
        apply_observation_points(circuit, ["cloud0", "gated3"])
        patterns = random_patterns(reference, 16, seed=9)
        block = pack_patterns(patterns)
        ref_values = ReferencePackedSimulator(reference).simulate_block(
            block.assignments, block.num_patterns
        )
        new_values = ReferencePackedSimulator(circuit).simulate_block(
            block.assignments, block.num_patterns
        )
        assert set(circuit.primary_outputs) == set(reference.primary_outputs)
        for net in reference.primary_outputs:
            assert new_values[net] == ref_values[net], net


class TestObservabilityBaseline:
    def test_scoap_ranking(self):
        circuit = blocked_observability_circuit()
        plan = ObservabilityGuidedTpi(circuit, budget=5).select()
        assert len(plan.nets) == 5
        for net in plan.nets:
            gate = circuit.gate(net)
            assert not gate.is_primary_input and not gate.is_flop

    def test_exclude_list_respected(self):
        circuit = blocked_observability_circuit()
        full = ObservabilityGuidedTpi(circuit, budget=3).select()
        excluded = ObservabilityGuidedTpi(circuit, budget=3).select(exclude=full.nets)
        assert not set(full.nets) & set(excluded.nets)
