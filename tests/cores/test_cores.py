"""Tests for the synthetic core generator, recipes and built-in benchmarks."""

import random

import pytest

from repro.cores import (
    SyntheticCoreConfig,
    c17,
    comparator_core,
    core_x_recipe,
    core_y_recipe,
    generate_synthetic_core,
    s27_like,
    tiny_recipe,
)
from repro.netlist import validate_circuit
from repro.oracle import ReferencePackedSimulator


def random_resistant_nets(circuit, threshold, count=4096, seed=1):
    """Gate nets that take their rarer value in under ``threshold`` of
    ``count`` uniformly random patterns (sampled by simulation)."""
    rng = random.Random(seed)
    words = {net: rng.getrandbits(count) for net in circuit.stimulus_nets()}
    values = ReferencePackedSimulator(circuit).simulate_block(words, count)
    resistant = []
    for name, word in values.items():
        gate = circuit.gate(name)
        if gate.is_primary_input or gate.gate_type.is_source:
            continue
        ones = bin(word).count("1")
        if min(ones, count - ones) < threshold * count:
            resistant.append(name)
    return resistant


class TestBuiltInBenchmarks:
    def test_c17_structure(self):
        circuit = c17()
        assert circuit.gate_count() == 6
        assert validate_circuit(circuit).ok

    def test_s27_like_structure(self):
        circuit = s27_like()
        assert circuit.flop_count() == 3
        assert validate_circuit(circuit).ok
        assert circuit.clock_domains() == ["clk"]

    def test_comparator_core_is_random_resistant(self):
        circuit = comparator_core(width=10)
        assert validate_circuit(circuit).ok
        assert circuit.clock_domains() == ["clkA", "clkB"]
        resistant = random_resistant_nets(circuit, threshold=1e-2)
        assert resistant  # the comparator cone shows up as random-resistant


class TestSyntheticCoreGenerator:
    def test_generation_is_deterministic(self):
        config = SyntheticCoreConfig(seed=42)
        a = generate_synthetic_core(config)
        b = generate_synthetic_core(config)
        assert set(a.circuit.gates) == set(b.circuit.gates)
        for name, gate in a.circuit.gates.items():
            assert b.circuit.gate(name).inputs == gate.inputs

    def test_different_seeds_differ(self):
        a = generate_synthetic_core(SyntheticCoreConfig(seed=1))
        b = generate_synthetic_core(SyntheticCoreConfig(seed=2))
        # The naming scheme is deterministic, but the interconnect must differ.
        connections_a = {name: tuple(gate.inputs) for name, gate in a.circuit.gates.items()}
        connections_b = {name: tuple(gate.inputs) for name, gate in b.circuit.gates.items()}
        assert connections_a != connections_b

    def test_structure_matches_config(self):
        config = SyntheticCoreConfig(
            clock_domains=("c1", "c2", "c3"),
            num_inputs=12,
            num_outputs=5,
            register_width=6,
            pipeline_stages=2,
            cross_domain_links=3,
            x_sources=2,
            seed=9,
        )
        core = generate_synthetic_core(config)
        circuit = core.circuit
        assert validate_circuit(circuit).ok
        assert len(circuit.primary_inputs) == 12
        assert len(circuit.primary_outputs) == 5
        assert set(circuit.clock_domains()) == {"c1", "c2", "c3"}
        # Every domain holds at least its pipeline registers.
        domains = [flop.clock_domain for flop in circuit.flops()]
        for domain in ("c1", "c2", "c3"):
            assert domains.count(domain) >= 6
        assert len(core.x_source_nets) == 2
        for net in core.x_source_nets:
            assert circuit.gate(net).attributes.get("x_source")
        assert core.resistant_nets

    def test_core_is_simulatable(self):
        core = generate_synthetic_core(SyntheticCoreConfig(seed=3))
        circuit = core.circuit
        sim = ReferencePackedSimulator(circuit)
        values = sim.simulate_block({net: 0 for net in circuit.stimulus_nets()}, 1)
        assert set(circuit.primary_outputs) <= set(values)

    def test_resistant_nets_have_low_detection_probability(self):
        core = generate_synthetic_core(SyntheticCoreConfig(seed=5, comparator_widths=(14,)))
        resistant = set(random_resistant_nets(core.circuit, threshold=1e-3))
        # At least one generated comparator net must be flagged by sampling too.
        assert resistant & set(core.resistant_nets)


class TestRecipes:
    def test_core_x_recipe_shape(self):
        recipe = core_x_recipe()
        core = recipe.build()
        assert len(core.circuit.clock_domains()) == 2
        assert recipe.clock_frequencies_mhz["clk1"] == 250.0
        assert recipe.paper_reference["fault_coverage_1"] == pytest.approx(0.9382)
        assert validate_circuit(core.circuit).ok

    def test_core_y_recipe_shape(self):
        recipe = core_y_recipe()
        core = recipe.build()
        assert len(core.circuit.clock_domains()) == 8
        assert len(recipe.clock_frequencies_mhz) == 8
        assert recipe.paper_reference["clock_domains"] == 8
        assert validate_circuit(core.circuit).ok

    def test_tiny_recipe_is_small(self):
        recipe = tiny_recipe()
        core = recipe.build()
        assert core.circuit.gate_count() < 300
        assert core.circuit.flop_count() < 40

    def test_scaling_changes_size(self):
        small = core_x_recipe(scale=0.5).build()
        large = core_x_recipe(scale=1.5).build()
        assert large.circuit.gate_count() > small.circuit.gate_count()
        assert large.circuit.flop_count() > small.circuit.flop_count()
