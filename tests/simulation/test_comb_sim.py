"""Tests for pattern packing and two-valued simulation on the compiled kernel."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.netlist import CircuitBuilder, GateType, parse_bench_text
from repro.oracle import ReferencePackedSimulator
from repro.simulation import (
    PatternBlock,
    iter_blocks,
    leading_blocks,
    mask_for,
    pack_patterns,
    shared_kernel,
)
from test_kernel_equivalence import block_values

C17_TEXT = """
INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)
OUTPUT(G22)
OUTPUT(G23)
G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G10, G16)
G23 = NAND(G16, G19)
"""


def c17():
    return parse_bench_text(C17_TEXT, name="c17")


def c17_reference(g1, g2, g3, g6, g7):
    """Direct evaluation of c17 for cross-checking."""
    g10 = 1 - (g1 & g3)
    g11 = 1 - (g3 & g6)
    g16 = 1 - (g2 & g11)
    g19 = 1 - (g11 & g7)
    g22 = 1 - (g10 & g16)
    g23 = 1 - (g16 & g19)
    return g22, g23


def run(circuit, patterns, block_size=64):
    """Per-pattern values of every net, block by block on the kernel."""
    rows = []
    for block in iter_blocks(patterns, block_size=block_size):
        values = block_values(circuit, block.assignments, block.num_patterns)
        rows.extend(PatternBlock(values, block.num_patterns).patterns())
    return rows


class TestPackedHelpers:
    def test_mask_for(self):
        assert mask_for(0) == 0
        assert mask_for(1) == 1
        assert mask_for(5) == 0b11111
        with pytest.raises(ValueError):
            mask_for(-1)

    def test_pack_unpack_round_trip(self):
        patterns = [{"a": 1, "b": 0}, {"a": 0, "b": 1}, {"a": 1, "b": 1}]
        block = pack_patterns(patterns)
        assert block.num_patterns == 3
        assert block.assignments["a"] == 0b101
        assert block.assignments["b"] == 0b110
        assert block.patterns() == patterns

    def test_pack_rejects_non_binary(self):
        with pytest.raises(ValueError):
            pack_patterns([{"a": 2}])

    def test_iter_blocks_sizes(self):
        patterns = [{"a": i & 1} for i in range(10)]
        blocks = list(iter_blocks(patterns, block_size=4))
        assert [b.num_patterns for b in blocks] == [4, 4, 2]
        with pytest.raises(ValueError):
            list(iter_blocks(patterns, block_size=0))

    def test_leading_blocks_cut_and_stop(self):
        patterns = [{"a": i & 1, "b": 1} for i in range(10)]
        drawn = []

        def stream():
            for block in iter_blocks(patterns, block_size=4):
                drawn.append(block)
                yield block

        blocks = list(leading_blocks(stream(), 6))
        assert [b.num_patterns for b in blocks] == [4, 2]
        assert blocks[1].assignments == {"a": 0b10, "b": 0b11}
        assert [p for b in blocks for p in b.patterns()] == patterns[:6]
        # A count that ends on a block boundary draws no further block.
        drawn.clear()
        assert [b.num_patterns for b in leading_blocks(stream(), 8)] == [4, 4]
        assert len(drawn) == 2
        assert list(leading_blocks(stream(), 0)) == []

    def test_pattern_block_bounds(self):
        block = pack_patterns([{"a": 1}])
        with pytest.raises(IndexError):
            block.pattern(1)
        with pytest.raises(IndexError):
            block.value_of("a", 5)


class TestKernelSimulation:
    def test_c17_exhaustive(self):
        circuit = c17()
        inputs = ["G1", "G2", "G3", "G6", "G7"]
        patterns = [dict(zip(inputs, bits)) for bits in itertools.product((0, 1), repeat=5)]
        results = run(circuit, patterns)
        for pattern, row in zip(patterns, results):
            expected = c17_reference(*(pattern[i] for i in inputs))
            assert (row["G22"], row["G23"]) == expected

    def test_flop_outputs_are_stimulus(self):
        builder = CircuitBuilder(name="seq")
        a = builder.input("a")
        ff = builder.flop("n1", name="ff")
        builder.circuit.add_gate("n1", GateType.AND, [a, ff])
        builder.output("n1")
        circuit = builder.build()
        values = block_values(circuit, {"a": 0b11, "ff": 0b10}, 2)
        assert values["n1"] == 0b10

    def test_missing_stimulus_defaults_to_zero(self):
        circuit = c17()
        values = block_values(circuit, {}, 4)
        # With all inputs 0, NAND gates produce 1 at the first level.
        assert values["G10"] == 0b1111

    def test_cone_plan_resimulation_matches_full_resim(self):
        circuit = c17()
        kernel = shared_kernel(circuit)
        stim = {"G1": 0b1010, "G2": 0b0110, "G3": 0b1111, "G6": 0b0011, "G7": 0b0101}
        base = block_values(circuit, stim, 4)
        # Force G11 to the complement (a stuck-at fault effect) and compare a
        # cone resimulation against the reference's full-cone resimulation.
        faulty_word = ~base["G11"] & 0b1111
        site = kernel.net_id["G11"]
        plan = kernel.cone_plan(site)
        good = [base[name] for name in kernel.net_names]
        scratch = kernel.resimulate_plan(plan, good, faulty_word, 0b1111)
        faulty_cone = {kernel.net_names[nid]: scratch[nid] for nid in (*plan.computed, site)}
        assert faulty_cone["G16"] != base["G16"] or faulty_cone["G19"] != base["G19"]
        for net in ("G16", "G19", "G22", "G23"):
            assert net in faulty_cone
        expected = ReferencePackedSimulator(circuit).resimulate_cone(
            base, {"G11": faulty_word}, circuit.fanout_cone("G11"), 4
        )
        assert faulty_cone == expected

    def test_block_size_does_not_change_results(self):
        circuit = c17()
        inputs = ["G1", "G2", "G3", "G6", "G7"]
        patterns = [dict(zip(inputs, bits)) for bits in itertools.product((0, 1), repeat=5)]
        small = run(circuit, patterns, block_size=3)
        large = run(circuit, patterns, block_size=64)
        assert small == large

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(*(st.integers(0, 1) for _ in range(5))), min_size=1, max_size=40))
    def test_c17_property_random_patterns(self, rows):
        circuit = c17()
        inputs = ["G1", "G2", "G3", "G6", "G7"]
        patterns = [dict(zip(inputs, bits)) for bits in rows]
        results = run(circuit, patterns)
        for pattern, row in zip(patterns, results):
            assert (row["G22"], row["G23"]) == c17_reference(*(pattern[i] for i in inputs))
