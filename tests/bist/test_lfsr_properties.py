"""Property tests for the LFSR/MISR machinery and the streamed STUMPS generator.

Three families of properties:

* **Maximal length** -- every tabulated primitive polynomial of width <= 20
  yields a Fibonacci LFSR that walks the full ``2**width - 1`` non-zero state
  space, and passes the number-theoretic
  :func:`repro.bist.polynomials.is_primitive` check.  The exhaustive walks for
  the larger widths are marked ``slow``.
* **Linear recurrence** -- with the same polynomial, the Fibonacci serial
  output satisfies the polynomial's linear recurrence, and one period of it
  has the m-sequence balance and shift-and-add properties.
* **Streamed generation** -- ``StumpsArchitecture.generate_packed_blocks``
  reproduces ``generate_patterns`` exactly, pattern for pattern, for every
  block size, and the MISRs are unaffected (linearity sanity checks included).
"""

import pytest

from repro.bist import (
    FibonacciLfsr,
    Misr,
    StumpsArchitecture,
    StumpsDomainConfig,
)
from repro.bist.polynomials import (
    PRIMITIVE_POLYNOMIALS,
    is_primitive,
    polynomial_taps,
    primitive_polynomial,
)
from repro.netlist import CircuitBuilder
from repro.scan import build_scan_chains

FAST_WIDTHS = tuple(range(2, 14))
SLOW_WIDTHS = tuple(range(14, 21))


def _serial_stream(lfsr, cycles):
    return [lfsr.step() for _ in range(cycles)]


class TestMaximalLength:
    @pytest.mark.parametrize("width", FAST_WIDTHS)
    def test_period_is_maximal_fast(self, width):
        assert FibonacciLfsr(width, seed=1).period() == (1 << width) - 1

    @pytest.mark.slow
    @pytest.mark.parametrize("width", SLOW_WIDTHS)
    def test_period_is_maximal_slow(self, width):
        assert FibonacciLfsr(width, seed=1).period() == (1 << width) - 1

    @pytest.mark.parametrize("width", tuple(range(2, 21)))
    def test_tabulated_polynomial_is_primitive(self, width):
        assert is_primitive(PRIMITIVE_POLYNOMIALS[width])

    @pytest.mark.parametrize("width", FAST_WIDTHS)
    def test_nonzero_states_all_distinct(self, width):
        """A maximal LFSR visits every non-zero state exactly once per period."""
        lfsr = FibonacciLfsr(width, seed=1)
        states = set()
        for _ in range((1 << width) - 1):
            lfsr.step()
            states.add(lfsr.state)
        assert len(states) == (1 << width) - 1
        assert 0 not in states


class TestFibonacciRecurrence:
    @pytest.mark.parametrize("width", tuple(range(2, 13)))
    def test_fibonacci_stream_satisfies_polynomial_recurrence(self, width):
        polynomial = primitive_polynomial(width)
        taps = [e for e in polynomial_taps(polynomial) if e > 0]
        stream = _serial_stream(FibonacciLfsr(width, seed=1), 3 * (1 << width))
        for t in range(len(stream) - width):
            expected = stream[t]
            for exponent in taps:
                expected ^= stream[t + exponent]
            assert stream[t + width] == expected


    @pytest.mark.parametrize("width", tuple(range(2, 13)))
    def test_period_is_balanced(self, width):
        """One period holds ``2**(width-1)`` ones and one zero fewer."""
        period = (1 << width) - 1
        stream = _serial_stream(FibonacciLfsr(width, seed=1), period)
        assert sum(stream) == 1 << (width - 1)
        assert stream.count(0) == (1 << (width - 1)) - 1

    @pytest.mark.parametrize("width", tuple(range(2, 11)))
    def test_shift_and_add(self, width):
        """An m-sequence xor any of its shifts is another of its shifts."""
        period = (1 << width) - 1
        stream = _serial_stream(FibonacciLfsr(width, seed=1), period)
        word = sum(bit << index for index, bit in enumerate(stream))
        mask = (1 << period) - 1

        def rotate(value, shift):
            return ((value >> shift) | (value << (period - shift))) & mask

        rotations = {rotate(word, shift) for shift in range(period)}
        assert len(rotations) == period
        for shift in range(1, period):
            assert word ^ rotate(word, shift) in rotations


class TestMisrProperties:
    @pytest.mark.parametrize("length", (4, 8, 19))
    def test_misr_is_linear(self, length):
        """Superposition: sig(a xor b) == sig(a) xor sig(b) from the zero state."""
        import random

        rng = random.Random(length)
        stream_a = [[rng.randint(0, 1) for _ in range(length)] for _ in range(40)]
        stream_b = [[rng.randint(0, 1) for _ in range(length)] for _ in range(40)]
        stream_ab = [
            [x ^ y for x, y in zip(ra, rb)] for ra, rb in zip(stream_a, stream_b)
        ]

        def signature(stream):
            misr = Misr(length, seed=0)
            for row in stream:
                misr.compact(row)
            return misr.signature

        assert signature(stream_ab) == signature(stream_a) ^ signature(stream_b)

    def test_single_bit_error_always_changes_signature(self):
        length = 8
        zero_stream = [[0] * length for _ in range(20)]
        base = Misr(length, seed=0)
        for row in zero_stream:
            base.compact(row)
        for cycle in range(20):
            for bit in range(length):
                faulty = [list(row) for row in zero_stream]
                faulty[cycle][bit] = 1
                misr = Misr(length, seed=0)
                for row in faulty:
                    misr.compact(row)
                assert misr.signature != base.signature


class TestStreamedGeneration:
    def make_stumps(self, expander=False):
        builder = CircuitBuilder(name="stream_core")
        data = builder.inputs(3, prefix="in")
        previous = data[0]
        for i in range(9):
            net = builder.xor(previous, data[i % 3], name=f"a_x{i}")
            previous = builder.flop(net, name=f"a_ff{i}", clock_domain="clkA")
        for i in range(5):
            net = builder.xor(previous, data[(i + 1) % 3], name=f"b_x{i}")
            previous = builder.flop(net, name=f"b_ff{i}", clock_domain="clkB")
        builder.output(builder.and_(previous, data[1], name="core_out"))
        circuit = builder.build()
        arch = build_scan_chains(circuit, chains_per_domain={"clkA": 3, "clkB": 2})
        configs = None
        if expander:
            configs = [
                StumpsDomainConfig(
                    domain="clkA", prpg_seed=3, expander_inputs=2, phase_shifter_seed=7
                ),
                StumpsDomainConfig(domain="clkB", prpg_seed=4, phase_shifter_seed=9),
            ]
        return StumpsArchitecture(arch, configs, seed=5)

    @pytest.mark.parametrize("block_size", (1, 7, 64, 256))
    def test_packed_blocks_reproduce_generate_patterns(self, block_size):
        count = 37
        expected = self.make_stumps().generate_patterns(count)
        blocks = list(
            self.make_stumps().generate_packed_blocks(count, block_size=block_size)
        )
        assert sum(block.num_patterns for block in blocks) == count
        streamed = [pattern for block in blocks for pattern in block.patterns()]
        assert streamed == expected

    def test_packed_blocks_with_space_expander(self):
        """The (rarely used) expander path must stream identically too."""
        expected = self.make_stumps(expander=True).generate_patterns(12)
        blocks = list(
            self.make_stumps(expander=True).generate_packed_blocks(12, block_size=8)
        )
        streamed = [pattern for block in blocks for pattern in block.patterns()]
        assert streamed == expected

    def test_packed_blocks_advance_prpg_state_identically(self):
        """Interleaving list and packed generation continues one global stream."""
        stumps_a = self.make_stumps()
        stumps_b = self.make_stumps()
        first_a = stumps_a.generate_patterns(10)
        second_a = stumps_a.generate_patterns(10)
        first_b = [
            pattern
            for block in stumps_b.generate_packed_blocks(10, block_size=4)
            for pattern in block.patterns()
        ]
        second_b = stumps_b.generate_patterns(10)
        assert first_b == first_a
        assert second_b == second_a
