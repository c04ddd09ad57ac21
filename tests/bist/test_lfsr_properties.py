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
  (the bit-sliced generator both backends use) reproduces the per-cycle
  stepping of ``generate_patterns`` exactly, pattern for pattern, and leaves
  every PRPG in the same state: a Hypothesis property over PRPG lengths,
  phase shifter and space expander on or off, uneven chains, shift windows
  below, at and above the longest chain, and pattern counts around powers
  of two in blocks of 1 to 1024.  A pickled architecture (also one carrying
  the deleted generator's cell-map cache) loads and generates identically,
  and the MISRs are unaffected (linearity sanity checks included).
"""

import pickle
from multiprocessing.reduction import ForkingPickler

import pytest
from hypothesis import given, settings, strategies as st

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
from repro.bist.stumps import _CHUNK_PATTERNS
from repro.netlist import CircuitBuilder
from repro.scan import ScanChain, ScanChainArchitecture, build_scan_chains

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

    def test_session_across_chunks(self):
        """A session longer than two generator passes, in blocks that do
        not divide a pass, still equals stepping."""
        count = 2 * _CHUNK_PATTERNS + 3
        stepped = self.make_stumps()
        sliced = self.make_stumps()
        expected = stepped.generate_patterns(count)
        blocks = list(sliced.generate_packed_blocks(count, block_size=1000))
        assert [p for block in blocks for p in block.patterns()] == expected
        assert _prpg_states(sliced) == _prpg_states(stepped)

    def test_list_packed_list_continues_one_walk(self):
        """``generate_pattern``, drained generators, then ``generate_pattern``
        again walk the PRPGs exactly as stepping throughout does."""
        stepped = self.make_stumps(expander=True)
        mixed = self.make_stumps(expander=True)
        expected = stepped.generate_patterns(1 + 9 + 5 + 1)
        actual = [mixed.generate_pattern()]
        for count in (9, 5):
            actual += [
                pattern
                for block in mixed.generate_packed_blocks(count, block_size=4)
                for pattern in block.patterns()
            ]
        actual.append(mixed.generate_pattern())
        assert actual == expected

    def test_pickle_from_older_code_loads_and_generates(self):
        """An architecture pickled with the per-window cell-map cache of the
        deleted ndarray generator loads, drops it, and generates the same
        session as a fresh one."""
        old = self.make_stumps()
        for domain in old.domains.values():
            cells = domain.cells()
            domain._cell_maps = {domain.max_chain_length: (cells, [0], [0], [])}
        loaded = pickle.loads(pickle.dumps(old))
        assert not any(hasattr(d, "_cell_maps") for d in loaded.domains.values())
        fresh = self.make_stumps()
        assert [b.assignments for b in loaded.generate_packed_blocks(70, 32)] == [
            b.assignments for b in fresh.generate_packed_blocks(70, 32)
        ]

    def test_session_leaves_no_cache_on_the_instance(self):
        """Generating grows nothing that a pooled stage would pickle: the
        dispatch payload is the size it was before, and smaller than with
        the deleted generator's (even empty) cell-map cache."""
        stumps = self.make_stumps()
        before = len(ForkingPickler.dumps(stumps))
        for _block in stumps.generate_packed_blocks(300, block_size=64):
            pass
        stumps.reset()  # the same PRPG states as before, so the same ints
        assert len(ForkingPickler.dumps(stumps)) == before
        for domain in stumps.domains.values():
            domain._cell_maps = {}
        assert before < len(ForkingPickler.dumps(stumps))


#: PRPG lengths the property draws (every tabulated width up to 32).
PROPERTY_WIDTHS = sorted(width for width in PRIMITIVE_POLYNOMIALS if 2 <= width <= 32)


@st.composite
def stumps_sessions(draw):
    """An architecture of one or two domains with uneven chains, its STUMPS
    configs, a shift window relative to the longest chain, a pattern count
    around a power of two and a block size."""
    width = draw(st.sampled_from(PROPERTY_WIDTHS))
    chains, configs = [], []
    for index in range(draw(st.integers(1, 2))):
        domain = f"clk{index}"
        lengths = draw(st.lists(st.integers(1, 7), min_size=1, max_size=4))
        for number, length in enumerate(lengths):
            cells = [f"{domain}_c{number}_{position}" for position in range(length)]
            chains.append(ScanChain(f"{domain}_chain{number}", domain, cells))
        expander = draw(st.none() | st.integers(1, len(lengths)))
        configs.append(
            StumpsDomainConfig(
                domain=domain,
                prpg_length=width,
                prpg_seed=draw(st.integers(1, (1 << width) - 1)),
                use_phase_shifter=draw(st.booleans()),
                phase_shifter_seed=draw(st.integers(0, 50)),
                expander_inputs=expander,
            )
        )
    window = draw(st.sampled_from(("below", "at", "above")))
    power = 1 << draw(st.integers(1, 12))
    count = draw(st.sampled_from((0, 1, power - 1, power, power + 1)))
    block_size = draw(st.sampled_from((1, 7, 64, 1024)))
    return ScanChainArchitecture(chains), configs, window, count, block_size


def _prpg_states(stumps):
    return [domain.prpg.state for domain in stumps.domains.values()]


@settings(max_examples=40, deadline=None)
@given(stumps_sessions())
def test_bit_sliced_generation_equals_stepping(session):
    """Packed words equal the per-cycle stepping reference, and the PRPGs
    end in the same state.  At the longest chain this is the whole
    architecture in blocks; below and above it, each domain's packed load
    for that window against ``generate_load`` with the same window."""
    architecture, configs, window, count, block_size = session
    stepped = StumpsArchitecture(architecture, configs)
    sliced = StumpsArchitecture(architecture, configs)
    if window == "at":
        expected = stepped.generate_patterns(count)
        blocks = list(sliced.generate_packed_blocks(count, block_size=block_size))
        assert [block.num_patterns for block in blocks] == [
            min(block_size, count - start) for start in range(0, count, block_size)
        ]
        assert [p for block in blocks for p in block.patterns()] == expected
    else:
        for name, domain in sliced.domains.items():
            reference = stepped.domains[name]
            cycles = max(0, domain.max_chain_length + (-1 if window == "below" else 2))
            expected = [reference.generate_load(cycles) for _ in range(count)]
            words = domain.generate_packed_load(count, cycles)
            assert [
                {cell: (word >> j) & 1 for cell, word in words.items()}
                for j in range(count)
            ] == expected
    assert _prpg_states(sliced) == _prpg_states(stepped)
