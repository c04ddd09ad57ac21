"""Equivalence suite for the streamed BIST data-path emulation.

* **Pattern streaming** -- pattern generation has no numpy form: one
  bit-sliced generator serves both backends.  Its LFSR primitive,
  ``FibonacciLfsr.sliced_stream``, must equal stepping bit for bit, and
  ``StumpsArchitecture.generate_packed_blocks`` must equal the per-cycle
  stepping reference ``generate_patterns`` on a multi-domain synthetic core
  for widths {64, 256, 1024} with partial trailing blocks, two PRPG
  polynomials and the identity phase shifter, walking the PRPGs through the
  identical state sequence (so stepped and sliced generation interleave).
  The Hypothesis property over random geometries lives in
  ``test_lfsr_properties.py``.
* **MISR fold** -- ``StumpsDomain.fold_responses(backend="numpy")`` must
  reproduce the scalar unload emulation bit for bit, with and without a
  space compactor, including through the campaign's signature stage.
"""

import random

import pytest

from repro.bist import StumpsArchitecture
from repro.bist.lfsr import FibonacciLfsr
from repro.bist.stumps import StumpsDomainConfig
from repro.campaign.pipeline import SignatureInput, SignatureStage
from repro.core import LogicBistConfig
from repro.core.bist_ready import build_clock_tree
from repro.cores.generator import SyntheticCoreConfig, generate_synthetic_core
from repro.scan import build_scan_chains
from repro.simulation import iter_blocks, shared_kernel
from repro.timing import CaptureWindowScheduler

WIDTHS = (64, 256, 1024)


def make_architecture(seed: int, domains: int = 3, total_chains: int = 6):
    config = SyntheticCoreConfig(
        name=f"np_stream_core_{seed}",
        clock_domains=tuple(f"clk{i + 1}" for i in range(domains)),
        num_inputs=8,
        num_outputs=5,
        register_width=6,
        pipeline_stages=1,
        adder_slices=1,
        adder_width=4,
        comparator_widths=(6,),
        decode_cone_width=5,
        cross_domain_links=1,
        seed=seed,
    )
    circuit = generate_synthetic_core(config).circuit
    return circuit, build_scan_chains(circuit, total_chains=total_chains)


def domain_configs(architecture, **overrides):
    return [
        StumpsDomainConfig(
            domain=domain,
            prpg_seed=3 + index,
            phase_shifter_seed=11 + index,
            **overrides,
        )
        for index, domain in enumerate(architecture.domains())
    ]


def prpg_states(stumps):
    return {name: domain.prpg.state for name, domain in stumps.domains.items()}


class TestLfsrDrain:
    @pytest.mark.parametrize("length", (5, 14, 19, 23))
    @pytest.mark.parametrize("count", (0, 1, 63, 64, 200, 1337))
    def test_fibonacci_chunked_drain_matches_stepping(self, length, count):
        """``sliced_stream`` with stride 1 drains ``count`` output bits at
        once: column *r* is the stream from bit *r* on, and the register
        ends where ``count`` steps leave it."""
        seed = 0x5A5A5A % ((1 << length) - 1) + 1
        depth = length + 3
        chunked = FibonacciLfsr(length, seed=seed)
        stepped = FibonacciLfsr(length, seed=seed)
        columns = chunked.sliced_stream(count, 1, depth)
        stream = stepped.run(count)
        final_state = stepped.state
        stream += stepped.run(depth)
        expected = [
            sum(bit << j for j, bit in enumerate(stream[r : r + count]))
            for r in range(depth)
        ]
        assert columns == expected
        assert chunked.state == final_state


class TestStreamedBlocks:
    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("prpg_length", (19, 12))
    def test_blocks_byte_identical_and_prpg_state_continues(self, width, prpg_length):
        _, architecture = make_architecture(9)
        reference = StumpsArchitecture(
            architecture, domain_configs(architecture, prpg_length=prpg_length)
        )
        sliced = StumpsArchitecture(
            architecture, domain_configs(architecture, prpg_length=prpg_length)
        )
        count = 2 * width + 17  # forces a partial trailing block
        expected = reference.generate_patterns(count)
        blocks = list(sliced.generate_packed_blocks(count, block_size=width))
        assert [block.num_patterns for block in blocks] == [width, width, 17]
        assert [p for block in blocks for p in block.patterns()] == expected
        assert prpg_states(sliced) == prpg_states(reference)

    def test_backends_interleave_mid_session(self):
        """Stepped patterns, then sliced blocks, then stepped patterns again
        continue one PRPG walk."""
        _, architecture = make_architecture(5)
        serial = StumpsArchitecture(architecture, domain_configs(architecture))
        mixed = StumpsArchitecture(architecture, domain_configs(architecture))
        expected = serial.generate_patterns(64 + 128 + 10)
        actual = mixed.generate_patterns(64)
        actual += [
            pattern
            for block in mixed.generate_packed_blocks(128, block_size=64)
            for pattern in block.patterns()
        ]
        actual += mixed.generate_patterns(10)
        assert actual == expected
        assert prpg_states(mixed) == prpg_states(serial)

    def test_identity_phase_shifter(self):
        _, architecture = make_architecture(7)
        reference = StumpsArchitecture(
            architecture, domain_configs(architecture, use_phase_shifter=False)
        )
        sliced = StumpsArchitecture(
            architecture, domain_configs(architecture, use_phase_shifter=False)
        )
        expected = reference.generate_patterns(100)
        blocks = list(sliced.generate_packed_blocks(100, block_size=64))
        assert [p for block in blocks for p in block.patterns()] == expected
        assert prpg_states(sliced) == prpg_states(reference)

    def test_matches_per_pattern_generation(self):
        """One block wider than the session equals the per-pattern dicts."""
        _, architecture = make_architecture(3)
        listy = StumpsArchitecture(architecture, domain_configs(architecture))
        sliced = StumpsArchitecture(architecture, domain_configs(architecture))
        patterns = listy.generate_patterns(70)
        (block,) = list(sliced.generate_packed_blocks(70, block_size=128))
        for index, pattern in enumerate(patterns):
            for cell, value in pattern.items():
                assert (block.assignments.get(cell, 0) >> index) & 1 == value


@pytest.mark.numpy
class TestVectorisedMisrFold:
    def _responses(self, circuit, count, seed):
        rng = random.Random(seed)
        flops = circuit.flop_names()
        return [
            {name: rng.randint(0, 1) for name in flops} for _ in range(count)
        ]

    @pytest.mark.parametrize("compactor_outputs", (None, 2))
    def test_fold_matches_scalar_unload(self, compactor_outputs):
        circuit, architecture = make_architecture(13)
        reference = StumpsArchitecture(
            architecture,
            domain_configs(
                architecture, compactor_outputs=compactor_outputs, misr_length=19
            ),
        )
        vectorised = StumpsArchitecture(
            architecture,
            domain_configs(
                architecture, compactor_outputs=compactor_outputs, misr_length=19
            ),
        )
        responses = self._responses(circuit, 24, 99)
        for name in reference.domains:
            cells = reference.domains[name].cells()
            filtered = [
                {cell: response.get(cell, 0) for cell in cells}
                for response in responses
            ]
            expected = reference.domains[name].fold_responses(filtered)
            actual = vectorised.domains[name].fold_responses(
                filtered, backend="numpy"
            )
            assert actual == expected, name

    def test_signature_stage_backend(self):
        """The campaign's signature stage signs identically on both backends."""
        circuit, architecture = make_architecture(17)
        stumps = StumpsArchitecture(architecture, domain_configs(architecture))
        nets = shared_kernel(circuit).stimulus_names
        rng = random.Random(5)
        patterns = [{net: rng.randint(0, 1) for net in nets} for _ in range(16)]
        config = LogicBistConfig()
        inputs = SignatureInput(
            circuit=circuit,
            blocks=tuple(iter_blocks(patterns, block_size=8, nets=nets)),
            capture_schedule=CaptureWindowScheduler(
                build_clock_tree(circuit, config)
            ).schedule(),
            domains=stumps.domains,
        )
        signatures = [
            SignatureStage(LogicBistConfig(sim_backend=backend)).run(inputs)
            for backend in ("python", "numpy")
        ]
        assert sorted(signatures[0]) == sorted(stumps.domains)
        assert signatures[0] == signatures[1]
