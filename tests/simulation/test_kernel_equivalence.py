"""Scalar-vs-packed equivalence harness for the compiled simulation kernel.

The compiled integer-indexed kernel (:mod:`repro.simulation.kernel`) replaced
the original name-keyed dict path on every hot simulation loop.  That original
path is preserved verbatim in :mod:`repro.oracle.reference`; this suite
generates randomized circuits via :mod:`repro.cores.generator` and asserts the
two paths are **bit-identical** -- full value tables, cone resimulation
results, fault detection masks, first-detection indices and coverage curves --
across block sizes {1, 17, 64, 256, 1024} and multiple seeds.

It also covers the strict-stimulus mode that closes the latent
"missing/misspelled stimulus net silently reads as 0" bug class.
"""

import random

import pytest

from repro.cores.generator import SyntheticCoreConfig, generate_synthetic_core
from repro.faults import FaultSimulator, check_strict_patterns, collapse_stuck_at
from repro.oracle import (
    ReferenceFaultSimulator,
    ReferencePackedSimulator,
    simulate_patterns,
)
from repro.simulation import StrictStimulusError, iter_blocks, mask_for, shared_kernel
from repro.simulation.numpy_backend import numpy_kernel_for, plane_to_word, words_for

BLOCK_SIZES = (1, 17, 64, 256, 1024)

#: Both execution backends of the compiled kernel; the numpy one auto-skips
#: without the optional dependency (tests/conftest.py).
BACKENDS = ("python", pytest.param("numpy", marks=pytest.mark.numpy))


def make_core(seed: int):
    """A small randomized two-domain core (fresh structure per seed)."""
    config = SyntheticCoreConfig(
        name=f"equiv_core_{seed}",
        clock_domains=("clk1", "clk2"),
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
    return generate_synthetic_core(config).circuit


def random_patterns(circuit, count: int, seed: int):
    rng = random.Random(seed)
    nets = circuit.stimulus_nets()
    return [{net: rng.randint(0, 1) for net in nets} for _ in range(count)]


def block_values(circuit, stimulus, num_patterns, backend="python", strict=False):
    """Every net's packed word for one block, on ``backend``'s compiled kernel."""
    kernel = shared_kernel(circuit)
    mask = mask_for(num_patterns)
    if backend == "numpy":
        nk = numpy_kernel_for(kernel)
        num_words = words_for(num_patterns)
        table = nk.make_table(num_words)
        nk.set_stimulus(table, stimulus, mask, num_words, strict=strict)
        nk.evaluate(table, nk.mask_plane(mask, num_words))
        values = [plane_to_word(row) for row in table]
    else:
        values = kernel.make_table()
        kernel.set_stimulus(values, stimulus, mask, strict=strict)
        kernel.evaluate(values, mask)
    return dict(zip(kernel.net_names, values))


class TestSimulateBlockEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("block_size", BLOCK_SIZES)
    def test_value_tables_bit_identical(self, seed, block_size, backend):
        circuit = make_core(seed)
        reference = ReferencePackedSimulator(circuit)
        patterns = random_patterns(circuit, 2 * block_size + 7, seed + 100)
        nets = circuit.stimulus_nets()
        for block in iter_blocks(patterns, block_size=block_size, nets=nets):
            expected = reference.simulate_block(block.assignments, block.num_patterns)
            actual = block_values(
                circuit, block.assignments, block.num_patterns, backend
            )
            assert actual == expected

    def test_wide_words_actually_exercised(self):
        """1024 patterns in one block: every word is a real 1024-bit bigint."""
        circuit = make_core(9)
        reference = ReferencePackedSimulator(circuit)
        patterns = random_patterns(circuit, 1024, 99)
        nets = circuit.stimulus_nets()
        (block,) = list(iter_blocks(patterns, block_size=1024, nets=nets))
        assert block.num_patterns == 1024
        expected = reference.simulate_block(block.assignments, 1024)
        actual = block_values(circuit, block.assignments, 1024)
        assert actual == expected

    def test_missing_stimulus_defaults_to_zero(self):
        """Compatibility: the non-strict path still zero-fills, like the seed."""
        circuit = make_core(4)
        reference = ReferencePackedSimulator(circuit)
        assert block_values(circuit, {}, 4) == reference.simulate_block({}, 4)


class TestResimulateConeEquivalence:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_cone_values_bit_identical(self, seed):
        """``cone_plan`` + ``resimulate_plan`` (the fault simulators' loop)
        against the reference's name-keyed cone resimulation."""
        circuit = make_core(seed)
        reference = ReferencePackedSimulator(circuit)
        kernel = shared_kernel(circuit)
        patterns = random_patterns(circuit, 24, seed + 7)
        nets = circuit.stimulus_nets()
        (block,) = list(iter_blocks(patterns, block_size=64, nets=nets))
        base = reference.simulate_block(block.assignments, block.num_patterns)
        good = [base[name] for name in kernel.net_names]
        rng = random.Random(seed)
        sites = rng.sample(
            [g.name for g in circuit.combinational_gates()], 12
        ) + rng.sample(circuit.stimulus_nets(), 4)
        mask = block.mask
        for site in sites:
            cone = circuit.fanout_cone(site)
            overrides = {site: ~base[site] & mask}
            expected = reference.resimulate_cone(
                base, overrides, cone, block.num_patterns
            )
            site_id = kernel.net_id[site]
            plan = kernel.cone_plan(site_id)
            scratch = kernel.resimulate_plan(plan, good, overrides[site], mask)
            actual = {
                kernel.net_names[nid]: scratch[nid]
                for nid in (*plan.computed, site_id)
            }
            assert actual == expected, f"cone mismatch at site {site!r}"


class TestFaultSimulatorEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("block_size", BLOCK_SIZES)
    def test_detection_bit_identical_to_reference(self, seed, block_size, backend):
        """Statuses, first-detection indices and curves match the seed engine."""
        circuit = make_core(seed)
        patterns = random_patterns(circuit, 96, seed + 31)

        fl_ref = collapse_stuck_at(circuit).to_fault_list()
        reference = ReferenceFaultSimulator(circuit)
        detected_ref, curve_ref = reference.simulate(
            fl_ref, patterns, block_size=block_size
        )

        fl_new = collapse_stuck_at(circuit).to_fault_list()
        result = simulate_patterns(
            FaultSimulator(circuit, backend=backend), fl_new, patterns, block_size=block_size
        )

        assert result.patterns_simulated == len(patterns)
        assert result.coverage_curve == curve_ref
        assert fl_new.coverage() == fl_ref.coverage()
        for fault in fl_ref.faults():
            ref_record = fl_ref.record(fault)
            new_record = fl_new.record(fault)
            assert new_record.status is ref_record.status, str(fault)
            assert new_record.first_detection == ref_record.first_detection, str(fault)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_block_size_invariance_of_detections(self, seed):
        """First-detection indices and final coverage match across all widths."""
        circuit = make_core(seed)
        patterns = random_patterns(circuit, 96, seed + 57)
        baseline = None
        for block_size in BLOCK_SIZES:
            fault_list = collapse_stuck_at(circuit).to_fault_list()
            simulate_patterns(
                FaultSimulator(circuit), fault_list, patterns, block_size=block_size
            )
            snapshot = {
                str(fault): (
                    fault_list.record(fault).status,
                    fault_list.record(fault).first_detection,
                )
                for fault in fault_list.faults()
            }
            if baseline is None:
                baseline = snapshot
            else:
                assert snapshot == baseline, f"divergence at block_size={block_size}"

    def test_detection_mask_ids_matches_reference(self):
        """The ID-space detection mask agrees with the reference engine."""
        circuit = make_core(3)
        patterns = random_patterns(circuit, 48, 77)
        nets = circuit.stimulus_nets()
        (block,) = list(iter_blocks(patterns, block_size=64, nets=nets))
        reference = ReferenceFaultSimulator(circuit)
        simulator = FaultSimulator(circuit)
        good = reference.simulator.simulate_block(block.assignments, block.num_patterns)
        table = [good[name] for name in simulator.kernel.net_names]
        faults = collapse_stuck_at(circuit).representatives
        for fault in faults[:200]:
            expected = reference.detection_mask(fault, good, block.num_patterns)
            actual = simulator.detection_mask_ids(fault, table, block.num_patterns)
            assert actual == expected, str(fault)

    def test_fault_effect_profile_matches_reference_detection(self):
        """Profiling sees an effect at an observed net iff detection does."""
        circuit = make_core(5)
        patterns = random_patterns(circuit, 32, 13)
        simulator = FaultSimulator(circuit)
        fault_list = collapse_stuck_at(circuit).to_fault_list()
        undetected = fault_list.undetected()[:64]
        profile = simulator.fault_effect_profile_ids(
            simulator.table.ids_of(undetected),
            iter_blocks(patterns, nets=circuit.stimulus_nets()),
            candidate_nets=simulator.observe_nets,
        )
        reference = ReferenceFaultSimulator(circuit)
        for net, counts in profile.items():
            for index, count in counts.items():
                fault = undetected[index]
                assert count > 0
                # The reference engine must see the same effect somewhere: the
                # fault is detectable by at least one of the profiled patterns.
                detected = any(
                    reference.detection_mask(
                        fault,
                        reference.simulator.simulate_block(b.assignments, b.num_patterns),
                        b.num_patterns,
                    )
                    for b in iter_blocks(
                        patterns, block_size=64, nets=circuit.stimulus_nets()
                    )
                )
                assert detected, f"{fault} profiled at {net} but never detectable"


class TestRandomizedDifferentialFuzz:
    """Property-style fuzzing: *randomized generator configurations*.

    The fixed ``make_core`` shape above always exercises the same structural
    mix; this class additionally randomizes the generator knobs themselves
    (domain count, widths, depths, X sources) per seed, so every run checks
    kernel-vs-reference bit-identity on a structurally fresh netlist family
    -- the harness the sharded campaign work leans on.
    """

    def fuzz_core(self, seed: int):
        rng = random.Random(1000 + seed)
        domains = tuple(f"clk{i + 1}" for i in range(rng.randint(1, 3)))
        config = SyntheticCoreConfig(
            name=f"fuzz_core_{seed}",
            clock_domains=domains,
            num_inputs=rng.randint(6, 14),
            num_outputs=rng.randint(3, 8),
            register_width=rng.randint(4, 8),
            pipeline_stages=rng.randint(1, 2),
            adder_slices=rng.randint(1, 2),
            adder_width=rng.randint(3, 6),
            comparator_widths=tuple(
                rng.randint(4, 8) for _ in range(rng.randint(1, 2))
            ),
            decode_cone_width=rng.randint(2, 7),
            cross_domain_links=rng.randint(0, 2) if len(domains) > 1 else 0,
            x_sources=rng.randint(0, 1),
            seed=seed,
        )
        return generate_synthetic_core(config).circuit

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", range(6))
    def test_fuzzed_detection_masks_and_curves_bit_identical(self, seed, backend):
        """Kernel vs reference: statuses, first detections, curves -- fuzzed."""
        circuit = self.fuzz_core(seed)
        rng = random.Random(2000 + seed)
        block_size = rng.choice(BLOCK_SIZES)
        patterns = random_patterns(circuit, rng.randint(40, 120), 3000 + seed)

        fl_ref = collapse_stuck_at(circuit).to_fault_list()
        reference = ReferenceFaultSimulator(circuit)
        _, curve_ref = reference.simulate(fl_ref, patterns, block_size=block_size)

        fl_new = collapse_stuck_at(circuit).to_fault_list()
        result = simulate_patterns(
            FaultSimulator(circuit, backend=backend), fl_new, patterns, block_size=block_size
        )

        assert result.coverage_curve == curve_ref
        assert fl_new.coverage() == fl_ref.coverage()
        for fault in fl_ref.faults():
            ref_record = fl_ref.record(fault)
            new_record = fl_new.record(fault)
            assert new_record.status is ref_record.status, str(fault)
            assert new_record.first_detection == ref_record.first_detection, str(fault)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", range(4))
    def test_fuzzed_value_tables_bit_identical(self, seed, backend):
        """Full fault-free value tables agree on fuzzed structures."""
        circuit = self.fuzz_core(10 + seed)
        reference = ReferencePackedSimulator(circuit)
        rng = random.Random(500 + seed)
        block_size = rng.choice((1, 17, 64, 256))
        patterns = random_patterns(circuit, block_size + rng.randint(1, 30), seed)
        nets = circuit.stimulus_nets()
        for block in iter_blocks(patterns, block_size=block_size, nets=nets):
            expected = reference.simulate_block(block.assignments, block.num_patterns)
            actual = block_values(
                circuit, block.assignments, block.num_patterns, backend
            )
            assert actual == expected

    @pytest.mark.parametrize("seed", range(3))
    def test_fuzzed_detection_masks_per_fault(self, seed):
        """Per-fault packed detection masks agree fault by fault (no dropping)."""
        circuit = self.fuzz_core(20 + seed)
        patterns = random_patterns(circuit, 48, 700 + seed)
        nets = circuit.stimulus_nets()
        (block,) = list(iter_blocks(patterns, block_size=64, nets=nets))
        reference = ReferenceFaultSimulator(circuit)
        simulator = FaultSimulator(circuit)
        good = reference.simulator.simulate_block(block.assignments, block.num_patterns)
        table = [good[name] for name in simulator.kernel.net_names]
        for fault in collapse_stuck_at(circuit).representatives:
            expected = reference.detection_mask(fault, good, block.num_patterns)
            actual = simulator.detection_mask_ids(fault, table, block.num_patterns)
            assert actual == expected, str(fault)


class TestStrictStimulusMode:
    def test_strict_raises_on_missing_stimulus_net(self):
        circuit = make_core(6)
        stimulus = {net: 1 for net in circuit.stimulus_nets()}
        removed = next(iter(stimulus))
        del stimulus[removed]
        with pytest.raises(StrictStimulusError, match="missing"):
            block_values(circuit, stimulus, 1, strict=True)

    def test_strict_raises_on_misspelled_net(self):
        """Regression for the latent bug: a typo used to silently read as 0."""
        circuit = make_core(6)
        stimulus = {net: 1 for net in circuit.stimulus_nets()}
        first = next(iter(stimulus))
        stimulus[first + "_typo"] = stimulus.pop(first)
        with pytest.raises(StrictStimulusError):
            block_values(circuit, stimulus, 1, strict=True)
        # Non-strict keeps the historical behaviour: typo ignored, net reads 0.
        values = block_values(circuit, stimulus, 1)
        assert values[first] == 0

    def test_strict_pattern_check_rejects_misspelled_pattern(self):
        circuit = make_core(6)
        patterns = random_patterns(circuit, 4, 3)
        patterns[2]["no_such_net"] = 1
        with pytest.raises(StrictStimulusError, match="pattern 2"):
            check_strict_patterns(circuit, patterns)

    def test_complete_stimulus_passes_strict(self):
        circuit = make_core(6)
        stimulus = {net: 1 for net in circuit.stimulus_nets()}
        values = block_values(circuit, stimulus, 1, strict=True)
        assert all(values[net] == 1 for net in circuit.stimulus_nets())
