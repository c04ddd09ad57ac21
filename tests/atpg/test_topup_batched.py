"""Batched-screening top-up vs the name-keyed oracle walk, invariant for
invariant: identical patterns, cubes, accounting and fault dispositions at
any screening block width; top-up pattern indices that can never collide
with the random phase; an honest record of targets dropped by ``max_faults``;
and a speculative replay (``run_prepared``) byte-identical to lazy
generation -- the property the campaign's pooled top-up stage rests on.
"""

import random

import pytest

from repro.atpg import TOPUP_PATTERN_BASE, PodemAtpg, TopUpAtpg
from repro.cores.benchmarks import comparator_core
from repro.core.bist_ready import fresh_fault_list
from repro.faults import FaultSimulator, FaultStatus, StuckAtFault, collapse_stuck_at
from repro.cores.generator import SyntheticCoreConfig, generate_synthetic_core
from repro.oracle import run_topup_reference


def hard_core(seed=77):
    config = SyntheticCoreConfig(
        name=f"hard_core_{seed}",
        clock_domains=("clk1",),
        num_inputs=10,
        num_outputs=5,
        register_width=5,
        pipeline_stages=1,
        adder_slices=1,
        adder_width=4,
        comparator_widths=(9, 8),
        decode_cone_width=8,
        cross_domain_links=0,
        seed=seed,
    )
    return generate_synthetic_core(config).circuit


def run_random_phase(circuit, count=128, seed=3):
    fault_list = collapse_stuck_at(circuit).to_fault_list()
    rng = random.Random(seed)
    nets = circuit.stimulus_nets()
    patterns = [{net: rng.randint(0, 1) for net in nets} for _ in range(count)]
    FaultSimulator(circuit).simulate(fault_list, patterns)
    return fault_list


def snapshot(fault_list):
    return {
        str(fault): (
            fault_list.record(fault).status.name,
            fault_list.record(fault).first_detection,
            fault_list.record(fault).detection_count,
        )
        for fault in fault_list.faults()
    }


def result_facts(result):
    return (
        result.patterns,
        [cube.assignments for cube in result.cubes],
        result.attempted_faults,
        result.successful_faults,
        result.untestable_faults,
        result.aborted_faults,
        result.backtracks,
        result.coverage_before,
        result.coverage_after,
        result.skipped_targets,
    )


class TestBatchedScreeningEquivalence:
    @pytest.mark.parametrize("block_size", [3, 64, 256])
    def test_identical_to_reference_at_any_block_width(self, block_size):
        """Tiny widths stress the flush boundaries; wide widths the buffer."""
        circuit = hard_core()
        reference_list = run_random_phase(circuit)
        compiled_list = run_random_phase(circuit)
        reference = run_topup_reference(
            circuit, reference_list, backtrack_limit=200, seed=11
        )
        compiled = TopUpAtpg(
            circuit, backtrack_limit=200, seed=11, block_size=block_size
        ).run(compiled_list)
        assert result_facts(reference) == result_facts(compiled)
        assert snapshot(reference_list) == snapshot(compiled_list)

    @pytest.mark.numpy
    def test_numpy_screening_backend_identical(self):
        circuit = hard_core(78)
        python_list = run_random_phase(circuit)
        numpy_list = run_random_phase(circuit)
        python_result = TopUpAtpg(
            circuit, backtrack_limit=200, seed=11, sim_backend="python"
        ).run(python_list)
        numpy_result = TopUpAtpg(
            circuit, backtrack_limit=200, seed=11, sim_backend="numpy"
        ).run(numpy_list)
        assert result_facts(python_result) == result_facts(numpy_result)
        assert snapshot(python_list) == snapshot(numpy_list)


class TestPatternIndexRanges:
    def test_topup_indices_never_collide_with_random_phase(self):
        circuit = hard_core(79)
        fault_list = run_random_phase(circuit, count=96, seed=7)
        random_indices = [
            fault_list.record(fault).first_detection
            for fault in fault_list.detected()
        ]
        assert random_indices and max(random_indices) < TOPUP_PATTERN_BASE
        before = set(map(str, fault_list.detected()))
        TopUpAtpg(circuit, backtrack_limit=200, seed=17).run(fault_list)
        for fault in fault_list.detected():
            index = fault_list.record(fault).first_detection
            if str(fault) in before:
                assert index < TOPUP_PATTERN_BASE
            else:
                assert index >= TOPUP_PATTERN_BASE, str(fault)


class TestMaxFaultsAccounting:
    @pytest.mark.parametrize("engine", ["compiled", "reference"])
    def test_skipped_targets_recorded(self, engine):
        circuit = hard_core(80)
        fault_list = run_random_phase(circuit, count=96, seed=9)
        undetected = len(
            [f for f in fault_list.undetected() if isinstance(f, StuckAtFault)]
        )
        cap = max(1, undetected // 3)
        if engine == "compiled":
            result = TopUpAtpg(
                circuit, backtrack_limit=200, seed=19, max_faults=cap
            ).run(fault_list)
        else:
            result = run_topup_reference(
                circuit, fault_list, backtrack_limit=200, seed=19, max_faults=cap
            )
        assert result.skipped_targets == undetected - cap
        assert result.attempted_faults <= cap

    def test_negative_cap_rejected(self):
        """``max_faults=-1`` once planned every target but the last and
        recorded one more skipped target than there were faults."""
        circuit = comparator_core(width=6, easy_outputs=2)
        with pytest.raises(ValueError, match="max_faults"):
            TopUpAtpg(circuit, max_faults=-1)
        fault_list = fresh_fault_list(circuit)
        targets, skipped = TopUpAtpg(circuit, max_faults=0).plan_targets(fault_list)
        assert (targets, skipped) == ([], len(fault_list.undetected()))

    def test_uncapped_run_records_zero_skipped(self):
        circuit = hard_core(80)
        fault_list = run_random_phase(circuit, count=96, seed=9)
        result = TopUpAtpg(circuit, backtrack_limit=200, seed=19).run(fault_list)
        assert result.skipped_targets == 0


class TestPreparedReplay:
    def test_replay_identical_to_lazy_generation(self):
        """Speculative PODEM + deterministic replay == the serial walk."""
        circuit = hard_core(81)
        lazy_list = run_random_phase(circuit, count=96, seed=21)
        replay_list = run_random_phase(circuit, count=96, seed=21)

        lazy = TopUpAtpg(circuit, backtrack_limit=200, seed=23).run(lazy_list)

        topup_replay = TopUpAtpg(circuit, backtrack_limit=200, seed=23)
        targets, _ = topup_replay.plan_targets(replay_list)
        atpg = PodemAtpg(circuit, backtrack_limit=200)
        prepared = {fault: atpg.generate(fault) for fault in targets}
        replayed = topup_replay.run_prepared(replay_list, prepared)
        assert result_facts(lazy) == result_facts(replayed)
        assert snapshot(lazy_list) == snapshot(replay_list)

    def test_missing_targets_rejected(self):
        circuit = hard_core(81)
        fault_list = run_random_phase(circuit, count=96, seed=21)
        with pytest.raises(KeyError, match="missing attempts"):
            TopUpAtpg(circuit, backtrack_limit=200, seed=23).run_prepared(
                fault_list, {}
            )


class TestDispositionsPreserved:
    def test_no_fault_left_merely_undetected(self):
        circuit = hard_core(82)
        fault_list = run_random_phase(circuit, count=96, seed=25)
        TopUpAtpg(circuit, backtrack_limit=200, seed=27).run(fault_list)
        assert fault_list.with_status(FaultStatus.UNDETECTED) == []
