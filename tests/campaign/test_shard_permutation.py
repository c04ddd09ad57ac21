"""Shard-order / worker-count independence regressions.

Campaign results must be a pure function of (circuit, config, patterns):
which worker executed which shard, the order tasks were submitted in, and
how many shards the work was cut into must all be invisible in the merged
report.  These tests permute shard assignments and sweep worker/shard counts
and assert the canonical report bytes are **byte-identical** -- the
regression for the classic "results depend on worker scheduling" bug class.
"""

import random

import pytest

from repro.campaign import (
    CampaignRunner,
    CampaignScenario,
    ShardScanStage,
    contiguous_shards,
    keyed_round_robin_shards,
    merge_first_detections,
    plan_grid,
    round_robin_shards,
    shard_stage_nodes,
)
from repro.core import LogicBistConfig
from repro.cores.generator import SyntheticCoreConfig, generate_synthetic_core
from repro.faults import FaultList, FaultSimulator, collapse_stuck_at
from repro.faults.transition_sim import TransitionSimShardState, derive_pair_blocks
from repro.simulation import iter_blocks


def make_core(seed: int, pipeline_stages: int = 1):
    config = SyntheticCoreConfig(
        name=f"perm_core_{seed}",
        clock_domains=("clk1", "clk2"),
        num_inputs=8,
        num_outputs=5,
        register_width=6,
        pipeline_stages=pipeline_stages,
        adder_slices=1,
        adder_width=4,
        comparator_widths=(6,),
        decode_cone_width=5,
        cross_domain_links=1,
        seed=seed,
    )
    return generate_synthetic_core(config).circuit


class TestShardPlanners:
    def test_round_robin_covers_every_index_once(self):
        for count in (0, 1, 5, 17, 100):
            for shards in (1, 2, 4, 7):
                groups = round_robin_shards(count, shards)
                flat = sorted(i for group in groups for i in group)
                assert flat == list(range(count))
                assert all(group for group in groups)

    def test_contiguous_covers_every_index_in_order(self):
        for count in (0, 1, 5, 17, 100):
            for shards in (1, 2, 4, 7):
                groups = contiguous_shards(count, shards)
                flat = [i for group in groups for i in group]
                assert flat == list(range(count))
                # Balanced: sizes differ by at most one.
                if groups:
                    sizes = {len(group) for group in groups}
                    assert max(sizes) - min(sizes) <= 1

    def test_planners_are_deterministic(self):
        assert round_robin_shards(37, 5) == round_robin_shards(37, 5)
        assert contiguous_shards(37, 5) == contiguous_shards(37, 5)

    def test_keyed_round_robin_keeps_groups_together(self):
        """Faults sharing a site key never split across shards (cone-plan
        compilation locality), and coverage stays exactly-once."""
        keys = ["g0", "g0", "g1", "g2", "g2", "g2", "g3", "g1", "g4"]
        for shards in (1, 2, 3, 7):
            groups = keyed_round_robin_shards(keys, shards)
            flat = sorted(i for group in groups for i in group)
            assert flat == list(range(len(keys)))
            for key in set(keys):
                members = {i for i, k in enumerate(keys) if k == key}
                owners = [
                    shard
                    for shard, group in enumerate(groups)
                    if members & set(group)
                ]
                assert len(owners) == 1, f"key {key} split across shards {owners}"
        assert keyed_round_robin_shards(keys, 3) == keyed_round_robin_shards(keys, 3)

    def test_grid_covers_every_cell_exactly_once(self):
        grid = plan_grid(10, 6, fault_shards=3, pattern_shards=2)
        cells = [
            (fault, block)
            for faults, blocks in grid
            for fault in faults
            for block in blocks
        ]
        assert sorted(cells) == sorted(
            (fault, block) for fault in range(10) for block in range(6)
        )

    def test_invalid_shard_counts_rejected(self):
        with pytest.raises(ValueError):
            round_robin_shards(5, 0)
        with pytest.raises(ValueError):
            contiguous_shards(5, -1)


def random_blocks(circuit, count, seed):
    rng = random.Random(seed)
    nets = circuit.stimulus_nets()
    patterns = [{n: rng.randint(0, 1) for n in nets} for _ in range(count)]
    return list(iter_blocks(patterns, block_size=32, nets=nets))


def stuck_session(circuit, count, seed):
    """A stuck-at shard state and its ``(offset, block)`` session."""
    faults = tuple(collapse_stuck_at(circuit).to_fault_list().undetected())
    blocks = random_blocks(circuit, count, seed)
    entries = tuple(zip(range(0, count, 32), blocks))
    return FaultSimulator(circuit).shard_state(faults), entries


def transition_session(circuit, count, seed):
    """A transition shard state and its ``(offset, launch, capture)`` session."""
    state = TransitionSimShardState(
        circuit=circuit,
        observe_nets=tuple(circuit.observation_nets()),
        faults=tuple(FaultList.transition(circuit).undetected()),
    )
    return state, derive_pair_blocks(circuit, random_blocks(circuit, count, seed))


class TestShardStages:
    @pytest.mark.parametrize("pattern_shards", (1, 2, 3))
    @pytest.mark.parametrize("fault_shards", (1, 3))
    @pytest.mark.parametrize("session", (stuck_session, transition_session))
    def test_each_stage_carries_only_its_own_block_run(
        self, session, fault_shards, pattern_shards
    ):
        # Two pipeline stages: launch-on-capture transitions then reach
        # logic every transition shard has to resimulate.
        circuit = make_core(45, pipeline_stages=2)
        state, entries = session(circuit, 200, 8)
        prefix = "s0:grid/random"
        nodes = shard_stage_nodes(
            "grid", state, entries, fault_shards, pattern_shards, prefix=prefix
        )
        assert len(nodes) == fault_shards * pattern_shards
        assert [node.key for node in nodes] == [
            f"{prefix}/shard{i}" for i in range(len(nodes))
        ]
        offsets = [entry[0] for entry in entries]
        for node in nodes:
            stage = node.task
            assert isinstance(stage, ShardScanStage)
            # One contiguous run of the session, the very entries (and so
            # the global offsets) of the stream it was cut from.
            start = offsets.index(stage.blocks[0][0])
            run = entries[start : start + len(stage.blocks)]
            assert all(got is want for got, want in zip(stage.blocks, run))
            assert len(run) == len(stage.blocks)
            assert stage.run().gate_evals > 0
        shipped = sum(len(node.task.blocks) for node in nodes)
        assert shipped == fault_shards * len(entries)


class TestPermutedShardAssignment:
    def test_merge_is_independent_of_task_order(self):
        circuit = make_core(41)
        state, entries = stuck_session(circuit, 140, 6)
        nodes = shard_stage_nodes(
            "perm", state, entries, fault_shards=4, pattern_shards=2, prefix="perm"
        )
        stages = [node.task for node in nodes]

        def run_stages(ordered):
            return [stage.run() for stage in ordered]

        baseline = merge_first_detections(run_stages(stages))
        for seed in (1, 2, 3):
            shuffled = list(stages)
            random.Random(seed).shuffle(shuffled)
            merged = merge_first_detections(run_stages(shuffled))
            assert merged == baseline

    def test_report_bytes_invariant_under_shard_and_worker_count(self):
        """The canonical campaign report is byte-identical across every
        (fault_shards, pattern_shards, num_workers) execution plan."""
        circuit = make_core(43)
        config = LogicBistConfig(
            total_scan_chains=4,
            tpi_method="none",
            observation_point_budget=0,
            random_patterns=96,
            signature_patterns=8,
        )

        def report(fault_shards, pattern_shards, num_workers):
            runner = CampaignRunner(
                num_workers=num_workers,
                fault_shards=fault_shards,
                pattern_shards=pattern_shards,
            )
            return runner.run(
                [CampaignScenario("invariant", circuit, config)]
            ).report_bytes()

        baseline = report(1, 1, 1)
        for fault_shards in (2, 4, 7):
            assert report(fault_shards, 1, 1) == baseline
        assert report(4, 2, 1) == baseline

    @pytest.mark.multiprocess
    def test_report_bytes_invariant_under_pool_size(self):
        circuit = make_core(47)
        config = LogicBistConfig(
            total_scan_chains=4,
            tpi_method="none",
            observation_point_budget=0,
            random_patterns=64,
            signature_patterns=8,
        )

        def report(num_workers):
            runner = CampaignRunner(num_workers=num_workers, fault_shards=4)
            return runner.run(
                [CampaignScenario("pool-invariant", circuit, config)]
            ).report_bytes()

        assert report(1) == report(2) == report(3)

    def test_duplicate_scenario_names_rejected(self):
        """Results are keyed by name; a silent overwrite would drop a scenario."""
        circuit = make_core(53)
        config = LogicBistConfig(
            total_scan_chains=4,
            tpi_method="none",
            observation_point_budget=0,
            random_patterns=32,
            signature_patterns=0,
        )
        with pytest.raises(ValueError, match="duplicate scenario names"):
            CampaignRunner(num_workers=1).run(
                [
                    CampaignScenario("same", circuit, config),
                    CampaignScenario("same", circuit, config),
                ]
            )

    def test_multi_scenario_campaign_keeps_scenarios_apart(self):
        """Two scenarios in one campaign merge to their own serial results."""
        circuit_a = make_core(51)
        circuit_b = make_core(52)
        config = LogicBistConfig(
            total_scan_chains=4,
            tpi_method="none",
            observation_point_budget=0,
            random_patterns=64,
            signature_patterns=0,
        )
        both = CampaignRunner(num_workers=1, fault_shards=3).run(
            [
                CampaignScenario("alpha", circuit_a, config),
                CampaignScenario("beta", circuit_b, config),
            ]
        )
        alone_a = CampaignRunner(num_workers=1, fault_shards=3).run(
            [CampaignScenario("alpha", circuit_a, config)]
        )
        alone_b = CampaignRunner(num_workers=1, fault_shards=3).run(
            [CampaignScenario("beta", circuit_b, config)]
        )
        assert both["alpha"].report_bytes() == alone_a["alpha"].report_bytes()
        assert both["beta"].report_bytes() == alone_b["beta"].report_bytes()
