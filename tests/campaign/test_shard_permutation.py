"""Shard-order / worker-count independence regressions.

Campaign results must be a pure function of (circuit, config, patterns):
which worker executed which shard, the order tasks were submitted in, and
how many shards the work was cut into must all be invisible in the merged
report.  These tests permute shard assignments and sweep worker/shard counts
and assert the canonical report bytes are **byte-identical** -- the
regression for the classic "results depend on worker scheduling" bug class.
"""

import pickle
import random

import pytest

from repro.campaign import (
    CampaignRunner,
    CampaignScenario,
    ShardScanStage,
    StageObserver,
    keyed_round_robin_shards,
    merge_first_detections,
    shard_stage_nodes,
)
from repro.core import LogicBistConfig
from repro.cores.generator import SyntheticCoreConfig, generate_synthetic_core
from repro.faults import FaultList, collapse_stuck_at
from repro.faults.fault_sim import FaultSimShardState
from repro.faults.transition_sim import TransitionSimShardState, derive_pair_blocks
from repro.service import CampaignService
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
    def test_keyed_round_robin_covers_every_index_once(self):
        """With one key per index the keyed planner deals the indices
        themselves round-robin, dropping empty shards."""
        for count in (0, 1, 5, 17, 100):
            for shards in (1, 2, 4, 7):
                groups = keyed_round_robin_shards(range(count), shards)
                flat = sorted(i for group in groups for i in group)
                assert flat == list(range(count))
                assert all(group for group in groups)
                assert groups == tuple(
                    group
                    for group in (
                        tuple(range(start, count, shards))
                        for start in range(shards)
                    )
                    if group
                )

    def test_planners_are_deterministic(self):
        keys = [index % 11 for index in range(37)]
        assert keyed_round_robin_shards(keys, 5) == keyed_round_robin_shards(keys, 5)

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

    def test_invalid_shard_counts_rejected(self):
        with pytest.raises(ValueError):
            keyed_round_robin_shards(range(5), 0)

    @pytest.mark.parametrize("fault_shards", (0, -3))
    def test_runner_rejects_fewer_than_one_fault_shard(self, fault_shards):
        """A shard count below one is an error at construction, not a
        silent single shard."""
        with pytest.raises(ValueError, match="fault_shards"):
            CampaignRunner(num_workers=1, fault_shards=fault_shards)
        with pytest.raises(ValueError, match="fault_shards"):
            CampaignService(num_workers=1, fault_shards=fault_shards)
        assert CampaignRunner(num_workers=0).fault_shards == 1


def random_blocks(circuit, count, seed):
    rng = random.Random(seed)
    nets = circuit.stimulus_nets()
    patterns = [{n: rng.randint(0, 1) for n in nets} for _ in range(count)]
    return list(iter_blocks(patterns, block_size=32, nets=nets))


def stuck_session(circuit, count, seed):
    """A stuck-at shard state and its ``(offset, block)`` session."""
    state = FaultSimShardState(
        circuit=circuit,
        observe_nets=tuple(circuit.observation_nets()),
        faults=tuple(collapse_stuck_at(circuit).to_fault_list().undetected()),
    )
    blocks = random_blocks(circuit, count, seed)
    return state, tuple(zip(range(0, count, 32), blocks))


def transition_session(circuit, count, seed):
    """A transition shard state and its ``(offset, launch, capture)`` session."""
    state = TransitionSimShardState(
        circuit=circuit,
        observe_nets=tuple(circuit.observation_nets()),
        faults=tuple(FaultList.transition(circuit).undetected()),
    )
    return state, derive_pair_blocks(circuit, random_blocks(circuit, count, seed))


class ShardTasks(StageObserver):
    """Collects the shard stage tasks a schedule starts, by stage key."""

    def __init__(self) -> None:
        self.tasks: dict[str, ShardScanStage] = {}

    def on_stage_start(self, node) -> None:
        if isinstance(node.task, ShardScanStage):
            self.tasks[node.key] = node.task


class TestShardStages:
    @pytest.mark.parametrize("fault_shards", (1, 3))
    @pytest.mark.parametrize("session", (stuck_session, transition_session))
    def test_each_stage_carries_the_whole_session(self, session, fault_shards):
        # Two pipeline stages: launch-on-capture transitions then reach
        # logic every transition shard has to resimulate.
        circuit = make_core(45, pipeline_stages=2)
        state, entries = session(circuit, 200, 8)
        prefix = "s0:grid/random"
        nodes = shard_stage_nodes("grid", state, entries, fault_shards, prefix=prefix)
        assert len(nodes) == fault_shards
        assert [node.key for node in nodes] == [
            f"{prefix}/shard{i}" for i in range(len(nodes))
        ]
        # Every fault in exactly one shard.
        owned = sorted(i for node in nodes for i in node.task.fault_indices)
        assert owned == list(range(len(state.faults)))
        for node in nodes:
            stage = node.task
            assert isinstance(stage, ShardScanStage)
            # The very entries (and so the global offsets) of the session.
            assert len(stage.blocks) == len(entries)
            assert all(got is want for got, want in zip(stage.blocks, entries))
            assert stage.run().gate_evals > 0
        shipped = sum(len(node.task.blocks) for node in nodes)
        assert shipped == fault_shards * len(entries)

    @pytest.mark.parametrize("fault_shards", (1, 2, 4))
    def test_each_shard_ships_only_its_own_faults(self, fault_shards):
        """Every stuck-at and transition shard of a campaign ships a state
        holding exactly its own faults, in ``fault_indices`` order, while
        its indices stay campaign-global; the report bytes equal the serial
        oracle's."""
        config = LogicBistConfig(
            total_scan_chains=4,
            tpi_method="none",
            observation_point_budget=0,
            random_patterns=96,
            signature_patterns=8,
            measure_transition_coverage=True,
            transition_patterns=48,
        )
        scenarios = [CampaignScenario("own", make_core(45, pipeline_stages=2), config)]
        oracle = CampaignRunner(num_workers=1, fault_shards=1).run(scenarios)
        runner = CampaignRunner(num_workers=1, fault_shards=fault_shards)
        plan = runner.plan(scenarios)
        shards = ShardTasks()
        run = runner.scheduler().run(plan.nodes, observer=shards)
        assert runner.collect(plan, run, 0.0).report_bytes() == oracle.report_bytes()
        keys = plan.artifact_keys["own"]
        scans = (("fault_sim", "bundle"), ("transition", "transition_prep"))
        for scan, source in scans:
            universe = run.value(keys[source]).state.faults
            tasks = [
                task for key, task in shards.tasks.items()
                if key.startswith(f"{keys[scan]}/shard")
            ]
            assert 1 <= len(tasks) <= fault_shards
            owned = sorted(i for task in tasks for i in task.fault_indices)
            assert owned == list(range(len(universe)))
            for task in tasks:
                shipped = pickle.loads(pickle.dumps(task))
                assert len(shipped.state.faults) == len(task.fault_indices)
                assert list(shipped.state.faults) == [
                    universe[i] for i in task.fault_indices
                ]


class TestPermutedShardAssignment:
    def test_merge_is_independent_of_task_order(self):
        circuit = make_core(41)
        state, entries = stuck_session(circuit, 140, 6)
        nodes = shard_stage_nodes(
            "perm", state, entries, fault_shards=4, prefix="perm"
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
        (fault_shards, num_workers) execution plan."""
        circuit = make_core(43)
        config = LogicBistConfig(
            total_scan_chains=4,
            tpi_method="none",
            observation_point_budget=0,
            random_patterns=96,
            signature_patterns=8,
        )

        def report(fault_shards, num_workers):
            runner = CampaignRunner(
                num_workers=num_workers, fault_shards=fault_shards
            )
            return runner.run(
                [CampaignScenario("invariant", circuit, config)]
            ).report_bytes()

        baseline = report(1, 1)
        for fault_shards in (2, 4, 7):
            assert report(fault_shards, 1) == baseline

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
