"""Differential harness for the stage-graph pipeline: pooled preparation.

PR 4's claim is that moving scenario *preparation* (scan insertion, TPI
profiling -- itself a full fault simulation under ``tpi_method="fault_sim"``
-- and signature-response derivation) from the parent process into pooled
stage tasks changes **nothing** about the results: the pipelined campaign's
canonical report bytes are identical to the serial stage walk, which in turn
is identical to the serial ``LogicBistFlow`` oracle.  This suite asserts
exactly that across worker counts {1, 2, 4} and both execution backends,
with TPI-heavy (``fault_sim``) scenarios front and center, plus unit
coverage of the scheduler machinery itself (expansion, aliasing, stall
detection, pool-vs-serial parity).
"""

import dataclasses

import pytest

from repro.campaign import (
    CampaignRunner,
    CampaignScenario,
    Expansion,
    PooledScheduler,
    SerialScheduler,
    StageNode,
)
from repro.campaign.pipeline import PHASE_ORDER
from repro.core import LogicBistConfig, LogicBistFlow
from repro.cores.generator import SyntheticCoreConfig, generate_synthetic_core

WORKER_COUNTS = (1, 2, 4)


def make_core(seed: int, domains: int = 2):
    """A randomized small multi-domain core (fresh structure per seed)."""
    config = SyntheticCoreConfig(
        name=f"pipeline_core_{seed}",
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
    return generate_synthetic_core(config).circuit


def tpi_heavy_config(**overrides):
    """A ``fault_sim``-TPI configuration: preparation dominated by profiling."""
    defaults = dict(
        total_scan_chains=4,
        tpi_method="fault_sim",
        observation_point_budget=4,
        tpi_profile_patterns=48,
        random_patterns=96,
        signature_patterns=12,
    )
    defaults.update(overrides)
    return LogicBistConfig(**defaults)


def mixed_scenarios(sim_backend="python"):
    """Two TPI-heavy scenarios plus one TPI-free one (the Amdahl workload)."""
    return [
        CampaignScenario(
            "tpi-a",
            make_core(41),
            tpi_heavy_config(sim_backend=sim_backend),
        ),
        CampaignScenario(
            "tpi-b",
            make_core(42, domains=3),
            tpi_heavy_config(sim_backend=sim_backend, observation_point_budget=3),
        ),
        CampaignScenario(
            "plain",
            make_core(43, domains=1),
            tpi_heavy_config(
                sim_backend=sim_backend,
                tpi_method="none",
                observation_point_budget=0,
            ),
        ),
    ]


class TestPipelinedPreparationMatchesFlowOracle:
    """Serial stage walk == the serial flow, TPI preparation included."""

    def test_serial_pipeline_matches_flow_per_scenario(self):
        scenarios = mixed_scenarios()
        campaign = CampaignRunner(num_workers=1, fault_shards=3).run(scenarios)
        for scenario in scenarios:
            flow_result = LogicBistFlow(
                dataclasses.replace(scenario.config, topup_max_faults=0)
            ).run(scenario.circuit)
            got = campaign[scenario.name]
            if scenario.config.tpi_method == "fault_sim":
                assert flow_result.test_point_count > 0  # TPI really fired
            assert got.coverage == flow_result.fault_coverage_random
            assert got.coverage_curve == flow_result.coverage_curve
            assert got.signatures == dict(sorted(flow_result.signatures.items()))

    @pytest.mark.numpy
    def test_numpy_serial_pipeline_matches_python_flow(self):
        """Backend rides every stage payload: numpy pipeline == python flow."""
        scenarios = mixed_scenarios(sim_backend="numpy")
        campaign = CampaignRunner(num_workers=1, fault_shards=3).run(scenarios)
        for scenario in scenarios:
            python_config = dataclasses.replace(
                scenario.config, sim_backend="python", topup_max_faults=0
            )
            flow_result = LogicBistFlow(python_config).run(scenario.circuit)
            got = campaign[scenario.name]
            assert got.coverage == flow_result.fault_coverage_random
            assert got.coverage_curve == flow_result.coverage_curve
            assert got.signatures == dict(sorted(flow_result.signatures.items()))


@pytest.mark.multiprocess
class TestPipelinedReportBytesAcrossWorkers:
    """One campaign, worker counts {1, 2, 4}: byte-identical reports."""

    @pytest.mark.parametrize("num_workers", WORKER_COUNTS)
    def test_report_bytes_identical(self, num_workers):
        scenarios = mixed_scenarios()
        reference = CampaignRunner(num_workers=1, fault_shards=4).run(scenarios)
        if num_workers == 1:
            candidate = CampaignRunner(num_workers=1, fault_shards=2).run(scenarios)
        else:
            candidate = CampaignRunner(
                num_workers=num_workers, fault_shards=4
            ).run(scenarios)
        assert candidate.report_bytes() == reference.report_bytes()

    @pytest.mark.numpy
    @pytest.mark.parametrize("num_workers", (2,))
    def test_numpy_pooled_matches_python_serial(self, num_workers):
        python_run = CampaignRunner(num_workers=1, fault_shards=4).run(
            mixed_scenarios("python")
        )
        numpy_run = CampaignRunner(num_workers=num_workers, fault_shards=4).run(
            mixed_scenarios("numpy")
        )
        assert numpy_run.report_bytes() == python_run.report_bytes()

    def test_flow_pipeline_workers_bit_identical_to_serial(self):
        """A pooled campaign run of the flow's graph reproduces the serial flow."""
        circuit = make_core(44)
        config = LogicBistConfig(
            total_scan_chains=4,
            tpi_method="fault_sim",
            observation_point_budget=4,
            tpi_profile_patterns=48,
            random_patterns=128,
            signature_patterns=12,
            measure_transition_coverage=True,
            transition_patterns=48,
            topup_backtrack_limit=60,
            campaign_topup=True,
        )
        serial = LogicBistFlow(config).run(circuit)
        pooled = CampaignRunner(num_workers=2).run(
            [CampaignScenario("flow", circuit, config)]
        )["flow"]
        assert serial.test_point_count > 0  # TPI really fired
        assert pooled.total_faults == serial.total_faults
        assert pooled.coverage_random == serial.fault_coverage_random
        assert pooled.coverage_curve == serial.coverage_curve
        assert pooled.signatures == dict(sorted(serial.signatures.items()))
        assert pooled.coverage == serial.fault_coverage_final
        assert pooled.topup_pattern_count == serial.top_up_pattern_count
        assert pooled.transition_coverage == serial.transition_coverage
        for fault in serial.fault_list.faults():
            assert (
                pooled.fault_list.record(fault).first_detection
                == serial.fault_list.record(fault).first_detection
            ), str(fault)


class TestCampaignTrace:
    """The runner's PipelineRun trace supports the Amdahl accounting."""

    def test_trace_categories_and_phases_recorded(self):
        runner = CampaignRunner(num_workers=1, fault_shards=2)
        runner.run(mixed_scenarios()[:2])
        trace = runner.last_run.trace
        assert {record.category for record in trace} == {"prep", "sim", "control"}
        assert {record.phase for record in trace} <= set(PHASE_ORDER)
        # Every scenario contributed preparation *and* simulation stages.
        for name in ("tpi-a", "tpi-b"):
            categories = {r.category for r in trace if r.scenario == name}
            assert {"prep", "sim"} <= categories
        assert all(record.seconds >= 0.0 for record in trace)


# --------------------------------------------------------------------- #
# Scheduler machinery
# --------------------------------------------------------------------- #
@dataclasses.dataclass(frozen=True)
class AddStage:
    amount: int

    def run(self, *inputs):
        return self.amount + sum(inputs)


@dataclasses.dataclass(frozen=True)
class FanOutStage:
    """Expander: one AddStage per unit of its input, plus a sum reducer."""

    prefix: str
    source_key: str

    def run(self, width):
        nodes = tuple(
            StageNode(
                key=f"{self.prefix}/leaf{i}",
                task=AddStage(i),
                deps=(self.source_key,),
            )
            for i in range(width)
        )
        reducer = StageNode(
            key=f"{self.prefix}/sum",
            task=AddStage(0),
            deps=tuple(node.key for node in nodes),
            local=True,
        )
        return Expansion(nodes=(*nodes, reducer), result=f"{self.prefix}/sum")


@dataclasses.dataclass(frozen=True)
class BoomStage:
    def run(self):
        raise ValueError("stage exploded")


def diamond_nodes():
    """source -> fan-out expander -> reducer -> final (alias-resolved dep)."""
    return [
        StageNode(key="source", task=AddStage(3)),
        StageNode(
            key="fan", task=FanOutStage("fan", "source"), deps=("source",), local=True
        ),
        StageNode(key="final", task=AddStage(100), deps=("fan",)),
    ]


class TestSchedulers:
    def test_serial_expansion_and_alias(self):
        run = SerialScheduler().run(diamond_nodes())
        # source = 3; leaves = 3, 4, 5; fan-sum = 12; final = 112.
        assert run.value("fan") == 12
        assert run.value("final") == 112

    @pytest.mark.multiprocess
    def test_pooled_matches_serial(self):
        serial = SerialScheduler().run(diamond_nodes())
        pooled = PooledScheduler(2).run(diamond_nodes())
        assert pooled.value("final") == serial.value("final")
        assert pooled.resolve_key("fan") == serial.resolve_key("fan")

    def test_duplicate_keys_rejected(self):
        nodes = [
            StageNode(key="a", task=AddStage(1)),
            StageNode(key="a", task=AddStage(2)),
        ]
        with pytest.raises(ValueError, match="duplicate"):
            SerialScheduler().run(nodes)

    def test_stalled_graph_reported(self):
        nodes = [StageNode(key="a", task=AddStage(1), deps=("missing",))]
        with pytest.raises(RuntimeError, match="unsatisfied"):
            SerialScheduler().run(nodes)

    @pytest.mark.multiprocess
    def test_pooled_propagates_stage_errors(self):
        nodes = [StageNode(key="boom", task=BoomStage())]
        with pytest.raises(ValueError, match="stage exploded"):
            PooledScheduler(2).run(nodes)

    def test_serial_trace_times_every_stage(self):
        run = SerialScheduler().run(diamond_nodes())
        keys = {record.key for record in run.trace}
        assert {"source", "fan", "fan/sum", "final"} <= keys
