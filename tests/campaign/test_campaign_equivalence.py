"""Randomized differential harness: sharded campaign vs the serial kernel.

The campaign subsystem's whole claim is *bit-identity*: sharding the
collapsed fault list across workers, each shard scanning the packed pattern
stream, then min-merging, must reproduce the serial compiled-kernel results
exactly -- detection statuses, first-detection indices, coverage curves
(including their floating-point values), per-pattern detection credits, and
per-domain MISR signatures. This suite fuzzes random circuits from
:mod:`repro.cores.generator` across shard counts {1, 2, 4, 7} x block sizes
{64, 256} and asserts exactly that, plus the multiprocessing pool path and
the flow integration (a pooled campaign run against the serial flow).

Hand-made block streams go through :func:`shard_graph`, which drains the
production shard stages exactly as a scenario's fault-sim fan-out does;
:meth:`FaultSimulator.simulate_blocks` and
:meth:`TransitionFaultSimulator.simulate_pairs` are the references.
"""

import random

import pytest

from repro.bist import StumpsArchitecture
from repro.campaign import (
    CampaignRunner,
    CampaignScenario,
    build_simulation_result,
    merge_first_detections,
    shard_stage_nodes,
)
from repro.campaign.pipeline import undetected_of_kind
from repro.campaign.scheduler import make_scheduler
from repro.core import LogicBistConfig, LogicBistFlow
from repro.cores.generator import SyntheticCoreConfig, generate_synthetic_core
from repro.faults import (
    FaultList,
    FaultSimulator,
    TransitionFaultSimulator,
    collapse_stuck_at,
)
from repro.faults.fault_sim import FaultSimShardState
from repro.faults.models import StuckAtFault, TransitionFault
from repro.faults.transition_sim import TransitionSimShardState, derive_pair_blocks
from repro.oracle import compact_response, derive_capture_patterns
from repro.scan import build_scan_chains
from repro.simulation import iter_blocks

SHARD_COUNTS = (1, 2, 4, 7)
BLOCK_SIZES = (64, 256)
#: Transition coverage the serial oracle must reach before a transition
#: differential compares anything: on 1-stage cores launch-on-capture
#: detects ~5%, so equal fault lists would be mostly equal "undetected"s.
MIN_TRANSITION_COVERAGE = 0.15


def make_core(seed: int, domains: int = 2, pipeline_stages: int = 1):
    """A randomized small multi-domain core (fresh structure per seed).

    Transition tests pass ``pipeline_stages=3``: register-to-register paths
    are what launch-on-capture pairs exercise."""
    config = SyntheticCoreConfig(
        name=f"campaign_core_{seed}",
        clock_domains=tuple(f"clk{i + 1}" for i in range(domains)),
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


def random_patterns(circuit, count: int, seed: int):
    rng = random.Random(seed)
    nets = circuit.stimulus_nets()
    return [{net: rng.randint(0, 1) for net in nets} for _ in range(count)]


def serial_reference(circuit, patterns, block_size):
    """The serial oracle: fault list + result from the plain kernel engine,
    and the session as ``(offset, block)`` entries."""
    fault_list = collapse_stuck_at(circuit).to_fault_list()
    blocks = list(
        iter_blocks(patterns, block_size=block_size, nets=circuit.stimulus_nets())
    )
    result = FaultSimulator(circuit).simulate_blocks(fault_list, blocks)
    entries = tuple(zip(range(0, len(patterns), block_size), blocks))
    return fault_list, result, entries


def shard_graph(
    circuit,
    fault_list,
    entries,
    fault_shards,
    num_workers=1,
    sim_backend="python",
    sim_memory_budget_mb=None,
):
    """Sharded simulation of ``fault_list`` over hand-made ``entries``:
    ``(offset, block)`` pairs for stuck-at faults, ``(offset, launch,
    capture)`` triples for transition faults.  The shard stages drain
    through the schedulers and merge as in ``FaultSimStage`` /
    ``MergeDetectionsStage``."""
    kind, state_cls = (
        (TransitionFault, TransitionSimShardState)
        if len(entries[0]) == 3
        else (StuckAtFault, FaultSimShardState)
    )
    positions, faults = undetected_of_kind(fault_list, kind)
    state = state_cls(
        circuit,
        tuple(circuit.observation_nets()),
        faults,
        sim_backend,
        sim_memory_budget_mb,
    )
    nodes = shard_stage_nodes("eq", state, entries, fault_shards, prefix="eq")
    run = make_scheduler(num_workers).run(nodes)
    merged = merge_first_detections(run.value(node.key) for node in nodes)
    boundaries = [entry[0] + entry[1].num_patterns for entry in entries]
    return build_simulation_result(fault_list, positions, merged, boundaries)


def assert_fault_lists_identical(reference: FaultList, candidate: FaultList):
    assert len(reference) == len(candidate)
    for fault in reference.faults():
        ref = reference.record(fault)
        got = candidate.record(fault)
        assert got.status is ref.status, str(fault)
        assert got.first_detection == ref.first_detection, str(fault)
        assert got.detection_count == ref.detection_count, str(fault)


class TestShardedFaultSimEquivalence:
    @pytest.mark.parametrize("block_size", BLOCK_SIZES)
    @pytest.mark.parametrize("fault_shards", SHARD_COUNTS)
    def test_fault_sharding_bit_identical(self, fault_shards, block_size):
        circuit = make_core(11)
        patterns = random_patterns(circuit, 3 * block_size + 29, 5)
        ref_list, ref_result, blocks = serial_reference(circuit, patterns, block_size)

        fault_list = collapse_stuck_at(circuit).to_fault_list()
        result = shard_graph(circuit, fault_list, blocks, fault_shards)
        assert result.patterns_simulated == ref_result.patterns_simulated
        assert result.coverage_curve == ref_result.coverage_curve
        assert result.detections_per_pattern == ref_result.detections_per_pattern
        assert result.coverage == ref_result.coverage
        assert_fault_lists_identical(ref_list, fault_list)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_randomized_cores_across_shard_counts(self, seed):
        """Fresh random structure per seed, swept over every shard count."""
        circuit = make_core(seed, domains=1 + seed % 3)
        patterns = random_patterns(circuit, 150, seed + 40)
        ref_list, ref_result, blocks = serial_reference(circuit, patterns, 64)
        for fault_shards in SHARD_COUNTS:
            fault_list = collapse_stuck_at(circuit).to_fault_list()
            result = shard_graph(circuit, fault_list, blocks, fault_shards)
            assert result.coverage_curve == ref_result.coverage_curve, (
                f"curve drift at shards={fault_shards}"
            )
            assert_fault_lists_identical(ref_list, fault_list)


@pytest.mark.numpy
class TestNumpyBackendCampaign:
    """The sharded campaign under ``sim_backend="numpy"`` vs the python oracle.

    The shard payloads carry the backend to every worker, so every fan-out
    -- fault shards, the signature stage, multi-scenario runs -- must stay
    byte-identical to the serial python engine.
    """

    @pytest.mark.parametrize("fault_shards", (1, 3))
    @pytest.mark.parametrize("block_size", BLOCK_SIZES)
    def test_sharded_numpy_matches_serial_python(self, fault_shards, block_size):
        circuit = make_core(11)
        patterns = random_patterns(circuit, 3 * block_size + 29, 5)
        ref_list, ref_result, blocks = serial_reference(circuit, patterns, block_size)
        fault_list = collapse_stuck_at(circuit).to_fault_list()
        result = shard_graph(
            circuit, fault_list, blocks, fault_shards, sim_backend="numpy"
        )
        assert result.coverage_curve == ref_result.coverage_curve
        assert result.detections_per_pattern == ref_result.detections_per_pattern
        assert_fault_lists_identical(ref_list, fault_list)

    def test_sharded_transition_numpy_matches_python(self):
        circuit = make_core(19, pipeline_stages=3)
        launch = random_patterns(circuit, 96, 23)
        capture = derive_capture_patterns(circuit, launch)
        ref_list = FaultList.transition(circuit)
        TransitionFaultSimulator(circuit).simulate_pairs(
            ref_list, launch, capture, block_size=64
        )
        assert ref_list.coverage() >= MIN_TRANSITION_COVERAGE
        fault_list = FaultList.transition(circuit)
        shard_graph(
            circuit,
            fault_list,
            derive_pair_blocks(circuit, iter_blocks(launch, block_size=64)),
            fault_shards=3,
            sim_backend="numpy",
        )
        assert_fault_lists_identical(ref_list, fault_list)

    @pytest.mark.parametrize("fault_shards", (1, 2, 4))
    def test_sharded_budget_matches_serial_python(self, fault_shards):
        """A scan-memory budget in the shard states is byte-invisible at
        every shard geometry: each worker tiles its own fault subset to fit,
        and the min-merge still reproduces the serial python oracle."""
        circuit = make_core(11)
        patterns = random_patterns(circuit, 221, 5)
        ref_list, ref_result, blocks = serial_reference(circuit, patterns, 64)
        fault_list = collapse_stuck_at(circuit).to_fault_list()
        result = shard_graph(
            circuit,
            fault_list,
            blocks,
            fault_shards,
            sim_backend="numpy",
            sim_memory_budget_mb=0.05,
        )
        assert result.coverage_curve == ref_result.coverage_curve
        assert result.detections_per_pattern == ref_result.detections_per_pattern
        assert_fault_lists_identical(ref_list, fault_list)

    def test_sharded_transition_budget_matches_python(self):
        circuit = make_core(19, pipeline_stages=3)
        launch = random_patterns(circuit, 96, 23)
        capture = derive_capture_patterns(circuit, launch)
        ref_list = FaultList.transition(circuit)
        TransitionFaultSimulator(circuit).simulate_pairs(
            ref_list, launch, capture, block_size=64
        )
        assert ref_list.coverage() >= MIN_TRANSITION_COVERAGE
        fault_list = FaultList.transition(circuit)
        shard_graph(
            circuit,
            fault_list,
            derive_pair_blocks(circuit, iter_blocks(launch, block_size=64)),
            fault_shards=3,
            sim_backend="numpy",
            sim_memory_budget_mb=0.05,
        )
        assert_fault_lists_identical(ref_list, fault_list)

    def test_campaign_runner_report_bytes_budget_invariant(self):
        """Full multi-scenario campaign through the stage-graph pipeline:
        the canonical report bytes cannot depend on the memory budget (the
        shard states carry it, the tiled scans honor it) -- budgeted numpy
        at 4 shards equals the unsharded, unbudgeted python oracle."""
        import dataclasses

        circuit = make_core(23)
        config = LogicBistConfig(
            total_scan_chains=4,
            tpi_method="none",
            observation_point_budget=0,
            random_patterns=96,
            signature_patterns=8,
        )
        budgeted = dataclasses.replace(
            config, sim_backend="numpy", sim_memory_budget_mb=0.05
        )
        oracle_run = CampaignRunner(num_workers=1, fault_shards=1).run(
            [CampaignScenario("core", circuit, config)]
        )
        budget_run = CampaignRunner(num_workers=1, fault_shards=4).run(
            [CampaignScenario("core", circuit, budgeted)]
        )
        assert oracle_run.report_bytes() == budget_run.report_bytes()

    def test_campaign_runner_report_bytes_backend_invariant(self):
        """Full multi-scenario campaign: canonical bytes match across
        backends (coverage curves, first detections, MISR signatures)."""
        import dataclasses

        circuit = make_core(23)
        config = LogicBistConfig(
            total_scan_chains=4,
            tpi_method="none",
            observation_point_budget=0,
            random_patterns=96,
            signature_patterns=8,
        )
        numpy_config = dataclasses.replace(config, sim_backend="numpy")
        python_run = CampaignRunner(num_workers=1, fault_shards=1).run(
            [CampaignScenario("core", circuit, config)]
        )
        numpy_run = CampaignRunner(num_workers=1, fault_shards=4).run(
            [CampaignScenario("core", circuit, numpy_config)]
        )
        assert python_run.report_bytes() == numpy_run.report_bytes()


@pytest.mark.multiprocess
class TestMultiprocessPool:
    def test_pool_matches_serial_bit_for_bit(self):
        """The real multiprocessing path (2 workers) vs the serial kernel."""
        circuit = make_core(31)
        patterns = random_patterns(circuit, 130, 3)
        ref_list, ref_result, blocks = serial_reference(circuit, patterns, 64)
        fault_list = collapse_stuck_at(circuit).to_fault_list()
        result = shard_graph(circuit, fault_list, blocks, 4, num_workers=2)
        assert result.coverage_curve == ref_result.coverage_curve
        assert result.detections_per_pattern == ref_result.detections_per_pattern
        assert_fault_lists_identical(ref_list, fault_list)

    @pytest.mark.numpy
    def test_numpy_pool_matches_serial_python(self):
        """numpy-backend workers on a real pool vs the serial python oracle."""
        circuit = make_core(31)
        patterns = random_patterns(circuit, 130, 3)
        ref_list, ref_result, blocks = serial_reference(circuit, patterns, 64)
        fault_list = collapse_stuck_at(circuit).to_fault_list()
        result = shard_graph(
            circuit, fault_list, blocks, 4, num_workers=2, sim_backend="numpy"
        )
        assert result.coverage_curve == ref_result.coverage_curve
        assert result.detections_per_pattern == ref_result.detections_per_pattern
        assert_fault_lists_identical(ref_list, fault_list)

    @pytest.mark.numpy
    @pytest.mark.parametrize("num_workers", (2, 4))
    def test_numpy_pool_with_budget_matches_serial_python(self, num_workers):
        """The budget survives pickling into real worker processes: pooled
        budgeted workers vs the serial python oracle, at two pool widths."""
        circuit = make_core(31)
        patterns = random_patterns(circuit, 130, 3)
        ref_list, ref_result, blocks = serial_reference(circuit, patterns, 64)
        fault_list = collapse_stuck_at(circuit).to_fault_list()
        result = shard_graph(
            circuit,
            fault_list,
            blocks,
            4,
            num_workers=num_workers,
            sim_backend="numpy",
            sim_memory_budget_mb=0.05,
        )
        assert result.coverage_curve == ref_result.coverage_curve
        assert result.detections_per_pattern == ref_result.detections_per_pattern
        assert_fault_lists_identical(ref_list, fault_list)

    def test_campaign_runner_pool_matches_in_process(self):
        circuit = make_core(8)
        config = LogicBistConfig(
            total_scan_chains=4,
            tpi_method="none",
            observation_point_budget=0,
            random_patterns=96,
            signature_patterns=8,
        )
        scenario = CampaignScenario("pool-core", circuit, config)
        serial = CampaignRunner(num_workers=1, fault_shards=4).run([scenario])
        pooled = CampaignRunner(num_workers=2, fault_shards=4).run([scenario])
        assert serial.report_bytes() == pooled.report_bytes()


class TestSignatureSharding:
    def test_per_domain_fold_matches_full_architecture(self):
        """Folding each domain in isolation == the serial multi-domain unload."""
        circuit = make_core(13, domains=3)
        architecture = build_scan_chains(circuit, total_chains=6)
        rng = random.Random(99)
        flops = circuit.flop_names()
        responses = [
            {name: rng.randint(0, 1) for name in flops} for _ in range(24)
        ]

        serial = StumpsArchitecture(architecture, seed=5)
        for response in responses:
            compact_response(serial, response)
        expected = serial.signatures()

        # The whole packed response stream, in blocks that cut across it.
        blocks = list(iter_blocks(responses, block_size=10))
        sharded = StumpsArchitecture(architecture, seed=5)
        actual = {
            name: domain.fold_responses(blocks)
            for name, domain in sharded.domains.items()
        }
        assert actual == expected

    def test_campaign_signatures_match_flow(self):
        """Campaign scenario signatures == the serial flow's signature phase."""
        circuit = make_core(29)
        config = LogicBistConfig(
            total_scan_chains=4,
            tpi_method="none",
            observation_point_budget=0,
            random_patterns=64,
            signature_patterns=12,
            topup_max_faults=0,
            campaign_topup=True,
        )
        campaign = CampaignRunner(num_workers=1, fault_shards=3).run(
            [CampaignScenario("flow-parity", circuit, config)]
        )
        flow_result = LogicBistFlow(config).run(circuit, core_name="flow-parity")
        assert flow_result.report_bytes() == campaign["flow-parity"].report_bytes()

    def test_campaign_matches_flow_with_tpi_enabled(self):
        """TPI-enabled configs (the library default) get the flow's coverage.

        Regression: the runner used to skip the test-point-insertion phase
        entirely, silently reporting far lower coverage than the flow for
        the same (circuit, config) pair.
        """
        circuit = make_core(37)
        config = LogicBistConfig(
            total_scan_chains=4,
            tpi_method="fault_sim",
            observation_point_budget=4,
            tpi_profile_patterns=48,
            random_patterns=64,
            signature_patterns=12,
            topup_max_faults=0,
            campaign_topup=True,
        )
        campaign = CampaignRunner(num_workers=1, fault_shards=3).run(
            [CampaignScenario("tpi-parity", circuit, config)]
        )
        flow_result = LogicBistFlow(config).run(circuit, core_name="tpi-parity")
        assert flow_result.bist_ready.test_point_count > 0  # TPI really fired
        assert flow_result.report_bytes() == campaign["tpi-parity"].report_bytes()


class TestShardedTransitionSim:
    @pytest.mark.parametrize("fault_shards", (1, 3, 7))
    def test_transition_sharding_bit_identical(self, fault_shards):
        circuit = make_core(17, pipeline_stages=3)
        launch = random_patterns(circuit, 72, 23)
        capture = derive_capture_patterns(circuit, launch)

        ref_list = FaultList.transition(circuit)
        ref_result = TransitionFaultSimulator(circuit).simulate_pairs(
            ref_list, launch, capture, block_size=32
        )
        assert ref_list.coverage() >= MIN_TRANSITION_COVERAGE

        fault_list = FaultList.transition(circuit)
        result = shard_graph(
            circuit,
            fault_list,
            derive_pair_blocks(circuit, iter_blocks(launch, block_size=32)),
            fault_shards,
        )
        assert result.patterns_simulated == ref_result.pairs_simulated
        assert result.coverage_curve == ref_result.coverage_curve
        assert result.coverage == ref_result.coverage
        assert_fault_lists_identical(ref_list, fault_list)


@pytest.mark.multiprocess
class TestFlowIntegration:
    def test_flow_campaign_workers_bit_identical_to_serial(self):
        """A pooled, sharded campaign run reproduces the serial flow exactly."""
        circuit = make_core(2005)
        config = LogicBistConfig(
            total_scan_chains=4,
            observation_point_budget=4,
            tpi_profile_patterns=48,
            random_patterns=128,
            signature_patterns=12,
            topup_backtrack_limit=60,
            campaign_topup=True,
        )
        serial = LogicBistFlow(config).run(circuit, core_name="flow")
        sharded = CampaignRunner(num_workers=2, fault_shards=4).run(
            [CampaignScenario("flow", circuit, config)]
        )["flow"]
        assert serial.topup_pattern_count > 0  # top-up really generated
        assert sharded.report_bytes() == serial.report_bytes()
