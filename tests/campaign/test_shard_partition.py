"""The fault-shard partition is part of the journal format.

A service journal keys each shard's outcome by its index alone
(``<scenario>/fault_sim/shard<i>``), so a resume preloads an outcome into
whatever shard the current planner numbers ``i``.  The planner keys faults
by the ``site`` column of their stuck-at table rows; before shards carried
rows it keyed them by the fault-site *net name* of each fault object.  These
tests recompute that name key inline and check that the stuck-at scan, the
transition scan and the top-up PODEM shards of generated cores are cut into
exactly the same groups at 2, 3 and 5 shards.
"""

import pytest

from repro.campaign import (
    CampaignRunner,
    CampaignScenario,
    SessionSpec,
    keyed_round_robin_shards,
    shard_stage_nodes,
)
from repro.campaign.pipeline import (
    FaultSimStage,
    PodemShardStage,
    ShardScanStage,
    TopUpStage,
    build_topup_atpg,
)
from repro.core import LogicBistConfig
from repro.cores.generator import SyntheticCoreConfig, generate_synthetic_core
from repro.faults import enumerate_stuck_at_faults, stuck_at_table
from repro.faults.fault_sim import FaultSimShardState
from repro.faults.transition_sim import TransitionSimShardState

CONFIG = LogicBistConfig(
    total_scan_chains=4,
    tpi_method="none",
    observation_point_budget=0,
    random_patterns=64,
    signature_patterns=8,
    block_size=32,
    campaign_topup=True,
    measure_transition_coverage=True,
    transition_patterns=32,
)


def site_keys_by_name(circuit, faults):
    """The name key the planner used before: a stem or a combinational
    input branch is keyed by its gate, a branch on a flop's D pin by the
    net driving that pin."""
    keys = []
    for fault in faults:
        gate = circuit.gate(fault.gate)
        if not fault.is_stem and gate.is_flop:
            keys.append(gate.inputs[fault.pin])
        else:
            keys.append(fault.gate)
    return keys


@pytest.fixture(scope="module", params=(61, 65))
def artifacts(request):
    """A serial run of one generated two-domain core: its bundle, its
    transition universe and its top-up input."""
    core = generate_synthetic_core(
        SyntheticCoreConfig(
            name=f"partition_core_{request.param}",
            clock_domains=("clk1", "clk2"),
            num_inputs=8,
            num_outputs=5,
            register_width=6,
            pipeline_stages=2,
            adder_slices=1,
            adder_width=4,
            comparator_widths=(6,),
            decode_cone_width=5,
            cross_domain_links=2,
            seed=request.param,
        )
    )
    runner = CampaignRunner()
    plan = runner.plan([CampaignScenario("partition", core.circuit, CONFIG)])
    run = runner.scheduler().run(plan.nodes)
    keys = plan.artifact_keys["partition"]
    return tuple(run.value(keys[name]) for name in ("bundle", "transition_prep", "topup_input"))


@pytest.mark.parametrize("fault_shards", (2, 3, 5))
def test_scan_shards_keep_the_name_keyed_partition(artifacts, fault_shards):
    bundle, prep, _ = artifacts
    circuit = bundle.core.circuit
    for scan in (bundle, prep):
        stage = FaultSimStage("bundle", "scan", "partition", fault_shards, CONFIG)
        expansion = stage.run(bundle) if scan is bundle else stage.run(bundle, prep)
        tasks = [node.task for node in expansion.nodes if isinstance(node.task, ShardScanStage)]
        faults = scan.fault_list.faults_at(scan.positions)
        expected = keyed_round_robin_shards(site_keys_by_name(circuit, faults), fault_shards)
        assert len(expected) == fault_shards
        assert tuple(task.fault_indices for task in tasks) == expected
        assert all(task.state.transition == (scan is prep) for task in tasks)


@pytest.mark.parametrize("fault_shards", (2, 3, 5))
def test_universe_rows_keep_the_name_keyed_partition(artifacts, fault_shards):
    """Over the whole enumerated universe, where flop D-pin branches --
    keyed by their driver, not their gate -- survive (collapsing drops
    them from the scanned lists)."""
    bundle, _, _ = artifacts
    circuit = bundle.core.circuit
    faults = enumerate_stuck_at_faults(circuit)
    assert any(not fault.is_stem and circuit.gate(fault.gate).is_flop for fault in faults)
    state = FaultSimShardState(
        circuit,
        tuple(circuit.observation_nets()),
        tuple(stuck_at_table(circuit).ids_of(faults)),
    )
    session = SessionSpec(bundle.stumps, 0, CONFIG.block_size)
    nodes = shard_stage_nodes("universe", state, session, fault_shards, prefix="universe")
    assert tuple(node.task.fault_indices for node in nodes) == keyed_round_robin_shards(
        site_keys_by_name(circuit, faults), fault_shards
    )


@pytest.mark.parametrize("fault_shards", (2, 3, 5))
def test_topup_shards_keep_the_name_keyed_partition(artifacts, fault_shards):
    bundle, _, topup_input = artifacts
    circuit = bundle.core.circuit
    stage = TopUpStage("topup_input", "topup", "partition", CONFIG, fault_shards)
    expansion = stage.run(topup_input)
    groups = tuple(
        tuple(index for index, _ in node.task.targets)
        for node in expansion.nodes
        if isinstance(node.task, PodemShardStage)
    )
    targets, _ = build_topup_atpg(circuit, CONFIG).plan_targets(
        topup_input.fault_list, log=False
    )
    assert len(targets) > fault_shards
    assert groups == keyed_round_robin_shards(
        site_keys_by_name(circuit, targets), fault_shards
    )


def test_one_shard_state_class_serves_both_fault_models():
    """Older journals pickle transition shard states under their own name;
    it names the one state class."""
    assert TransitionSimShardState is FaultSimShardState
