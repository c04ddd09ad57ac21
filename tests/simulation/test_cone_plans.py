"""Regression test: ID-space cone plans and site plans.

``CompiledKernel.cone_plan`` walks the kernel's reader adjacency in ID
space, and ``FaultSimulator._site_plan`` finds the observed nets of a cone
through a net -> observe-position index.  The references below are the
earlier forms, kept only here: a cone built from the name-keyed
``Circuit.fanout_cone``, and a scan of every observation net per site.
"""

import random

import pytest

from repro.cores.generator import SyntheticCoreConfig, generate_synthetic_core
from repro.faults import FaultSimulator
from repro.simulation import CompiledKernel, ConePlan
from repro.tpi import apply_observation_points


def make_core(seed):
    return generate_synthetic_core(
        SyntheticCoreConfig(
            name=f"cone_core_{seed}",
            num_inputs=8,
            num_outputs=5,
            register_width=6,
            pipeline_stages=2,
            adder_width=4,
            comparator_widths=(6,),
            decode_cone_width=5,
            cross_domain_links=1,
            seed=seed,
        )
    ).circuit


def reference_cone_plan(kernel, site_id):
    """The cone plan built from ``Circuit.fanout_cone`` (reference only)."""
    cone_names = kernel.circuit.fanout_cone(kernel.net_names[site_id])
    member_ids = {kernel.net_id[name] for name in cone_names}
    indices = sorted(
        kernel.sched_pos[nid]
        for nid in member_ids
        if nid != site_id and nid in kernel.sched_pos
    )
    ops = tuple(kernel.ops[k] for k in indices)
    outs = tuple(kernel.outs[k] for k in indices)
    operands = tuple(kernel.operands[k] for k in indices)
    written = set(outs)
    written.add(site_id)
    frontier = tuple(sorted({i for ins in operands for i in ins if i not in written}))
    return ConePlan(site_id, ops, outs, operands, frontier, outs)


def reference_observed_ids(simulator, plan, site_id):
    """Observed IDs by a scan of every observation net (reference only)."""
    computed = set(plan.computed)
    computed.add(site_id)
    net_id = simulator.kernel.net_id
    return tuple(net_id[net] for net in simulator.observe_nets if net_id[net] in computed)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cone_plans_match_fanout_cone(seed):
    circuit = make_core(seed)
    kernel = CompiledKernel(circuit)
    for site_id in range(kernel.num_nets):
        assert kernel.cone_plan(site_id) == reference_cone_plan(kernel, site_id)


def test_cone_plans_after_observation_points():
    circuit = make_core(4)
    nets = [gate.name for gate in circuit.combinational_gates()]
    apply_observation_points(circuit, random.Random(4).sample(nets, 5))
    kernel = CompiledKernel(circuit)
    for site_id in range(kernel.num_nets):
        assert kernel.cone_plan(site_id) == reference_cone_plan(kernel, site_id)


def assert_site_plans_match(simulator):
    for site_id in range(simulator.kernel.num_nets):
        plan, observed = simulator._site_plan(site_id)
        assert observed == reference_observed_ids(simulator, plan, site_id)


@pytest.mark.parametrize("seed", [1, 2])
def test_site_plans_match_observe_scan(seed):
    circuit = make_core(seed)
    observe = circuit.observation_nets()
    # A duplicated observation net is observed (and listed) twice.
    observe = observe + observe[:3]
    random.Random(seed).shuffle(observe)
    simulator = FaultSimulator(circuit, observe)
    assert_site_plans_match(simulator)

    # A new observation net resets the index; so does the site-plan cache.
    unobserved = [
        gate.name
        for gate in circuit.combinational_gates()
        if gate.name not in set(observe)
    ]
    for net in random.Random(seed + 10).sample(unobserved, 4):
        simulator.add_observation_net(net)
        assert_site_plans_match(simulator)
