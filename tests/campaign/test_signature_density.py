"""The signature responses are not flushed to zeros.

Every signature differential compares production with a run that derives
its responses through the same capture-window code, so a response stream
that collapses to all-zero words passes them all.  This suite gives those
differentials a floor on the four two-domain TPI-heavy cores the service
benchmark runs (generator seeds 600-603): each clock domain's captured
responses must carry a stated density of ones, and each domain's MISR
signature must be non-zero.
"""

import pytest

from repro.campaign import CampaignRunner, CampaignScenario, SessionSpec
from repro.core import LogicBistConfig
from repro.core.bist_ready import derive_signature_responses
from repro.cores.generator import SyntheticCoreConfig, generate_synthetic_core
from repro.simulation.packed import leading_blocks

#: Least share of ones over one domain's cells and signature patterns.
MIN_RESPONSE_DENSITY = 0.05

CONFIG = LogicBistConfig(
    total_scan_chains=4,
    tpi_method="fault_sim",
    observation_point_budget=6,
    tpi_profile_patterns=256,
    random_patterns=512,
    signature_patterns=32,
    block_size=64,
    bist_seed=1,
)


def pipeline_core(seed: int):
    return generate_synthetic_core(
        SyntheticCoreConfig(
            name=f"tpi_heavy_{seed}",
            clock_domains=("clk1", "clk2"),
            num_inputs=10,
            num_outputs=6,
            register_width=8,
            pipeline_stages=2,
            adder_slices=2,
            adder_width=6,
            comparator_widths=(8,),
            decode_cone_width=6,
            cross_domain_links=2,
            seed=seed,
        )
    ).circuit


@pytest.fixture(scope="module")
def signed_scenarios():
    """Each scenario's bundle and reported signatures."""
    scenarios = [
        CampaignScenario(f"core_{seed}", pipeline_core(seed), CONFIG)
        for seed in range(600, 604)
    ]
    runner = CampaignRunner()
    plan = runner.plan(scenarios)
    run = runner.scheduler().run(plan.nodes)
    return {
        name: (
            run.value(keys["bundle"]),
            run.value(keys["report"]).signatures,
        )
        for name, keys in plan.artifact_keys.items()
    }


@pytest.mark.parametrize("seed", range(600, 604))
def test_every_domain_response_clears_density_floor(signed_scenarios, seed):
    bundle, _ = signed_scenarios[f"core_{seed}"]
    session = SessionSpec(bundle.stumps, CONFIG.random_patterns, CONFIG.block_size)
    blocks = leading_blocks(
        (block for _, block in session.blocks()), CONFIG.signature_patterns
    )
    responses = derive_signature_responses(
        bundle.core.circuit, blocks, bundle.capture_schedule
    )
    count = sum(block.num_patterns for block in responses)
    assert count == CONFIG.signature_patterns
    for name, domain in bundle.stumps.domains.items():
        cells = [cell for chain in domain.chains for cell in chain.cells]
        ones = sum(
            block.assignments.get(cell, 0).bit_count()
            for block in responses
            for cell in cells
        )
        density = ones / (len(cells) * count)
        assert density >= MIN_RESPONSE_DENSITY, (name, density)


@pytest.mark.parametrize("seed", range(600, 604))
def test_every_domain_signature_is_nonzero(signed_scenarios, seed):
    _, signatures = signed_scenarios[f"core_{seed}"]
    assert set(signatures) == {"clk1", "clk2"}
    assert all(signatures.values()), signatures
