"""The packed MISR fold against the per-cycle unload oracle.

``StumpsDomain.fold_responses`` folds packed captured responses (bit *j* of
a cell's word = pattern *j*) into a domain's MISR, one way for both
simulation backends.  It must equal
:func:`repro.oracle.patterns.fold_response_patterns`, which shifts one
per-pattern response dict out slice by slice: a Hypothesis property over
uneven chains, the space compactor off and on (and a domain with more than
62 compactor outputs), pattern counts 0, 1 and odd, and block widths that
cut across the signed prefix.  The campaign's signature stage signs what
the per-pattern oracle path signs, and a domain pickled by older code with
the deleted ndarray fold's gather map loads and signs like a fresh one.
"""

import copy
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.bist import StumpsArchitecture, StumpsDomainConfig
from repro.campaign import SerialScheduler
from repro.campaign.pipeline import SessionSpec, SignatureStage, scenario_stage_nodes
from repro.core import LogicBistConfig
from repro.cores import tiny_recipe
from repro.oracle import (
    block_patterns,
    derive_capture_patterns,
    fold_response_patterns,
)
from repro.scan import ScanChain, ScanChainArchitecture
from repro.simulation import iter_blocks, leading_blocks


@st.composite
def fold_cases(draw):
    """One domain of uneven chains, its STUMPS config, a response stream,
    the signed prefix and the stream's block width."""
    num_chains = draw(st.integers(1, 6) | st.integers(63, 66))
    chains = []
    for number in range(num_chains):
        length = draw(st.integers(1, 5)) if num_chains <= 6 else 1 + number % 3
        cells = [f"c{number}_{position}" for position in range(length)]
        chains.append(ScanChain(f"chain{number}", "clk", cells))
    outputs = draw(st.none() | st.integers(1, num_chains))
    groups = num_chains if outputs is None else outputs
    config = StumpsDomainConfig(
        domain="clk",
        misr_length=draw(st.none() | st.integers(max(2, groups), groups + 3)),
        compactor_outputs=outputs,
    )
    count = draw(st.sampled_from((0, 1)) | st.integers(1, 20).map(lambda k: 2 * k + 1))
    width = draw(st.sampled_from((1, 7, 64)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    cells = [cell for chain in chains for cell in chain.cells]
    # Some cells are missing from every response: they unload as 0.
    present = [cell for cell in cells if rng.random() < 0.9]
    responses = [
        {cell: rng.randint(0, 1) for cell in present}
        for _ in range(count + rng.randint(0, 9))
    ]
    return ScanChainArchitecture(chains), config, responses, count, width


@settings(max_examples=60, deadline=None)
@given(fold_cases())
def test_packed_fold_equals_per_cycle_unload(case):
    architecture, config, responses, count, width = case
    packed = StumpsArchitecture(architecture, [config]).domains["clk"]
    stepped = StumpsArchitecture(architecture, [config]).domains["clk"]
    blocks = leading_blocks(iter_blocks(responses, block_size=width), count)
    assert packed.fold_responses(blocks) == fold_response_patterns(
        stepped, responses[:count]
    )
    assert packed.misr.state == stepped.misr.state


def test_misr_narrower_than_the_compactor_is_rejected():
    """Five identity-compacted chains cannot feed a 2-bit MISR, packed or
    stepped."""
    chains = [ScanChain(f"chain{n}", "clk", [f"c{n}"]) for n in range(5)]
    config = StumpsDomainConfig(domain="clk", misr_length=2)
    architecture = ScanChainArchitecture(chains)
    responses = [{"c0": 1}]
    with pytest.raises(ValueError):
        StumpsArchitecture(architecture, [config]).domains["clk"].fold_responses(
            iter_blocks(responses)
        )
    with pytest.raises(ValueError):
        fold_response_patterns(
            StumpsArchitecture(architecture, [config]).domains["clk"], responses
        )


def _tiny_bundle(config):
    nodes, keys = scenario_stage_nodes("s", tiny_recipe().build().circuit, config)
    # core -> tpi -> bundle: the bundle is all the signature stage reads.
    return SerialScheduler().run(nodes[:3]).value(keys["bundle"])


def test_signature_stage_signs_the_per_pattern_oracle_path():
    """Twenty signature patterns over 8-pattern blocks cut the third block
    short; the stage's packed path signs what unpacking the session,
    deriving per-pattern captures and unloading them cycle by cycle signs."""
    config = LogicBistConfig(random_patterns=64, signature_patterns=20, block_size=8)
    bundle = _tiny_bundle(config)
    signatures = SignatureStage(config).run(bundle)
    assert sorted(signatures) == sorted(bundle.stumps.domains)
    assert all(signatures.values())

    session = SessionSpec(bundle.stumps, config.random_patterns, config.block_size)
    blocks = leading_blocks((block for _, block in session.blocks()), 20)
    launch = [pattern for block in blocks for pattern in block_patterns(block)]
    responses = derive_capture_patterns(
        bundle.core.circuit, launch, bundle.capture_schedule.pulse_order
    )
    expected = {
        name: fold_response_patterns(domain, responses)
        for name, domain in copy.deepcopy(bundle.stumps.domains).items()
    }
    assert signatures == expected
    # The stage folds copies: the bundle's MISRs never move.
    assert SignatureStage(config).run(bundle) == signatures


def test_pickle_from_older_code_drops_the_fold_map():
    """A domain pickled with the deleted ndarray fold's populated gather map
    loads without it and signs what a fresh domain signs."""
    chains = [
        ScanChain("chain0", "clk", ["a0", "a1", "a2"]),
        ScanChain("chain1", "clk", ["b0"]),
    ]
    architecture = ScanChainArchitecture(chains)
    cells = ["a0", "a1", "a2", "b0"]
    old = StumpsArchitecture(architecture).domains["clk"]
    old._fold_map = (cells, [[0, 3], [1, 4], [2, 4]], [0, 1])
    loaded = pickle.loads(pickle.dumps(old))
    assert not hasattr(loaded, "_fold_map")
    fresh = StumpsArchitecture(architecture).domains["clk"]
    rng = random.Random(5)
    responses = [{cell: rng.randint(0, 1) for cell in cells} for _ in range(9)]
    blocks = list(iter_blocks(responses, block_size=4))
    signature = loaded.fold_responses(blocks)
    assert signature == fresh.fold_responses(blocks)
    stepped = StumpsArchitecture(architecture).domains["clk"]
    assert signature == fold_response_patterns(stepped, responses)
