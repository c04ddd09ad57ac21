"""Differential test: packed transition preparation vs the dict path.

A transition shard builds its ``(offset, launch, capture)`` pair blocks
from its session spec (:meth:`~repro.campaign.pipeline.SessionSpec.pair_blocks`):
the launch blocks stream straight from ``generate_packed_blocks`` and each
capture block is derived in place
(:func:`~repro.faults.transition_sim.derive_pair_blocks`).  The reference is
the per-pattern dict path it replaced: ``generate_patterns`` ->
:func:`derive_capture_patterns` -> two
:func:`~repro.simulation.packed.iter_blocks` packs over the stimulus nets,
zipped into ``(offset, launch, capture)`` triples.  Both must produce
dict-equal triples and leave every PRPG in the same state, across block
sizes (with a tail block), a staggered multi-domain pulse order and a
STUMPS with a space expander.  The spec regenerates its session from a
reset copy of an advanced STUMPS at every count from 0 past one generator
chunk.
"""

import pytest

from repro.bist import StumpsArchitecture, StumpsDomainConfig
from repro.bist.stumps import _CHUNK_PATTERNS
from repro.campaign import SessionSpec
from repro.core import LogicBistConfig
from repro.core.bist_ready import build_clock_tree
from repro.faults.transition_sim import derive_pair_blocks
from repro.netlist import CircuitBuilder
from repro.oracle import derive_capture_patterns, generate_patterns
from repro.scan import build_scan_chains
from repro.simulation import iter_blocks
from repro.timing.double_capture import CaptureWindowScheduler

pytestmark = pytest.mark.transition


#: Block sizes and pattern counts: every count leaves a partial tail block.
GEOMETRIES = ((64, 230), (100, 230), (1024, 1100))

#: Three domains captured one after another, upstream first.
STAGGERED = [["clkA"], ["clkB"], ["clkC"]]

FREQUENCIES = {"clkA": 200.0, "clkB": 150.0, "clkC": 100.0}


def make_circuit():
    """Three clock domains chained through cross-domain XORs, with primary
    inputs that no scan cell drives (they pack as 0 on both paths)."""
    builder = CircuitBuilder(name="packed_prep_core")
    data = builder.inputs(3, prefix="in")
    previous = data[0]
    for domain, width in (("clkA", 9), ("clkB", 7), ("clkC", 5)):
        for i in range(width):
            net = builder.xor(previous, data[i % 3], name=f"{domain}_x{i}")
            previous = builder.flop(net, name=f"{domain}_ff{i}", clock_domain=domain)
    builder.output(builder.and_(previous, data[1], name="core_out"))
    return builder.build()


def make_stumps(circuit, expander=False):
    architecture = build_scan_chains(
        circuit, chains_per_domain={"clkA": 3, "clkB": 2, "clkC": 2}
    )
    configs = None
    if expander:
        configs = [
            StumpsDomainConfig(
                domain="clkA", prpg_seed=3, expander_inputs=2, phase_shifter_seed=7
            ),
            StumpsDomainConfig(domain="clkB", prpg_seed=4, phase_shifter_seed=9),
            StumpsDomainConfig(domain="clkC", prpg_seed=6, phase_shifter_seed=11),
        ]
    return StumpsArchitecture(architecture, configs, seed=5)


def prpg_states(stumps):
    return {name: domain.prpg.state for name, domain in stumps.domains.items()}


def dict_path(circuit, stumps, count, block_size, pulse_order):
    launch = generate_patterns(stumps, count)
    capture = derive_capture_patterns(circuit, launch, pulse_order)
    nets = circuit.stimulus_nets()
    return tuple(
        zip(
            range(0, count, block_size),
            iter_blocks(launch, block_size=block_size, nets=nets),
            iter_blocks(capture, block_size=block_size, nets=nets),
        )
    )


@pytest.mark.parametrize("block_size,count", GEOMETRIES)
@pytest.mark.parametrize(
    "pulse_order,expander",
    [(None, False), (STAGGERED, False), (STAGGERED, True)],
    ids=["simultaneous", "staggered", "expander"],
)
def test_packed_pair_blocks_match_dict_path(block_size, count, pulse_order, expander):
    circuit = make_circuit()
    reference = make_stumps(circuit, expander)
    packed = make_stumps(circuit, expander)
    expected = dict_path(circuit, reference, count, block_size, pulse_order)
    actual = derive_pair_blocks(
        circuit,
        packed.generate_packed_blocks(count, block_size=block_size),
        pulse_order,
    )
    assert [offset for offset, _, _ in actual] == list(range(0, count, block_size))
    assert actual[-1][1].num_patterns == count % block_size
    assert actual == expected
    assert prpg_states(packed) == prpg_states(reference)


#: The spec's block size, and counts around it and past one generator chunk.
SPEC_BLOCK = 64
SPEC_COUNTS = (0, 1, SPEC_BLOCK - 1, SPEC_BLOCK, SPEC_BLOCK + 1, _CHUNK_PATTERNS + 70)


@pytest.mark.parametrize("count", SPEC_COUNTS)
def test_session_spec_regenerates_from_reset(count):
    """A spec built from a STUMPS the session already advanced streams what
    a freshly built STUMPS generates, from offset 0, with the boundaries
    the merges sample; its pair stream is that stream's pair blocks; and
    the STUMPS it was built from does not move."""
    circuit = make_circuit()
    advanced = make_stumps(circuit)
    generate_patterns(advanced, 7)
    moved = prpg_states(advanced)
    spec = SessionSpec(advanced, count, SPEC_BLOCK)
    fresh = list(make_stumps(circuit).generate_packed_blocks(count, block_size=SPEC_BLOCK))
    entries = list(spec.blocks())
    assert [block for _, block in entries] == fresh
    assert [offset for offset, _ in entries] == list(range(0, count, SPEC_BLOCK))
    assert list(spec.boundaries) == [
        offset + block.num_patterns for offset, block in entries
    ]
    assert spec.pair_blocks(circuit, STAGGERED) == derive_pair_blocks(
        circuit, fresh, STAGGERED
    )
    assert list(spec.blocks()) == entries
    assert prpg_states(advanced) == moved


@pytest.mark.parametrize("block_size,count", GEOMETRIES[:2])
def test_transition_session_matches_dict_path(block_size, count):
    """What a transition shard scans: the spec's pair stream under the
    capture window scheduler's staggered pulse order, from an advanced
    STUMPS, equals the dict path of a fresh one."""
    circuit = make_circuit()
    config = LogicBistConfig(
        transition_patterns=count,
        block_size=block_size,
        clock_frequencies_mhz=FREQUENCIES,
    )
    schedule = CaptureWindowScheduler(build_clock_tree(circuit, config)).schedule()
    assert all(len(group) == 1 for group in schedule.pulse_order)  # staggered
    reference = make_stumps(circuit)
    expected = dict_path(circuit, reference, count, block_size, schedule.pulse_order)
    stumps = make_stumps(circuit)
    generate_patterns(stumps, 7)  # the spec resets a copy of the PRPGs first
    session = SessionSpec(stumps, config.transition_patterns, config.block_size)
    assert session.pair_blocks(circuit, schedule.pulse_order) == expected
    assert session.boundaries[-1] == count
