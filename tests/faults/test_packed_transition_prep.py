"""Differential test: packed transition preparation vs the dict path.

The transition preparation builds its ``(offset, launch, capture)`` pair
blocks straight from ``generate_packed_blocks`` and derives each capture
block in place (:func:`~repro.faults.transition_sim.derive_pair_blocks`).
The reference is the per-pattern dict path it replaced:
``generate_patterns`` -> :func:`derive_capture_patterns` -> two
:func:`~repro.simulation.packed.iter_blocks` packs over the stimulus nets,
zipped into ``(offset, launch, capture)`` triples.  Both must produce
dict-equal triples and leave every PRPG in the same state, across block
sizes (with a tail block), a staggered multi-domain pulse order, held cells
and a STUMPS with a space expander; the prep stage is checked on both
backends.
"""

import pytest

from repro.bist import StumpsArchitecture, StumpsDomainConfig
from repro.campaign.pipeline import ScenarioBundle, TransitionPrepStage
from repro.core import LogicBistConfig
from repro.core.bist_ready import BistReadyCore, build_clock_tree
from repro.faults.transition_sim import derive_pair_blocks
from repro.netlist import CircuitBuilder
from repro.oracle import derive_capture_patterns, generate_patterns
from repro.scan import build_scan_chains
from repro.simulation import iter_blocks
from repro.timing.double_capture import CaptureWindowScheduler

pytestmark = pytest.mark.transition

BACKENDS = ("python", pytest.param("numpy", marks=pytest.mark.numpy))

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


def prep_bundle(circuit, stumps, schedule):
    """A scenario bundle holding what the transition preparation reads --
    the circuit, the STUMPS and the capture schedule; the stuck-at session
    it does not read is left empty."""
    return ScenarioBundle(
        scenario_key="prep",
        core=BistReadyCore(
            circuit, scan_result=None, architecture=stumps.chain_architecture
        ),
        stumps=stumps,
        clock_tree=None,
        capture_schedule=schedule,
        fault_list=None,
        state=None,
        positions=(),
        offset_blocks=(),
        boundaries=(),
    )


def prpg_states(stumps):
    return {name: domain.prpg.state for name, domain in stumps.domains.items()}


def dict_path(circuit, stumps, count, block_size, pulse_order, hold_cells=None):
    launch = generate_patterns(stumps, count)
    capture = derive_capture_patterns(circuit, launch, pulse_order, hold_cells)
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
    "pulse_order,hold_cells,expander",
    [
        (None, None, False),
        (STAGGERED, None, False),
        (STAGGERED, ("clkA_ff2", "clkB_ff0", "clkC_ff4"), False),
        (STAGGERED, None, True),
    ],
    ids=["simultaneous", "staggered", "held", "expander"],
)
def test_packed_pair_blocks_match_dict_path(
    block_size, count, pulse_order, hold_cells, expander
):
    circuit = make_circuit()
    reference = make_stumps(circuit, expander)
    packed = make_stumps(circuit, expander)
    expected = dict_path(circuit, reference, count, block_size, pulse_order, hold_cells)
    actual = derive_pair_blocks(
        circuit,
        packed.generate_packed_blocks(count, block_size=block_size),
        pulse_order,
        hold_cells,
    )
    assert [offset for offset, _, _ in actual] == list(range(0, count, block_size))
    assert actual[-1][1].num_patterns == count % block_size
    assert actual == expected
    assert prpg_states(packed) == prpg_states(reference)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("block_size,count", GEOMETRIES[:2])
def test_transition_prep_stage_matches_dict_path(backend, block_size, count):
    circuit = make_circuit()
    config = LogicBistConfig(
        transition_patterns=count,
        block_size=block_size,
        sim_backend=backend,
        clock_frequencies_mhz=FREQUENCIES,
    )
    schedule = CaptureWindowScheduler(build_clock_tree(circuit, config)).schedule()
    assert all(len(group) == 1 for group in schedule.pulse_order)  # staggered
    reference = make_stumps(circuit)
    expected = dict_path(circuit, reference, count, block_size, schedule.pulse_order)
    stumps = make_stumps(circuit)
    generate_patterns(stumps, 7)  # the stage resets the PRPGs first
    bundle = TransitionPrepStage(config).run(prep_bundle(circuit, stumps, schedule))
    assert bundle.pair_blocks == expected
    assert bundle.boundaries[-1] == count
    assert prpg_states(stumps) == prpg_states(reference)
