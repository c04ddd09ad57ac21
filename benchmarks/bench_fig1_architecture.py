"""Benchmark: Fig. 1 -- the general LBIST structure.

Fig. 1 is the architecture diagram: per-clock-domain TPG (PRPG + phase shifter
+ space expander), input selector, BIST-ready core, ODC (space compactor +
MISR), clock-gating block, controller and Boundary-Scan port.  This benchmark
assembles its data path around the scaled Core X (the controller and the
Boundary-Scan port are not modelled; the flow charges them a fixed area
estimate) and measures the cost of the two data-path operations the
architecture performs, on one packed block of patterns (bit *j* of a cell's
word belongs to pattern *j*), the only form the flow holds a session in:

* pattern generation (PRPG -> phase shifter -> scan-load state), and
* response compaction (captured state -> per-domain MISR signatures),

and asserts the structural properties Fig. 1 mandates (one PRPG/MISR pair per
clock domain, chains never crossing domains).  The input selector is not
modelled: top-up patterns are packed and simulated like any other block.
"""

from repro.bist import StumpsArchitecture
from repro.core import LogicBistConfig, prepare_scan_core
from repro.cores import core_x_recipe
from repro.simulation import DEFAULT_BLOCK_SIZE, PatternBlock

from conftest import print_rows


def _prepare():
    recipe = core_x_recipe()
    core = recipe.build()
    config = LogicBistConfig(
        total_scan_chains=recipe.total_scan_chains,
        clock_frequencies_mhz=recipe.clock_frequencies_mhz,
    )
    prepared = prepare_scan_core(core.circuit, config)
    stumps = StumpsArchitecture(prepared.architecture, default_prpg_length=recipe.prpg_length)
    return prepared, stumps


def test_fig1_pattern_generation_throughput(benchmark):
    """Time to generate one packed block of scan loads across every domain."""
    prepared, stumps = _prepare()

    def one_block():
        return next(stumps.generate_packed_blocks(DEFAULT_BLOCK_SIZE))

    block = benchmark(one_block)
    assert block.num_patterns == DEFAULT_BLOCK_SIZE
    assert set(block.assignments) == set(prepared.circuit.flop_names())

    rows = [
        {
            "domain": name,
            "chains": stats["chains"],
            "prpg_length": stats["prpg_length"],
            "misr_length": stats["misr_length"],
            "phase_shifter_xors": stats["phase_shifter_xors"],
        }
        for name, stats in stumps.statistics()["per_domain"].items()
    ]
    print_rows("Fig. 1 structure (per clock domain)", rows)

    # Fig. 1 structural rules.
    assert stumps.prpg_count() == len(prepared.circuit.clock_domains())
    assert stumps.misr_count() == len(prepared.circuit.clock_domains())
    for chain in prepared.architecture.chains:
        domains = {prepared.circuit.gate(c).clock_domain for c in chain.cells}
        assert domains == {chain.clock_domain}


def test_fig1_response_compaction_throughput(benchmark):
    """Time to fold one packed block of captured responses into every
    domain's MISR."""
    prepared, stumps = _prepare()
    flops = prepared.circuit.flop_names()
    captured = PatternBlock(
        {name: (0x5A5A5A5A5A5A5A5A >> (i % 7)) for i, name in enumerate(flops)},
        DEFAULT_BLOCK_SIZE,
    )

    def fold():
        return {
            name: domain.fold_responses([captured])
            for name, domain in stumps.domains.items()
        }

    signatures = benchmark(fold)
    assert set(signatures) == set(prepared.circuit.clock_domains())
