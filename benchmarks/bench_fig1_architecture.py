"""Benchmark: Fig. 1 -- the general LBIST structure.

Fig. 1 is the architecture diagram: per-clock-domain TPG (PRPG + phase shifter
+ space expander), input selector, BIST-ready core, ODC (space compactor +
MISR), clock-gating block, controller and Boundary-Scan port.  This benchmark
assembles its data path around the scaled Core X (the controller and the
Boundary-Scan port are not modelled; the flow charges them a fixed area
estimate) and measures the cost of the two data-path operations the
architecture performs once per pattern:

* pattern generation (PRPG -> phase shifter -> scan-load state), and
* response compaction (captured state -> per-domain MISR signatures),

and asserts the structural properties Fig. 1 mandates (one PRPG/MISR pair per
clock domain, chains never crossing domains).  A third case times the input
selector's switch between PRPG and externally applied (top-up) patterns.
"""

from repro.bist import InputSelector, InputSource, StumpsArchitecture
from repro.core import LogicBistConfig, prepare_scan_core
from repro.cores import core_x_recipe

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
    """Time to generate one full scan-load pattern across every domain."""
    prepared, stumps = _prepare()
    pattern = benchmark(stumps.generate_pattern)
    assert set(pattern) == set(prepared.circuit.flop_names())

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
    """Time to compact one captured response into every domain's MISR."""
    prepared, stumps = _prepare()
    captured = {name: (i & 1) for i, name in enumerate(prepared.circuit.flop_names())}
    signatures = benchmark(stumps.compact_response, captured)
    assert set(signatures) == set(prepared.circuit.clock_domains())


def test_fig1_input_selector(benchmark):
    """The test-access path: top-up patterns in through the input selector,
    signatures out."""
    prepared, stumps = _prepare()
    selector = InputSelector(stumps)

    def access_cycle():
        pattern = selector.next_pattern()
        selector.load_external_patterns([pattern])
        selector.select(InputSource.EXTERNAL)
        replayed = selector.next_pattern()
        selector.select(InputSource.PRPG)
        signature = stumps.signatures()
        return replayed, signature[sorted(signature)[0]]

    replayed, signature_readout = benchmark(access_cycle)
    assert set(replayed) == set(prepared.circuit.flop_names())
    assert isinstance(signature_readout, int)
