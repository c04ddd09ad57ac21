"""Ablation A2: architectural choices of the STUMPS structure.

Two of the paper's architecture decisions are exercised against their
alternatives:

* **Phase shifter vs raw LFSR taps** -- adjacent scan chains driven straight
  from adjacent LFSR stages receive time-shifted copies of the same stream;
  the phase shifter decorrelates them, which shows up directly in
  random-pattern fault coverage on a multi-chain core.
* **Space compactor vs chain-wide MISR** -- folding chain outputs into a short
  MISR adds XOR levels on the setup-critical chain->MISR path (quantified in
  the Fig. 3 benchmark) and introduces error masking when two failing chains
  fold onto the same MISR input in the same cycle.  The paper therefore
  connects the chains straight to a wide MISR (Table 1's 99/80-bit MISRs).
"""

import random

from repro.bist import (
    Misr,
    PhaseShifter,
    Prpg,
    SpaceCompactor,
    StumpsArchitecture,
    StumpsDomainConfig,
    identity_compactor,
    identity_phase_shifter,
)
from repro.cores import comparator_core
from repro.faults import FaultSimulator, collapse_stuck_at
from repro.oracle import (
    compactor_outputs,
    generate_patterns,
    phase_shifter_outputs,
    prpg_step,
    simulate_patterns,
)
from repro.scan import build_scan_chains

from conftest import print_rows, scaled

PATTERNS = scaled(256, 96)


def _coverage_with_stumps(circuit, architecture, use_phase_shifter):
    configs = [
        StumpsDomainConfig(
            domain=domain,
            prpg_length=19,
            prpg_seed=3 + index,
            use_phase_shifter=use_phase_shifter,
            phase_shifter_seed=11 + index,
        )
        for index, domain in enumerate(architecture.domains())
    ]
    stumps = StumpsArchitecture(architecture, configs)
    rng = random.Random(5)
    patterns = [
        {**pattern, **{pi: rng.randint(0, 1) for pi in circuit.primary_inputs}}
        for pattern in generate_patterns(stumps, PATTERNS)
    ]
    fault_list = collapse_stuck_at(circuit).to_fault_list()
    simulate_patterns(FaultSimulator(circuit), fault_list, patterns)
    return fault_list.coverage()


def test_ablation_phase_shifter_vs_raw_taps(benchmark):
    """Random coverage with and without the phase shifter, same pattern budget."""
    circuit = comparator_core(width=10, easy_outputs=4)
    architecture = build_scan_chains(circuit, chains_per_domain={"clkA": 2, "clkB": 1})

    def run():
        with_ps = _coverage_with_stumps(circuit, architecture, use_phase_shifter=True)
        without_ps = _coverage_with_stumps(circuit, architecture, use_phase_shifter=False)
        return with_ps, without_ps

    with_ps, without_ps = benchmark.pedantic(run, rounds=1, iterations=1)
    print_rows(
        "Ablation A2a: phase shifter",
        [
            {"configuration": "raw LFSR taps", "coverage": f"{without_ps * 100:.2f}%"},
            {"configuration": "phase shifter (paper)", "coverage": f"{with_ps * 100:.2f}%"},
        ],
    )
    # The phase shifter never hurts; on correlated-chain layouts it helps.
    assert with_ps >= without_ps - 0.02

    # Channel correlation, the mechanism behind the coverage effect.
    prpg = Prpg(16, seed=0xACE1)
    shifted = PhaseShifter(prpg_length=16, num_channels=8, seed=2)
    raw = identity_phase_shifter(16, 8)
    sequences_shifted = [[] for _ in range(8)]
    sequences_raw = [[] for _ in range(8)]
    for _ in range(256):
        bits = prpg_step(prpg)
        for channel, bit in enumerate(phase_shifter_outputs(shifted, bits)):
            sequences_shifted[channel].append(bit)
        for channel, bit in enumerate(phase_shifter_outputs(raw, bits)):
            sequences_raw[channel].append(bit)
    benchmark.extra_info["correlation_with_ps"] = shifted.correlation(sequences_shifted)
    benchmark.extra_info["correlation_raw"] = raw.correlation(sequences_raw)


def test_ablation_space_compactor_masking(benchmark):
    """Error-masking probability of a space compactor vs the chain-wide MISR."""
    rng = random.Random(11)
    chains = 12
    stream_length = 64
    trials = 300

    def run():
        masked_with_compactor = 0
        masked_without = 0
        compactor = SpaceCompactor(num_inputs=chains, num_outputs=4)
        identity = identity_compactor(chains)
        for _ in range(trials):
            good = [[rng.randint(0, 1) for _ in range(chains)] for _ in range(stream_length)]
            faulty = [list(row) for row in good]
            # Two chains fail in the same shift cycle: the classic masking case.
            cycle = rng.randrange(stream_length)
            a, b = rng.sample(range(chains), 2)
            faulty[cycle][a] ^= 1
            faulty[cycle][b] ^= 1

            def signature(compactor_block, stream):
                misr = Misr(19)
                for row in stream:
                    misr.compact(compactor_outputs(compactor_block, row))
                return misr.signature

            if signature(compactor, good) == signature(compactor, faulty):
                masked_with_compactor += 1
            if signature(identity, good) == signature(identity, faulty):
                masked_without += 1
        return masked_with_compactor, masked_without

    masked_with_compactor, masked_without = benchmark.pedantic(run, rounds=1, iterations=1)
    print_rows(
        f"Ablation A2b: double-chain-error masking over {trials} trials",
        [
            {
                "configuration": "4-output space compactor",
                "masked": masked_with_compactor,
                "masking_rate": f"{masked_with_compactor / trials * 100:.1f}%",
            },
            {
                "configuration": "chain-wide MISR (paper)",
                "masked": masked_without,
                "masking_rate": f"{masked_without / trials * 100:.1f}%",
            },
        ],
    )
    # The chain-wide MISR never masks a two-bit same-cycle error; a folding
    # compactor does whenever both failing chains share a fold group.
    assert masked_without == 0
    assert masked_with_compactor >= masked_without
