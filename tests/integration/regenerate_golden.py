"""Golden-file definition + regeneration for the end-to-end flow regression.

``tests/integration/test_golden_flow.py`` pins the full ``core/flow.py`` BIST
flow -- coverage figures, per-domain MISR signatures, test-point and top-up
pattern counts -- for two fixed-seed generated cores against the JSON golden
file ``tests/integration/golden/flow_golden.json``.

The golden values are *behavioural invariants*: they must survive refactors
(the compiled-kernel rewrite reproduced them bit for bit) and only change when
the flow's semantics intentionally change.  When that happens, regenerate with

    PYTHONPATH=src python tests/integration/regenerate_golden.py

review the diff of the JSON file, and commit it together with the change that
explains it.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core import LogicBistConfig, LogicBistFlow, build_table1_report
from repro.cores.generator import SyntheticCoreConfig, generate_synthetic_core

GOLDEN_PATH = Path(__file__).parent / "golden" / "flow_golden.json"

#: Floats are rounded to this many decimals before comparison, so the golden
#: file stays readable while still pinning behaviour far below any real drift.
FLOAT_DECIMALS = 12


def golden_cases() -> dict[str, tuple[SyntheticCoreConfig, LogicBistConfig]]:
    """The two fixed-seed cores and their flow configurations."""
    alpha_core = SyntheticCoreConfig(
        name="golden_alpha",
        clock_domains=("clk1", "clk2"),
        num_inputs=10,
        num_outputs=6,
        register_width=8,
        pipeline_stages=1,
        adder_slices=1,
        adder_width=4,
        comparator_widths=(8,),
        decode_cone_width=6,
        cross_domain_links=1,
        x_sources=1,
        seed=2005,
    )
    alpha_config = LogicBistConfig(
        total_scan_chains=4,
        observation_point_budget=4,
        tpi_profile_patterns=64,
        random_patterns=192,
        signature_patterns=16,
        clock_frequencies_mhz={"clk1": 250.0, "clk2": 125.0},
        topup_backtrack_limit=60,
    )
    beta_core = SyntheticCoreConfig(
        name="golden_beta",
        clock_domains=("clkA", "clkB", "clkC"),
        num_inputs=12,
        num_outputs=6,
        register_width=6,
        pipeline_stages=1,
        adder_slices=1,
        adder_width=4,
        comparator_widths=(7,),
        decode_cone_width=5,
        cross_domain_links=2,
        seed=1997,
    )
    beta_config = LogicBistConfig(
        total_scan_chains=6,
        observation_point_budget=3,
        tpi_profile_patterns=48,
        random_patterns=128,
        signature_patterns=12,
        clock_frequencies_mhz={"clkA": 330.0, "clkB": 250.0, "clkC": 200.0},
        topup_backtrack_limit=60,
    )
    # The at-speed golden: multi-domain with measure_transition_coverage, so
    # the launch-on-capture transition measurement is pinned byte-for-byte
    # alongside the stuck-at figures.
    gamma_core = SyntheticCoreConfig(
        name="golden_gamma",
        clock_domains=("clkP", "clkQ", "clkR"),
        num_inputs=10,
        num_outputs=5,
        register_width=6,
        pipeline_stages=1,
        adder_slices=1,
        adder_width=4,
        comparator_widths=(6,),
        decode_cone_width=5,
        cross_domain_links=2,
        seed=2026,
    )
    gamma_config = LogicBistConfig(
        total_scan_chains=6,
        observation_point_budget=3,
        tpi_profile_patterns=48,
        random_patterns=128,
        signature_patterns=12,
        measure_transition_coverage=True,
        transition_patterns=64,
        skew_trials=64,
        skew_range_ns=6.0,
        clock_frequencies_mhz={"clkP": 330.0, "clkQ": 250.0, "clkR": 125.0},
        topup_backtrack_limit=60,
    )
    return {
        "golden_alpha": (alpha_core, alpha_config),
        "golden_beta": (beta_core, beta_config),
        "golden_gamma": (gamma_core, gamma_config),
    }


def run_case(core_config: SyntheticCoreConfig, config: LogicBistConfig) -> dict:
    """Run the flow once and extract the pinned measurements.

    The structure numbers come from the Table 1 report, the coverage
    figures from the scenario fields; the keys keep the names the golden
    file has always used.
    """
    core = generate_synthetic_core(core_config)
    result = LogicBistFlow(config).run(core.circuit, core_name=core_config.name)
    table = build_table1_report(result).as_dict()
    return {
        "gate_count": table["Gate Count"],
        "flop_count": table["# of FFs"],
        "scan_chain_count": table["# of Scan Chains"],
        "clock_domain_count": table["# of Clock Domains"],
        "prpg_count": table["# of PRPGs"],
        "misr_count": table["# of MISRs"],
        "test_point_count": result.bist_ready.test_point_count,
        "total_faults": result.total_faults,
        "random_pattern_count": result.patterns_simulated,
        "fault_coverage_random": round(result.coverage_random, FLOAT_DECIMALS),
        "top_up_pattern_count": result.topup_pattern_count,
        "fault_coverage_final": round(result.coverage, FLOAT_DECIMALS),
        "signatures": {domain: sig for domain, sig in sorted(result.signatures.items())},
        "coverage_curve_tail": [
            [patterns, round(coverage, FLOAT_DECIMALS)]
            for patterns, coverage in result.coverage_curve[-3:]
        ],
        # At-speed measurements (null unless the case sets
        # measure_transition_coverage / skew_trials).
        "transition_coverage": (
            round(result.transition_coverage, FLOAT_DECIMALS)
            if result.transition_coverage is not None
            else None
        ),
        "transition_detected": (
            result.transition.detected if result.transition is not None else None
        ),
        "transition_total_faults": (
            result.transition.total_faults
            if result.transition is not None
            else None
        ),
        "skew_monte_carlo": (
            result.skew_sweep.summary.as_dict()
            if result.skew_sweep is not None
            else None
        ),
    }


def compute_golden() -> dict:
    return {
        name: run_case(core_config, flow_config)
        for name, (core_config, flow_config) in golden_cases().items()
    }


def main() -> None:
    golden = compute_golden()
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
