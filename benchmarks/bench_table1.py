"""Benchmark: Table 1 -- the full logic BIST flow on scaled Core X and Core Y.

Regenerates every row of the paper's Table 1 for both cores (on the scaled
synthetic stand-ins; see the substitution note in
``src/repro/cores/recipes.py``) and records the end-to-end flow runtime
with pytest-benchmark.  The absolute coverage and
overhead values differ from the paper because the cores and pattern budgets
are scaled; the *shape* checks assert the qualitative agreement the
reproduction targets:

* random patterns plateau below the final coverage,
* a few hundred (here: a few dozen) top-up patterns close most of the gap,
* one PRPG/MISR pair per clock domain, 19-bit PRPGs,
* the at-speed capture schedule is valid for every domain.

Run with ``pytest benchmarks/bench_table1.py --benchmark-only -s``.
"""

import pytest

from repro.core import LogicBistConfig, LogicBistFlow, build_table1_report, coverage_shape_checks
from repro.cores import core_x_recipe, core_y_recipe

from conftest import print_rows, scaled, smoke_mode

#: Pattern budget used by the benchmark (the paper uses 20 000; the scaled
#: cores saturate far earlier, see EXPERIMENTS.md).
RANDOM_PATTERNS = scaled(1024, 128)


def _run_recipe(recipe, random_patterns=RANDOM_PATTERNS, backtrack_limit=60, **config_overrides):
    core = recipe.build()
    config = LogicBistConfig(
        total_scan_chains=recipe.total_scan_chains,
        observation_point_budget=recipe.observation_point_budget,
        tpi_profile_patterns=recipe.tpi_profile_patterns,
        random_patterns=random_patterns,
        prpg_length=recipe.prpg_length,
        clock_frequencies_mhz=recipe.clock_frequencies_mhz,
        topup_backtrack_limit=backtrack_limit,
        signature_patterns=32,
        **config_overrides,
    )
    result = LogicBistFlow(config).run(core.circuit, core_name=recipe.name)
    return recipe, result


def _report_rows(recipe, result):
    report = build_table1_report(result, recipe.paper_reference)
    rows = []
    for row in report.rows:
        rows.append(
            {
                "metric": row.label,
                "measured": report.as_dict()[row.label],
                "paper": row.paper if row.paper is not None else "-",
            }
        )
    return rows


@pytest.mark.parametrize(
    "recipe_factory",
    [core_x_recipe, core_y_recipe],
    ids=["core_x", "core_y"],
)
def test_table1_full_flow(benchmark, recipe_factory):
    """One Table 1 column: the complete flow on one scaled core."""
    recipe, result = benchmark.pedantic(
        _run_recipe, args=(recipe_factory(),), rounds=1, iterations=1
    )
    print_rows(f"Table 1 -- {recipe.name}", _report_rows(recipe, result))

    checks = coverage_shape_checks(result, recipe.paper_reference)
    print_rows(
        f"Shape checks -- {recipe.name}",
        [{"check": name, "ok": passed} for name, passed in checks.items()],
    )
    benchmark.extra_info["fault_coverage_random"] = result.coverage_random
    benchmark.extra_info["fault_coverage_final"] = result.coverage
    benchmark.extra_info["top_up_patterns"] = result.topup_pattern_count

    # Qualitative agreement with the paper (see module docstring).  The
    # "final_coverage_high" check is reported in the table above but not
    # asserted: the absolute level depends on the scaling of the synthetic
    # core (see EXPERIMENTS.md note 1).
    assert checks["random_coverage_below_final"]
    assert checks["one_prpg_misr_pair_per_domain"]
    assert checks["at_speed_schedule_valid"]
    # The pattern-budget-proportion checks hold at the real workload scale
    # only: the bench-smoke tier shrinks the random budget far below the
    # plateau, where top-up legitimately contributes a large fraction.
    if not smoke_mode():
        assert checks["topup_is_small_fraction"]
        assert checks["topup_gain_same_order_as_paper"]


def test_table1_coverage_curve_plateau(benchmark):
    """The coverage-vs-pattern curve plateaus: the motivation for test points + top-up."""
    from repro.faults import coverage_plateau_slope

    recipe, result = benchmark.pedantic(
        _run_recipe,
        args=(core_x_recipe(),),
        # The curve only needs the random phase; skip top-up ATPG entirely.
        kwargs={"random_patterns": 768, "topup_max_faults": 0},
        rounds=1,
        iterations=1,
    )
    curve = result.coverage_curve
    early_slope = (curve[3][1] - curve[0][1]) / max(1, curve[3][0] - curve[0][0])
    late_slope = coverage_plateau_slope(curve, tail_fraction=0.25)
    print_rows(
        "Coverage curve (Core X, random phase)",
        [{"patterns": p, "coverage": f"{c * 100:.2f}%"} for p, c in curve[:: max(1, len(curve) // 10)]],
    )
    benchmark.extra_info["early_slope"] = early_slope
    benchmark.extra_info["late_slope"] = late_slope
    assert late_slope <= early_slope
