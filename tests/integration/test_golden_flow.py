"""Golden end-to-end regression: the full BIST flow pinned against a JSON file.

Runs ``core/flow.py`` on two fixed-seed generated cores and compares every
pinned measurement (coverage figures, MISR signatures, test-point and top-up
counts, structure numbers) against
``tests/integration/golden/flow_golden.json``.  The golden file was verified
bit-identical between the pre-kernel (seed) implementation and the compiled
kernel, so any mismatch here is a genuine behavioural change of the flow.

To intentionally update the golden values, see the documented regeneration
script :mod:`tests.integration.regenerate_golden`:

    PYTHONPATH=src python tests/integration/regenerate_golden.py
"""

import json

import pytest

from repro.core import LogicBistConfig, LogicBistFlow
from repro.cores.generator import generate_synthetic_core

from regenerate_golden import GOLDEN_PATH, golden_cases, run_case


@pytest.fixture(scope="module")
def golden():
    assert GOLDEN_PATH.exists(), (
        "golden file missing -- run "
        "`PYTHONPATH=src python tests/integration/regenerate_golden.py`"
    )
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("case_name", sorted(golden_cases()))
def test_flow_matches_golden(case_name, golden):
    core_config, flow_config = golden_cases()[case_name]
    measured = run_case(core_config, flow_config)
    expected = golden[case_name]
    assert set(measured) == set(expected)
    for key in sorted(expected):
        assert measured[key] == expected[key], (
            f"{case_name}: {key} drifted from golden "
            f"(got {measured[key]!r}, pinned {expected[key]!r})"
        )


@pytest.mark.numpy
def test_numpy_backend_matches_golden(golden):
    """The full flow under ``sim_backend="numpy"`` hits the pinned goldens.

    The numpy backend replaces the bigint interpreter on every hot path of
    the flow (TPI profiling, streamed pattern generation, the random-phase
    fault simulation, the signature responses' launch/capture derivation
    feeds) -- this re-runs the smaller golden core with it and checks every
    result the python backend pinned, coverage curve sampling included.
    """
    import dataclasses

    core_config, flow_config = golden_cases()["golden_beta"]
    numpy_config = dataclasses.replace(flow_config, sim_backend="numpy")
    core = generate_synthetic_core(core_config)
    result = LogicBistFlow(numpy_config).run(core.circuit, core_name=core_config.name)
    expected = golden["golden_beta"]
    assert round(result.coverage_random, 12) == expected["fault_coverage_random"]
    assert round(result.coverage, 12) == expected["fault_coverage_final"]
    assert result.topup_pattern_count == expected["top_up_pattern_count"]
    assert result.bist_ready.test_point_count == expected["test_point_count"]
    assert dict(sorted(result.signatures.items())) == expected["signatures"]
    assert result.total_faults == expected["total_faults"]
    assert [
        [patterns, round(coverage, 12)]
        for patterns, coverage in result.coverage_curve[-3:]
    ] == expected["coverage_curve_tail"]


def test_block_size_invariance_of_flow_results(golden):
    """Coverage, signatures and detections are identical at any block width.

    The block width only changes how many patterns share one bigint word (and
    the coverage-curve sampling rate), never the results: this re-runs the
    smaller golden core at block_size=256 and checks everything except the
    curve against the pinned block_size=64 golden values.
    """
    core_config, flow_config = golden_cases()["golden_beta"]
    wide_config = LogicBistConfig(**{**flow_config.__dict__, "block_size": 256})
    core = generate_synthetic_core(core_config)
    result = LogicBistFlow(wide_config).run(core.circuit, core_name=core_config.name)
    expected = golden["golden_beta"]
    assert round(result.coverage_random, 12) == expected["fault_coverage_random"]
    assert round(result.coverage, 12) == expected["fault_coverage_final"]
    assert result.topup_pattern_count == expected["top_up_pattern_count"]
    assert result.bist_ready.test_point_count == expected["test_point_count"]
    assert dict(sorted(result.signatures.items())) == expected["signatures"]
    assert result.total_faults == expected["total_faults"]
