"""The oracle boundary: no module of ``src/repro`` outside ``repro/oracle/``
imports ``repro.oracle``.

The oracles are what the production engines are tested against, so a
production module that reached one would be checked against itself.  The
walk reads every module with :mod:`ast` (nothing is imported) and resolves
relative imports against the module's own package, so ``from ..oracle
import x`` is caught as surely as ``import repro.oracle``.  The
selector that once picked the oracle through the config stays deleted, and
so do the knobs that picked a second top-up, backtrace or TPI ranking path,
the name-keyed and three-valued simulators beside the compiled kernel, the
Galois PRPG, the no-op input selector and the per-pattern session paths
(the stepping PRPG with its per-cycle phase shifter and space expander,
the per-cycle unload with its space compactor, block unpacking, the dict
fault simulation and the strict check of a hand-built pattern list now live
in :mod:`repro.oracle.patterns`).  The transition engine's second drop
loops and shard-state class stay deleted too: both fault models scan
through one loop per backend and ship as one shard state of table rows.
"""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent
ORACLE = "repro.oracle"


def module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def imported_modules(source: str, module: str, is_package: bool):
    """Every module ``source`` imports, relative imports resolved, plus
    ``base.name`` for each ``from base import name`` (a name may be a
    submodule)."""
    package = module if is_package else module.rpartition(".")[0]
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                parts = package.split(".")
                base = ".".join(parts[: len(parts) - node.level + 1])
                base = f"{base}.{node.module}" if node.module else base
            else:
                base = node.module
            yield base
            for alias in node.names:
                yield f"{base}.{alias.name}"
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None))
            in ("import_module", "__import__")
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            yield node.args[0].value


def reaches_oracle(name: str) -> bool:
    return name == ORACLE or name.startswith(ORACLE + ".")


def violations(path: Path) -> list[str]:
    module = module_name(path)
    names = imported_modules(path.read_text(), module, path.name == "__init__.py")
    return [f"{module} imports {name}" for name in names if reaches_oracle(name)]


def test_no_production_module_imports_the_oracle():
    modules = sorted((SRC / "repro").rglob("*.py"))
    production = [
        path for path in modules if not reaches_oracle(module_name(path))
    ]
    assert len(production) < len(modules), "the oracle package is missing"
    found = [line for path in production for line in violations(path)]
    assert not found, found


@pytest.mark.parametrize(
    "source",
    [
        "import repro.oracle",
        "import repro.oracle.podem as podem",
        "from repro.oracle import generate_reference",
        "from repro import oracle",
        "from ..oracle import generate_reference",
        "from ..oracle.podem import generate_reference",
        "from .. import oracle",
        "def f():\n    from ..oracle import topup\n",
        "import importlib\nimportlib.import_module('repro.oracle.topup')",
    ],
)
def test_walk_catches_every_import_form(source):
    names = imported_modules(source, "repro.atpg.topup", is_package=False)
    assert any(reaches_oracle(name) for name in names)


def test_walk_ignores_lookalikes():
    source = "from ..atpg import oracle_free\nimport repro.oracles_elsewhere\n"
    names = imported_modules(source, "repro.atpg.topup", is_package=False)
    assert not any(reaches_oracle(name) for name in names)



@pytest.mark.parametrize(
    "module, owner, name",
    [
        ("repro.core.config", "LogicBistConfig", "atpg_engine"),
        ("repro.atpg.podem", "PodemAtpg", "engine"),
        ("repro.atpg.topup", "TopUpAtpg", "engine"),
        ("repro.atpg", None, "COMPILED_ENGINE"),
        ("repro.atpg", None, "REFERENCE_ENGINE"),
        ("repro.core.config", "LogicBistConfig", "atpg_backtrace"),
        ("repro.core.config", "LogicBistConfig", "topup_compaction"),
        ("repro.core.config", "LogicBistConfig", "topup_block_size"),
        ("repro.core.config", "LogicBistConfig", "pipeline_workers"),
        ("repro.core.config", "LogicBistConfig", "campaign_fault_shards"),
        ("repro.atpg.podem", "PodemAtpg", "backtrace"),
        ("repro.atpg.topup", "TopUpAtpg", "backtrace"),
        ("repro.atpg.topup", "TopUpAtpg", "_run_batched"),
        ("repro.atpg", None, "BACKTRACE_FIRST_X"),
        ("repro.atpg", None, "BACKTRACE_SCOAP"),
        ("repro.atpg", None, "reverse_order_compaction"),
        ("repro.atpg.compiled", None, "scoap_guidance"),
        ("repro.tpi.observability_tpi", "ObservabilityGuidedTpi", "method"),
        ("repro.testability", None, "cop"),
        ("repro.testability", None, "compute_cop"),
        ("repro.faults.fault_sim", "FaultSimulator", "shard_state"),
        ("repro.simulation", None, "comb_sim"),
        ("repro.simulation", None, "PackedSimulator"),
        ("repro.simulation", None, "XPropagationSimulator"),
        ("repro.netlist.gates", None, "PackedValue3"),
        ("repro.netlist.gates", None, "evaluate_packed3"),
        ("repro.netlist.gates", None, "evaluate_scalar"),
        ("repro.faults.fault_sim", "FaultSimulator", "detection_mask"),
        ("repro.faults.fault_sim", "FaultSimulator", "_table_from_mapping"),
        ("repro.faults.fault_sim", "FaultSimulator", "detects"),
        ("repro.faults.fault_sim", "FaultSimulator", "fault_effect_profile"),
        ("repro.simulation.numpy_backend", None, "table_to_words"),
        ("repro.bist.lfsr", None, "GaloisLfsr"),
        ("repro.bist.lfsr", None, "weighted_bits"),
        ("repro.bist.stumps", "StumpsDomainConfig", "galois"),
        ("repro.core.config", "LogicBistConfig", "retry"),
        ("repro.core.config", "LogicBistConfig", "exclude_pad_faults"),
        ("repro.core.config", "LogicBistConfig", "default_frequency_mhz"),
        ("repro.campaign", None, "plan_grid"),
        ("repro.campaign", None, "round_robin_shards"),
        ("repro.campaign.sharding", None, "plan_grid"),
        ("repro.campaign.sharding", None, "round_robin_shards"),
        ("repro.campaign.pipeline", "FaultSimStage", "pattern_shards"),
        ("repro.campaign.pipeline", None, "TransitionStage"),
        ("repro.campaign.runner", "CampaignRunner", "pattern_shards"),
        ("repro.service.queue", "CampaignService", "pattern_shards"),
        ("repro.netlist", None, "chain_of_inverters"),
        ("repro.netlist.builder", None, "chain_of_inverters"),
        ("repro.timing.clocks", "ClockTreeModel", "sample_domain_offset"),
        ("repro.simulation.waveform", "Waveform", "has_signal"),
        ("repro.service.events", "EventReassembler", "completed_scenarios"),
        ("repro.netlist.circuit", "Circuit", "has_net"),
        ("repro.netlist.bench_format", None, "parse_bench_lines"),
        ("repro.faults", None, "coverage_curve_from_samples"),
        ("repro.faults", None, "CoveragePoint"),
        ("repro.faults", None, "random_resistant_faults"),
        ("repro.faults", None, "escape_rate"),
        ("repro.faults.statistics", None, "coverage_curve_from_samples"),
        ("repro.faults.statistics", None, "CoveragePoint"),
        ("repro.faults.statistics", None, "random_resistant_faults"),
        ("repro.faults.statistics", None, "escape_rate"),
        ("repro.atpg.dcalc", "Value5", "is_known"),
        ("repro.campaign.results", "ScenarioResult", "curve_sections"),
        ("repro.campaign", None, "TransitionStage"),
        ("repro.campaign", None, "SkewSweepStage"),
        ("repro.campaign", None, "contiguous_shards"),
        ("repro.campaign.pipeline", None, "SkewSweepStage"),
        ("repro.campaign.pipeline", None, "SkewMergeStage"),
        ("repro.campaign.pipeline", None, "SignatureResponsesStage"),
        ("repro.campaign.pipeline", None, "SignatureFoldStage"),
        ("repro.campaign.pipeline", None, "GatherSignaturesStage"),
        ("repro.campaign.pipeline", "SkewOutcome", "num_shards"),
        ("repro.campaign.pipeline", "SkewTrialsStage", "trial_indices"),
        ("repro.campaign.sharding", None, "contiguous_shards"),
        ("repro.timing.skew_analysis", "MonteCarloSummary", "absorb"),
        ("repro.timing.skew_analysis", None, "sample_shift_path_report"),
        ("repro.timing", None, "sample_shift_path_report"),
        ("repro.timing.skew_analysis", "ShiftPathParameters", "chain_to_misr_total_max"),
        ("repro.timing.skew_analysis", "ShiftPathParameters", "chain_to_misr_total_min"),
        ("repro.core.flow", None, "expand_leading_patterns"),
        ("repro.bist.stumps", "StumpsDomain", "_cell_map"),
        ("repro.bist.stumps", "StumpsDomain", "_cell_maps"),
        ("repro.bist.stumps", "StumpsDomain", "_channel_bit_matrix"),
        ("repro.bist.stumps", "StumpsDomain", "_generate_packed_load_numpy"),
        ("repro.bist.lfsr", None, "_LfsrBase"),
        ("repro.bist.lfsr", "FibonacciLfsr", "drain_output_word"),
        ("repro.bist.lfsr", "Prpg", "next_state_int"),
        ("repro.bist.phase_shifter", "PhaseShifter", "outputs_word"),
        ("repro.bist.phase_shifter", "PhaseShifter", "_tap_masks"),
        ("repro.core.bist_ready", "BistReadyCore", "original"),
        ("repro.netlist.circuit", "Circuit", "flops_in_domain"),
        ("repro.service.checkpoint", "CheckpointStore", "discard"),
        ("repro.campaign.pipeline", None, "TrimSignatureInputStage"),
        ("repro.campaign.pipeline", None, "TrimTransitionInputStage"),
        ("repro.campaign.pipeline", None, "TrimSkewInputStage"),
        ("repro.campaign.pipeline", None, "SignatureInput"),
        ("repro.campaign.pipeline", None, "TransitionInput"),
        ("repro.campaign.pipeline", None, "SkewInput"),
        ("repro.bist", None, "input_selector"),
        ("repro.bist", None, "InputSelector"),
        ("repro.bist", None, "InputSource"),
        ("repro.campaign.pipeline", None, "_apply_input_selector"),
        ("repro.campaign.pipeline", None, "InputSelector"),
        ("repro.bist.stumps", "StumpsDomain", "generate_load"),
        ("repro.bist.stumps", "StumpsDomain", "compact_response"),
        ("repro.bist.stumps", "StumpsDomain", "_injected_words_numpy"),
        ("repro.bist.stumps", "StumpsArchitecture", "generate_pattern"),
        ("repro.bist.stumps", "StumpsArchitecture", "generate_patterns"),
        ("repro.bist.stumps", "StumpsArchitecture", "compact_response"),
        ("repro.bist.stumps", None, "resolve_backend"),
        ("repro.bist.stumps", None, "NUMPY_BACKEND"),
        ("repro.simulation.packed", "PatternBlock", "pattern"),
        ("repro.simulation.packed", "PatternBlock", "patterns"),
        ("repro.simulation.packed", None, "unpack_words"),
        ("repro.simulation", None, "unpack_words"),
        ("repro.core.bist_ready", None, "unpack_words"),
        ("repro.faults.fault_sim", "FaultSimulator", "simulate"),
        ("repro.bist.stumps", "StumpsDomain", "cells"),
        ("repro.bist.lfsr", "Prpg", "next_state_bits"),
        ("repro.bist.lfsr", "Prpg", "generate_states"),
        ("repro.bist.phase_shifter", "PhaseShifter", "outputs"),
        ("repro.bist.space", "SpaceExpander", "expand"),
        ("repro.bist.space", "SpaceCompactor", "compact"),
        ("repro.bist.stumps", "StumpsArchitecture", "packed_session"),
        ("repro.campaign.pipeline", "ScenarioBundle", "offset_blocks"),
        ("repro.campaign.pipeline", "ScenarioBundle", "blocks"),
        ("repro.campaign.pipeline", "ScenarioBundle", "boundaries"),
        ("repro.campaign.pipeline", "TransitionBundle", "pair_blocks"),
        ("repro.campaign.pipeline", "TransitionBundle", "blocks"),
        ("repro.campaign.pipeline", "TransitionBundle", "boundaries"),
        ("repro.campaign.pipeline", "ShardScanStage", "blocks"),
        ("repro.faults.transition_sim", None, "_NumpyPairScan"),
        ("repro.faults.transition_sim", "TransitionFaultSimulator", "_python_pairs"),
        ("repro.faults.transition_sim", "TransitionFaultSimulator", "_numpy_pairs"),
        ("repro.faults.transition_sim", "TransitionFaultSimulator", "_np_pair_pass"),
        ("repro.faults.transition_sim", "TransitionFaultSimulator", "_numpy_pair_scan"),
        ("repro.faults.transition_sim", "TransitionFaultSimulator", "_resolve"),
        ("repro.faults.transition_sim", "TransitionFaultSimulator", "add_observation_net"),
        ("repro.faults.fault_sim", "FaultSimulator", "_scan_block"),
        ("repro.faults.fault_sim", "FaultSimShardState", "faults"),
        ("repro.faults.fault_sim", None, "check_strict_patterns"),
        ("repro.faults", None, "check_strict_patterns"),
        ("repro.faults", None, "TransitionSimShardState"),
        ("repro.campaign.sharding", None, "fault_site_keys"),
        ("repro.campaign", None, "fault_site_keys"),
        ("repro.campaign.pipeline", None, "fault_site_keys"),
        ("repro.campaign.pipeline", None, "undetected_of_kind"),
        ("repro.campaign.pipeline", None, "TransitionSimShardState"),
        ("repro.campaign.pipeline", "ScenarioBundle", "state"),
        ("repro.campaign.pipeline", "TransitionBundle", "state"),
        ("repro.campaign.pipeline", "TransitionPrepStage", "config"),
    ],
)
def test_engine_selector_is_gone(module, owner, name):
    """The oracle is reached by calling it, never through a production knob,
    and no knob or method is left whose only job was to pick a second path."""
    target = importlib.import_module(module)
    if owner is None and hasattr(target, "__path__"):
        assert importlib.util.find_spec(f"{module}.{name}") is None
    if owner is not None:
        target = getattr(target, owner)
        if dataclasses.is_dataclass(target):
            assert name not in {field.name for field in dataclasses.fields(target)}
    assert not hasattr(target, name)


def test_deleted_parameters_are_gone():
    """The X check is the structural walk alone and the PRPG is Fibonacci
    alone, and one bit-sliced generator serves both backends: none takes a
    parameter that picks a second path.  A scenario's stage graph follows
    its config alone, and the flow's result is a scenario report that keeps
    no second name for a scenario field."""
    from repro.bist.lfsr import Prpg
    from repro.bist.stumps import StumpsArchitecture, StumpsDomain
    from repro.campaign.pipeline import scenario_stage_nodes, shard_stage_nodes
    from repro.campaign.results import ScenarioResult
    from repro.campaign.runner import CampaignRunner
    from repro.core.bist_ready import derive_signature_responses, fresh_fault_list
    from repro.core.flow import LogicBistResult
    from repro.faults.transition_sim import (
        TransitionFaultSimulator,
        capture_group_updates,
        derive_pair_blocks,
    )
    from repro.oracle.transition import (
        derive_capture_patterns,
        simulate_with_derived_capture,
    )
    from repro.scan.x_blocking import x_contaminated_observation_nets
    from repro.service import CampaignService

    assert "structural" not in inspect.signature(x_contaminated_observation_nets).parameters
    assert "galois" not in inspect.signature(Prpg).parameters
    for method in (
        StumpsDomain.generate_packed_load,
        StumpsArchitecture.generate_packed_blocks,
    ):
        assert "backend" not in inspect.signature(method).parameters
    for owner in (CampaignRunner, CampaignService, scenario_stage_nodes, shard_stage_nodes):
        assert "pattern_shards" not in inspect.signature(owner).parameters
    assert "config" not in inspect.signature(fresh_fault_list).parameters
    # Hand-built pattern lists are checked behind the oracle boundary
    # (repro.oracle.patterns.check_strict_patterns), not by the pair scan.
    assert "strict" not in inspect.signature(TransitionFaultSimulator.simulate_pairs).parameters
    # Every flop captures: no capture derivation holds cells.
    for function in (
        capture_group_updates,
        derive_pair_blocks,
        derive_capture_patterns,
        simulate_with_derived_capture,
    ):
        assert "hold_cells" not in inspect.signature(function).parameters
    # The signature folds packed responses, one way for both backends.
    assert "backend" not in inspect.signature(StumpsDomain.fold_responses).parameters
    assert "config" not in inspect.signature(derive_signature_responses).parameters
    graph_parameters = inspect.signature(scenario_stage_nodes).parameters
    for name in ("include_topup", "include_transition", "include_skew", "include_report"):
        assert name not in graph_parameters
    assert issubclass(LogicBistResult, ScenarioResult)
    result_fields = {field.name for field in dataclasses.fields(LogicBistResult)}
    for name in (
        "fault_coverage_random",
        "fault_coverage_final",
        "top_up_pattern_count",
        "random_pattern_count",
        "gate_count",
        "flop_count",
        "scan_chain_count",
        "max_chain_length",
        "clock_domain_count",
        "prpg_count",
        "prpg_length",
        "misr_count",
        "misr_lengths",
        "test_point_count",
        "area_overhead_fraction",
        "coverage_gain_from_topup",
    ):
        assert name not in result_fields and not hasattr(LogicBistResult, name), name
