"""Tests for the end-to-end logic BIST flow, its configuration and reporting."""

import pytest

from repro.campaign.pipeline import TpiProfileStage
from repro.core import (
    LogicBistConfig,
    LogicBistFlow,
    build_table1_report,
    coverage_shape_checks,
    prepare_scan_core,
)
from repro.core.report import area_overhead_fraction
from repro.cores import comparator_core, tiny_recipe
from repro.faults import FaultStatus
from repro.netlist import validate_circuit
from repro.scan import ScanInsertionConfig


def small_config(**overrides):
    """A fast configuration for the comparator core used throughout this module."""
    defaults = dict(
        total_scan_chains=2,
        observation_point_budget=3,
        tpi_profile_patterns=64,
        random_patterns=192,
        signature_patterns=16,
        clock_frequencies_mhz={"clkA": 200.0, "clkB": 125.0},
        topup_backtrack_limit=100,
    )
    defaults.update(overrides)
    return LogicBistConfig(**defaults)


@pytest.fixture(scope="module")
def flow_result():
    """One shared flow run on the comparator core (the expensive fixture)."""
    circuit = comparator_core(width=10, easy_outputs=4)
    flow = LogicBistFlow(small_config(measure_transition_coverage=True, transition_patterns=48))
    return flow.run(circuit, core_name="comparator-core")


class TestPrepareScanCore:
    def test_scan_core_structure(self):
        circuit = comparator_core(width=8)
        core = prepare_scan_core(circuit, small_config())
        assert validate_circuit(core.circuit).ok
        assert core.architecture.chain_count >= 2
        assert core.scan_result.wrapper_cells
        # Original circuit untouched.
        assert circuit.flop_count() == 2

    def test_chain_budget_from_config(self):
        circuit = comparator_core(width=8)
        core = prepare_scan_core(circuit, small_config(total_scan_chains=4))
        assert core.architecture.chain_count == 4

    def test_core_pickled_with_original_still_loads(self):
        """A journal or prep-cache record written while ``BistReadyCore``
        still kept the submitted circuit as ``original`` loads as the same
        core, without the dead copy."""
        import pickle

        circuit = comparator_core(width=8)
        core = prepare_scan_core(circuit, small_config())
        old = pickle.loads(pickle.dumps(core))
        old.__dict__["original"] = circuit
        loaded = pickle.loads(pickle.dumps(old))
        assert not hasattr(loaded, "original")
        assert loaded.circuit.digest == core.circuit.digest
        assert loaded.architecture.chains == core.architecture.chains


class TestFlowResult:
    def test_structure_numbers(self, flow_result):
        result = flow_result
        table = build_table1_report(result).as_dict()
        assert table["# of Clock Domains"] == 2
        # The paper's architectural rule: one PRPG/MISR pair per clock domain.
        assert table["# of PRPGs"] == 2
        assert table["# of MISRs"] == 2
        assert table["# of Scan Chains"] == result.bist_ready.architecture.chain_count
        assert table["# of FFs"] == result.bist_ready.circuit.flop_count()
        assert table["Gate Count"] > 0
        assert table["Max. Chain Length"] > 0

    def test_observation_points_inserted(self, flow_result):
        result = flow_result
        assert 0 < result.bist_ready.test_point_count <= 3
        assert build_table1_report(result).row("# of Test Points").measured == (
            f"{result.bist_ready.test_point_count} (Obv-Only)"
        )
        # The observation-point cells are real scan cells in the final chains.
        cells = {
            cell
            for chain in result.bist_ready.architecture.chains
            for cell in chain.cells
        }
        assert set(result.bist_ready.observation_flops) <= cells

    def test_coverage_shape(self, flow_result):
        result = flow_result
        assert 0.3 < result.coverage_random < 1.0
        assert result.coverage >= result.coverage_random
        # Every remaining undetected fault was at least attempted by ATPG.
        remaining = result.fault_list.with_status(FaultStatus.UNDETECTED)
        assert remaining == []
        curve = result.coverage_curve
        assert curve[-1][0] == result.patterns_simulated == result.config.random_patterns
        assert all(b >= a for (_, a), (_, b) in zip(curve, curve[1:]))

    def test_topup_patterns_fully_specified(self, flow_result):
        result = flow_result
        stimulus = set(result.bist_ready.circuit.stimulus_nets())
        for pattern in result.topup.patterns:
            assert set(pattern) == stimulus

    def test_at_speed_schedule(self, flow_result):
        result = flow_result
        schedule = result.capture_schedule
        assert schedule.validate() == []
        for domain in ("clkA", "clkB"):
            timing = schedule.timing_for(domain)
            assert timing.is_at_speed
        # clkA at 200 MHz -> 5 ns period; clkB at 125 MHz -> 8 ns period.
        assert schedule.timing_for("clkA").period_ns == pytest.approx(5.0)
        assert schedule.timing_for("clkB").period_ns == pytest.approx(8.0)

    def test_transition_coverage_measured(self, flow_result):
        assert flow_result.transition_coverage is not None
        assert 0.0 < flow_result.transition_coverage <= 1.0

    def test_signatures_produced_per_domain(self, flow_result):
        assert set(flow_result.signatures) == {"clkA", "clkB"}

    def test_shift_path_uses_paper_fixes(self, flow_result):
        report = flow_result.shift_path_report
        assert report is not None
        assert report.retiming_applied
        assert report.only_fixable_violations

    def test_area_overhead_positive(self, flow_result):
        assert area_overhead_fraction(flow_result) > 0.0
        assert build_table1_report(flow_result).row("Overhead").measured == (
            area_overhead_fraction(flow_result)
        )

    def test_phase_timings_cover_flow(self, flow_result):
        names = [timing.name for timing in flow_result.phase_timings]
        assert names == [
            "scan_insertion",
            "test_point_insertion",
            "random_patterns",
            "topup_atpg",
            "at_speed_analysis",
        ]
        assert flow_result.cpu_time_seconds >= sum(t.seconds for t in flow_result.phase_timings) * 0.5


class TestFailFast:
    def test_failing_stage_raises_from_run(self, monkeypatch):
        """The flow needs every artifact, so a failing stage raises its own
        error rather than degrading to a partial report."""

        class ProfileFailed(RuntimeError):
            pass

        def fail(self, core):
            raise ProfileFailed("profiling failed")

        monkeypatch.setattr(TpiProfileStage, "run", fail)
        circuit = comparator_core(width=8, easy_outputs=2)
        with pytest.raises(ProfileFailed, match="profiling failed"):
            LogicBistFlow(small_config(random_patterns=96)).run(circuit)


class TestReporting:
    def test_table1_report_rows(self, flow_result):
        report = build_table1_report(flow_result)
        labels = [row.label for row in report.rows]
        from repro.core import TABLE1_LABELS

        assert labels == list(TABLE1_LABELS)
        text = report.to_text()
        assert "Fault Coverage 1" in text
        assert "comparator-core" in text
        assert report.row("# of PRPGs").measured == 2
        assert isinstance(report.as_dict()["Fault Coverage 2"], float)

    def test_report_with_paper_reference(self, flow_result):
        reference = {"fault_coverage_1": 0.9382, "gate_count": 218_100}
        report = build_table1_report(flow_result, reference)
        assert report.row("Gate Count").paper == 218_100
        assert "Paper" in report.to_text()

    def test_shape_checks(self, flow_result):
        checks = coverage_shape_checks(flow_result)
        assert checks["random_coverage_below_final"]
        assert checks["one_prpg_misr_pair_per_domain"]
        assert checks["at_speed_schedule_valid"]


class TestConfigurationVariants:
    def test_tpi_none_inserts_no_points(self):
        circuit = comparator_core(width=8, easy_outputs=2)
        result = LogicBistFlow(small_config(tpi_method="none", random_patterns=96)).run(circuit)
        assert result.bist_ready.test_point_count == 0

    def test_tpi_observability_baseline(self):
        circuit = comparator_core(width=8, easy_outputs=2)
        result = LogicBistFlow(
            small_config(tpi_method="observability", random_patterns=96)
        ).run(circuit)
        assert result.bist_ready.test_point_count > 0

    def test_unknown_tpi_method_rejected(self):
        """A misspelt method fails at construction, not in a retried stage."""
        with pytest.raises(ValueError, match="tpi_method 'fualt_sim'"):
            small_config(tpi_method="fualt_sim")

    def test_unknown_sim_backend_rejected(self):
        with pytest.raises(ValueError, match="sim_backend 'cuda'"):
            small_config(sim_backend="cuda")

    def test_memory_budget_must_be_positive(self):
        with pytest.raises(ValueError, match="sim_memory_budget_mb"):
            small_config(sim_memory_budget_mb=0)
        with pytest.raises(ValueError, match="sim_memory_budget_mb"):
            small_config(sim_memory_budget_mb=-16)

    def test_negative_topup_cap_rejected(self):
        """A negative cap would slice off the last target and count it
        skipped twice; ``0`` (no top-up) and ``None`` (no cap) stay valid."""
        with pytest.raises(ValueError, match="topup_max_faults"):
            small_config(topup_max_faults=-1)
        assert small_config(topup_max_faults=0).topup_max_faults == 0

    def test_config_pickled_with_atpg_engine_still_loads(self):
        """A spec or journal pickled while ``LogicBistConfig`` still had a
        deleted field loads as the same config: equality and the prep
        cache's ``repr`` fingerprint see declared fields only."""
        import pickle

        from repro.service.cache import config_fingerprint

        deleted = {
            "atpg_engine": "compiled",
            "atpg_backtrace": "first_x",
            "topup_compaction": True,
            "topup_block_size": None,
            "pipeline_workers": 0,
            "campaign_fault_shards": None,
            "retry": None,
            "exclude_pad_faults": True,
            "default_frequency_mhz": 250.0,
        }
        config = small_config(random_patterns=96)
        for name, value in deleted.items():
            old = pickle.loads(pickle.dumps(config))
            old.__dict__[name] = value
            loaded = pickle.loads(pickle.dumps(old))
            assert loaded == config, name
            assert config_fingerprint(loaded) == config_fingerprint(config), name
            with pytest.raises(TypeError, match=name):
                small_config(**{name: value})

    def test_memory_budget_warns_on_python_backend(self):
        """The budget only bounds the numpy scan; asking the bigint
        interpreter to honor it is a config smell, not an error."""
        with pytest.warns(UserWarning, match="numpy fault scan"):
            small_config(sim_backend="python", sim_memory_budget_mb=64)

    def test_memory_budget_accepted_quietly_with_numpy(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            config = small_config(sim_backend="numpy", sim_memory_budget_mb=64)
        assert config.sim_memory_budget_mb == 64

    def test_space_compactor_variant(self):
        circuit = comparator_core(width=8, easy_outputs=2)
        result = LogicBistFlow(
            small_config(
                use_space_compactor=True,
                compacted_misr_length=4,
                random_patterns=96,
                tpi_method="none",
            )
        ).run(circuit)
        for length in result.stumps.misr_lengths().values():
            assert length <= 4

    def test_tiny_recipe_end_to_end(self):
        recipe = tiny_recipe()
        core = recipe.build()
        config = LogicBistConfig(
            total_scan_chains=recipe.total_scan_chains,
            observation_point_budget=recipe.observation_point_budget,
            random_patterns=128,
            tpi_profile_patterns=48,
            clock_frequencies_mhz=recipe.clock_frequencies_mhz,
            signature_patterns=8,
            topup_backtrack_limit=50,
        )
        result = LogicBistFlow(config).run(core.circuit, core_name=recipe.name)
        assert result.coverage > result.coverage_random * 0.99
        assert result.stumps.prpg_count() == 2
