"""Differential harness for at-speed transition campaigns.

PR 6 wires the at-speed measurement through the campaign subsystem: a
scenario whose config sets ``measure_transition_coverage`` grows the
launch-on-capture transition fan-out, ``skew_trials > 0`` adds the sharded
Fig. 3 Monte-Carlo skew sweep, and the canonical report bytes gain
``transition`` / ``skew`` sections.  This suite locks the claim down the
same way ``test_pipeline_equivalence.py`` does for preparation:

* the serial campaign's transition section equals the serial
  ``LogicBistFlow`` oracle (same coverage, same curve),
* the skew section equals the unsharded
  :func:`~repro.timing.skew_analysis.run_skew_trials` sweep,
* report bytes are identical across randomized seeds x shard counts x
  worker counts {1, 2, 4} x both sim backends -- shard geometry, pool
  width and backend must not leak a single byte into the report.
"""

import dataclasses

import pytest

from repro.campaign import CampaignRunner, CampaignScenario
from repro.core import LogicBistConfig, LogicBistFlow
from repro.core.bist_ready import build_shift_path_parameters
from repro.cores.generator import SyntheticCoreConfig, generate_synthetic_core
from repro.timing.skew_analysis import run_skew_trials

pytestmark = pytest.mark.transition

WORKER_COUNTS = (1, 2, 4)

#: Randomized scenario seeds -- fresh core structure per seed.
CORE_SEEDS = (71, 72)


def make_core(seed: int, domains: int = 2):
    """A randomized small multi-domain core (fresh structure per seed)."""
    config = SyntheticCoreConfig(
        name=f"atspeed_core_{seed}",
        clock_domains=tuple(f"clk{i + 1}" for i in range(domains)),
        num_inputs=8,
        num_outputs=5,
        register_width=6,
        pipeline_stages=1,
        adder_slices=1,
        adder_width=4,
        comparator_widths=(6,),
        decode_cone_width=5,
        cross_domain_links=1,
        seed=seed,
    )
    return generate_synthetic_core(config).circuit


def at_speed_config(**overrides):
    """An at-speed measurement configuration (transition + skew sweep).

    ``skew_range_ns=10.0`` deliberately overdrives the sampled skew so the
    Monte-Carlo counters are *mixed* (clean, fixable and unfixable trials
    all non-zero) -- an all-clean sweep would let a broken merge pass.
    """
    defaults = dict(
        total_scan_chains=4,
        tpi_method="none",
        observation_point_budget=0,
        random_patterns=64,
        signature_patterns=8,
        measure_transition_coverage=True,
        transition_patterns=48,
        skew_trials=60,
        skew_range_ns=10.0,
    )
    defaults.update(overrides)
    return LogicBistConfig(**defaults)


def at_speed_scenarios(sim_backend="python"):
    """Two at-speed multi-clock scenarios plus one stuck-at-only scenario.

    The stuck-at-only scenario rides along so the suite also proves a mixed
    campaign keeps the at-speed sections scoped to the scenarios that asked
    for them.
    """
    return [
        CampaignScenario(
            "atspeed-a",
            make_core(CORE_SEEDS[0]),
            at_speed_config(sim_backend=sim_backend),
        ),
        CampaignScenario(
            "atspeed-b",
            make_core(CORE_SEEDS[1], domains=3),
            at_speed_config(
                sim_backend=sim_backend,
                transition_patterns=32,
                skew_trials=45,
                skew_range_ns=4.0,
                clock_frequencies_mhz={"clk1": 330.0, "clk2": 250.0, "clk3": 200.0},
            ),
        ),
        CampaignScenario(
            "stuck-only",
            make_core(73, domains=1),
            at_speed_config(
                sim_backend=sim_backend,
                measure_transition_coverage=False,
                skew_trials=0,
            ),
        ),
    ]


class TestTransitionSectionMatchesFlowOracle:
    """Serial campaign transition/skew sections == the serial flow oracle."""

    def test_transition_section_matches_flow(self):
        scenarios = [
            CampaignScenario(
                scenario.name,
                scenario.circuit,
                dataclasses.replace(
                    scenario.config, campaign_topup=True, topup_max_faults=0
                ),
            )
            for scenario in at_speed_scenarios()
        ]
        campaign = CampaignRunner(num_workers=1, fault_shards=3).run(scenarios)
        for scenario in scenarios:
            flow_result = LogicBistFlow(scenario.config).run(
                scenario.circuit, core_name=scenario.name
            )
            assert flow_result.report_bytes() == campaign[scenario.name].report_bytes()
            if scenario.config.measure_transition_coverage:
                assert flow_result.transition.coverage == flow_result.transition_coverage

    def test_transition_section_present_iff_requested(self):
        scenarios = at_speed_scenarios()
        campaign = CampaignRunner(num_workers=1).run(scenarios)
        for scenario in scenarios:
            canonical = campaign[scenario.name].canonical_dict()
            requested = scenario.config.measure_transition_coverage
            assert ("transition" in canonical) == requested
            assert ("skew" in canonical) == (scenario.config.skew_trials > 0)
            if not requested:
                continue
            section = canonical["transition"]
            assert section["patterns"] == scenario.config.transition_patterns
            assert 0 < section["detected"] <= section["total_faults"]
            assert section["coverage"] == pytest.approx(
                section["detected"] / section["total_faults"]
            )

    def test_skew_section_matches_unsharded_sweep(self):
        scenarios = at_speed_scenarios()
        campaign = CampaignRunner(num_workers=1, fault_shards=4).run(scenarios)
        for scenario in scenarios:
            config = scenario.config
            if config.skew_trials <= 0:
                continue
            skew = campaign[scenario.name].skew
            oracle = run_skew_trials(
                build_shift_path_parameters(config),
                config.skew_range_ns,
                range(config.skew_trials),
                bist_clock_advance_ns=config.bist_clock_advance_ns,
                retiming=True,
                seed=config.skew_seed,
            )
            assert skew["monte_carlo"] == oracle.as_dict()
            assert skew["schedule_valid"] is True
            assert skew["schedule_problems"] == []
            assert skew["d3_ns"] > skew["max_skew_ns"]

    def test_overdriven_skew_counters_are_mixed(self):
        """The suite's sweep must exercise clean AND violating trials."""
        scenario = at_speed_scenarios()[0]
        campaign = CampaignRunner(num_workers=1).run([scenario])
        counters = campaign[scenario.name].skew["monte_carlo"]
        assert counters["trials"] == scenario.config.skew_trials
        assert 0 < counters["clean"] < counters["trials"]
        assert counters["unfixable"] > 0


class TestTransitionReportBytesAcrossShardGeometry:
    """Serial campaigns: the shard count must not leak into report bytes."""

    @pytest.mark.parametrize("seed", CORE_SEEDS)
    @pytest.mark.parametrize("fault_shards", (1, 3, 4, 5))
    def test_report_bytes_shard_invariant(self, seed, fault_shards):
        scenario = CampaignScenario(
            f"atspeed-{seed}", make_core(seed), at_speed_config()
        )
        reference = CampaignRunner(num_workers=1, fault_shards=1).run([scenario])
        candidate = CampaignRunner(
            num_workers=1, fault_shards=fault_shards
        ).run([scenario])
        assert candidate.report_bytes() == reference.report_bytes()

    @pytest.mark.numpy
    def test_numpy_serial_matches_python_serial(self):
        python_run = CampaignRunner(num_workers=1, fault_shards=3).run(
            at_speed_scenarios("python")
        )
        numpy_run = CampaignRunner(num_workers=1, fault_shards=3).run(
            at_speed_scenarios("numpy")
        )
        assert numpy_run.report_bytes() == python_run.report_bytes()


@pytest.mark.multiprocess
class TestTransitionReportBytesAcrossWorkers:
    """One at-speed campaign, workers {1, 2, 4}: byte-identical reports."""

    @pytest.mark.parametrize("num_workers", WORKER_COUNTS)
    def test_report_bytes_identical(self, num_workers):
        scenarios = at_speed_scenarios()
        reference = CampaignRunner(num_workers=1, fault_shards=4).run(scenarios)
        if num_workers == 1:
            candidate = CampaignRunner(num_workers=1, fault_shards=2).run(scenarios)
        else:
            candidate = CampaignRunner(
                num_workers=num_workers, fault_shards=4
            ).run(scenarios)
        assert candidate.report_bytes() == reference.report_bytes()

    @pytest.mark.numpy
    def test_numpy_pooled_matches_python_serial(self):
        python_run = CampaignRunner(num_workers=1, fault_shards=4).run(
            at_speed_scenarios("python")
        )
        numpy_run = CampaignRunner(num_workers=2, fault_shards=4).run(
            at_speed_scenarios("numpy")
        )
        assert numpy_run.report_bytes() == python_run.report_bytes()

    def test_pooled_campaign_at_speed_results_match_serial_flow(self):
        """A pooled campaign run reproduces the flow's transition + skew."""
        circuit = make_core(74)
        config = at_speed_config(topup_backtrack_limit=60, campaign_topup=True)
        serial = LogicBistFlow(config).run(circuit, core_name="flow")
        pooled = CampaignRunner(num_workers=2).run(
            [CampaignScenario("flow", circuit, config)]
        )["flow"]
        assert serial.skew == serial.skew_sweep.canonical_dict()
        assert b'"transition"' in serial.report_bytes()
        assert pooled.report_bytes() == serial.report_bytes()
