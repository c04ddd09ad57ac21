"""Property/fuzz suite for the at-speed timing layer.

Randomized :class:`~repro.timing.clocks.ClockTreeModel` configurations
(domain counts, frequencies, skews, insertion-delay spreads) drive two
families of properties:

* the :class:`~repro.timing.double_capture.CaptureWindowScheduler` always
  emits schedules whose ``d3`` exceeds the worst-case inter-domain skew and
  whose :meth:`~repro.timing.double_capture.CaptureSchedule.validate` is
  clean -- and ``validate()`` *catches* every kind of injected violation
  (off-speed capture, skew-swallowed inter-domain gap, early SE rise),
* the trial-indexed skew sampling behind the campaign's Fig. 3 sweep is
  deterministic per trial index, whichever trials run before it, and the
  sweep's tallied counters are the sum of the per-trial reports' verdicts.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.oracle.skew import sample_shift_path_report
from repro.timing import (
    CaptureWindowScheduler,
    MonteCarloSummary,
    ShiftPathParameters,
    make_clock_tree,
    monte_carlo_violations,
    run_skew_trials,
)

pytestmark = pytest.mark.transition


def random_tree(num_domains, base_freq, skew, delay_spread):
    """A randomized clock tree with controlled insertion-delay spread."""
    freqs = {f"d{i}": base_freq + 17 * i for i in range(num_domains)}
    delays = {f"d{i}": 1.0 + delay_spread * i for i in range(num_domains)}
    return make_clock_tree(
        freqs, intra_domain_skew_ns=skew, insertion_delays_ns=delays
    )


class TestSchedulerProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        num_domains=st.integers(min_value=1, max_value=8),
        base_freq=st.floats(min_value=50.0, max_value=800.0),
        skew=st.floats(min_value=0.0, max_value=0.8),
        delay_spread=st.floats(min_value=0.0, max_value=0.5),
    )
    def test_d3_exceeds_worst_case_skew_and_schedule_valid(
        self, num_domains, base_freq, skew, delay_spread
    ):
        tree = random_tree(num_domains, base_freq, skew, delay_spread)
        schedule = CaptureWindowScheduler(tree).schedule()
        assert schedule.validate() == []
        assert schedule.d3_ns > schedule.max_skew_ns
        assert schedule.max_skew_ns == pytest.approx(tree.max_skew_overall())
        # Every inter-domain gap -- not just the d3 parameter -- clears the
        # worst-case skew, and every pulse pair is at functional speed.
        for earlier, later in zip(schedule.domains, schedule.domains[1:]):
            assert later.launch_time_ns - earlier.capture_time_ns > schedule.max_skew_ns
        for timing in schedule.domains:
            assert timing.is_at_speed

    @settings(max_examples=25, deadline=None)
    @given(
        num_domains=st.integers(min_value=2, max_value=6),
        skew=st.floats(min_value=0.0, max_value=0.5),
        order_seed=st.integers(min_value=0, max_value=1000),
    )
    def test_any_domain_order_is_valid(self, num_domains, skew, order_seed):
        """The Fig. 2 constraints hold for arbitrary capture orders."""
        import random

        tree = random_tree(num_domains, 200.0, skew, 0.2)
        order = tree.domain_names()
        random.Random(order_seed).shuffle(order)
        schedule = CaptureWindowScheduler(tree).schedule(domain_order=order)
        assert [t.domain for t in schedule.domains] == order
        assert schedule.validate() == []

    @settings(max_examples=25, deadline=None)
    @given(
        num_domains=st.integers(min_value=1, max_value=6),
        stretch=st.floats(min_value=1.2, max_value=4.0),
        victim=st.integers(min_value=0, max_value=5),
    )
    def test_validate_catches_off_speed_capture(self, num_domains, stretch, victim):
        """Moving any capture pulse off the functional period is caught."""
        tree = random_tree(num_domains, 250.0, 0.1, 0.1)
        schedule = CaptureWindowScheduler(tree).schedule()
        timing = schedule.domains[victim % num_domains]
        broken = dataclasses.replace(
            timing, capture_time_ns=timing.launch_time_ns + stretch * timing.period_ns
        )
        schedule.domains[victim % num_domains] = broken
        problems = schedule.validate()
        assert any("launch-to-capture" in problem for problem in problems)

    @settings(max_examples=25, deadline=None)
    @given(
        num_domains=st.integers(min_value=2, max_value=6),
        skew=st.floats(min_value=0.2, max_value=0.8),
    )
    def test_validate_catches_swallowed_inter_domain_gap(self, num_domains, skew):
        """A gap at-or-below the worst-case skew is caught (shifted pair)."""
        tree = random_tree(num_domains, 250.0, skew, 0.3)
        schedule = CaptureWindowScheduler(tree).schedule()
        # Slide the second domain's pulse pair back until its launch lands
        # exactly on the first domain's capture: gap 0 <= max_skew.
        first, second = schedule.domains[0], schedule.domains[1]
        shift = second.launch_time_ns - first.capture_time_ns
        schedule.domains[1] = dataclasses.replace(
            second,
            launch_time_ns=second.launch_time_ns - shift,
            capture_time_ns=second.capture_time_ns - shift,
        )
        problems = schedule.validate()
        assert any("inter-domain gap" in problem for problem in problems)

    @settings(max_examples=25, deadline=None)
    @given(num_domains=st.integers(min_value=1, max_value=6))
    def test_validate_catches_early_se_rise(self, num_domains):
        """SE rising before the last capture pulse is caught."""
        tree = random_tree(num_domains, 250.0, 0.1, 0.1)
        schedule = CaptureWindowScheduler(tree).schedule()
        schedule.se_rise_ns = schedule.domains[-1].capture_time_ns - 0.5
        problems = schedule.validate()
        assert any("SE rises" in problem for problem in problems)


class TestTrialIndexedSkewSampling:
    """The campaign's Fig. 3 sweep seeds every trial from its index."""

    @settings(max_examples=20, deadline=None)
    @given(
        trial=st.integers(min_value=0, max_value=10_000),
        skew_range=st.floats(min_value=0.1, max_value=12.0),
        advance=st.floats(min_value=0.0, max_value=2.0),
    )
    def test_sample_is_deterministic_per_trial_index(
        self, trial, skew_range, advance
    ):
        parameters = ShiftPathParameters()
        first = sample_shift_path_report(
            parameters, skew_range, trial, bist_clock_advance_ns=advance
        )
        second = sample_shift_path_report(
            parameters, skew_range, trial, bist_clock_advance_ns=advance
        )
        assert first.prpg_to_chain == second.prpg_to_chain
        assert first.chain_to_misr == second.chain_to_misr
        assert first.violation_kinds == second.violation_kinds

    @settings(max_examples=20, deadline=None)
    @given(
        trials=st.integers(min_value=1, max_value=200),
        shards=st.integers(min_value=1, max_value=9),
        skew_range=st.floats(min_value=0.5, max_value=12.0),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_sweep_counters_ignore_trial_order(
        self, trials, shards, skew_range, seed
    ):
        """Recording the trials in any order gives the serial counters."""
        parameters = ShiftPathParameters()

        def sweep(indices):
            return run_skew_trials(
                parameters,
                skew_range,
                indices,
                bist_clock_advance_ns=0.5,
                retiming=True,
                seed=seed,
            ).as_dict()

        # Deal the trials round-robin over ``shards`` runs, then concatenate.
        dealt = [t for start in range(shards) for t in range(start, trials, shards)]
        assert sweep(dealt) == sweep(range(trials))

    @settings(max_examples=60, deadline=None)
    @given(
        compactor_depth=st.integers(min_value=0, max_value=3),
        retiming=st.booleans(),
        advance=st.floats(min_value=-2.0, max_value=3.0),
        skew_range=st.floats(min_value=0.05, max_value=12.0),
        shift_period=st.floats(min_value=0.8, max_value=10.0),
        seed=st.integers(min_value=0, max_value=10_000),
        trials=st.one_of(
            st.just([]),
            st.integers(min_value=0, max_value=10_000).map(lambda t: [t]),
            st.lists(
                st.integers(min_value=0, max_value=10_000), unique=True, max_size=80
            ),
        ),
    )
    def test_tallied_sweep_sums_per_trial_report_verdicts(
        self, compactor_depth, retiming, advance, skew_range, shift_period, seed, trials
    ):
        """``run_skew_trials`` tallies margins without building reports; its
        counters equal the per-trial ``sample_shift_path_report`` verdicts
        summed, for empty, single and non-contiguous trial sets."""
        parameters = ShiftPathParameters(
            shift_period_ns=shift_period, compactor_depth=compactor_depth
        )
        expected = MonteCarloSummary()
        for trial in trials:
            expected.record(
                sample_shift_path_report(
                    parameters, skew_range, trial, seed=seed,
                    bist_clock_advance_ns=advance, retiming=retiming,
                )
            )
        summary = run_skew_trials(
            parameters, skew_range, trials,
            bist_clock_advance_ns=advance, retiming=retiming, seed=seed,
        )
        assert summary.as_dict() == expected.as_dict()
        assert all(type(value) is int for value in summary.as_dict().values())

    def test_trial_sweep_mirrors_sequential_monte_carlo_distribution(self):
        """Same distribution as monte_carlo_violations: the advance collapses
        violations onto the fixable kinds in both samplers."""
        parameters = ShiftPathParameters(shift_period_ns=5.0)
        sequential = monte_carlo_violations(
            parameters, skew_range_ns=1.5, trials=300, bist_clock_advance_ns=1.5
        )
        trial_indexed = run_skew_trials(
            parameters, 1.5, range(300), bist_clock_advance_ns=1.5
        )
        assert sequential.unfixable == 0
        assert trial_indexed.unfixable == 0
        # Not bit-identical streams (different RNG seeding by design), but
        # the clean fraction should land in the same ballpark.
        assert abs(sequential.clean - trial_indexed.clean) <= 60
