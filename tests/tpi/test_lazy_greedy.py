"""Differential test: the lazy (CELF) observation-point greedy against a full
rescan of every candidate per round.

The full-rescan greedy below is the selection loop ``select`` ran before it
became lazy; it lives only here, as the reference.  Profiles are drawn with
small count ranges so that ties in the covered-fault count and in the
effect-count sum are common and the name tie-break decides.
"""

from hypothesis import given, settings, strategies as st

from repro.netlist import CircuitBuilder
from repro.tpi import FaultSimGuidedObservationTpi
from repro.tpi.observation_points import ObservationPointPlan


def rescan_greedy(resistant, profile, budget, min_effect_count):
    """Reference: rescan every candidate net each round."""
    plan = ObservationPointPlan(resistant_fault_count=len(resistant))
    if not resistant or budget <= 0:
        return plan
    uncovered = set(resistant)
    candidates = {net: dict(per_fault) for net, per_fault in profile.items()}
    while len(plan.nets) < budget and uncovered and candidates:
        best_net = None
        best_key = None
        for net, per_fault in candidates.items():
            eligible = {
                fault: count
                for fault, count in per_fault.items()
                if fault in uncovered and count >= min_effect_count
            }
            if not eligible:
                continue
            key = (len(eligible), sum(eligible.values()), net)
            if best_key is None or (key[0], key[1]) > (best_key[0], best_key[1]) or (
                (key[0], key[1]) == (best_key[0], best_key[1]) and net < best_key[2]
            ):
                best_key = key
                best_net = net
        if best_net is None:
            break
        newly_covered = [
            fault
            for fault, count in candidates[best_net].items()
            if fault in uncovered and count >= min_effect_count
        ]
        plan.nets.append(best_net)
        plan.covered_faults[best_net] = newly_covered
        uncovered.difference_update(newly_covered)
        del candidates[best_net]
    return plan


def selector(budget, min_effect_count):
    builder = CircuitBuilder(name="unused")
    builder.output(builder.input("a"))
    return FaultSimGuidedObservationTpi(
        builder.build(), budget=budget, min_effect_count=min_effect_count
    )


@st.composite
def profiles(draw):
    faults = [f"f{index}" for index in range(draw(st.integers(0, 14)))]
    nets = draw(
        st.lists(st.sampled_from([f"n{index}" for index in range(12)]), unique=True, max_size=10)
    )
    profile = {}
    for net in nets:
        members = draw(st.lists(st.sampled_from(faults), unique=True)) if faults else []
        # Small counts make equal keys common; an empty entry or one whose
        # every count is below the threshold is a net that can never win.
        profile[net] = {fault: draw(st.integers(1, 5)) for fault in members}
    # Faults the profile never mentions stay resistant but uncoverable.
    resistant = draw(st.permutations(faults))
    return resistant, profile


@settings(max_examples=300, deadline=None)
@given(
    drawn=profiles(),
    budget=st.integers(0, 14),
    min_effect_count=st.integers(1, 4),
)
def test_lazy_greedy_matches_full_rescan(drawn, budget, min_effect_count):
    resistant, profile = drawn
    expected = rescan_greedy(resistant, profile, budget, min_effect_count)
    actual = selector(budget, min_effect_count).plan_from_profile(resistant, profile)
    assert actual.nets == expected.nets
    assert list(actual.covered_faults.items()) == list(expected.covered_faults.items())
    assert actual.resistant_fault_count == expected.resistant_fault_count


def test_ties_break_by_name_after_count_and_sum():
    resistant = ["a", "b", "c", "d"]
    profile = {
        "zeta": {"a": 2, "b": 1},
        "alpha": {"c": 1, "d": 2},
        "beta": {"a": 1, "c": 1},
    }
    plan = selector(budget=3, min_effect_count=1).plan_from_profile(resistant, profile)
    assert plan.nets == ["alpha", "zeta"]
    assert plan.covered_faults == {"alpha": ["c", "d"], "zeta": ["a", "b"]}
    assert plan.nets == rescan_greedy(resistant, profile, 3, 1).nets
