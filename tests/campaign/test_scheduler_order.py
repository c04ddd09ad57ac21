"""Differential test of the scheduler's completion loop against the old walk.

Both schedulers run one completion loop over a dependents index and a
two-heap ready queue.  The serial walk is the oracle of every pooled, chaos
and lifecycle replay, so the loop must start stages in exactly the order of
the pass-by-pass walk it replaced.  That walk is kept here, and only here,
as the reference (:func:`reference_walk`).  The suite checks the
``on_stage_start`` order on real pipeline graphs (the flow graph and a
two-scenario campaign graph, top-up, transition and skew on) and on random
DAGs with shuffled insertion order, local expanders, preloaded keys and a
permanently failing stage in degrade mode.
"""

import random
import zlib
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from repro.campaign import (
    Expansion,
    SerialScheduler,
    StageNode,
    StageObserver,
    scenario_stage_nodes,
)
from repro.core import LogicBistConfig

from test_pipeline_equivalence import make_core


def reference_walk(nodes, preloaded=None, failing=None):
    """The pass-by-pass serial walk: each pass runs, in insertion order, the
    nodes that existed when it began and are ready when the cursor reaches
    them.  ``failing`` fails permanently (degrade mode).  Returns the start
    order, the store and the cancelled keys."""
    store, skip = dict(preloaded or {}), set(preloaded or ())
    pending, aliases, poisoned, started, cancelled = {}, {}, set(), [], []

    def resolve(key):
        while key in aliases:
            key = aliases[key]
        return key

    def add(node):
        if node.key in skip:
            skip.discard(node.key)
        else:
            pending[node.key] = node

    for node in nodes:
        add(node)
    while pending:
        progressed = False
        for key in list(pending):
            node = pending.get(key)
            if node is None or any(resolve(d) not in store for d in node.deps):
                continue
            del pending[key]
            progressed = True
            started.append(key)
            if key == failing:
                poisoned.add(key)
            else:
                value = node.task.run(*[store[resolve(d)] for d in node.deps])
                if isinstance(value, Expansion):
                    for child in value.nodes:
                        add(child)
                    aliases[key] = value.result
                else:
                    store[key] = value
            changed = bool(poisoned)
            while changed:
                changed = False
                for other, waiting in list(pending.items()):
                    if any(resolve(d) in poisoned for d in waiting.deps):
                        del pending[other]
                        poisoned.add(other)
                        cancelled.append(other)
                        changed = True
        if not progressed:
            raise RuntimeError("stalled")
    return started, store, cancelled


class StartRecorder(StageObserver):
    def __init__(self):
        self.started = []

    def on_stage_start(self, node):
        self.started.append(node.key)


# --------------------------------------------------------------------- #
# Real pipeline graphs
# --------------------------------------------------------------------- #
def at_speed_config(**overrides):
    defaults = dict(
        total_scan_chains=4,
        tpi_method="fault_sim",
        observation_point_budget=2,
        tpi_profile_patterns=32,
        random_patterns=64,
        signature_patterns=8,
        measure_transition_coverage=True,
        transition_patterns=32,
        skew_trials=20,
        topup_backtrack_limit=30,
        topup_max_faults=20,
        campaign_topup=True,
    )
    defaults.update(overrides)
    return LogicBistConfig(**defaults)


def flow_graph(key, fault_shards):
    nodes, _ = scenario_stage_nodes(
        key,
        make_core(61),
        at_speed_config(),
        scenario_name="flow",
        fault_shards=fault_shards,
    )
    return nodes


def campaign_graph(key, fault_shards):
    nodes = []
    for index, seed in enumerate((62, 63)):
        scenario_nodes, _ = scenario_stage_nodes(
            f"{key}/s{index}",
            make_core(seed, domains=2 + index),
            at_speed_config(),
            scenario_name=f"s{index}",
            fault_shards=fault_shards,
        )
        nodes.extend(scenario_nodes)
    return nodes


@pytest.mark.transition
@pytest.mark.parametrize("fault_shards", (1, 3))
@pytest.mark.parametrize("build", (flow_graph, campaign_graph))
def test_pipeline_start_order_matches_reference(build, fault_shards):
    key = "order"
    expected, _, _ = reference_walk(build(key, fault_shards))
    recorder = StartRecorder()
    SerialScheduler().run(build(key, fault_shards), observer=recorder)
    assert recorder.started == expected
    assert any("/shard" in stage for stage in expected)


# --------------------------------------------------------------------- #
# Random DAGs
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class Digest:
    """A deterministic artifact: a checksum of the key and the inputs."""

    key: str

    def run(self, *inputs):
        return zlib.crc32(repr((self.key, inputs)).encode())


@dataclass(frozen=True)
class Boom:
    def run(self, *inputs):
        raise RuntimeError("permanent failure")


@dataclass(frozen=True)
class Expand:
    """A local expander splicing a fixed list of children."""

    children: tuple

    def run(self, *inputs):
        return Expansion(nodes=self.children, result=self.children[-1].key)


@st.composite
def random_graphs(draw):
    """A random DAG, shuffled, with expanders, preloads and one failure."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.integers(1, 40))
    failing_index = draw(st.one_of(st.none(), st.integers(0, 2 * size)))
    keys, artifact_keys, nodes = [], [], []

    def task_for(key):
        index = len(artifact_keys)
        artifact_keys.append(key)
        return Boom() if index == failing_index else Digest(key)

    for position in range(size):
        key = f"n{position}"
        deps = tuple(rng.sample(keys, rng.randint(0, min(3, len(keys)))))
        if keys and rng.random() < 0.25:
            children, visible = [], list(keys)
            for child_index in range(rng.randint(1, 3)):
                child_key = f"{key}/c{child_index}"
                child_deps = rng.sample(visible, rng.randint(0, min(2, len(visible))))
                children.append(
                    StageNode(
                        key=child_key,
                        task=task_for(child_key),
                        deps=tuple(child_deps),
                        local=True,
                    )
                )
                visible.append(child_key)
            nodes.append(
                StageNode(key=key, task=Expand(tuple(children)), deps=deps, local=True)
            )
        else:
            nodes.append(StageNode(key=key, task=task_for(key), deps=deps))
        keys.append(key)
    rng.shuffle(nodes)
    failing = (
        artifact_keys[failing_index]
        if failing_index is not None and failing_index < len(artifact_keys)
        else None
    )
    preloaded = {
        key: 10**9 + index
        for index, key in enumerate(artifact_keys)
        if key != failing and rng.random() < 0.2
    }
    return nodes, preloaded, failing


@settings(max_examples=200, deadline=None)
@given(random_graphs())
def test_random_dag_matches_reference(graph):
    nodes, preloaded, failing = graph
    expected, store, cancelled = reference_walk(nodes, preloaded, failing)
    recorder = StartRecorder()
    run = SerialScheduler(degrade=True).run(
        nodes, observer=recorder, preloaded=preloaded
    )
    assert recorder.started == expected
    assert run.store == store
    assert sorted(run.cancelled) == sorted(cancelled)
    if failing in expected:
        [failure] = run.failures
        assert failure.key == failing
        # Only the dependants known when it failed; later splices that
        # depend on the poisoned subgraph are cancelled on arrival.
        assert set(failure.cancelled) <= set(cancelled)
    else:
        assert not run.failures and not run.cancelled


def test_duplicate_spliced_key_rejected():
    nodes = [
        StageNode(key="a", task=Digest("a")),
        StageNode(
            key="e",
            task=Expand((StageNode(key="a", task=Digest("a")),)),
            local=True,
        ),
    ]
    with pytest.raises(ValueError, match="duplicate stage key"):
        SerialScheduler().run(nodes)


def test_stalled_expansion_reported():
    nodes = [
        StageNode(
            key="e",
            task=Expand((StageNode(key="c", task=Digest("c"), deps=("missing",)),)),
            local=True,
        ),
        StageNode(key="after", task=Digest("after"), deps=("e",)),
    ]
    with pytest.raises(RuntimeError, match="unsatisfied"):
        SerialScheduler().run(nodes)
