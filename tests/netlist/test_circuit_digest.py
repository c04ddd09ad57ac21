"""``Circuit.digest``: the one content key of every compiled-artifact cache.

Equal content must give equal digests across objects, pickling and
processes (whatever ``PYTHONHASHSEED``), and every mutation must change it
-- a stale digest would serve a kernel compiled for another netlist.
"""

import os
import pickle
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.cores.generator import SyntheticCoreConfig, generate_synthetic_core
from repro.netlist import Circuit, GateType

SRC = Path(__file__).resolve().parents[2] / "src"

core_configs = st.builds(
    SyntheticCoreConfig,
    clock_domains=st.sampled_from((("clk1",), ("clk1", "clk2"))),
    num_inputs=st.integers(2, 6),
    num_outputs=st.integers(1, 4),
    register_width=st.integers(2, 5),
    pipeline_stages=st.integers(0, 2),
    adder_width=st.integers(2, 4),
    comparator_widths=st.just((4,)),
    decode_cone_width=st.integers(2, 5),
    cross_domain_links=st.integers(0, 1),
    x_sources=st.integers(0, 1),
    seed=st.integers(0, 2**16),
)


@settings(max_examples=20, deadline=None)
@given(core_configs)
def test_equal_builds_and_pickles_share_the_digest(config):
    first = generate_synthetic_core(config).circuit
    second = generate_synthetic_core(config).circuit
    assert first is not second
    assert first.digest == second.digest
    copy = pickle.loads(pickle.dumps(first))
    assert copy.digest == first.digest
    # A pickle taken before the digest was computed gives the same value.
    assert pickle.loads(pickle.dumps(second)).digest == first.digest


def _build(name="small", inputs=("a", "b"), **g_attributes) -> Circuit:
    circuit = Circuit(name)
    for net in inputs:
        circuit.add_input(net)
    circuit.add_gate("g", GateType.AND, ["a", "b"], **g_attributes)
    circuit.add_gate("h", GateType.OR, ["a", "g"])
    circuit.add_gate("ff", GateType.DFF, ["h"], clock_domain="clk1")
    circuit.add_output("h")
    return circuit


MUTATIONS = {
    "add_input": lambda c: c.add_input("c"),
    "add_gate": lambda c: c.add_gate("n", GateType.NOT, ["a"]),
    "add_output": lambda c: c.add_output("g"),
    "remove_output": lambda c: c.remove_output("h"),
    "replace_input_net": lambda c: c.replace_input_net("h", "a", "b"),
    "remove_gate": lambda c: c.remove_gate("ff"),
}


def test_every_mutation_changes_the_digest():
    for name, mutate in MUTATIONS.items():
        circuit = _build()
        before = circuit.digest
        mutate(circuit)
        assert circuit.digest != before, name
        # Equal to a fresh circuit built with the same edit.
        rebuilt = _build()
        mutate(rebuilt)
        assert rebuilt.digest == circuit.digest, name


def test_name_order_and_attributes_are_content():
    base = _build().digest
    assert _build(name="other").digest != base
    assert _build(inputs=("b", "a")).digest != base
    assert _build(x_blocking=True).digest != base


def test_digest_does_not_depend_on_the_hash_seed():
    script = (
        "from repro.cores.generator import SyntheticCoreConfig, "
        "generate_synthetic_core\n"
        "print(generate_synthetic_core(SyntheticCoreConfig(seed=7)).circuit.digest)"
    )
    digests = set()
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": seed}
        out = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        digests.add(out.stdout.strip())
    local = generate_synthetic_core(SyntheticCoreConfig(seed=7)).circuit.digest
    assert digests == {local}
