"""The fanout map is kept up to date across edits instead of rebuilt.

``add_gate``, ``add_input``, ``replace_input_net`` and ``remove_gate``
update a valid fanout map in place; anything they cannot update (an undriven
input net, removing a gate that still drives consumers) falls back to the
lazy full rebuild.  Either way the map must equal a fresh rebuild *including
list order*: fault enumeration walks ``fanout_map()`` and that order fixes
the canonical fault order.
"""

import pickle

from hypothesis import given, settings, strategies as st

from repro.netlist import Circuit, GateType
from repro.scan.insertion import wrap_primary_inputs, wrap_primary_outputs

_BINARY = (GateType.AND, GateType.OR, GateType.XOR, GateType.NAND)


def _snapshot(circuit: Circuit) -> list:
    return [(net, list(gates)) for net, gates in circuit.fanout_map().items()]


def _fresh(circuit: Circuit) -> list:
    circuit._rebuild_caches()
    return [(net, list(gates)) for net, gates in circuit._fanout.items()]


def _seed_circuit() -> Circuit:
    circuit = Circuit("prop")
    for name in ("a", "b", "c"):
        circuit.add_input(name)
    circuit.add_gate("g0", GateType.AND, ["a", "b"])
    circuit.add_gate("g1", GateType.XOR, ["g0", "c"])
    circuit.add_output("g1")
    return circuit


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 10**6)), max_size=40))
def test_incremental_fanout_equals_rebuild(steps):
    circuit = _seed_circuit()
    circuit.fanout_map()
    pending: list[str] = []
    for serial, (action, pick) in enumerate(steps):
        if pending:
            # Drive the forward reference made by the previous step.
            circuit.add_input(pending.pop())
            assert _snapshot(circuit) == _fresh(circuit)
            continue
        # Nets in insertion order: rewiring a gate only to an earlier net
        # keeps the graph acyclic, so the full rebuild never raises.
        nets = list(circuit.gates)
        if action == 0:
            inputs = [nets[pick % len(nets)], nets[(pick // 7) % len(nets)]]
            if pick % 5 == 0:
                # A forward reference: the map falls back to a rebuild.
                pending.append(f"late{serial}")
                inputs[1] = pending[-1]
            circuit.add_gate(f"n{serial}", _BINARY[pick % 4], inputs)
        elif action == 1:
            circuit.add_input(f"pi{serial}")
        elif action == 2 and len(nets) > 1:
            gate = circuit.gate(nets[1 + pick % (len(nets) - 1)])
            position = nets.index(gate.name)
            if gate.inputs and position:
                old = gate.inputs[pick % len(gate.inputs)]
                new = nets[(pick // 3) % position]
                circuit.replace_input_net(gate.name, old, new)
        elif action == 3:
            # Rewire a net's readers to earlier nets, then remove it (a
            # removed net that is still read leaves its readers undriven).
            name = nets[pick % len(nets)]
            for reader in dict.fromkeys(circuit.fanout(name)):
                earlier = nets[: min(nets.index(name), nets.index(reader))]
                if not earlier:
                    break
                circuit.replace_input_net(reader, name, earlier[pick % len(earlier)])
            else:
                if name not in circuit.primary_outputs:
                    circuit.remove_gate(name)
        else:
            circuit.fanout_map()  # re-validate after any fallback
        if pending:
            continue
        assert _snapshot(circuit) == _fresh(circuit)
    while pending:
        circuit.add_input(pending.pop())
    assert _snapshot(circuit) == _fresh(circuit)


def test_duplicate_pins_and_rewiring_keep_insertion_order():
    circuit = _seed_circuit()
    circuit.fanout_map()
    circuit.add_gate("dup", GateType.AND, ["a", "a"])
    circuit.add_gate("late", GateType.OR, ["b", "c"])
    # g0 predates "late": rewiring it onto "c" must slot it in front.
    circuit.replace_input_net("g0", "b", "c")
    circuit.replace_input_net("dup", "a", "c")
    assert circuit.fanout("c") == ["g0", "g1", "dup", "dup", "late"]
    assert _snapshot(circuit) == _fresh(circuit)
    # A gate added after the rewiring still ranks after every older one.
    circuit.add_gate("newest", GateType.OR, ["a", "b"])
    circuit.replace_input_net("g0", "a", "b")
    assert circuit.fanout("b") == ["g0", "late", "newest"]
    assert _snapshot(circuit) == _fresh(circuit)


def test_scan_wrapping_does_not_rebuild_the_fanout_map(monkeypatch):
    circuit = _seed_circuit()
    circuit.add_gate("ff", GateType.DFF, ["g1"], clock_domain="clk1")
    circuit.fanout_map()
    rebuilds = []
    original = Circuit._rebuild_fanout

    def counting(self):
        rebuilds.append(self)
        original(self)

    monkeypatch.setattr(Circuit, "_rebuild_fanout", counting)
    digest = circuit.digest
    wrap_primary_inputs(circuit)
    wrap_primary_outputs(circuit)
    assert rebuilds == []
    assert circuit.digest != digest
    monkeypatch.undo()
    assert _snapshot(circuit) == _fresh(circuit)


def test_unpickles_a_circuit_with_the_single_cache_flag(monkeypatch):
    # Stage journals hold pickled circuits, so a pickle whose state is the
    # older format (one ``_cache_valid`` flag, no rank map) must still load.
    circuit = _seed_circuit()
    expected = _snapshot(circuit)
    levels = {net: circuit.level(net) for net in ("g0", "g1")}

    def old_state(self):
        state = dict(self.__dict__)
        for name in ("_fanout_valid", "_order_valid", "_ranks"):
            del state[name]
        return {**state, "_cache_valid": True}

    monkeypatch.setattr(Circuit, "__getstate__", old_state)
    blob = pickle.dumps(circuit)
    monkeypatch.undo()
    loaded = pickle.loads(blob)
    assert "_cache_valid" not in vars(loaded)
    assert _snapshot(loaded) == expected
    assert {net: loaded.level(net) for net in levels} == levels
    loaded.add_gate("g2", GateType.OR, ["g1", "a"])
    assert _snapshot(loaded) == _fresh(loaded)
