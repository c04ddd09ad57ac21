"""Identification and blocking of unknown-value (X) sources.

The paper requires "a full-scan circuit with unknown value (X) sources
properly blocked" (Section 2.1): any X that reaches the MISR corrupts the
signature and invalidates the whole BIST session.  Typical X sources are
non-scan storage (memories, latches), un-modelled analog/black-box outputs,
and un-wrapped primary inputs driven from outside the core during self-test.

This module provides:

* :func:`identify_x_sources` -- find nets explicitly annotated as X sources
  plus, optionally, primary inputs that are not wrapped by scan cells,
* :func:`x_contaminated_observation_nets` -- which observation nets (MISR
  inputs) an X can reach, via a structural fanout walk,
* :func:`block_x_sources` -- insert blocking gates (AND with a constant-0 in
  test mode, i.e. a forced known value) in front of every X source so the
  signature stays deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from ..netlist.circuit import Circuit
from ..netlist.gates import GateType


@dataclass
class XBlockingResult:
    """Outcome of the X-blocking transform."""

    #: X-source nets that were blocked, in processing order.
    blocked_sources: list[str] = field(default_factory=list)
    #: Names of inserted blocking gates (one per blocked source).
    blocking_gates: list[str] = field(default_factory=list)
    #: Observation nets still reachable by an X after blocking (should be empty).
    residual_contamination: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when no X can reach any observation net any more."""
        return not self.residual_contamination


def identify_x_sources(
    circuit: Circuit,
    include_unwrapped_inputs: bool = False,
) -> list[str]:
    """Nets that can carry an unknown value during self-test.

    A net is an X source when its driving gate carries the ``x_source``
    attribute (set by the synthetic-core generator for memory/black-box
    outputs).  When ``include_unwrapped_inputs`` is true, primary inputs that
    are not consumed exclusively by wrapper scan cells are included too --
    during pure self-test nothing drives them to a known value.
    """
    sources = [
        gate.name for gate in circuit if gate.attributes.get("x_source")
    ]
    if include_unwrapped_inputs:
        for pi in circuit.primary_inputs:
            consumers = circuit.fanout(pi)
            wrapped = consumers and all(
                circuit.gate(c).attributes.get("wrapper_cell") for c in consumers
            )
            if not wrapped:
                sources.append(pi)
    return sources


def x_contaminated_observation_nets(
    circuit: Circuit,
    x_sources: Sequence[str],
    observe_nets: Optional[Sequence[str]] = None,
) -> list[str]:
    """Observation nets an X from ``x_sources`` can reach.

    The check is conservative: any observation net in the structural fanout
    cone of an X source is reported, because a corrupted MISR signature is
    unrecoverable and DFT sign-off therefore over-approximates X
    reachability.
    """
    if not x_sources:
        return []
    observe = list(observe_nets) if observe_nets is not None else circuit.observation_nets()
    # BFS through the combinational fanout, stopping at X-blocking gates
    # (which force a known value) and at flop boundaries.
    reachable = set(x_sources)
    frontier = list(x_sources)
    while frontier:
        current = frontier.pop()
        for successor in circuit.fanout(current):
            if successor in reachable:
                continue
            gate = circuit.gate(successor)
            if gate.attributes.get("x_blocking"):
                continue
            reachable.add(successor)
            if not gate.is_flop:
                frontier.append(successor)
    return [net for net in observe if net in reachable]


def block_x_sources(
    circuit: Circuit,
    x_sources: Iterable[str],
    blocked_value: int = 0,
    prefix: str = "x_block",
) -> XBlockingResult:
    """Insert blocking gates so no X source reaches downstream logic.

    Each X source net ``n`` gets a blocking gate ``x_block_<i>_<n>`` computing
    ``AND(n, 0)`` (for ``blocked_value=0``) or ``OR(n, 1)`` (for 1); every
    original consumer of ``n`` is rewired to the blocking gate.  In silicon
    the constant would be a test-mode signal so the functional path is
    unaffected outside self-test; for fault-coverage purposes the test-mode
    view (constant) is the relevant one, which is what the netlist models.

    The circuit is modified in place.
    """
    if blocked_value not in (0, 1):
        raise ValueError("blocked_value must be 0 or 1")
    result = XBlockingResult()
    for index, source in enumerate(x_sources):
        if source not in circuit.gates:
            raise KeyError(f"unknown X-source net {source!r}")
        consumers = list(dict.fromkeys(circuit.fanout(source)))
        const_name = f"{prefix}_{index}_const"
        gate_name = f"{prefix}_{index}_{source}"
        if blocked_value == 0:
            circuit.add_gate(const_name, GateType.CONST0, [])
            circuit.add_gate(gate_name, GateType.AND, [source, const_name], x_blocking=True)
        else:
            circuit.add_gate(const_name, GateType.CONST1, [])
            circuit.add_gate(gate_name, GateType.OR, [source, const_name], x_blocking=True)
        for consumer in consumers:
            circuit.replace_input_net(consumer, source, gate_name)
        result.blocked_sources.append(source)
        result.blocking_gates.append(gate_name)

    result.residual_contamination = x_contaminated_observation_nets(
        circuit, result.blocked_sources
    )
    return result


def verify_x_clean(
    circuit: Circuit,
    observe_nets: Optional[Sequence[str]] = None,
    include_unwrapped_inputs: bool = False,
) -> list[str]:
    """Convenience check: which observation nets remain X-contaminated?

    Returns an empty list when the circuit is X-clean (what the BIST-ready
    check in the core flow asserts before hooking up the MISR).
    """
    sources = identify_x_sources(circuit, include_unwrapped_inputs)
    remaining = [
        s
        for s in sources
        if not any(
            circuit.gate(c).attributes.get("x_blocking") for c in circuit.fanout(s)
        ) or not circuit.fanout(s)
    ]
    return x_contaminated_observation_nets(circuit, remaining, observe_nets)
