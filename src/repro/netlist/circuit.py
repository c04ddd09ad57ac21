"""Flat gate-level circuit graph.

A :class:`Circuit` is a named collection of :class:`Gate` instances connected
by string-named nets.  Every gate drives exactly one net, named after the gate
itself, so "gate name" and "driven net name" are interchangeable.  Primary
inputs are modelled as gates of type :class:`~repro.netlist.gates.GateType.INPUT`
with no inputs; primary outputs are a list of net names.

Sequential elements are :class:`~repro.netlist.gates.GateType.DFF` gates.  For
combinational analyses (levelisation, fault simulation, ATPG) DFF outputs act
as *pseudo primary inputs* and DFF data pins act as *pseudo primary outputs*,
which is exactly the view a full-scan DFT flow takes.

The class keeps derived structures (fanout map, levelisation, cones) cached, so
the common read-heavy workloads (fault simulation sweeps) pay the analysis cost
once.  Edits keep a valid fanout map up to date in place (DFT insertion
queries fanout after every edit) and only drop the levelisation, which is
rebuilt lazily.
"""

from __future__ import annotations

import hashlib
from bisect import insort
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from .gates import GateType
from .library import CellLibrary


class CircuitError(ValueError):
    """Raised for structurally invalid circuit operations."""


@dataclass
class Gate:
    """One gate instance.

    Attributes
    ----------
    name:
        Unique gate name; also the name of the net the gate drives.
    gate_type:
        The primitive type.
    inputs:
        Driven-net names feeding this gate, in pin order.
    clock_domain:
        For DFF gates, the name of the clock domain the flop belongs to.
        ``None`` for combinational gates and primary inputs.
    attributes:
        Free-form annotations used by the DFT flow (e.g. ``"observation_point"``,
        ``"x_blocking"``, ``"retiming"``); kept out of the core semantics.
    """

    name: str
    gate_type: GateType
    inputs: list[str] = field(default_factory=list)
    clock_domain: Optional[str] = None
    attributes: dict[str, object] = field(default_factory=dict)

    @property
    def is_flop(self) -> bool:
        """True when this gate is a D flip-flop."""
        return self.gate_type is GateType.DFF

    @property
    def is_primary_input(self) -> bool:
        """True when this gate is a primary-input placeholder."""
        return self.gate_type is GateType.INPUT

    def copy(self) -> "Gate":
        """Deep-enough copy (inputs list and attribute dict are duplicated)."""
        return Gate(
            name=self.name,
            gate_type=self.gate_type,
            inputs=list(self.inputs),
            clock_domain=self.clock_domain,
            attributes=dict(self.attributes),
        )


class Circuit:
    """A flat gate-level netlist with cached structural analyses."""

    def __init__(self, name: str = "circuit") -> None:
        self.name = name
        self._gates: dict[str, Gate] = {}
        self._primary_inputs: list[str] = []
        self._primary_outputs: list[str] = []
        self._fanout_valid = False
        self._order_valid = False
        #: Gate name -> insertion rank, built on demand (and not pickled):
        #: fanout lists keep gate insertion order, as a full rebuild does.
        self._ranks: Optional[dict[str, int]] = None
        self._fanout: dict[str, list[str]] = {}
        self._levels: dict[str, int] = {}
        self._topo_order: list[str] = []
        #: Content digest (see :attr:`digest`); ``None`` until asked for and
        #: after every mutation.
        self._digest: Optional[str] = None

    # ------------------------------------------------------------------ #
    # Construction / mutation
    # ------------------------------------------------------------------ #
    def add_input(self, name: str) -> Gate:
        """Declare a primary input net."""
        if name in self._gates:
            raise CircuitError(f"net {name!r} already exists")
        gate = Gate(name=name, gate_type=GateType.INPUT)
        self._insert(gate)
        self._primary_inputs.append(name)
        return gate

    def add_gate(
        self,
        name: str,
        gate_type: GateType,
        inputs: Iterable[str] = (),
        clock_domain: Optional[str] = None,
        **attributes: object,
    ) -> Gate:
        """Add a gate driving net ``name``.

        Input nets do not have to exist yet (forward references are allowed);
        :meth:`validate` or any structural analysis will flag dangling nets.
        """
        if name in self._gates:
            raise CircuitError(f"net {name!r} already exists")
        if gate_type is GateType.INPUT:
            raise CircuitError("use add_input() for primary inputs")
        gate = Gate(
            name=name,
            gate_type=gate_type,
            inputs=list(inputs),
            clock_domain=clock_domain,
            attributes=dict(attributes),
        )
        if gate_type is GateType.DFF and clock_domain is None:
            gate.clock_domain = "clk"
        self._insert(gate)
        return gate

    def _insert(self, gate: Gate) -> None:
        """Register a new gate, appending it to its input nets' fanout."""
        self._gates[gate.name] = gate
        if self._ranks is not None:
            self._ranks[gate.name] = len(self._ranks)
        fanout = self._fanout
        if self._fanout_valid and all(net in fanout for net in gate.inputs):
            fanout[gate.name] = []
            for net in gate.inputs:
                fanout[net].append(gate.name)
        else:
            self._fanout_valid = False
        self._invalidate()

    def add_output(self, net: str) -> None:
        """Declare an existing (or forward-referenced) net as a primary output."""
        self._primary_outputs.append(net)
        self._invalidate()

    def remove_output(self, net: str) -> None:
        """Remove one primary-output declaration of ``net``."""
        self._primary_outputs.remove(net)
        self._invalidate()

    def replace_input_net(self, gate_name: str, old_net: str, new_net: str) -> None:
        """Rewire every occurrence of ``old_net`` in ``gate_name``'s input list."""
        gate = self.gate(gate_name)
        if old_net not in gate.inputs:
            raise CircuitError(f"{gate_name!r} has no input net {old_net!r}")
        moved = gate.inputs.count(old_net)
        gate.inputs = [new_net if n == old_net else n for n in gate.inputs]
        fanout = self._fanout
        if not (self._fanout_valid and new_net in fanout):
            self._fanout_valid = False
        elif old_net != new_net:
            fanout[old_net] = [g for g in fanout[old_net] if g != gate_name]
            if self._ranks is None:
                self._ranks = {name: rank for rank, name in enumerate(self._gates)}
            for _ in range(moved):
                insort(fanout[new_net], gate_name, key=self._ranks.__getitem__)
        self._invalidate()

    def remove_gate(self, name: str) -> None:
        """Remove a gate; the caller is responsible for rewiring its fanout."""
        if name not in self._gates:
            raise CircuitError(f"no such gate: {name!r}")
        gate = self._gates.pop(name)
        self._ranks = None
        if gate.is_primary_input:
            self._primary_inputs.remove(name)
        self._primary_outputs = [po for po in self._primary_outputs if po != name]
        fanout = self._fanout
        if self._fanout_valid and not fanout[name]:
            del fanout[name]
            for net in set(gate.inputs):
                fanout[net] = [g for g in fanout[net] if g != name]
        else:
            self._fanout_valid = False
        self._invalidate()

    def _invalidate(self) -> None:
        """Drop the levelisation and the digest; each edit keeps the fanout
        map itself."""
        self._order_valid = False
        self._digest = None

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_ranks": None}

    def __setstate__(self, state: dict) -> None:
        # A pickle from before the split cache flags carries one
        # ``_cache_valid`` flag instead: rebuild everything lazily.
        state.pop("_cache_valid", None)
        self.__dict__.update(
            {
                "_fanout_valid": False,
                "_order_valid": False,
                "_ranks": None,
                "_digest": None,
                **state,
            }
        )

    @property
    def digest(self) -> str:
        """sha256 (hex) of the circuit's content: the one key under which
        compiled artifacts of "the same circuit" are cached.

        It covers the name, the primary-input and primary-output orders and
        every gate in insertion order (name, type, inputs, clock domain and
        sorted attributes) -- everything a compiled kernel's net IDs and
        schedule derive from.  Two independently built identical circuits,
        and a pickled copy, share it; any mutation resets it.  It is built
        from ``repr`` of strings and enum names only, so it does not depend
        on ``PYTHONHASHSEED``.
        """
        if self._digest is None:
            content = [self.name, self._primary_inputs, self._primary_outputs]
            for gate in self._gates.values():
                content.append(
                    (
                        gate.name,
                        gate.gate_type.name,
                        gate.inputs,
                        gate.clock_domain,
                        sorted(gate.attributes.items()),
                    )
                )
            self._digest = hashlib.sha256(repr(content).encode()).hexdigest()
        return self._digest

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def primary_inputs(self) -> list[str]:
        """Names of primary-input nets, in declaration order."""
        return list(self._primary_inputs)

    @property
    def primary_outputs(self) -> list[str]:
        """Names of primary-output nets, in declaration order."""
        return list(self._primary_outputs)

    @property
    def gates(self) -> dict[str, Gate]:
        """Mapping gate/net name -> :class:`Gate` (live view, do not mutate keys)."""
        return self._gates

    def gate(self, name: str) -> Gate:
        """Return the gate driving net ``name``."""
        try:
            return self._gates[name]
        except KeyError as exc:
            raise CircuitError(f"no such gate/net: {name!r}") from exc

    def __contains__(self, name: str) -> bool:
        return name in self._gates

    def __len__(self) -> int:
        return len(self._gates)

    def flops(self) -> list[Gate]:
        """All DFF gates, in insertion order."""
        return [g for g in self._gates.values() if g.is_flop]

    def flop_names(self) -> list[str]:
        """Names of all DFF gates, in insertion order."""
        return [g.name for g in self._gates.values() if g.is_flop]

    def combinational_gates(self) -> list[Gate]:
        """All gates that are neither DFFs nor primary inputs."""
        return [
            g
            for g in self._gates.values()
            if not g.is_flop and not g.is_primary_input
        ]

    def clock_domains(self) -> list[str]:
        """Sorted list of distinct clock-domain names used by the flops."""
        return sorted({g.clock_domain for g in self.flops() if g.clock_domain})

    # ------------------------------------------------------------------ #
    # Derived structure: fanout, levelisation, topological order
    # ------------------------------------------------------------------ #
    def _rebuild_caches(self) -> None:
        """Rebuild every derived structure from scratch."""
        self._rebuild_fanout()
        self._rebuild_order()

    def _rebuild_fanout(self) -> None:
        fanout: dict[str, list[str]] = {name: [] for name in self._gates}
        for gate in self._gates.values():
            for net in gate.inputs:
                if net not in fanout:
                    raise CircuitError(
                        f"gate {gate.name!r} references undriven net {net!r}"
                    )
                fanout[net].append(gate.name)
        self._fanout = fanout
        self._fanout_valid = True

    def _rebuild_order(self) -> None:
        # Levelise the combinational view: PIs, constants and DFF outputs are
        # level 0; every other gate is 1 + max(level of inputs).  DFF *data*
        # pins terminate paths (pseudo primary outputs), so DFF gates take the
        # level of their data input for reporting purposes but never feed the
        # level computation of downstream gates through the sequential arc.
        levels: dict[str, int] = {}
        order: list[str] = []

        # Iterative DFS to avoid recursion-depth issues on deep circuits.
        for name in self._gates:
            if name not in levels:
                self._visit_iterative(name, levels, order)

        self._levels = levels
        self._topo_order = order
        self._order_valid = True

    def _visit_iterative(
        self, root: str, levels: dict[str, int], order: list[str]
    ) -> None:
        """Iterative post-order DFS used by :meth:`_rebuild_caches`."""
        stack: list[tuple[str, bool]] = [(root, False)]
        on_path: set[str] = set()
        while stack:
            name, processed = stack.pop()
            if processed:
                gate = self._gates[name]
                on_path.discard(name)
                if gate.is_primary_input or gate.gate_type.is_source or gate.is_flop:
                    level = 0
                else:
                    level = 0
                    for net in gate.inputs:
                        level = max(level, levels[net] + 1)
                if name not in levels:
                    levels[name] = level
                    order.append(name)
                continue
            if name in levels:
                continue
            gate = self._gates.get(name)
            if gate is None:
                raise CircuitError(f"reference to undriven net {name!r}")
            if gate.is_primary_input or gate.gate_type.is_source or gate.is_flop:
                if name not in levels:
                    levels[name] = 0
                    order.append(name)
                continue
            if name in on_path:
                raise CircuitError(f"combinational loop detected through {name!r}")
            on_path.add(name)
            stack.append((name, True))
            for net in gate.inputs:
                if net not in levels:
                    stack.append((net, False))

    def _ensure_fanout(self) -> None:
        if not self._fanout_valid:
            self._rebuild_fanout()

    def _ensure_caches(self) -> None:
        self._ensure_fanout()
        if not self._order_valid:
            self._rebuild_order()

    def fanout(self, net: str) -> list[str]:
        """Gates whose input list contains ``net``."""
        self._ensure_fanout()
        return list(self._fanout.get(net, []))

    def fanout_map(self) -> dict[str, list[str]]:
        """Full net -> fanout-gates map (cached; treat as read-only)."""
        self._ensure_fanout()
        return self._fanout

    def level(self, net: str) -> int:
        """Combinational level of ``net`` (0 for PIs, constants and DFF outputs)."""
        self._ensure_caches()
        return self._levels[net]

    def levels(self) -> dict[str, int]:
        """Full net -> level map (cached; treat as read-only)."""
        self._ensure_caches()
        return self._levels

    def topological_order(self) -> list[str]:
        """All net names in a valid combinational evaluation order."""
        self._ensure_caches()
        return list(self._topo_order)

    def max_level(self) -> int:
        """Deepest combinational level in the circuit (0 for purely sequential)."""
        self._ensure_caches()
        return max(self._levels.values(), default=0)

    # ------------------------------------------------------------------ #
    # Cones and observability structure
    # ------------------------------------------------------------------ #
    def observation_nets(self) -> list[str]:
        """Nets where responses are observed in the full-scan view.

        These are the primary outputs plus the data inputs of every flop
        (pseudo primary outputs).  Duplicates are removed while preserving
        order.
        """
        seen: set[str] = set()
        result: list[str] = []
        for net in self._primary_outputs:
            if net not in seen:
                seen.add(net)
                result.append(net)
        for flop in self.flops():
            for net in flop.inputs:
                if net not in seen:
                    seen.add(net)
                    result.append(net)
        return result

    def stimulus_nets(self) -> list[str]:
        """Nets that can be directly controlled in the full-scan view.

        Primary inputs plus flop outputs (pseudo primary inputs).
        """
        return self.primary_inputs + self.flop_names()

    def fanout_cone(self, net: str) -> set[str]:
        """Transitive combinational fanout of ``net`` (excluding crossing flops).

        The returned set includes ``net`` itself.  Propagation stops at flop
        *data pins*: a flop in the fanout is included (because a fault effect
        reaching its D pin is observable there in scan mode) but not expanded
        through its Q output.
        """
        self._ensure_fanout()
        cone: set[str] = {net}
        frontier = [net]
        while frontier:
            current = frontier.pop()
            for successor in self._fanout.get(current, ()):
                if successor in cone:
                    continue
                cone.add(successor)
                if not self._gates[successor].is_flop:
                    frontier.append(successor)
        return cone

    def fanin_cone(self, net: str) -> set[str]:
        """Transitive combinational fanin of ``net`` (stopping at PIs and flop outputs)."""
        cone: set[str] = {net}
        frontier = [net]
        while frontier:
            current = frontier.pop()
            gate = self._gates[current]
            if gate.is_flop or gate.is_primary_input or gate.gate_type.is_source:
                continue
            for predecessor in gate.inputs:
                if predecessor not in cone:
                    cone.add(predecessor)
                    frontier.append(predecessor)
        return cone

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #
    def gate_count(self) -> int:
        """Number of combinational gates (PIs and flops excluded)."""
        return len(self.combinational_gates())

    def flop_count(self) -> int:
        """Number of flip-flops."""
        return len(self.flops())

    def area(self, library: Optional[CellLibrary] = None) -> float:
        """Total area in gate equivalents according to ``library``."""
        library = library or CellLibrary()
        total = 0.0
        for gate in self._gates.values():
            total += library.area(gate.gate_type, len(gate.inputs))
        return total

    def statistics(self) -> dict[str, object]:
        """Summary statistics used by reports and examples."""
        type_histogram: dict[str, int] = {}
        for gate in self._gates.values():
            type_histogram[gate.gate_type.name] = (
                type_histogram.get(gate.gate_type.name, 0) + 1
            )
        return {
            "name": self.name,
            "primary_inputs": len(self._primary_inputs),
            "primary_outputs": len(self._primary_outputs),
            "gates": self.gate_count(),
            "flops": self.flop_count(),
            "clock_domains": len(self.clock_domains()),
            "max_level": self.max_level(),
            "gate_types": type_histogram,
        }

    # ------------------------------------------------------------------ #
    # Copying / iteration
    # ------------------------------------------------------------------ #
    def copy(self, name: Optional[str] = None) -> "Circuit":
        """Structural deep copy of the circuit."""
        clone = Circuit(name or self.name)
        for pi in self._primary_inputs:
            clone.add_input(pi)
        for gate in self._gates.values():
            if gate.is_primary_input:
                continue
            clone._insert(gate.copy())
        for po in self._primary_outputs:
            clone._primary_outputs.append(po)
        clone._invalidate()
        return clone

    def __iter__(self) -> Iterator[Gate]:
        return iter(self._gates.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Circuit({self.name!r}, PI={len(self._primary_inputs)}, "
            f"PO={len(self._primary_outputs)}, gates={self.gate_count()}, "
            f"flops={self.flop_count()})"
        )
