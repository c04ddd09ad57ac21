"""Cycle-accurate sequential simulation with per-domain clock pulses.

The at-speed double-capture scheme (paper Fig. 2) pulses each clock domain's
test clock independently inside the capture window.  To verify that behaviour
(and to run small scan-mode examples end to end) this module provides a
scalar, cycle-accurate sequential simulator:

* flip-flop state is an explicit ``{flop_name: 0/1}`` dict,
* :meth:`SequentialSimulator.step` evaluates the combinational logic from the
  current state + primary inputs, then updates only the flops whose clock
  domain is pulsed in that step,
* :meth:`SequentialSimulator.scan_shift` shifts serial data through scan
  chains (ordered flop lists) the way the shift window does,
* :meth:`SequentialSimulator.capture_window` applies an ordered sequence of
  clock pulses — exactly the abstraction the double-capture scheduler emits.

For bulk work (thousands of random patterns) the BIST engine bypasses this
class and runs the pattern-parallel compiled kernel
(:class:`~repro.simulation.kernel.CompiledKernel`) directly; this simulator is
the reference model the fast path is tested against.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence

from ..netlist.circuit import Circuit
from ..netlist.gates import evaluate_packed


class SequentialSimulator:
    """Scalar cycle-accurate simulator over a :class:`Circuit`."""

    def __init__(
        self, circuit: Circuit, initial_state: Optional[Mapping[str, int]] = None
    ) -> None:
        self.circuit = circuit
        self._flops = circuit.flop_names()
        self._flop_domain = {name: circuit.gate(name).clock_domain for name in self._flops}
        self._schedule = [
            (name, circuit.gate(name).gate_type, tuple(circuit.gate(name).inputs))
            for name in circuit.topological_order()
            if not circuit.gate(name).is_primary_input and not circuit.gate(name).is_flop
        ]
        self.state: dict[str, int] = {name: 0 for name in self._flops}
        if initial_state:
            self.load_state(initial_state)

    # ------------------------------------------------------------------ #
    # State management
    # ------------------------------------------------------------------ #
    def reset(self, value: int = 0) -> None:
        """Force every flop to ``value``."""
        if value not in (0, 1):
            raise ValueError("reset value must be 0 or 1")
        for name in self.state:
            self.state[name] = value

    def load_state(self, values: Mapping[str, int]) -> None:
        """Overwrite a subset of the flop state (e.g. a parallel scan load)."""
        for name, value in values.items():
            if name not in self.state:
                raise KeyError(f"{name!r} is not a flop in this circuit")
            if value not in (0, 1):
                raise ValueError(f"flop {name!r}: value must be 0 or 1")
            self.state[name] = value

    # ------------------------------------------------------------------ #
    # Combinational evaluation
    # ------------------------------------------------------------------ #
    def evaluate(self, pi_values: Optional[Mapping[str, int]] = None) -> dict[str, int]:
        """Evaluate the combinational logic for the current state.

        Returns the value of every net.  Missing primary inputs default to 0.
        """
        pi_values = pi_values or {}
        values: dict[str, int] = {}
        for pi in self.circuit.primary_inputs:
            values[pi] = int(pi_values.get(pi, 0)) & 1
        values.update(self.state)
        for name, gate_type, inputs in self._schedule:
            values[name] = evaluate_packed(gate_type, [values[n] for n in inputs], 1)
        return values

    def outputs(self, pi_values: Optional[Mapping[str, int]] = None) -> dict[str, int]:
        """Primary-output values for the current state and inputs."""
        values = self.evaluate(pi_values)
        return {po: values[po] for po in self.circuit.primary_outputs}

    # ------------------------------------------------------------------ #
    # Clocked operation
    # ------------------------------------------------------------------ #
    def step(
        self,
        pi_values: Optional[Mapping[str, int]] = None,
        pulse_domains: Optional[Iterable[str]] = None,
    ) -> dict[str, int]:
        """One clock event: evaluate, then update the pulsed domains' flops.

        Parameters
        ----------
        pi_values:
            Primary-input values held during the cycle.
        pulse_domains:
            Clock domains receiving a pulse.  ``None`` pulses every domain
            (the classical single-clock view).

        Returns
        -------
        dict
            The pre-clock combinational values of every net (i.e. what the
            flops sampled).
        """
        values = self.evaluate(pi_values)
        domains = set(pulse_domains) if pulse_domains is not None else None
        for flop in self._flops:
            if domains is not None and self._flop_domain[flop] not in domains:
                continue
            data_net = self.circuit.gate(flop).inputs[0]
            self.state[flop] = values[data_net]
        return values

    def capture_window(
        self,
        pi_values: Optional[Mapping[str, int]],
        pulse_sequence: Sequence[Iterable[str]],
    ) -> list[dict[str, int]]:
        """Apply an ordered sequence of clock pulses (one step per entry).

        ``pulse_sequence`` is a list of domain collections, e.g. the
        double-capture scheduler's ``[{"clk1"}, {"clk1"}, {"clk2"}, {"clk2"}]``.
        Returns the list of pre-clock value maps, one per pulse.
        """
        return [self.step(pi_values, domains) for domains in pulse_sequence]

    # ------------------------------------------------------------------ #
    # Scan operation
    # ------------------------------------------------------------------ #
    def scan_shift(
        self,
        chains: Mapping[str, Sequence[str]],
        scan_in_bits: Mapping[str, int],
        pi_values: Optional[Mapping[str, int]] = None,
    ) -> dict[str, int]:
        """One shift-clock cycle through every scan chain simultaneously.

        Parameters
        ----------
        chains:
            Mapping chain name -> ordered flop list (scan-in first).
        scan_in_bits:
            Bit presented at each chain's scan-in pin this cycle.
        pi_values:
            Primary-input values held during shifting (normally irrelevant).

        Returns
        -------
        dict
            Mapping chain name -> bit that fell off the chain's scan-out.
        """
        del pi_values  # Shift mode bypasses the functional D path entirely.
        scan_out: dict[str, int] = {}
        for chain_name, flops in chains.items():
            if not flops:
                scan_out[chain_name] = 0
                continue
            scan_out[chain_name] = self.state[flops[-1]]
            for position in range(len(flops) - 1, 0, -1):
                self.state[flops[position]] = self.state[flops[position - 1]]
            in_bit = int(scan_in_bits.get(chain_name, 0)) & 1
            self.state[flops[0]] = in_bit
        return scan_out

    def scan_load(
        self, chains: Mapping[str, Sequence[str]], chain_values: Mapping[str, Sequence[int]]
    ) -> None:
        """Parallel-load full chain contents (shortcut for a whole shift window).

        ``chain_values[chain][i]`` is the value the *i*-th flop of the chain
        holds after the shift window, i.e. the same result as shifting the
        reversed sequence in serially.
        """
        for chain_name, flops in chains.items():
            values = chain_values.get(chain_name)
            if values is None:
                continue
            if len(values) != len(flops):
                raise ValueError(
                    f"chain {chain_name!r}: got {len(values)} values for {len(flops)} flops"
                )
            for flop, value in zip(flops, values):
                self.state[flop] = int(value) & 1

    def scan_unload(
        self, chains: Mapping[str, Sequence[str]]
    ) -> dict[str, list[int]]:
        """Read out full chain contents without disturbing the state."""
        return {
            chain_name: [self.state[flop] for flop in flops]
            for chain_name, flops in chains.items()
        }
