"""Scan-chain architecture: per-clock-domain partitioning and balancing.

Table 1 reports "# of Scan Chains" (100 / 106) and "Max. Chain Length"
(104 / 345): the chains are many and short because BIST shift time is
proportional to the longest chain.  Two architectural rules from the paper
shape the construction here:

* chains never mix clock domains -- each chain is shifted by one test clock,
  and each domain has its own PRPG/MISR pair (Fig. 1), so a chain crossing
  domains would re-introduce exactly the skew problem the scheme avoids;
* within a domain, chains are balanced to minimise the maximum length.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from ..netlist.circuit import Circuit


@dataclass
class ScanChain:
    """One scan chain: an ordered list of scan-cell (flop) names."""

    name: str
    clock_domain: str
    cells: list[str] = field(default_factory=list)

    @property
    def length(self) -> int:
        """Number of cells in the chain."""
        return len(self.cells)


@dataclass
class ScanChainArchitecture:
    """The full set of chains for a BIST-ready core."""

    chains: list[ScanChain] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def chain_count(self) -> int:
        """Total number of chains."""
        return len(self.chains)

    @property
    def max_chain_length(self) -> int:
        """Length of the longest chain (the shift-window length in cycles)."""
        return max((chain.length for chain in self.chains), default=0)

    @property
    def total_cells(self) -> int:
        """Total number of scan cells across all chains."""
        return sum(chain.length for chain in self.chains)

    def chains_in_domain(self, domain: str) -> list[ScanChain]:
        """Chains belonging to ``domain``."""
        return [chain for chain in self.chains if chain.clock_domain == domain]

    def domains(self) -> list[str]:
        """Sorted distinct clock domains present in the architecture."""
        return sorted({chain.clock_domain for chain in self.chains})

    def chain_of_cell(self) -> dict[str, tuple[str, int]]:
        """Mapping scan-cell name -> (chain name, position)."""
        mapping: dict[str, tuple[str, int]] = {}
        for chain in self.chains:
            for position, cell in enumerate(chain.cells):
                mapping[cell] = (chain.name, position)
        return mapping

    def as_mapping(self) -> dict[str, list[str]]:
        """Mapping chain name -> ordered cell list (the sequential simulator's format)."""
        return {chain.name: list(chain.cells) for chain in self.chains}

    def statistics(self) -> dict[str, object]:
        """Summary used by reports (Table 1 rows)."""
        per_domain = {
            domain: {
                "chains": len(self.chains_in_domain(domain)),
                "cells": sum(c.length for c in self.chains_in_domain(domain)),
                "max_length": max((c.length for c in self.chains_in_domain(domain)), default=0),
            }
            for domain in self.domains()
        }
        return {
            "chains": self.chain_count,
            "max_chain_length": self.max_chain_length,
            "total_cells": self.total_cells,
            "per_domain": per_domain,
        }


def build_scan_chains(
    circuit: Circuit,
    max_chain_length: Optional[int] = None,
    chains_per_domain: Optional[Mapping[str, int]] = None,
    total_chains: Optional[int] = None,
) -> ScanChainArchitecture:
    """Partition every flop of ``circuit`` into balanced per-domain scan chains.

    Exactly one of the sizing arguments should be given:

    * ``max_chain_length`` -- per domain, use ``ceil(cells / max_chain_length)``
      chains (this mirrors how the shift-window budget drives chain counts),
    * ``chains_per_domain`` -- explicit chain count per domain,
    * ``total_chains`` -- distribute a global chain budget over the domains in
      proportion to their cell counts (at least one chain per domain).

    When none is given, one chain per clock domain is built.

    Cells are assigned to chains of their own domain round-robin after sorting
    by name, which balances lengths to within one cell and is deterministic.
    """
    given = [arg is not None for arg in (max_chain_length, chains_per_domain, total_chains)]
    if sum(given) > 1:
        raise ValueError("give at most one of max_chain_length, chains_per_domain, total_chains")

    cells_by_domain: dict[str, list[str]] = {}
    for flop in circuit.flops():
        if flop.clock_domain:
            cells_by_domain.setdefault(flop.clock_domain, []).append(flop.name)
    for cells in cells_by_domain.values():
        cells.sort()
    domains = sorted(cells_by_domain)

    counts: dict[str, int] = {}
    if chains_per_domain is not None:
        for domain in domains:
            counts[domain] = max(1, int(chains_per_domain.get(domain, 1)))
    elif max_chain_length is not None:
        if max_chain_length <= 0:
            raise ValueError("max_chain_length must be positive")
        for domain in domains:
            cells = len(cells_by_domain[domain])
            counts[domain] = max(1, -(-cells // max_chain_length))
    elif total_chains is not None:
        if total_chains < len(domains):
            raise ValueError("total_chains must be at least the number of clock domains")
        total_cells = sum(len(cells) for cells in cells_by_domain.values()) or 1
        remaining = total_chains
        for index, domain in enumerate(domains):
            if index == len(domains) - 1:
                counts[domain] = remaining
            else:
                share = max(1, round(total_chains * len(cells_by_domain[domain]) / total_cells))
                share = min(share, remaining - (len(domains) - index - 1))
                counts[domain] = share
                remaining -= share
    else:
        for domain in domains:
            counts[domain] = 1

    architecture = ScanChainArchitecture()
    for domain in domains:
        cells = cells_by_domain[domain]
        chain_count = min(counts[domain], max(1, len(cells))) if cells else 0
        chains = [
            ScanChain(name=f"{domain}_chain{i}", clock_domain=domain)
            for i in range(chain_count)
        ]
        for index, cell in enumerate(cells):
            chains[index % chain_count].cells.append(cell)
        architecture.chains.extend(chains)
    return architecture


def verify_chain_architecture(
    circuit: Circuit, architecture: ScanChainArchitecture
) -> list[str]:
    """Structural checks on a chain architecture; returns a list of problems.

    Verified properties: every flop appears in exactly one chain, every chain
    cell exists and is a flop, and no chain mixes clock domains.
    """
    problems: list[str] = []
    seen: dict[str, str] = {}
    for chain in architecture.chains:
        for cell in chain.cells:
            if cell in seen:
                problems.append(f"cell {cell!r} appears in {seen[cell]!r} and {chain.name!r}")
            seen[cell] = chain.name
            if cell not in circuit.gates:
                problems.append(f"chain {chain.name!r} references unknown cell {cell!r}")
                continue
            gate = circuit.gate(cell)
            if not gate.is_flop:
                problems.append(f"chain {chain.name!r} cell {cell!r} is not a flop")
            elif (gate.clock_domain or "clk") != chain.clock_domain:
                problems.append(
                    f"chain {chain.name!r} ({chain.clock_domain}) contains cell "
                    f"{cell!r} from domain {gate.clock_domain!r}"
                )
    missing = set(circuit.flop_names()) - set(seen)
    for cell in sorted(missing):
        problems.append(f"flop {cell!r} is not part of any scan chain")
    return problems
