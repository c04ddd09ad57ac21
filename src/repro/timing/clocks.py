"""Clock-domain and clock-skew modelling.

The paper's at-speed scheme is defined entirely in terms of *relative* clock
edge placement: capture pulses one functional period apart, inter-domain gaps
larger than the worst inter-domain skew, PRPG/MISR clocks phase-advanced with
respect to the scan-chain clock.  This module provides the parametric model of
those quantities:

* :class:`ClockDomainSpec` -- name, functional frequency, and skew bounds of
  one clock domain (Table 1 reports 250 MHz for Core X and 330 MHz for Core Y),
* :class:`ClockTreeModel` -- per-sink insertion-delay sampling (deterministic,
  seeded) plus inter-domain skew bounds, standing in for the physical clock
  tree a real flow would extract.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Mapping, Optional


@dataclass(frozen=True)
class ClockDomainSpec:
    """Static description of one functional clock domain."""

    name: str
    frequency_mhz: float
    #: Worst-case skew between any two sinks inside this domain (ns).
    intra_domain_skew_ns: float = 0.05
    #: Nominal insertion delay of this domain's clock tree (ns).
    insertion_delay_ns: float = 1.0

    def __post_init__(self) -> None:
        if self.frequency_mhz <= 0:
            raise ValueError("frequency must be positive")
        if self.intra_domain_skew_ns < 0 or self.insertion_delay_ns < 0:
            raise ValueError("skew and insertion delay cannot be negative")

    @property
    def period_ns(self) -> float:
        """Functional clock period in nanoseconds."""
        return 1000.0 / self.frequency_mhz


@dataclass
class ClockTreeModel:
    """Parametric clock-tree model: per-sink arrival jitter and cross-domain skew.

    Real designs get these numbers from clock-tree synthesis reports; the model
    samples per-sink insertion delays uniformly inside
    ``insertion_delay_ns ± intra_domain_skew_ns/2`` with a seeded RNG so every
    experiment is reproducible.
    """

    domains: dict[str, ClockDomainSpec] = field(default_factory=dict)
    seed: int = 2005

    def add_domain(self, spec: ClockDomainSpec) -> None:
        """Register a clock domain."""
        self.domains[spec.name] = spec

    def domain(self, name: str) -> ClockDomainSpec:
        """Lookup a registered domain."""
        try:
            return self.domains[name]
        except KeyError as exc:
            raise KeyError(f"unknown clock domain {name!r}") from exc

    def domain_names(self) -> list[str]:
        """Registered domain names, sorted."""
        return sorted(self.domains)

    # ------------------------------------------------------------------ #
    # Skew queries
    # ------------------------------------------------------------------ #
    def max_skew_between(self, domain_a: str, domain_b: str) -> float:
        """Worst-case clock skew between sinks of two domains (ns).

        For different domains this is the difference of nominal insertion
        delays plus both intra-domain spreads (the pessimistic bound a
        physical-design team would sign off against); inside one domain it is
        the intra-domain skew.
        """
        spec_a = self.domain(domain_a)
        spec_b = self.domain(domain_b)
        if domain_a == domain_b:
            return spec_a.intra_domain_skew_ns
        return (
            abs(spec_a.insertion_delay_ns - spec_b.insertion_delay_ns)
            + spec_a.intra_domain_skew_ns / 2
            + spec_b.intra_domain_skew_ns / 2
        )

    def max_skew_overall(self) -> float:
        """Worst-case skew across any pair of registered domains."""
        names = self.domain_names()
        worst = 0.0
        for i, a in enumerate(names):
            for b in names[i:]:
                worst = max(worst, self.max_skew_between(a, b))
        return worst

    # ------------------------------------------------------------------ #
    # Monte-Carlo sink sampling
    # ------------------------------------------------------------------ #
    def sample_sink_arrivals(
        self, domain: str, num_sinks: int, trial: int = 0
    ) -> list[float]:
        """Sample per-sink clock arrival times (ns) for one domain.

        The arrival of sink *i* is the domain's nominal insertion delay plus a
        uniform jitter within ±half the intra-domain skew.  ``trial`` feeds the
        RNG so Monte-Carlo sweeps are reproducible trial by trial.
        """
        spec = self.domain(domain)
        rng = random.Random(f"{self.seed}:{domain}:{trial}")
        half = spec.intra_domain_skew_ns / 2
        return [
            spec.insertion_delay_ns + rng.uniform(-half, half) for _ in range(num_sinks)
        ]


def make_clock_tree(
    frequencies_mhz: Mapping[str, float],
    intra_domain_skew_ns: float = 0.05,
    insertion_delays_ns: Optional[Mapping[str, float]] = None,
    seed: int = 2005,
) -> ClockTreeModel:
    """Convenience constructor for a clock tree from a name->frequency mapping."""
    model = ClockTreeModel(seed=seed)
    for index, (name, frequency) in enumerate(sorted(frequencies_mhz.items())):
        insertion = (
            insertion_delays_ns.get(name, 1.0 + 0.1 * index)
            if insertion_delays_ns is not None
            else 1.0 + 0.1 * index
        )
        model.add_domain(
            ClockDomainSpec(
                name=name,
                frequency_mhz=frequency,
                intra_domain_skew_ns=intra_domain_skew_ns,
                insertion_delay_ns=insertion,
            )
        )
    return model
