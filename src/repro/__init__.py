"""Reproduction of "At-Speed Logic BIST for IP Cores" (Cheon et al., DATE 2005).

The package is organised as one subpackage per subsystem (the synthetic
cores that stand in for the paper's are explained in
:mod:`repro.cores.recipes`):

* :mod:`repro.netlist` -- gate-level netlist substrate,
* :mod:`repro.simulation` -- logic / timing simulation,
* :mod:`repro.faults` -- fault models and fault simulation,
* :mod:`repro.atpg` -- deterministic test generation (top-up patterns),
* :mod:`repro.testability` -- SCOAP testability analysis,
* :mod:`repro.tpi` -- test point insertion,
* :mod:`repro.scan` -- scan insertion, X-blocking, chain architecture,
* :mod:`repro.bist` -- PRPG, phase shifter, MISR, STUMPS, controller,
* :mod:`repro.timing` -- clock domains, clock gating, double-capture at-speed timing,
* :mod:`repro.core` -- the end-to-end logic BIST flow and reporting,
* :mod:`repro.cores` -- synthetic CPU-like IP cores and benchmark circuits,
* :mod:`repro.campaign` -- sharded multi-process fault-simulation campaigns
  over many (core, config) scenarios, bit-identical to the serial kernel,
* :mod:`repro.service` -- the campaign service: job queue, checkpoints and
  resume, event streams,
* :mod:`repro.oracle` -- the reference models the production engines are
  tested against (no other subpackage imports them).

The most common entry point is :class:`repro.core.LogicBistFlow`.
"""

__version__ = "1.0.0"
