"""``perfbench/tracer.py`` wraps ``repro`` entry points by name and counts
the skew sweep by stage class, from outside the program.  A rename or
deletion of anything it wraps would silently zero a per-layer metric, so
this test installs the tracer, runs a tiny flow that exercises every
wrapped layer, and checks that each one reported.
"""

import importlib.util
import sys
from pathlib import Path

from repro.core import LogicBistConfig, LogicBistFlow
from repro.cores import tiny_recipe

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_tracer_hooks_fire_on_a_flow(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up while the class is built.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    config = LogicBistConfig(
        random_patterns=64,
        signature_patterns=8,
        measure_transition_coverage=True,
        transition_patterns=32,
        skew_trials=20,
    )
    circuit = tiny_recipe().build().circuit
    module.install(tracer)
    try:
        result = LogicBistFlow(config).run(circuit)
    finally:
        tracer.restore()
    assert result.topup.attempted_faults > 0
    assert tracer.total("kernel.scan") > 0
    assert tracer.total("bist.misr") > 0
    assert tracer.total("atpg.podem") > 0
    assert tracer.counters["timing.skew_trials_s"] > 0
