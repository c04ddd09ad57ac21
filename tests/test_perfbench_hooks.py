"""``perfbench/tracer.py`` wraps ``repro`` entry points by name and counts
the skew sweep by stage class, from outside the program.  A rename or
deletion of anything it wraps would silently zero a per-layer metric, so
these tests install the tracer, run a tiny flow that exercises every
wrapped layer and a two-worker service job that exercises the pooled
scheduler, and check that each one reported.
"""

import asyncio
import importlib.util
import sys
from pathlib import Path

import pytest

from repro.campaign import CampaignScenario
from repro.core import LogicBistConfig, LogicBistFlow
from repro.cores import tiny_recipe
from repro.service import CampaignService

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up while the class is built.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_fire_on_a_flow(monkeypatch):
    module = load_tracer(monkeypatch)
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


@pytest.mark.service
@pytest.mark.multiprocess
def test_tracer_hooks_fire_on_a_pooled_service_job(monkeypatch):
    """The benchmark's scheduler layer reads the pooled scheduler's ``run``
    span, its ``num_workers`` and the pickled bytes sent to workers."""
    module = load_tracer(monkeypatch)
    tracer = module.Tracer()
    config = LogicBistConfig(random_patterns=64, signature_patterns=8)
    scenarios = [CampaignScenario("tiny", tiny_recipe().build().circuit, config)]

    async def job():
        service = CampaignService(num_workers=2)
        await service.start()
        try:
            job_id = await service.submit(scenarios)
            return await asyncio.wait_for(service.wait(job_id), 120)
        finally:
            await service.stop()

    module.install(tracer)
    try:
        record = asyncio.run(job())
    finally:
        tracer.restore()
    assert record.state == "finished"
    [(index, run, workers)] = tracer.schedules
    assert tracer.spans[index].name == "scheduler.run"
    assert workers == 2 and run.trace
    assert tracer.counters["scheduler.ipc_bytes"] > 0
