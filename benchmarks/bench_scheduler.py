"""Benchmark: the scheduler's own cost, on no-op stage graphs.

An SoC campaign tests hundreds of wrapped cores, each a subgraph of stage
nodes, so the completion loop must stay linear in graph size whatever order
the nodes were inserted in.  Every stage here does no work, so the timed
wall is pure scheduling: readiness tracking, the ready queue, the trace and
the observer calls.  The cases:

* **chain** -- ``N`` nodes, each depending on the previous one, on the
  :class:`~repro.campaign.scheduler.SerialScheduler`, inserted in forward,
  reverse and shuffled order.  Reverse order is the worst case of a loop
  that rescans pending nodes: the one ready node is always the last one
  scanned;
* **degrade fan-out** -- ``N`` nodes depending on one root that fails
  permanently under ``degrade=True``: the cost of the poison sweep;
* **pooled local chain** -- the forward chain as local nodes on a
  :class:`~repro.campaign.scheduler.PooledScheduler` with 2 workers: the
  pooled loop without any IPC (the time includes starting and stopping the
  two workers).

Each case records the median, minimum and maximum of ``REPEATS`` runs.
The numbers are recorded only, not gated.

Run as a script (writes ``BENCH_scheduler.json``):

    PYTHONPATH=src python benchmarks/bench_scheduler.py
"""

from __future__ import annotations

import random
import statistics
import time

from repro.campaign import PooledScheduler, SerialScheduler, StageNode

from conftest import print_rows, scaled, write_bench_json

#: Nodes per graph.
NODES = scaled(10_000, 500)
REPEATS = scaled(5, 1)
SEED = 16


class NoOp:
    def run(self, *inputs):
        return None


class Fail:
    def run(self, *inputs):
        raise RuntimeError("root fails")


def chain(order: str, local: bool = False) -> list[StageNode]:
    nodes = [
        StageNode(
            key=f"n{i}",
            task=NoOp(),
            deps=(f"n{i - 1}",) if i else (),
            local=local,
        )
        for i in range(NODES)
    ]
    if order == "reverse":
        nodes.reverse()
    elif order == "shuffled":
        random.Random(SEED).shuffle(nodes)
    return nodes


def fan_out() -> list[StageNode]:
    root = StageNode(key="root", task=Fail(), local=True)
    return [root] + [
        StageNode(key=f"leaf{i}", task=NoOp(), deps=("root",)) for i in range(NODES)
    ]


def timed(make_scheduler, make_nodes) -> dict[str, float]:
    seconds = []
    for _ in range(REPEATS):
        nodes = make_nodes()
        scheduler = make_scheduler()
        start = time.perf_counter()
        scheduler.run(nodes)
        seconds.append(time.perf_counter() - start)
    return {
        "median_s": round(statistics.median(seconds), 4),
        "min_s": round(min(seconds), 4),
        "max_s": round(max(seconds), 4),
    }


def run() -> dict:
    cases = {
        "serial_chain_forward": (SerialScheduler, lambda: chain("forward")),
        "serial_chain_reverse": (SerialScheduler, lambda: chain("reverse")),
        "serial_chain_shuffled": (SerialScheduler, lambda: chain("shuffled")),
        "serial_degrade_fanout": (
            lambda: SerialScheduler(degrade=True),
            fan_out,
        ),
        "pooled2_local_chain_forward": (
            lambda: PooledScheduler(2),
            lambda: chain("forward", local=True),
        ),
    }
    rows = [
        {"case": name, "nodes": NODES, **timed(make_scheduler, make_nodes)}
        for name, (make_scheduler, make_nodes) in cases.items()
    ]
    payload = {
        "nodes": NODES,
        "repeats": REPEATS,
        "shuffle_seed": SEED,
        "cases": rows,
        "note": (
            "no-op stages: the wall is scheduling cost only; the pooled case "
            "includes starting and stopping its 2 workers"
        ),
    }
    path = write_bench_json("scheduler", payload)
    print_rows(f"Scheduler cost on {NODES}-node no-op graphs -> {path.name}", rows)
    return payload


def test_scheduler_cost_recorded():
    payload = run()
    assert len(payload["cases"]) == 5


if __name__ == "__main__":
    run()
