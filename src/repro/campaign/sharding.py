"""Deterministic shard planning for fault-simulation campaigns.

A campaign splits one scenario's fault list into **fault shards**: faults
are grouped by their resolved fault site (:func:`fault_site_keys`) and the
groups are dealt *round-robin* (:func:`keyed_round_robin_shards`).
Round-robin interleaving balances the work because hard (long-lived)
faults are scattered through the collapsed ordering, and keeping a site's
faults together compiles each site's cone plan in one worker only.  Every
shard scans the whole pattern session, so its first-detection index for a
fault is the serial one and a min-merge across shards reproduces the
serial result exactly.

The partition is a pure function of its inputs -- no RNG, no dependence
on worker identity -- which is what makes merged campaign results
independent of shard order and worker count.  It returns plain tuples of
indices.

It is the **fan-out rule** of the only phases that fan out: the one scan
expander, :class:`~repro.campaign.pipeline.FaultSimStage`, for the stuck-at
and the transition scan alike (once a bundle's fault list and block stream
exist, :func:`~repro.campaign.pipeline.shard_stage_nodes` turns each fault
shard into one :class:`~repro.campaign.pipeline.ShardScanStage` over the
whole session, and the expansion adds an order-independent merge node),
and the speculative top-up PODEM shards of
:class:`~repro.campaign.pipeline.TopUpStage`.  The signature and the
Monte-Carlo skew sweep are one stage each, run in the parent: splitting
them, or even shipping them to one worker, never paid for its dispatches.

Shard planning is memory-budget-oblivious by design: a
``sim_memory_budget_mb`` ceiling travels inside the shard *states*
(:class:`~repro.faults.fault_sim.FaultSimShardState`), and each worker's
numpy scan tiles its own fault subset to fit -- so the shard count, the
merged results and the budget are three independent knobs (any budget is
byte-invisible at any shard count).
"""

from __future__ import annotations

from typing import Sequence


def fault_site_keys(circuit, faults: Sequence[object]) -> list[str]:
    """Resolved fault-site net per fault (the shard-locality key).

    Stem and combinational input-branch faults of a gate share the gate's
    own fanout-cone plan; a branch fault on a flop's D pin resimulates the
    D-driver's site instead.  Keying fault shards by this net keeps every
    site's cone-plan compilation inside a single worker -- for the
    stuck-at and transition scan shards *and* for the top-up PODEM shards,
    whose compiled evaluators pull the very same cone plans from the
    shared kernel.
    """
    keys: list[str] = []
    for fault in faults:
        if fault.is_stem:
            keys.append(fault.gate)
            continue
        gate = circuit.gate(fault.gate)
        if gate.is_flop:
            keys.append(gate.inputs[fault.pin])
        else:
            keys.append(fault.gate)
    return keys


def keyed_round_robin_shards(
    group_keys: Sequence[object], num_shards: int
) -> tuple[tuple[int, ...], ...]:
    """Round-robin over *groups* of items sharing a key, not over items.

    All indices whose key is equal land in the same shard; the groups
    themselves (in first-occurrence order) are dealt round-robin.  The
    campaign runner keys faults by their resolved *fault site*: every site's
    fanout-cone plan is then compiled in exactly one worker instead of once
    per worker that happens to hold one of the site's faults -- compilation
    is more than half the cost of a short campaign, so site locality is what
    makes the shard plan's projected speedup approach the shard count.

    Deterministic (first-occurrence group order), indices within each shard
    ascending; empty shards are dropped.
    """
    if num_shards <= 0:
        raise ValueError("num_shards must be positive")
    groups: dict[object, list[int]] = {}
    for index, key in enumerate(group_keys):
        groups.setdefault(key, []).append(index)
    shards: list[list[int]] = [[] for _ in range(num_shards)]
    for group_index, members in enumerate(groups.values()):
        shards[group_index % num_shards].extend(members)
    return tuple(tuple(sorted(shard)) for shard in shards if shard)

