"""Deterministic shard planning for fault-simulation campaigns.

A campaign splits work along two orthogonal axes:

* **fault shards** -- the collapsed fault list is partitioned *round-robin*
  (shard ``s`` of ``n`` gets faults ``s, s+n, s+2n, ...``).  Round-robin
  interleaving balances the work because hard (long-lived) faults are
  scattered through the collapsed ordering, so every shard carries a similar
  mix of quickly-dropped and long-simulated faults;
* **pattern shards** -- the ordered stream of packed STUMPS blocks is
  partitioned into *contiguous* runs.  Contiguity preserves the PRPG's
  temporal order inside each shard, so a shard's first-detection index for a
  fault is the true first detection within its pattern range and a min-merge
  across shards reproduces the serial first-detection index exactly.

Both partitions are pure functions of ``(item count, shard count)`` -- no
RNG, no dependence on worker identity -- which is what makes merged campaign
results independent of shard order and worker count.  The planners return
plain tuples of indices.

These planners are the **fan-out rule** of
:class:`~repro.campaign.pipeline.FaultSimStage` /
:class:`~repro.campaign.pipeline.TransitionStage`: once a scenario's fault
list and block stream exist,
:func:`~repro.campaign.pipeline.shard_stage_nodes` turns each cell of the
grid planned here into one
:class:`~repro.campaign.pipeline.ShardScanStage` (that cell's fault indices
and its own block run), and the expansion adds an order-independent merge
node.

Shard planning is memory-budget-oblivious by design: a
``sim_memory_budget_mb`` ceiling travels inside the shard *states*
(:class:`~repro.faults.fault_sim.FaultSimShardState`), and each worker's
numpy scan tiles its own fault subset to fit -- so the planned grid, the
merged results and the budget are three independent knobs (any budget is
byte-invisible at any shard geometry).
"""

from __future__ import annotations

from typing import Optional, Sequence


def fault_site_keys(circuit, faults: Sequence[object]) -> list[str]:
    """Resolved fault-site net per fault (the shard-locality key).

    Stem and combinational input-branch faults of a gate share the gate's
    own fanout-cone plan; a branch fault on a flop's D pin resimulates the
    D-driver's site instead.  Keying fault shards by this net keeps every
    site's cone-plan compilation inside a single worker -- for fault-sim
    shards *and* for the pooled top-up PODEM shards, whose compiled
    evaluators pull the very same cone plans from the shared kernel.
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


def round_robin_shards(count: int, num_shards: int) -> tuple[tuple[int, ...], ...]:
    """Partition ``range(count)`` into ``num_shards`` interleaved index groups.

    Empty groups are dropped (sharding 3 items 7 ways yields 3 shards), so a
    task is never scheduled for an empty shard.
    """
    if num_shards <= 0:
        raise ValueError("num_shards must be positive")
    groups = [
        tuple(range(start, count, num_shards)) for start in range(num_shards)
    ]
    return tuple(group for group in groups if group)


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


def contiguous_shards(count: int, num_shards: int) -> tuple[tuple[int, ...], ...]:
    """Partition ``range(count)`` into ``num_shards`` contiguous index runs.

    The first ``count % num_shards`` runs are one element longer (the
    classical balanced split).  Empty runs are dropped.
    """
    if num_shards <= 0:
        raise ValueError("num_shards must be positive")
    base, extra = divmod(count, num_shards)
    runs: list[tuple[int, ...]] = []
    start = 0
    for shard in range(num_shards):
        size = base + (1 if shard < extra else 0)
        if size:
            runs.append(tuple(range(start, start + size)))
        start += size
    return tuple(runs)


def plan_grid(
    num_faults: int,
    num_blocks: int,
    fault_shards: int,
    pattern_shards: int = 1,
    fault_keys: Optional[Sequence[object]] = None,
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Full shard grid: (fault index group, block index group) per task.

    With ``f`` fault shards and ``p`` pattern shards the campaign runs
    ``f * p`` independent tasks; every (fault, pattern) cell is covered
    exactly once, so min-merging per-fault first detections over all tasks
    is equivalent to the serial scan.

    ``fault_keys`` (one key per fault) switches the fault axis from plain
    round-robin to :func:`keyed_round_robin_shards` -- same coverage and
    determinism guarantees, but faults sharing a key (a fault site) stay in
    one shard.
    """
    if fault_keys is not None:
        if len(fault_keys) != num_faults:
            raise ValueError("fault_keys must provide one key per fault")
        fault_groups = keyed_round_robin_shards(fault_keys, fault_shards)
    else:
        fault_groups = round_robin_shards(num_faults, fault_shards)
    block_groups = contiguous_shards(num_blocks, pattern_shards)
    if not block_groups:
        block_groups = ((),)
    return [
        (faults, blocks_run)
        for faults in fault_groups
        for blocks_run in block_groups
    ]
