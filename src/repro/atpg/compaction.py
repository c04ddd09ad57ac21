"""Static test compaction.

The top-up pattern counts reported in Table 1 (135 patterns for Core X, 528
for Core Y) are post-compaction numbers: a naive one-pattern-per-fault ATPG
run produces far more cubes, which a compaction pass then merges.  The
flow's one technique is *cube merging*: two test cubes that never assign a
net to opposite values can be merged into one pattern that detects both
target faults.
"""

from __future__ import annotations

from typing import Sequence

from .podem import TestCube


def merge_compatible_cubes(cubes: Sequence[TestCube]) -> list[TestCube]:
    """Greedy compatible-cube merging.

    Cubes are processed from most- to least-specified; each cube is merged
    into the first already-accepted cube it does not conflict with, otherwise
    it starts a new merged cube.  The result is order-deterministic.
    """
    ordered = sorted(cubes, key=lambda cube: (-cube.specified_bits(), sorted(cube.assignments)))
    merged: list[TestCube] = []
    for cube in ordered:
        for index, existing in enumerate(merged):
            if not existing.conflicts_with(cube):
                merged[index] = existing.merged_with(cube)
                break
        else:
            merged.append(TestCube(dict(cube.assignments), cube.fault))
    return merged
