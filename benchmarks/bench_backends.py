"""Benchmark: python-vs-numpy backend throughput matrix.

Measures the two hot campaign paths on the scaled Core Y stand-in across
block sizes {64, 256, 1024, 4096} for both execution backends:

* **fault simulation** -- the same 512-pattern PPSFP campaign that
  ``bench_fault_sim.py`` has tracked since the compiled-kernel PR (same
  core, same rng seed), so the numpy column extends the existing
  throughput trajectory.  Every run builds a fresh
  :class:`~repro.faults.FaultSimulator`; the numpy backend's per-process
  compilation caches (shared kernel, level batches, fault-scan arrays) stay
  warm across repeats, exactly as they do across the shard tasks of a real
  campaign worker, and best-of-``REPEATS`` therefore reports the
  steady-state worker throughput for both backends.  A **cold** column
  times the same campaign on a freshly built circuit -- fresh per-process
  caches, so kernel compilation, cone plans and the scan compile are paid
  inside the timed section -- next to the warm one.
* **streamed pattern generation** --
  ``StumpsArchitecture.generate_packed_blocks`` (the bit-sliced PRPG and
  phase-shifter emulation both backends use to feed the random phase)
  drained at blocks 64 and 1024, against the per-cycle stepping reference
  ``generate_patterns`` for the same pattern budget.
* **transition preparation** -- the launch/capture pair blocks of a
  ``GEN_PATTERNS``-pattern at-speed measurement at block 1024 under Core
  Y's staggered capture order, built two ways: the per-pattern dict path
  (``generate_patterns`` -> ``derive_capture_patterns`` -> two
  ``iter_blocks`` packs zipped into triples) and the packed path the
  pipeline's transition preparation runs (``generate_packed_blocks`` ->
  ``derive_pair_blocks``).  The two are asserted
  dict-equal.

Every fault-sim run's final coverage is asserted identical across backends
and block sizes, so the benchmark doubles as an equivalence check at full
workload scale.  A long-session (20480-pattern, paper-budget) sample at
block 1024 is recorded as well: fault dropping leaves only the
hard-to-detect faults there, a regime where the python engine's fast
per-fault exits already amortise and the numpy margin narrows -- recorded
so the trade-off is on the record, not hidden.

Recorded in ``benchmarks/BENCH_backends.json``:

* the per-(backend, block size) fault-sim matrix: best-of times, and warm
  and cold speedups that are the median ratio of back-to-back python/numpy
  runs (so host-speed drift cancels out of them),
* ``speedup_fault_sim_1024`` / ``cold_speedup_fault_sim_1024`` -- both
  backends at block 1024, warm and cold, against the targets of >= 4x warm
  and cold numpy no slower than cold python (recorded with
  ``meets_1024_targets``, not asserted: ``scripts/verify.sh perf`` gates
  these ratios against their committed values instead),
* ``speedup_fault_sim`` -- the headline: the numpy backend at its best
  recorded block size vs the python backend at the library's default block
  size (64), the same comparison shape as the compiled-kernel PR's
  ``speedup_kernel256_vs_seed_default`` headline (acceptance bar: >= 3x),
* ``speedup_fault_sim_same_block`` -- both backends at the numpy backend's
  best block size,
* ``speedup_fault_sim_best_vs_best`` -- each backend at its own best width,
* ``speedup_sliced_gen_64`` / ``speedup_sliced_gen_1024`` -- the stepping
  ``generate_patterns`` time over the bit-sliced ``generate_packed_blocks``
  time at blocks 64 and 1024, medians of back-to-back ratios (acceptance
  bar: >= 2x each; the block-1024 ratio is gated),
* ``speedup_transition_prep`` -- the dict path's time over the packed
  path's (the fastest of ``SLICED_REPEATS`` builds), the median of
  back-to-back ratios (gated).

``speedup_fault_sim`` and ``speedup_fault_sim_best_vs_best`` divide times
taken in different rounds, minutes apart; ``scripts/verify.sh perf`` gates
only the back-to-back ratios (see ``perf_gate.py``).

Run as a script (writes the JSON):

    PYTHONPATH=src python benchmarks/bench_backends.py

or through pytest (skips without NumPy):

    PYTHONPATH=src pytest benchmarks/bench_backends.py -s
"""

from __future__ import annotations

import random
import statistics
import time

import pytest

from repro.bist import StumpsArchitecture
from repro.core import LogicBistConfig
from repro.core.bist_ready import build_clock_tree
from repro.cores import core_y_recipe
from repro.faults import FaultSimulator, collapse_stuck_at
from repro.faults.transition_sim import derive_pair_blocks
from repro.oracle import derive_capture_patterns, generate_patterns
from repro.scan import build_scan_chains
from repro.simulation import HAVE_NUMPY, iter_blocks
from repro.simulation.kernel import KERNEL_CACHE
from repro.timing.double_capture import CaptureWindowScheduler

from conftest import print_rows, scaled, smoke_mode, write_bench_json

#: Patterns per fault-simulation run (bench_fault_sim.py's workload).
PATTERNS = scaled(512, 64)
#: Patterns of the long-session sample (the paper's 20K random-pattern
#: budget, rounded to a block multiple).
LONG_PATTERNS = scaled(20480, 256)
#: Patterns per streamed-generation run.
GEN_PATTERNS = scaled(1024, 128)
#: Block widths of the matrix.
BLOCK_SIZES = scaled((64, 256, 1024, 4096), (64, 256))
#: Timed sections run this many times; the minimum is recorded (the
#: standard noise rejection -- interference only ever adds time).
REPEATS = scaled(7, 1)
#: Cold campaigns per backend (each rebuilds the circuit).
COLD_REPEATS = scaled(9, 1)
#: Block widths of the streamed-generation ratios.
GEN_BLOCK_SIZES = (64, 1024)
#: Bit-sliced generation and packed transition-prep runs per timed call
#: (the minimum is used).
SLICED_REPEATS = 5
#: Acceptance bars.
TARGET_FAULT_SIM_SPEEDUP = 3.0
TARGET_PATTERN_GEN_SPEEDUP = 2.0
TARGET_WARM_SPEEDUP_1024 = 4.0
TARGET_COLD_SPEEDUP_1024 = 1.0


def _build_workload(count: int):
    recipe = core_y_recipe()
    circuit = recipe.build().circuit
    rng = random.Random(20050307)
    stimulus = circuit.stimulus_nets()
    patterns = [
        {net: rng.randint(0, 1) for net in stimulus} for _ in range(count)
    ]
    return recipe, circuit, patterns


def _best_of(
    run, repeats: int, variants: tuple[str, str] = ("python", "numpy")
) -> tuple[dict[str, float], float]:
    """Best ``run(variant)`` time per variant over ``repeats`` rounds, and
    the median of the rounds' first/second ratios.  The variants alternate
    within a round, so each ratio compares runs made back to back and host
    speed drift cancels out of it."""
    seconds: dict[str, list[float]] = {variant: [] for variant in variants}
    for _ in range(repeats):
        for variant, times in seconds.items():
            times.append(run(variant))
    first, second = (seconds[variant] for variant in variants)
    ratios = [a / b for a, b in zip(first, second)]
    return {v: min(times) for v, times in seconds.items()}, statistics.median(ratios)


def _fault_sim(make_circuit, patterns, block_size, coverages: set, cold=False):
    """One timed campaign per call on ``make_circuit()`` -- the same circuit
    (warm caches) or, for a cold run, a freshly built one after the
    process's compiled kernels are dropped (every compilation timed too:
    kernels are cached by circuit content, so a fresh build alone would
    hit); its coverage goes into ``coverages``."""

    def run(backend: str) -> float:
        target = make_circuit()
        if cold:
            KERNEL_CACHE.clear()
        stimulus = target.stimulus_nets()
        blocks = list(iter_blocks(patterns, block_size=block_size, nets=stimulus))
        fault_list = collapse_stuck_at(target).to_fault_list()
        start = time.perf_counter()
        FaultSimulator(target, backend=backend).simulate_blocks(fault_list, blocks)
        seconds = time.perf_counter() - start
        coverages.add(round(fault_list.coverage(), 12))
        return seconds

    return run


def _pattern_generation(architecture, block_size):
    """One timed generation of ``GEN_PATTERNS`` patterns per call: stepped
    into per-pattern dicts, or bit-sliced into drained packed blocks.  The
    bit-sliced session takes a few milliseconds, so a call reports the
    fastest of ``SLICED_REPEATS`` sessions (interference only adds time)."""

    def timed(path: str) -> float:
        stumps = StumpsArchitecture(architecture, seed=9)
        start = time.perf_counter()
        if path == "stepping":
            generate_patterns(stumps, GEN_PATTERNS)
        else:
            for _block in stumps.generate_packed_blocks(
                GEN_PATTERNS, block_size=block_size
            ):
                pass
        return time.perf_counter() - start

    def run(path: str) -> float:
        repeats = 1 if path == "stepping" else SLICED_REPEATS
        return min(timed(path) for _ in range(repeats))

    return run


def _transition_prep(circuit, architecture, pulse_order, results: list):
    """One timed build of the transition pair blocks per call, by the dict
    path or the packed path; the blocks go into ``results``.  The packed
    build takes about 12 ms, so a call reports the fastest of
    ``SLICED_REPEATS`` builds, as :func:`_pattern_generation` does."""

    def timed(path: str) -> float:
        stumps = StumpsArchitecture(architecture, seed=9)
        start = time.perf_counter()
        if path == "dict":
            launch = generate_patterns(stumps, GEN_PATTERNS)
            capture = derive_capture_patterns(circuit, launch, pulse_order)
            nets = circuit.stimulus_nets()
            pair_blocks = tuple(
                zip(
                    range(0, GEN_PATTERNS, 1024),
                    iter_blocks(launch, block_size=1024, nets=nets),
                    iter_blocks(capture, block_size=1024, nets=nets),
                )
            )
        else:
            pair_blocks = derive_pair_blocks(
                circuit,
                stumps.generate_packed_blocks(GEN_PATTERNS, block_size=1024),
                pulse_order,
            )
        seconds = time.perf_counter() - start
        results.append(pair_blocks)
        return seconds

    def run(path: str) -> float:
        repeats = 1 if path == "dict" else SLICED_REPEATS
        return min(timed(path) for _ in range(repeats))

    return run


def run() -> dict:
    recipe, circuit, patterns = _build_workload(PATTERNS)
    fault_count = len(collapse_stuck_at(circuit).representatives)

    fault_rows = []
    fault_seconds: dict[tuple[str, int], float] = {}
    cold_seconds: dict[tuple[str, int], float] = {}
    coverages = set()
    for block_size in BLOCK_SIZES:
        same, fresh = (lambda: circuit), (lambda: recipe.build().circuit)
        run_warm = _fault_sim(same, patterns, block_size, coverages)
        warm, speedup = _best_of(run_warm, REPEATS)
        run_cold = _fault_sim(fresh, patterns, block_size, coverages, cold=True)
        cold, cold_speedup = _best_of(run_cold, COLD_REPEATS)
        for backend in ("python", "numpy"):
            fault_seconds[(backend, block_size)] = warm[backend]
            cold_seconds[(backend, block_size)] = cold[backend]
        fault_rows.append(
            {
                "block_size": block_size,
                "python_seconds": round(fault_seconds[("python", block_size)], 4),
                "numpy_seconds": round(fault_seconds[("numpy", block_size)], 4),
                "python_cold_seconds": round(cold_seconds[("python", block_size)], 4),
                "numpy_cold_seconds": round(cold_seconds[("numpy", block_size)], 4),
                "python_patterns_per_sec": round(
                    PATTERNS / fault_seconds[("python", block_size)], 1
                ),
                "numpy_patterns_per_sec": round(
                    PATTERNS / fault_seconds[("numpy", block_size)], 1
                ),
                "speedup": round(speedup, 2),
                "cold_speedup": round(cold_speedup, 2),
            }
        )
    assert len(coverages) == 1, f"backends disagreed on coverage: {coverages}"

    gen_rows = []
    architecture = build_scan_chains(circuit, total_chains=14)
    for block_size in GEN_BLOCK_SIZES:
        best, speedup = _best_of(
            _pattern_generation(architecture, block_size),
            REPEATS,
            variants=("stepping", "sliced"),
        )
        gen_rows.append(
            {
                "block_size": block_size,
                "stepping_seconds": round(best["stepping"], 4),
                "sliced_seconds": round(best["sliced"], 4),
                "speedup": round(speedup, 2),
            }
        )
    gen_speedups = {row["block_size"]: row["speedup"] for row in gen_rows}

    # Long-session sample: the paper's 20K-pattern budget at one mid width.
    _, _, long_patterns = _build_workload(LONG_PATTERNS)
    long_coverages: set = set()
    long_run, long_speedup = _best_of(
        _fault_sim(lambda: circuit, long_patterns, 1024, long_coverages), 2
    )
    long_python, long_numpy = long_run["python"], long_run["numpy"]
    assert len(long_coverages) == 1

    numpy_best_block = min(
        BLOCK_SIZES, key=lambda block: fault_seconds[("numpy", block)]
    )
    python_best_block = min(
        BLOCK_SIZES, key=lambda block: fault_seconds[("python", block)]
    )
    speedup_fault_sim = (
        fault_seconds[("python", 64)] / fault_seconds[("numpy", numpy_best_block)]
    )
    rows_by_block = {row["block_size"]: row for row in fault_rows}
    speedup_same_block = rows_by_block[numpy_best_block]["speedup"]
    speedup_best_vs_best = (
        fault_seconds[("python", python_best_block)]
        / fault_seconds[("numpy", numpy_best_block)]
    )
    row_1024 = next(
        (row for row in fault_rows if row["block_size"] == 1024), fault_rows[-1]
    )

    # Transition preparation under Core Y's staggered capture order.
    schedule = CaptureWindowScheduler(
        build_clock_tree(
            circuit,
            LogicBistConfig(clock_frequencies_mhz=recipe.clock_frequencies_mhz),
        )
    ).schedule()
    prep_results: list = []
    prep_best, speedup_transition_prep = _best_of(
        _transition_prep(circuit, architecture, schedule.pulse_order, prep_results),
        REPEATS,
        variants=("dict", "packed"),
    )
    assert all(blocks == prep_results[0] for blocks in prep_results), (
        "packed transition preparation disagreed with the dict path"
    )

    payload = {
        "core": recipe.name,
        "gates": circuit.gate_count(),
        "flops": circuit.flop_count(),
        "collapsed_faults": fault_count,
        "patterns": PATTERNS,
        "gen_patterns": GEN_PATTERNS,
        "block_sizes": list(BLOCK_SIZES),
        "coverage": next(iter(coverages)),
        "fault_sim": fault_rows,
        "pattern_generation": gen_rows,
        "long_session": {
            "patterns": LONG_PATTERNS,
            "block_size": 1024,
            "python_seconds": round(long_python, 4),
            "numpy_seconds": round(long_numpy, 4),
            "speedup": round(long_speedup, 2),
        },
        "numpy_best_block_size": numpy_best_block,
        "python_best_block_size": python_best_block,
        "speedup_fault_sim": round(speedup_fault_sim, 2),
        "speedup_fault_sim_same_block": round(speedup_same_block, 2),
        "speedup_fault_sim_best_vs_best": round(speedup_best_vs_best, 2),
        "speedup_sliced_gen_64": gen_speedups[64],
        "speedup_sliced_gen_1024": gen_speedups[1024],
        "transition_prep": {
            "patterns": GEN_PATTERNS,
            "block_size": 1024,
            "pulse_groups": len(schedule.pulse_order),
            "dict_seconds": round(prep_best["dict"], 4),
            "packed_seconds": round(prep_best["packed"], 4),
        },
        "speedup_transition_prep": round(speedup_transition_prep, 2),
        "speedup_fault_sim_1024": row_1024["speedup"],
        "cold_speedup_fault_sim_1024": row_1024["cold_speedup"],
        "bit_identical_coverage": True,
        "target_fault_sim_speedup": TARGET_FAULT_SIM_SPEEDUP,
        "target_pattern_gen_speedup": TARGET_PATTERN_GEN_SPEEDUP,
        "target_warm_speedup_1024": TARGET_WARM_SPEEDUP_1024,
        "target_cold_speedup_1024": TARGET_COLD_SPEEDUP_1024,
        "meets_1024_targets": row_1024["speedup"] >= TARGET_WARM_SPEEDUP_1024
        and row_1024["cold_speedup"] >= TARGET_COLD_SPEEDUP_1024,
        "note": (
            "speedup_fault_sim = numpy backend at its best recorded block "
            "size vs python backend at the default block size 64 (the "
            "comparison shape of PR 1's speedup_kernel256_vs_seed_default "
            "headline); the same-block and best-vs-best ratios plus the "
            "long-session sample are recorded alongside so the full "
            "trade-off is visible.  Best-of-N with warm per-process "
            "compilation caches on both backends -- the steady state of a "
            "campaign worker; the cold columns rebuild the circuit per run, "
            "so compilation is timed too.  speedup_sliced_gen_64/_1024 "
            "divide the stepping generate_patterns time by the bit-sliced "
            "generate_packed_blocks time; they and speedup_transition_prep "
            "are medians of back-to-back ratios."
        ),
    }
    path = write_bench_json("backends", payload)
    print_rows(f"Fault-simulation backends -- {recipe.name}", fault_rows)
    print_rows("Streamed pattern generation", gen_rows)
    print(
        f"fault sim: {speedup_fault_sim:.2f}x (numpy@{numpy_best_block} vs "
        f"python@default-64; same-block {speedup_same_block:.2f}x, "
        f"best-vs-best {speedup_best_vs_best:.2f}x, target >= "
        f"{TARGET_FAULT_SIM_SPEEDUP}x); long 20K session @1024: "
        f"{long_speedup:.2f}x; sliced pattern gen vs stepping: "
        f"{gen_speedups[64]:.2f}x at block 64, {gen_speedups[1024]:.2f}x at "
        f"1024 (target >= {TARGET_PATTERN_GEN_SPEEDUP}x); block 1024: "
        f"{row_1024['speedup']:.2f}x warm (target >= "
        f"{TARGET_WARM_SPEEDUP_1024}x), {row_1024['cold_speedup']:.2f}x cold "
        f"(target >= {TARGET_COLD_SPEEDUP_1024}x); transition prep dict/packed: "
        f"{speedup_transition_prep:.2f}x -> {path.name}"
    )
    return payload


def meets_targets(payload: dict) -> bool:
    """The asserted acceptance bars (skipped in smoke mode)."""
    return (
        payload["speedup_fault_sim"] >= TARGET_FAULT_SIM_SPEEDUP
        and payload["speedup_fault_sim_same_block"] >= 2.0
        and payload["speedup_sliced_gen_64"] >= TARGET_PATTERN_GEN_SPEEDUP
        and payload["speedup_sliced_gen_1024"] >= TARGET_PATTERN_GEN_SPEEDUP
    )


@pytest.mark.skipif(not HAVE_NUMPY, reason="NumPy not installed (repro[fast])")
def test_backend_speedups_recorded():
    """Regression guard: the numpy backend keeps its recorded speedups."""
    payload = run()
    assert payload["bit_identical_coverage"]
    assert smoke_mode() or meets_targets(payload)


if __name__ == "__main__":
    payload = run()
    raise SystemExit(0 if smoke_mode() or meets_targets(payload) else 1)
