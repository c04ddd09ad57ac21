"""End-to-end benchmark of the logic BIST flow, its kernels and the service.

Run from the repository root:

    python3 perfbench/run.py --workload table1_core_x --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload untraced and prints the end-to-end
metrics; ``--trace 1`` additionally runs it with every layer wrapped in
spans, prints the per-layer metrics and writes a Perfetto trace under
``.bench_out/``.  Either way every operation's outputs are checked against
the serial python-backend oracle, and the last line of output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import SpeedSampler

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
#: Operations every run measures, however long they take.
MIN_OPS = 2
#: Fresh processes timed for ``setup_s`` (the median is reported).
SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "job_cold_s": "s",
    "job_warm_s": "s",
    "first_scenario_s": "s",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="internal: set up the workload, print 'ready <reference-host seconds>' and exit",
    )
    return parser.parse_args(argv)


def median(values):
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def setup_seconds(args) -> float:
    """Median time, on the reference host, for a fresh process to import every
    layer, generate the workload's inputs and (for the service) start and
    stop a service.  Each probe process times itself (see ``--setup-probe``)."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    times = []
    for _ in range(SETUP_REPEATS):
        with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            reply = child.stdout.read().split()
            child.wait(timeout=120)
        if child.returncode != 0 or len(reply) != 2 or reply[0] != "ready":
            raise RuntimeError(f"setup probe failed (exit {child.returncode})")
        times.append(float(reply[1]))
    return median(times)


def measure(operations, workload, seconds: float) -> tuple[list, float]:
    """Run ``operations`` in turn until ``seconds`` have passed (each at
    least ``MIN_OPS`` times, and once per input variant of ``workload``);
    one list of results per operation.  Each round runs the next variant.

    Each result's ``time_scale`` is set from the host speed sampled while it
    ran (see :mod:`hostspeed`).  The program
    keeps objects alive from one operation to the next (its kernel and
    engine caches).  Left in the collector, they make every later operation
    pay for more garbage-collection passes than the first, so before each
    operation the survivors are frozen out of the collector: every operation
    starts from the collector state of a fresh process.  For the same reason
    the peak RSS is read after the first operation; a later reading would
    depend on how many operations fit in ``seconds``.  Returns the results
    and that peak.
    """
    results = [[] for _ in operations]

    def sample() -> None:
        variant = len(results[0]) % workload.variants
        for operation, done in zip(operations, results):
            gc.collect()
            gc.freeze()
            with SpeedSampler(workload.busy_cpus) as speed:
                op = operation(variant)
            op.time_scale = speed.scale()
            done.append(op)

    start = time.perf_counter()
    sample()
    peak = peak_rss_mb()
    rounds = max(MIN_OPS, workload.variants)
    while len(results[0]) < rounds or time.perf_counter() - start < seconds:
        sample()
    return results, peak


def end_to_end_metrics(ops, peak: float) -> dict:
    """Every timing over the operations (see :func:`workloads.typical`), on
    the reference host."""
    from workloads import typical

    wall = typical(ops, lambda op: op.wall_s * op.time_scale)
    if ops[0].cold_s is None:
        # A flow run has no warm path: it scan-inserts a new circuit and
        # compiles its kernels afresh every time.
        cold = warm = wall
    else:
        cold = typical(ops, lambda op: op.cold_s * op.time_scale)
        warm = typical(ops, lambda op: op.warm_s * op.time_scale)
    return {
        "wall_s": wall,
        "peak_rss_mb": peak,
        "job_cold_s": cold,
        "job_warm_s": warm,
        "first_scenario_s": typical(ops, lambda op: op.first_scenario_s * op.time_scale),
    }


def stamp(args, ops, traced) -> dict:
    """Provenance of a result: code, host and sample counts."""
    import numpy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={"GIT_CEILING_DIRECTORIES": str(ROOT.parent), "PATH": "/usr/bin:/bin"},
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    from workloads import cpus_available

    return {
        "workload": args.workload,
        "seed": args.seed,
        "samples": len(ops),
        "traced_samples": len(traced),
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "cpus_available": cpus_available(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def load(args):
    """Import every layer and build the workload's inputs; ``None`` (after
    saying why) when there is no program or no such workload."""
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return None
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import layers
        import workloads
    except ImportError as error:
        print(f"cannot import the program under test from {ROOT / 'src'}: {error}", file=sys.stderr)
        return None
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return None
    OUT.mkdir(exist_ok=True)
    return layers, workloads.WORKLOADS[args.workload](args.seed, str(OUT))


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        with SpeedSampler() as speed:
            loaded = load(args)
            if loaded:
                loaded[1].setup()
        if not loaded:
            return 2
        print(f"ready {speed.reference_seconds()!r}", flush=True)
        return 0
    loaded = load(args)
    if not loaded:
        return 2
    layers, workload = loaded
    from tracer import write_chrome_trace

    if args.trace:
        # Untraced and traced operations alternate, so drift over the run
        # weighs on both sides of the overhead comparison alike.
        (ops, traced), peak = measure(
            [workload.operation, layers.TracedOperation(workload.operation)], workload,
            args.seconds,
        )
    else:
        (ops,), peak = measure([workload.operation], workload, args.seconds)
        traced = []
    end_to_end = end_to_end_metrics(ops, peak)
    print(f"{'raw wall_s (this host, as it ran)':<36} {median([op.wall_s for op in ops]):>14.6g} s")
    print(f"{'time scale to the reference host':<36} {median([op.time_scale for op in ops]):>14.6g} ratio")
    if args.trace:
        per_layer = layers.summary(traced, end_to_end["wall_s"])
    else:
        end_to_end["setup_s"] = setup_seconds(args)
    workload.check_against_oracle(ops + traced)

    attempted = len(ops) + len(traced)
    failed = sum(1 for op in ops + traced if op.problems)
    for number, op in enumerate(ops + traced, start=1):
        for problem in op.problems:
            print(f"operation {number}: {problem}")
    print(f"{'error_rate':<36} {failed / attempted:>14.6g} ratio")
    provenance = stamp(args, ops, traced)
    for name, unit in END_TO_END_UNITS.items():
        if name in end_to_end:
            print(f"{name:<36} {end_to_end[name]:>14.6g} {unit}")
    if args.trace:
        metrics = {name: {"value": value, "unit": layers.PER_LAYER_UNITS[name]}
                   for name, value in per_layer.items()}
        for name, metric in metrics.items():
            print(f"{name:<36} {metric['value']:>14.6g} {metric['unit']}")
        for line in layers.sanity_lines(per_layer):
            print(line)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        write_chrome_trace(trace_path, [op.spans for op in traced], provenance)
        print(f"trace written to {trace_path.relative_to(ROOT)}")
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    print("stamp " + json.dumps(provenance))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
