#!/usr/bin/env sh
# Test-tier entry points (the single place the tiers are defined; the
# markers themselves are declared in pytest.ini):
#
#   scripts/verify.sh             fast tier: -m "not slow and not multiprocess"
#                                 -- serial-only, dependency-free (the numpy
#                                 marker auto-skips without NumPy), the loop
#                                 you run on every edit
#   scripts/verify.sh full        everything: the tier-1 gate
#                                 (PYTHONPATH=src python -m pytest -x -q),
#                                 including the exhaustive LFSR period walks
#                                 (slow) and the real worker-pool suites
#                                 (multiprocess)
#   scripts/verify.sh bench-smoke every benchmarks/bench_*.py on a tiny
#                                 workload (BENCH_SMOKE=1): exercises the
#                                 benchmark harnesses end to end so the
#                                 scripts cannot silently rot.  Speedup bars
#                                 are not asserted (tiny workloads measure
#                                 fixed costs, not throughput), JSON records
#                                 land in benchmarks/.smoke/ (gitignored),
#                                 and pytest-benchmark timing loops are
#                                 disabled so every benchmarked body runs
#                                 exactly once.
#   scripts/verify.sh transition  serial at-speed smoke subset: the
#                                 transition-marked campaign/timing tests
#                                 with multiprocess pools deselected -- the
#                                 quick check after touching the transition
#                                 fan-out, skew sweep or timing/ layer.
#                                 (These tests also run in the fast tier;
#                                 this tier just isolates them.)
#   scripts/verify.sh faults      serial fault-layer subset: tests/faults,
#                                 tests/simulation, tests/tpi, tests/atpg
#                                 and tests/testability with multiprocess
#                                 pools deselected -- the quick check after
#                                 touching the stuck-at fault table, fault
#                                 lists, collapsing, the fault simulators,
#                                 the numpy scan compile, test-point
#                                 insertion, SCOAP or the top-up screen
#                                 (which sits on the fault simulator).
#                                 (These tests also run in the fast tier;
#                                 this tier just isolates them.)
#   scripts/verify.sh service     serial campaign-service subset: the
#                                 service-marked tests (asyncio job queue,
#                                 crash-injection checkpoint/resume, event
#                                 stream reassembly, service-tier kernel
#                                 cache) on the SerialScheduler only -- the
#                                 quick check after touching src/repro/
#                                 service/.  The pooled service matrix runs
#                                 in the full tier.
#   scripts/verify.sh chaos       the fault-injection resilience suite: the
#                                 chaos-marked tests (retry/backoff, stage
#                                 timeouts, worker-crash recovery, scenario
#                                 degradation, corrupt-checkpoint fallback),
#                                 real worker pools included -- the check
#                                 after touching the schedulers' resilience
#                                 machinery or repro/campaign/chaos.py.
#                                 Includes the service-tier lifecycle
#                                 injections (cancel mid-stage, deadline
#                                 mid-schedule, crash between resume
#                                 attempts).
#   scripts/verify.sh lifecycle   serial job-lifecycle subset: the
#                                 lifecycle-marked tests (cancellation,
#                                 job deadlines, bounded shutdown,
#                                 crash-loop quarantine) without worker
#                                 pools -- the quick check after touching
#                                 the cancel/deadline/shutdown machinery in
#                                 service/queue.py or the schedulers'
#                                 CancelToken path.  The pooled lifecycle
#                                 matrix runs in the full tier.
#   scripts/verify.sh perf        the performance regression gate: re-runs
#                                 benchmarks/bench_backends.py,
#                                 bench_scan_memory.py and bench_topup.py at
#                                 their recorded scale into a scratch
#                                 directory, then
#                                 benchmarks/perf_gate.py fails when any
#                                 speedup ratio field falls more than 15%
#                                 below the checked-in BENCH JSON taken at
#                                 the same cpus_available (ratios measured
#                                 within one process; absolute throughputs
#                                 swing too much with host speed to gate;
#                                 extra arguments name the records to gate).
#                                 Every bench and the gate run even when an
#                                 earlier one fails (a bench exits 1 when it
#                                 misses its own bar); each exit status is
#                                 printed and the tier exits 1 if any step
#                                 failed.  Takes minutes and ~2.5 GB of
#                                 memory (the unbounded scale-7 scan in
#                                 bench_scan_memory).
#   scripts/verify.sh reach       the dead-code gate (~2 minutes): runs
#                                 scripts/reachability.py (every example and
#                                 the three perfbench workloads under a
#                                 profile hook) and fails when the count of
#                                 src/repro lines no user path enters,
#                                 outside repro/oracle/, rises above
#                                 REACH_BAR below.  The bar only moves down:
#                                 lower it when a change deletes unreached
#                                 code.
#
# Markers:
#   slow          exhaustive LFSR period walks (widths 14-20)
#   multiprocess  tests that spawn real multiprocessing pools
#                 (campaign shard pools, the pipeline PooledScheduler)
#   numpy         optional numpy-backend tests; auto-skip without NumPy
#   transition    at-speed (transition / skew-sweep) campaign and timing
#                 tests; the serial subset is the transition tier above
#   service       campaign-service tests; auto-skip when asyncio or
#                 repro.service is unavailable; the serial subset is the
#                 service tier above
#   chaos         fault-injection resilience tests; auto-skip without
#                 POSIX process primitives (os.kill / SIGKILL)
#
# Extra arguments after the tier name pass straight to pytest, e.g.
#   scripts/verify.sh fast tests/campaign -k pipeline
set -e
cd "$(dirname "$0")/.."

# Unreached src/repro lines outside repro/oracle/ that the reach tier allows.
REACH_BAR=968
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

tier="${1:-fast}"
[ "$#" -gt 0 ] && shift

case "$tier" in
  fast)
    exec python -m pytest -x -q -m "not slow and not multiprocess" "$@"
    ;;
  full)
    exec python -m pytest -x -q "$@"
    ;;
  bench-smoke)
    # Enumerate explicitly: bench_*.py does not match pytest's test-file
    # collection patterns, so a bare directory argument collects nothing.
    BENCH_SMOKE=1 exec python -m pytest -x -q --benchmark-disable \
      benchmarks/bench_*.py "$@"
    ;;
  transition)
    exec python -m pytest -x -q -m "transition and not multiprocess" "$@"
    ;;
  faults)
    exec python -m pytest -x -q -m "not multiprocess" tests/faults \
      tests/simulation tests/tpi tests/atpg tests/testability "$@"
    ;;
  service)
    exec python -m pytest -x -q -m "service and not multiprocess" "$@"
    ;;
  chaos)
    exec python -m pytest -x -q -m "chaos" "$@"
    ;;
  lifecycle)
    exec python -m pytest -x -q -m "lifecycle and not multiprocess" "$@"
    ;;
  perf)
    out="$(mktemp -d)"
    failed=0
    for bench in bench_backends bench_scan_memory bench_topup; do
      status=0
      BENCH_OUT_DIR="$out" python "benchmarks/$bench.py" || status=$?
      echo "perf: $bench exit $status"
      [ "$status" -eq 0 ] || failed=1
    done
    status=0
    python benchmarks/perf_gate.py "$out" "$@" || status=$?
    echo "perf: perf_gate exit $status"
    [ "$status" -eq 0 ] || failed=1
    exit "$failed"
    ;;
  reach)
    status=0
    out="$(python scripts/reachability.py)" || status=$?
    echo "$out"
    [ "$status" -eq 0 ] || exit 1
    count="$(echo "$out" | sed -n 's|^unreached lines outside repro/oracle/: ||p')"
    if [ -z "$count" ] || [ "$count" -gt "$REACH_BAR" ]; then
      echo "reach: ${count:-no count} unreached lines outside repro/oracle/, bar $REACH_BAR" >&2
      exit 1
    fi
    echo "reach: $count unreached lines outside repro/oracle/ (bar $REACH_BAR)"
    ;;
  *)
    echo "usage: scripts/verify.sh [fast|full|bench-smoke|transition|faults|service|chaos|lifecycle|perf|reach] [pytest args...]" >&2
    exit 2
    ;;
esac
