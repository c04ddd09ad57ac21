"""Host speed, sampled while the program runs.

The benchmark's host is a shared virtual machine.  The speed of its CPUs
changes by up to 2x, in steps that last from a fraction of a second to tens
of seconds, with no steal and independently on each CPU: a fixed
pure-Python loop takes 33 ms or 60 ms depending on the moment and the CPU.
A calibration taken before and after a 10 s operation misses most of those
steps: the same flow run took 7.2 s or 12.3 s, and scaled by such a
calibration it still read anywhere between 5.3 s and 7.4 s.

:class:`SpeedSampler` samples the speed *inside* the operation instead: a
``SIGALRM`` handler runs a short fixed loop on the program's own thread
every ``SAMPLE_INTERVAL_S`` and times it in thread CPU time (so being
preempted by the program's own worker processes does not count).  The mean
of those samples, over the reference host's time for the same loop, turns
the operation's wall time into seconds on the reference host.  With it the
same flow run reads within 4% (coefficient of variation) whatever the
host's state.

Python runs signal handlers between bytecodes of the main thread, so a
sample waits for a long C call (a numpy kernel) to return; the itimer is not
inherited by forked pool workers, and ``siginterrupt(False)`` makes
interrupted system calls restart.
"""

from __future__ import annotations

import os
import signal
import statistics
import time

#: Seconds between two speed samples while an operation runs.
SAMPLE_INTERVAL_S = 0.05
#: Iterations of the calibration loop in one sample.
SAMPLE_LOOPS = 5_000
#: Seconds one sample takes on the reference host: a 2-vCPU 2.1 GHz Xeon
#: virtual machine at its usual speed (33 ms per 200 000 iterations).
REFERENCE_SAMPLE_S = 0.033 * SAMPLE_LOOPS / 200_000
#: Steal shares above this are clipped (a call slowed more than 2x by the
#: hypervisor says little about the program).
MAX_STEAL_SHARE = 0.5


def stolen_seconds() -> float:
    """CPU time the hypervisor has taken from this machine's CPUs so far
    (the "steal" column of ``/proc/stat``; 0 where there is none)."""
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            fields = stat.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def calibration_loop() -> float:
    """Thread CPU seconds of a fixed pure-Python loop."""
    start = time.thread_time()
    acc = 0
    table = {}
    for i in range(SAMPLE_LOOPS):
        acc ^= (i * 2654435761) & 0xFFFFFFFF
        table[i & 1023] = acc
    return max(time.thread_time() - start, 1e-9)


class SpeedSampler:
    """Context manager: wall time of its body and the host speed during it.

    ``busy_cpus`` is how many CPUs the body keeps busy.  Samples take CPU
    time from the body: a single-threaded body stops for them, a body whose
    work runs in ``busy_cpus`` worker processes loses that share of one
    CPU.  :meth:`reference_seconds` takes them off, scales by the sampled
    speed and takes off the hypervisor's steal over the busy CPUs.
    """

    def __init__(self, busy_cpus: int = 1) -> None:
        self.busy_cpus = busy_cpus
        self.speeds: list[float] = []
        self.sample_cpu_s = 0.0
        self.wall_s = 0.0
        self.stolen_s = 0.0

    def _sample(self) -> float:
        seconds = calibration_loop()
        self.speeds.append(REFERENCE_SAMPLE_S / seconds)
        return seconds

    def _on_alarm(self, signum, frame) -> None:
        self.sample_cpu_s += self._sample()

    def __enter__(self) -> "SpeedSampler":
        self.previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.siginterrupt(signal.SIGALRM, False)
        self._sample()
        self.stolen_s = stolen_seconds()
        self.start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.wall_s = time.perf_counter() - self.start
        self.stolen_s = stolen_seconds() - self.stolen_s
        signal.signal(signal.SIGALRM, self.previous)
        self._sample()

    def scale(self) -> float:
        """Factor from wall seconds inside the body to reference-host seconds."""
        wall = max(self.wall_s, 1e-9)
        net = wall - self.sample_cpu_s / self.busy_cpus
        steal = min(self.stolen_s / (wall * self.busy_cpus), MAX_STEAL_SHARE)
        return net / wall * statistics.fmean(self.speeds) * (1.0 - steal)

    def reference_seconds(self) -> float:
        """The body's wall time, in seconds on the reference host."""
        return self.wall_s * self.scale()
