"""Machine-speed correction for the benchmark's timings.

The VMs this benchmark runs on are noisy in two ways, and both are larger
than the changes the benchmark must resolve:

- The hypervisor takes the vCPU away for tens of milliseconds at a time.
  An op hit by that reads up to twice its length on the wall clock, which
  makes wall-clock tails jump from run to run.  The guest kernel accounts
  such stolen time apart from the process's CPU time, so the benchmark times
  ops and set-ups by the CPU time of the measuring process (`busy` time),
  and reports the wall-clock figures beside them.
- The vCPUs also change speed by up to 2x for seconds to minutes at a time,
  and that slows CPU time as much as wall time.  So the measuring process
  runs a fixed reference kernel between ops, every PROBE_EVERY_NS, and
  before and after each set-up, and times it by the CPU time of its thread.
  A time t taken while the kernel ran in r ns (the median over the probes of
  that set-up or of that pass's timed ops) is reported as
  t * REF_NOMINAL_NS / r: the time the same work takes on the machine at its
  nominal speed, when the kernel runs in REF_NOMINAL_NS.  A slower program
  moves the corrected figure by the same share as the raw one; a slower
  machine moves both the work and the kernel and cancels out.  A slow state
  does not slow all code alike, so a workload that is mostly big-integer
  arithmetic is corrected by bigint_kernel instead of reference_kernel.

Slowdowns shorter than a few probes are not tracked: no probe, small or
large, slowed down with the ops during them.  So every op of a pass gets the
same factor, and the tail of each pass is left to those slowdowns; taking
the median over several passes is what steadies it.

The process is pinned to one CPU (threads and child processes inherit the
mask), so the kernel measures the CPU that every part of an op ran on.
"""

from __future__ import annotations

import bisect
import hashlib
import os
import statistics
import time

# The kernel's duration on a 2-vCPU Xeon VM in its faster state.
REF_NOMINAL_NS = 500_000
PROBE_EVERY_NS = 50_000_000
# A 255-bit prime modulus for the kernel's big-integer part.
_MODULUS = 2**255 - 19


def reference_kernel() -> int:
    """Fixed interpreter work: tuples, a dict, str hashing, BLAKE2b, and
    255-bit modular squaring like the EC code's.  Timed alternately with MA
    sessions and with `ec.point_mul` for a minute, the kernel with the
    squaring kept a steadier ratio to both than the object work alone."""
    acc = 0
    table = {}
    for i in range(300):
        item = (i, i * 7, str(i))
        table[item[2]] = item
        acc ^= hash(item) & 0xFFFF
        acc += hashlib.blake2b(item[2].encode(), digest_size=16).digest()[0]
    x = 0x1234567890ABCDEF1234567890ABCDEF1234567890ABCDEF1234567890ABCDEF
    for i in range(400):
        x = (x * x + i) % _MODULUS
    return acc + len(table) + (x & 1)


def bigint_kernel() -> int:
    """Only the 255-bit modular squaring, about as long as reference_kernel.
    Timed alternately with `ec.point_mul` for 90 s on a VM whose speed
    flipped between two states, its ratio to the EC work varied a third as
    much as reference_kernel's (sd of the log ratio over half-second windows
    0.037 against 0.086); for MA sessions reference_kernel tracked better
    (0.067 against 0.115)."""
    x = 0x1234567890ABCDEF1234567890ABCDEF1234567890ABCDEF1234567890ABCDEF
    for i in range(1080):
        x = (x * x + i) % _MODULUS
    return x & 1


def pin_to_one_cpu():
    """Restrict this process to the CPU it is running on now."""
    allowed = os.sched_getaffinity(0)
    try:
        with open("/proc/thread-self/stat", encoding="ascii") as handle:
            cpu = int(handle.read().rsplit(")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        cpu = min(allowed)
    os.sched_setaffinity(0, {cpu if cpu in allowed else min(allowed)})


class Speedometer:
    """Probes of the reference kernel and the correction factors they give."""

    def __init__(self, kernel=reference_kernel):
        self.kernel = kernel
        self.times: list[int] = []
        self.durations: list[int] = []

    def probe(self) -> int:
        """Run the kernel once; return its CPU time in ns."""
        start = time.perf_counter_ns()
        cpu = time.thread_time_ns()
        self.kernel()
        duration = time.thread_time_ns() - cpu
        self.times.append(start)
        self.durations.append(duration)
        return duration

    def factor_between(self, start_ns: int, end_ns: int) -> float:
        """Correction factor from the probes started between two times."""
        lo = bisect.bisect_left(self.times, start_ns)
        hi = bisect.bisect_right(self.times, end_ns)
        return REF_NOMINAL_NS / statistics.median(self.durations[lo:hi])

    def factor(self) -> float:
        """Correction factor over every probe taken."""
        return REF_NOMINAL_NS / statistics.median(self.durations)
