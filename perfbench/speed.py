"""Host speed, measured with a fixed calibration kernel.

The machine this benchmark was built on changes speed by up to 1.6x for
seconds to minutes at a time, as other tenants load the host; CPU time
follows wall time, so it is the processor that slows, not the scheduler.
Ten runs of one workload spread by up to 37 % on wall-clock throughput.
Every time the benchmark gates on is therefore scaled to a reference speed:
the kernel below is timed just before and just after the measured work, in
a short-lived child of the process doing the work, and a duration t becomes
t * REF_S / kernel_s, the time the work would take where one kernel call
takes REF_S seconds.

The kernel allocates, hashes and sorts a few thousand small tuples, about a
megabyte of live objects, because chordlab's jobs spend their time
allocating too (tuples in the chord layer, big-int Fractions in the fps
layer), and a host slowdown hits such code harder than a tight arithmetic
loop that stays in the first-level cache.  Against census and series jobs
its time moved with theirs 0.8 to 0.85 times as far, in log terms, where a
small Fraction kernel moved 0.66 to 0.72 times as far.  It calls no
chordlab code, so a change to chordlab can move it only through state the
whole interpreter shares, such as the garbage collector's settings.
"""

from __future__ import annotations

import os
import time

REF_S = 0.025  # seconds per kernel call at the reference speed (near the median on the baseline machine)


def kernel() -> None:
    counts = {}
    rows = []
    for i in range(6000):
        key = tuple((i * 7919 + j * 31) % 101 for j in range(8))
        counts[key] = counts.get(key, 0) + 1
        rows.append((key, i))
    rows.sort()


def kernel_s() -> float:
    """Seconds for one kernel call, now, in a child forked for it, so that the
    kernel's megabyte never counts in this process's peak RSS."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            start = time.perf_counter()
            kernel()
            os.write(write_fd, repr(time.perf_counter() - start).encode())
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    try:
        reply = os.read(read_fd, 64)
    finally:
        os.close(read_fd)
        os.waitpid(pid, 0)
    return float(reply)
