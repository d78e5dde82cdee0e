"""Host-speed probe: every timing is stated at a reference host speed.

On a shared cloud host the speed of a vCPU drifts by tens of percent
over minutes, and CPU time drifts with it (the slow-down is not steal
time, so the process is charged for it).  A fixed piece of pure-Python
work, timed right before and right after each measured interval, says
how fast the host ran during it.  A measured ``seconds`` becomes
``seconds * scale(probes)``: the time the interval would have taken on
a host where the probe takes ``REFERENCE_S``.  The probe runs
outside every measured interval and touches nothing the program under
test uses, so a change to the program moves the scaled figures exactly
as it moves the raw ones.
"""

import os
import statistics
import time

# Probe seconds at the reference speed; close to what the probe takes
# on an idle 2-vCPU cloud VM, so scaled and raw seconds are alike there.
REFERENCE_S = 0.001


def _work():
    """Interpreter dispatch, dict traffic and integer arithmetic: the
    mix the translator and the simulator spend their time in."""
    table = {}
    total = 0
    for i in range(6000):
        key = i & 255
        total += table.get(key, 0) + (i * 7) % 13
        table[key] = total & 1023
    return total


def probe():
    """Seconds the probe work takes now: the best of three runs, so an
    interrupt landing in one of them does not count."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _work()
        best = min(best, time.perf_counter() - start)
    return best


# The CPUs the benchmark may run on, read before anything is pinned.
CPUS = sorted(os.sched_getaffinity(0))


def probe_on(cpu):
    """Pin this process to ``cpu`` and probe there."""
    os.sched_setaffinity(0, {cpu})
    return probe()


def probe_every_cpu():
    """The mean of one probe on each CPU, for work spread over several
    CPUs: a vCPU of a shared host runs fast or slow by turns, each on
    its own, as the host core under it is shared or not.  The process
    may run on every CPU again afterwards."""
    readings = [probe_on(cpu) for cpu in CPUS]
    os.sched_setaffinity(0, CPUS)
    return sum(readings) / len(readings)


def pin_fastest():
    """Pin this process to the CPU that probes fastest now and return
    that probe.  Threads it starts later inherit the pin, so work that
    runs on one CPU at a time runs, and is probed, on that CPU."""
    readings = {cpu: probe_on(cpu) for cpu in CPUS}
    cpu = min(readings, key=readings.get)
    os.sched_setaffinity(0, {cpu})
    return readings[cpu]


def scale(probes):
    """Factor from seconds measured while ``probes`` were taken (at
    least the one right before and the one right after) to seconds at
    the reference speed."""
    return REFERENCE_S / statistics.median(probes)
