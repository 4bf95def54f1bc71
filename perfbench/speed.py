"""Machine-speed calibration for the benchmark's clocks.

Stdlib only, so that it can time the imports of everything else.
"""

from __future__ import annotations

import gc
import os
import signal
import statistics
from time import perf_counter, thread_time
from typing import Callable, Dict, List, Tuple


#: Seconds per :func:`calibration_loop` on the reference machine (a
#: 2-vCPU Intel Xeon virtual machine at its usual speed). End-to-end
#: times are reported at this speed.
REFERENCE_CALIBRATION_S = 0.0012
#: How often the speed is sampled while an operation runs.
SAMPLE_PERIOD_S = 0.05


class _SlabLRU:
    """A small array-linked LRU, the kind of interpreter work the
    simulator does: dict lookups, list stores, method calls and one
    tuple per access."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.slot: Dict[int, int] = {}
        self.key: List[int] = [-1]
        self.prev = [0]
        self.next = [0]

    def _unlink(self, slot: int) -> None:
        before, after = self.prev[slot], self.next[slot]
        self.next[before] = after
        self.prev[after] = before

    def _push(self, slot: int) -> None:
        first = self.next[0]
        self.next[0] = slot
        self.prev[slot] = 0
        self.next[slot] = first
        self.prev[first] = slot

    def access(self, key: int) -> Tuple[int, bool]:
        slot = self.slot.get(key)
        if slot is not None:
            self._unlink(slot)
            self._push(slot)
            return key, True
        if len(self.slot) >= self.capacity:
            slot = self.prev[0]
            self._unlink(slot)
            del self.slot[self.key[slot]]
        else:
            slot = len(self.key)
            self.key.append(-1)
            self.prev.append(0)
            self.next.append(0)
        self.key[slot] = key
        self.slot[key] = slot
        self._push(slot)
        return key, False


def calibration_loop() -> int:
    """A fixed unit of pure-Python work that no program change touches."""
    lru = _SlabLRU(300)
    access = lru.access
    state = 12345
    hits = 0
    for _ in range(1000):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        if access((state >> 8) % 900)[1]:
            hits += 1
    return hits


def calibrate() -> float:
    """CPU seconds of one :func:`calibration_loop` right now.

    CPU time rather than wall time: when worker processes keep every
    CPU busy, the time this process waits for a CPU says nothing about
    how fast the CPUs run.
    """
    started = thread_time()
    calibration_loop()
    return thread_time() - started


class Speedometer:
    """Samples the machine's speed every :data:`SAMPLE_PERIOD_S` while an
    operation runs, from a timer signal handled between bytecodes of
    whatever the main thread is doing.

    The host this benchmark was built on changes speed by up to 1.8x for
    seconds at a time, as other tenants come and go on the vCPUs'
    hyperthread siblings; the samples tell how fast each stretch of an
    operation ran.
    """

    def __init__(self, every_cpu: bool = False) -> None:
        self.samples: List[float] = []
        self.spent = 0.0
        self._cpus = sorted(os.sched_getaffinity(0))
        self._every_cpu = every_cpu and len(self._cpus) > 1
        self._ticks = 0

    def sample(self) -> float:
        """One calibration; with ``every_cpu``, on each CPU in turn.

        An operation whose worker processes keep every CPU busy runs at
        the speed of all of them, which the main process, left where
        the scheduler put it, would not see.
        """
        if not self._every_cpu:
            return calibrate()
        self._ticks += 1
        os.sched_setaffinity(0, {self._cpus[self._ticks % len(self._cpus)]})
        try:
            return calibrate()
        finally:
            os.sched_setaffinity(0, self._cpus)

    def _tick(self, signum: int, frame: object) -> None:
        started = perf_counter()
        self.samples.append(self.sample())
        self.spent += perf_counter() - started

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def at_reference_speed(
    fn: Callable[[], object], every_cpu: bool = False
) -> Tuple[float, float, object]:
    """Run ``fn`` under a :class:`Speedometer`; return (seconds at the
    reference speed, wall seconds, result).

    The wall time, less the time spent sampling, is scaled by the mean
    speed of the samples taken before, during and after the operation;
    the calibration loop runs no program code, so a program change
    moves the scaled time exactly as it moves the wall time. Pass
    ``every_cpu`` for an operation that keeps every CPU busy. A full
    collection first keeps garbage left by the previous operation from
    being charged to this one.
    """
    gc.collect()
    meter = Speedometer(every_cpu)
    rounds = 3 * len(meter._cpus) if every_cpu else 3
    meter.samples.append(min(meter.sample() for _ in range(rounds)))
    with meter:
        started = perf_counter()
        result = fn()
        wall = perf_counter() - started
    meter.samples.append(min(meter.sample() for _ in range(rounds)))
    relative_speed = statistics.fmean(
        REFERENCE_CALIBRATION_S / sample for sample in meter.samples
    )
    return (wall - meter.spent) * relative_speed, wall, result


def fastest(repeats: int, fn: Callable[[], object]) -> float:
    """The fastest of ``repeats`` runs of ``fn``, in seconds at the
    reference speed."""
    return min(at_reference_speed(fn)[0] for _ in range(repeats))
