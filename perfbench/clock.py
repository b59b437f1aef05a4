"""Calibrated time: measured seconds scaled to a reference machine speed.

The machines this benchmark runs on are shared, and their speed drifts
between regimes by up to ~1.8x over seconds, which no run length averages
out.  So the runner samples a fixed calibration kernel between operations
(every :data:`INTERVAL_S` of wall time, outside any timed region) and
scales each operation's time by ``REFERENCE_S / local kernel time``, where
the local kernel time is the median of the samples nearest the operation.
An untimed run of the kernel precedes each timed one, so a sample does
not depend on what the engine's last operation left in the caches.

The kernel does no work of the program under test, so a change to the
program cannot move it.  It does the kinds of work the engine does, each on
a cache-resident working set: sorting and binary search of (timestamp,
index) pairs, struct packing with a CRC and unpacking, and dictionary
probes.  Its speed tracks the engine's through the machine's regimes.  On
a shared 2-vCPU x86_64 VM, the engine's time over this kernel's varied
(coefficient of variation across ~5 s windows, over three minutes) by
6-9% for reads and writes, against 8-10% uncalibrated and 14-17% over a
kernel of probes into a 200,000-entry table.  Raw wall-clock numbers are
reported beside the scaled ones.
"""

from __future__ import annotations

import random
import statistics
import struct
import zlib
from bisect import bisect_left
from time import perf_counter

#: Kernel time on the reference machine; scaled times are in its seconds.
REFERENCE_S = 0.001
#: Wall time between two kernel samples.
INTERVAL_S = 0.025
#: Samples whose median is an operation's local kernel time.
NEAREST = 41


class Clock:
    """Kernel samples over a run, and the scale they give at any instant."""

    def __init__(self) -> None:
        self._table = {i * 2_654_435_761 % (1 << 32): i for i in range(2_000)}
        self._probes = list(self._table)
        random.Random(0).shuffle(self._probes)
        self._times: list[float] = []
        self._seconds: list[float] = []
        self._last = float("-inf")

    def kernel(self) -> float:
        """One run of the calibration kernel; returns its wall time.

        An untimed run first brings the kernel's code and data back into
        the caches, so the timed run measures the machine's speed rather
        than how much the engine's last operation evicted."""
        self._work()
        t0 = perf_counter()
        self._work()
        return perf_counter() - t0

    def _work(self) -> None:
        # Sort and binary search, as a memtable sort and an index lookup do.
        rng = random.Random(1)
        pairs = [(rng.randrange(1 << 30), i) for i in range(500)]
        pairs.sort()
        keys = [key for key, _ in pairs]
        for key, _ in pairs[::3]:
            bisect_left(keys, key)
        # Pack, checksum and unpack, as a page write and read do.
        packed = bytearray()
        for i in range(500):
            packed += struct.pack("<qd", i * 7, i * 0.5)
        zlib.crc32(packed)
        list(struct.iter_unpack("<qd", packed))
        # Dictionary probes.
        table = self._table
        total = 0
        for _ in range(5):
            for key in self._probes:
                total += table[key]

    def sample(self) -> None:
        self._seconds.append(self.kernel())
        self._times.append(perf_counter())
        self._last = self._times[-1]

    def tick(self) -> None:
        """Sample if :data:`INTERVAL_S` has passed since the last sample."""
        if perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def scale_at(self, t: float) -> float:
        """``REFERENCE_S`` over the median kernel time nearest ``t``."""
        i = bisect_left(self._times, t)
        lo = max(0, min(i - NEAREST // 2, len(self._times) - NEAREST))
        return REFERENCE_S / statistics.median(self._seconds[lo : lo + NEAREST])

    def scaled(self, timed: list[tuple]) -> list[float]:
        """Timings ``(start, wall seconds, ...)`` as reference-machine
        seconds."""
        return [timing[1] * self.scale_at(timing[0]) for timing in timed]
