"""Host-speed calibration: times measured on a shared host, scaled to a
reference speed.

On a shared 2-vCPU virtual machine the speed of pure-Python code swings by
up to 2x, from one second to the next and in phases that last minutes, and
the two vCPUs need not be slow at the same moment.  The process's CPU time
swings with it (``time.process_time`` reads the same as the wall clock
there: the slowdown is not time spent off the CPU, so no CPU-time clock
removes it).  So a run pins itself, and the children it starts, to one
vCPU (``pin()``), and brackets every chunk of measured work with two runs
of a fixed calibration kernel; the chunk's times are scaled by
``REFERENCE_S / mean(kernel time before, kernel time after)``, so they read
as seconds on a host where the kernel takes ``REFERENCE_S``.  Chunks are
short (one example, one CLI command, or about 0.2 s of maps), so the two
kernel runs see the speed the chunk saw.

The kernel is the benchmark's own code, a row reduction over GF(7) on
fixed matrices with the same kind of work fingeo's inner loops do (tuple
and list building, table lookups, small function calls).  It calls
nothing in fingeo, so a change to fingeo cannot change the scale, and it
runs with the garbage collector off, so the heap fingeo leaves behind
cannot either.
"""

from __future__ import annotations

import gc
import os
import random
import statistics
import time

P = 7
_ADD = [[(a + b) % P for b in range(P)] for a in range(P)]
_MUL = [[(a * b) % P for b in range(P)] for a in range(P)]
_INV = [0] + [pow(a, P - 2, P) for a in range(1, P)]
_rng = random.Random(20220715)
_MATRICES = [tuple(tuple(_rng.randrange(P) for _ in range(6)) for _ in range(5)) for _ in range(64)]
_REPEATS = 14
# the kernel's time on the host the benchmark was defined on, in a quiet
# phase; it fixes the unit of the scaled times
REFERENCE_S = 0.02


def _rref(rows):
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        scale = _MUL[_INV[rows[rank][c]]]
        pivot_row = rows[rank] = [scale[x] for x in rows[rank]]
        for i, row in enumerate(rows):
            if i != rank and row[c]:
                f = _MUL[P - row[c]]
                rows[i] = [_ADD[x][f[y]] for x, y in zip(row, pivot_row)]
        rank += 1
    return tuple(tuple(r) for r in rows[:rank])


def kernel_seconds():
    """Seconds the calibration kernel takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        seen = {}
        for _ in range(_REPEATS):
            for m in _MATRICES:
                r = _rref(m)
                seen[r] = seen.get(r, 0) + 1
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def pin():
    """Pin this process, and the children it will start, to the allowed
    vCPU where the kernel runs fastest now; returns that vCPU."""
    speeds = {}
    for cpu in sorted(os.sched_getaffinity(0)):
        os.sched_setaffinity(0, {cpu})
        speeds[cpu] = min(kernel_seconds() for _ in range(3))
    cpu = min(speeds, key=speeds.get)
    os.sched_setaffinity(0, {cpu})
    return cpu


class Meter:
    """Scales chunks of measured work to the reference speed.  Call
    ``start()`` before a chunk and ``scale()`` after it; the kernel run
    that closes one chunk opens the next."""

    def __init__(self):
        self.samples = []
        self._before = None

    def _sample(self):
        self.samples.append(kernel_seconds())
        return self.samples[-1]

    def start(self):
        self._before = self._sample()

    def scale(self):
        """Reference seconds per measured second for the work done since
        the last kernel run."""
        after = self._sample()
        factor = REFERENCE_S / ((self._before + after) / 2)
        self._before = after
        return factor

    def median_speed(self):
        """The host's median speed over the run, as a share of the
        reference (1.0 when the kernel takes REFERENCE_S)."""
        return REFERENCE_S / statistics.median(self.samples)
