"""A fixed unit of work that times the machine, not the program.

The benchmark runs on shared virtual CPUs whose speed drifts by half or more
from one minute to the next, and process CPU time drifts with it.  While a
run measures, a timer does one unit of this fixed work every quarter
second, inside whatever operation is running.  The run subtracts each
unit's time from the operation it interrupted, and scales each operation's
times by REFERENCE_S over the mean time of the units run during it (or of
the nearest ones, see Meter.scales), which gives seconds at the speed where
one unit takes REFERENCE_S.  The reference is the benchmark's own code, so
a change to the program cannot move it.  Single units are noisy (the speed
of a shared vCPU wanders by a fifth within a second), so a scale always
rests on several.

There is one kind of unit per workload, with the shape of its hot loop:
exact integer elimination in pure Python for `classify`, a walk of complex
vector multiplies for `torus`, 2-D gathers for `zn-count`.  When the
machine's speed changed twofold within an hour, each workload's time
followed its own kind of unit more closely than the others: `classify` ran
2.05x faster against 1.85x for elimination and 1.53x for gathers,
`zn-count` 1.50x against 1.53x for gathers and 1.85x for elimination.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# Only a scale: every scaled time is proportional to it.  One unit of each
# kind takes 0.012 s on a 2.1 GHz Xeon vCPU in its fast hours (Python 3.11,
# numpy 2.4), and up to about 0.02 s in its slow ones.
REFERENCE_S = 0.02

_SIZE = 9


def _matrix():
    """A fixed 9x9 integer matrix from a linear congruential sequence."""
    state, rows = 12345, []
    for _ in range(_SIZE):
        row = []
        for _ in range(_SIZE):
            state = (1103515245 * state + 12345) % 2**31
            row.append(state % 199 - 99)
        rows.append(row)
    return rows


_MATRIX = _matrix()
_WALK = np.exp(2j * np.pi * 0.6180339887498949 * np.arange(1024.0) ** 2)
_SIGNAL = np.cos(np.arange(307.0))
_GATHER = (np.arange(307)[None, :] + 5 * np.arange(307)[:, None]) % 307
# Work buffers, made once: a unit allocates no arrays, so the reference
# adds nothing to the peak memory that a run reports.
_WALK_STEP = np.empty_like(_WALK)
_WALK_TOTAL = np.empty_like(_WALK)
_PROD = np.ones(_GATHER.shape)
_INDEX = np.empty_like(_GATHER)
_TERM = np.empty(_GATHER.shape)


def _bareiss(rows):
    """Determinant by fraction-free elimination, in Python integers."""
    m = [list(r) for r in rows]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap], sign = m[swap], m[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def _exact():
    """Integer elimination in pure Python, as in the exact layer."""
    acc = 0
    for shift in range(265):
        acc ^= _bareiss([row[shift % _SIZE:] + row[:shift % _SIZE] for row in _MATRIX]) & 0xFFFF
    return acc


def _walk():
    """A walk of complex vector multiplies, as in the character sweep."""
    walk, total = _WALK_STEP, _WALK_TOTAL
    walk[:] = _WALK
    total[:] = 0
    for _ in range(8500):
        total += walk
        walk *= _WALK
    return float(abs(total[1]))


def _gather():
    """2-D gathers and products, as in the linear-model count."""
    prod, idx, term = _PROD, _INDEX, _TERM
    prod[:] = 1.0
    for shift in range(24):
        np.add(_GATHER, shift, out=idx)
        np.remainder(idx, 307, out=idx)
        np.take(_SIGNAL, idx, out=term)
        prod *= term
    return float(prod.sum())


# One kind of unit per workload, chosen by the shape of its hot loop.
UNITS = {"exact": _exact, "walk": _walk, "gather": _gather}


class Meter:
    """Reference work done on a wall-clock timer while a run measures.

    Every `every` seconds SIGALRM interrupts the operation in progress and
    one unit runs in the handler, so the samples are spread evenly over the
    operations' time instead of bunched between them.  `taken()` gives the
    totals so far; the caller subtracts what a unit took from the
    operation it interrupted."""

    def __init__(self, every, kind):
        self.every = every
        self.unit = UNITS[kind]
        self.wall = self.cpu = 0.0
        self.ticks = []           # (start, wall s, CPU s) of each unit
        self._busy = False

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        wall0, cpu0 = time.perf_counter(), time.process_time()
        self.unit()
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        self.ticks.append((wall0, wall, cpu))
        self.wall += wall
        self.cpu += cpu
        self._busy = False

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def taken(self):
        return self.wall, self.cpu

    def scales(self, start, end, least=8):
        """Factors that turn wall and CPU seconds spent between `start` and
        `end` into seconds at reference speed: REFERENCE_S over the mean
        time of the units run in that stretch, or of the `least` units
        nearest to it when fewer ran inside.  The speed can change within a
        run, so each stretch is scaled by its own units."""
        inside = sum(start <= t <= end for t, _, _ in self.ticks)
        near = sorted(self.ticks, key=lambda tick: max(start - tick[0], 0.0, tick[0] - end))
        near = near[:max(least, inside)]
        return (REFERENCE_S * len(near) / sum(w for _, w, _ in near),
                REFERENCE_S * len(near) / sum(c for _, _, c in near))
