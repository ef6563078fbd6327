"""The machine's speed, sampled during a run with a fixed reference job.

On a shared host the speed of a core changes by up to half, within a
second as well as for tens of seconds at a time, so the same pass can
take 1.5 times as long a minute later. While the benchmark measures, a
wall-clock timer signal (SIGALRM, handled in the main thread between
bytecodes; no thread or process) interrupts the program every TICK_S
seconds to run the reference job once. The time spent in the handler is
taken out of every measured interval, and the interval is scaled by
REFERENCE_S over the mean reference time of the jobs run during and
around it. The scaled time is the time the interval would have taken on
a machine on which the reference job takes REFERENCE_S: it moves with
the package's own speed and not with the host's.

The job imports nothing from the package and never changes, so that a
change to the package cannot move it. It does what the package spends
its time on: fraction-free integer elimination with gcd content
removal, Fraction arithmetic and dicts keyed by exponent tuples.
"""

import gc
import signal
import statistics
import time
from fractions import Fraction
from math import gcd

# A round figure near the reference job's time on the 2-vCPU Xeon VM the
# baseline was taken on; it sets the units, not what a comparison shows.
REFERENCE_S = 0.008
TICK_S = 0.15
NEAREST = 10


def _matrix(size):
    """A full-rank square matrix of entries in -9..9 from a fixed LCG."""
    x, rows = 12345, []
    for _ in range(size):
        row = []
        for _ in range(size):
            x = (1103515245 * x + 12345) % 2**31
            row.append(x % 19 - 9)
        rows.append(row)
    return rows


_MATRIX = _matrix(24)
_TERMS = [tuple((3 * k + i * k // 7) % 6 for i in range(4)) for k in range(28)]


def _rank(rows):
    mat = [list(r) for r in rows]
    r = 0
    for col in range(len(mat[0])):
        piv = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        pr, pv = mat[r], mat[r][col]
        for i in range(r + 1, len(mat)):
            v = mat[i][col]
            if v:
                row = [pv * a - v * b for a, b in zip(mat[i], pr)]
                g = 0
                for x in row:
                    g = gcd(g, x)
                mat[i] = [x // g for x in row] if g > 1 else row
        r += 1
    return r


def _poly_square():
    poly = {t: Fraction(k + 1, k + 2) for k, t in enumerate(_TERMS)}
    out = {}
    for a, ca in poly.items():
        for b, cb in poly.items():
            key = tuple(x + y for x, y in zip(a, b))
            out[key] = out.get(key, 0) + ca * cb
    return sum(out.values())


def job():
    """One run of the reference job; returns a check value."""
    return _rank(_MATRIX), _poly_square()


EXPECTED = job()


def timed_job():
    """Seconds of one reference job. The garbage collector is off
    meanwhile: the job makes no cycles, and a collection would time the
    package's heap instead of the machine."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        if job() != EXPECTED:
            raise RuntimeError("reference job gave a different result")
        return time.perf_counter() - t
    finally:
        if enabled:
            gc.enable()


class Speedometer:
    """Runs the reference job on every timer tick while it is entered, and
    keeps each job's time with the time it ended. `busy` is the time spent
    in the handler, so `mark()`s give the program's own time. With tick 0
    there is no timer and no job."""

    def __init__(self, tick=TICK_S):
        self.tick = tick
        self.busy = 0.0
        self.samples = []
        self._inside = False

    def _on_tick(self, signum, frame):
        if self._inside:
            return
        self._inside = True
        start = time.perf_counter()
        ref = timed_job()
        end = time.perf_counter()
        self.samples.append((end, ref))
        self.busy += time.perf_counter() - start
        self._inside = False

    def __enter__(self):
        if self.tick:
            self._previous = signal.signal(signal.SIGALRM, self._on_tick)
            signal.setitimer(signal.ITIMER_REAL, self.tick, self.tick)
        return self

    def __exit__(self, *exc):
        if self.tick:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def mark(self):
        """(perf_counter time, handler time so far), read consistently."""
        while True:
            busy = self.busy
            now = time.perf_counter()
            if busy == self.busy:
                return now, busy

    def reference_near(self, start, end, window):
        """Mean reference time of the jobs that ended within `window`
        seconds of the interval [start, end], or of the NEAREST nearest
        jobs if fewer."""
        near = [ref for t, ref in self.samples
                if start - window <= t <= end + window]
        if len(near) < NEAREST:
            by_distance = sorted(
                self.samples,
                key=lambda s: max(start - s[0], s[0] - end, 0.0))
            near = [ref for _, ref in by_distance[:NEAREST]]
        return statistics.mean(near)

    @staticmethod
    def own(first, last):
        """Seconds between two marks, less the handler's time."""
        return (last[0] - first[0]) - (last[1] - first[1])

    def scale(self, first, last, window):
        """Seconds at reference speed between two marks."""
        return self.own(first, last) * REFERENCE_S / self.reference_near(
            first[0], last[0], window)
