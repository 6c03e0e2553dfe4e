"""Machine-speed gauge for the cikit benchmark.

The hosts this benchmark runs on share their cores with other machines.  A
fixed piece of pure-Python work takes up to twice as long in a slow spell
as in a quiet one, and spells last from seconds to minutes, so raw times of
the same code differ by that much from run to run.  The gauge runs a fixed
reference workload, ``reference_work``, every ``INTERVAL_S`` from a SIGALRM
handler, so its samples also land inside long operations.  An operation's
time is then reported at reference speed: its raw time, less the gauge's
own work inside it, divided by the mean slowdown of the samples taken
around it.

The reference work uses nothing from cikit, so a change to the library
moves the operations and not the gauge.  It runs the interpreter work the
library runs on: ``Fraction`` arithmetic on small and on 300-bit integers,
tuples, lists and a dict of some hundred entries, and modular dot
products over integer rows.
"""

from __future__ import annotations

import array
import bisect
import random
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.1
# Fastest time of ``reference_work`` on the machine the bounds were set on
# (a 2-vCPU Intel Xeon KVM guest, Python 3.11), so that times at reference
# speed read as times on that machine when it is quiet.
REFERENCE_S = 0.006


# 300-bit operands for the big-integer part of the reference work
_BIG = [random.Random(0).getrandbits(300) | 1 for _ in range(64)]


def reference_work() -> int:
    acc = 0
    table = {}
    for i in range(1, 800):
        q = Fraction(i, i + 1) * Fraction(i + 2, 2 * i + 1) - Fraction(1, i)
        table[(i * 7919) % 811, i] = [q.numerator % 1000, q.denominator]
    rows = [[(i * j) % 32003 for j in range(40)] for i in range(40)]
    for r in rows:
        acc = (acc + sum(a * b for a, b in zip(r, rows[1]))) % 32003
    for i in range(120):
        a = Fraction(_BIG[i % 64], _BIG[(7 * i + 1) % 64])
        b = Fraction(_BIG[(3 * i + 2) % 64], _BIG[(i + 5) % 64])
        acc ^= (a * b - a).numerator & 0xFFFF
    return acc + len(sorted(table))


class SpeedGauge:
    """Samples of (start, end, slowdown): the reference work's time there
    divided by REFERENCE_S.

    The samples are kept in arrays of doubles: a sample taken inside an
    operation would otherwise leave a small object in the middle of the
    operation's freed memory, keep that memory from being returned and so
    raise the process's peak resident memory."""

    def __init__(self):
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.slowdowns = array.array("d")

    def sample(self, *_):
        t0 = time.perf_counter()
        reference_work()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self.slowdowns.append((t1 - t0) / REFERENCE_S)

    def start(self):
        """Sample now and then every INTERVAL_S until ``stop``."""
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        """Stop the timer and take a closing sample."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def _window(self, t0, t1):
        """Samples that end between INTERVAL_S before ``t0`` and INTERVAL_S
        after ``t1``: the last one before the interval, those inside it and
        the first one after it."""
        lo = bisect.bisect_left(self.ends, t0 - INTERVAL_S)
        hi = bisect.bisect_right(self.ends, t1 + INTERVAL_S)
        return list(zip(self.starts[lo:hi], self.ends[lo:hi], self.slowdowns[lo:hi]))

    def at_reference(self, t0, t1):
        """(time at reference speed, raw time) of the interval [t0, t1]; the
        raw time excludes the gauge's samples inside it.  Call it once the
        samples after ``t1`` have been taken."""
        window = self._window(t0, t1)
        inside = sum(min(e, t1) - max(s, t0) for s, e, _ in window if s < t1 and e > t0)
        raw = (t1 - t0) - inside
        slowdown = sum(x for _, _, x in window) / len(window)
        return raw / slowdown, raw
