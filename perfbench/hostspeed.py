"""How fast the shared host runs right now, for scaling measured op times.

The machines this benchmark runs on share their cores with other tenants,
and the speed the benchmark gets drifts by a third over seconds to minutes.
A ``HostSpeed`` times a fixed kernel that does the same kind of work as the
workload's ops, and uses no monodyn code, so a change to the package cannot
move it.  It probes between ops, at most every tenth of a second (every
second for the interpreter kernel).  An op's factor is the kernel's
reference time over the mean of the probes just before and just after the
op: below 1 while the host is slow.  An op's wall time times its factor is
its time at the reference speed.

Kernels:

- ``python``: tuple and dict work and big-integer Euclid steps in the
  interpreter, as in the sandpile, monoid, matrix and Smith code;
- ``numpy``: toppling sweeps over a 96x96 integer array, as in the grid code;
- ``interpreter``: start a fresh Python that imports numpy, as each CLI op
  does before any monodyn code runs.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time

import numpy as np


def python_kernel() -> int:
    rows = [tuple((i * j) % 5 for j in range(6)) for i in range(60)]
    seen: dict = {}
    for a in rows:
        for b in rows[:20]:
            t = tuple(x + y - (4 if x + y >= 4 else 0) for x, y in zip(a, b))
            seen[t] = seen.get(t, 0) + 1
    g = 0
    for i in range(300):
        x, y = 3**200 + 7 + i, (2**190 + 11) * (i + 1)
        while y:
            x, y = y, x % y
        g += x
    return g + len(seen)


def numpy_kernel() -> int:
    a = np.zeros((96, 96), dtype=np.int64)
    a[48, 48] = 4000
    for _ in range(100):
        t = a // 4
        a -= 4 * t
        a[:-1, :] += t[1:, :]
        a[1:, :] += t[:-1, :]
        a[:, :-1] += t[:, 1:]
        a[:, 1:] += t[:, :-1]
    return int(a.sum())


def interpreter_kernel() -> int:
    return subprocess.run([sys.executable, "-c", "import numpy"], stdin=subprocess.DEVNULL, check=True).returncode


# kernel: (function, reference seconds, seconds between probes)
KERNELS = {
    "python": (python_kernel, 0.009, 0.1),
    "numpy": (numpy_kernel, 0.007, 0.1),
    "interpreter": (interpreter_kernel, 0.2, 1.0),
}


class HostSpeed:
    """Times one kernel between ops.  ``mark`` before an op probes when the
    last probe is older than the kernel's interval and returns the number of
    probes so far; after the ops one more ``probe``, and then ``factor(mark)``
    is the reference time over the mean of the probes just before and just
    after the op."""

    def __init__(self, kernel: str):
        self.kernel, self.reference, self.every = KERNELS[kernel]
        self.last = -math.inf
        self.times: list[float] = []

    def probe(self) -> None:
        start = time.perf_counter()
        self.kernel()
        self.last = time.perf_counter()
        self.times.append(self.last - start)

    def mark(self) -> int:
        if time.perf_counter() - self.last >= self.every:
            self.probe()
        return len(self.times)

    def factor(self, mark: int) -> float:
        return 2 * self.reference / (self.times[mark - 1] + self.times[mark])
