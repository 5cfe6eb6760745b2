"""Machine-speed calibration for timings taken on a shared host.

On a small virtual machine whose host is shared, the same invocation can take
twice as long in one minute as in the next, for minutes at a time.  Every
timed region is therefore bracketed by a fixed pure-Python kernel, run just
before and just after it, and its wall time is scaled to a nominal machine on
which the kernel takes ``NOMINAL_S`` seconds.  The kernel uses no paircheck
code, so a change to the program cannot move it; the raw wall times are kept
beside the scaled ones.
"""

from __future__ import annotations

import time

NOMINAL_S = 0.05  # kernel seconds that define the nominal speed (about its median on a 2-core 2 GHz Xeon VM)
_KERNEL_ITERATIONS = 250_000


def kernel_s() -> float:
    """Seconds taken by a fixed loop of tuple, dict and string work."""
    start = time.perf_counter()
    table: dict[int, tuple] = {}
    pair: tuple = ("a", 0)
    text = ""
    for i in range(_KERNEL_ITERATIONS):
        pair = (pair[1], i)
        table[i & 1023] = pair
        if i & 63 == 0:
            text = str(i) + text[:40]
    return time.perf_counter() - start


class Bracket:
    """Times a ``with`` block and scales it by the kernel run around it."""

    wall_s: float
    scale: float

    def __enter__(self) -> "Bracket":
        self._before = kernel_s()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = time.perf_counter() - self._start
        self.scale = NOMINAL_S / ((self._before + kernel_s()) / 2)

    @property
    def nominal_s(self) -> float:
        return self.wall_s * self.scale
