"""A fixed reference kernel that measures how fast the machine runs right now.

The benchmark is tuned on a virtual machine whose host is shared: the same
code runs up to ~2x slower a few minutes later, and no length of run averages
that out.  So the workers time this kernel while they work, every EVERY_S of
wall time from a timer signal (inside long operations too), and the
end-to-end times are reported at reference speed:

    scaled = raw * REF_S / (mean reference sample time while it ran)

The time spent in the samples is taken off the raw time.

The kernel never calls spernersat, so a change to the program moves only the
raw time, never the reference.  It mixes the two kinds of work the program
does: a pure-Python part (bitmask loops, dict and list traffic, like the
search and the brute-force oracle) and a numpy part (an n x n containment
test by broadcasting and a reduction over it, like the verifier).
"""

from __future__ import annotations

import signal
import time

import numpy as np

# About one sample's median time on the 2-vCPU Xeon virtual machine the
# benchmark was tuned on (it read 8 to 13 ms there within minutes).  It only
# sets the scale: every comparison is of ratios.
REF_S = 0.010
# The sampling period of a measuring pass.
EVERY_S = 0.1
# Samples a worker takes right after its inputs are ready, for setup_s.
SETUP_SAMPLES = 8

# Kept small, and the containment test done in row blocks, so the kernel
# adds well under a megabyte to a worker's peak resident memory.
# (numpy.random is not used: importing it alone costs ~2 MB.)
_MASKS = (np.arange(2000, dtype=np.uint64) * 2654435761 % 4096).astype(np.uint16)
_BLOCK = 40


def _python_part() -> int:
    total = 0
    for _ in range(3):
        depth: dict[int, int] = {}
        for mask in range(1, 3500):
            low = mask & -mask
            d = depth.get(mask ^ low, 0) + 1
            depth[mask] = d
            total += bin(mask).count("1") * d
        total += len([m for m in depth if m & 5 == 5])
    return total


def _numpy_part() -> int:
    counts = np.zeros(len(_MASKS), dtype=np.int64)
    for row in range(0, len(_MASKS), _BLOCK):
        sub = (_MASKS[row:row + _BLOCK, None] & ~_MASKS[None, :]) == 0
        counts += sub.sum(axis=0)
    return int(counts.max())


def sample() -> float:
    """Time one run of the kernel, in seconds."""
    began = time.perf_counter()
    _python_part()
    _numpy_part()
    return time.perf_counter() - began


def samples(count: int) -> list[float]:
    return [sample() for _ in range(count)]


class Sampler:
    """Samples once on creation and, inside `with`, every EVERY_S of wall
    time from a SIGALRM handler, so long operations are covered evenly.
    `spent` is the time the handler took, to be taken off whatever it
    interrupted.  With enabled=False only the first sample is taken."""

    def __init__(self, enabled: bool = True):
        self.samples = [sample()]
        self.spent = 0.0
        self.enabled = enabled

    def _on_alarm(self, *_) -> None:
        began = time.perf_counter()
        self.samples.append(sample())
        self.spent += time.perf_counter() - began

    def __enter__(self) -> "Sampler":
        if self.enabled:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
