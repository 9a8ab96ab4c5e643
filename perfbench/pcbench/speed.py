"""Machine-speed reference used to normalise operation times.

The benchmark runs on shared machines whose speed drifts by tens of
percent over minutes: on a 2-core Xeon, five-second medians of one fixed
pure-Python loop ranged from 12 to 20 ms within 90 seconds.  Left raw, that
drift, not the code, would decide whether two runs agree.  So the runner
times `reference()` between operations, and each operation's time is
reported as its wall time scaled by ``NOMINAL_S`` over the median of the
reference times measured in the two gaps before it and the two after it:
seconds at the reference speed.  Raw wall and CPU times are kept next to it.

The reference uses no peerchain code, so a change to peerchain cannot move
it.  It mixes the kinds of work the program does: exact rational
arithmetic, dict updates, 64-bit integer mixing, and numpy array passes.
"""

from __future__ import annotations

from fractions import Fraction
from statistics import median
from time import perf_counter

import numpy as np

NOMINAL_S = 0.009   # about the median of one reference() on a 2.1 GHz Xeon core
REACH = 2           # gaps on each side of an operation whose samples set its scale
_MASK64 = (1 << 64) - 1
_ROWS, _COLS = 40_000, 10
_PEERS = np.random.default_rng(1).integers(0, _COLS, size=(_ROWS, _COLS))


def reference() -> float:
    """About 4 ms of interpreter work, then about 7 ms of numpy work on arrays
    larger than a core's cache, as in the Monte-Carlo estimators.  Either
    half alone tracked one kind of operation worse than the sum does."""
    total = Fraction(0)
    table: dict[int, Fraction] = {}
    x = 0x9E3779B97F4A7C15
    for i in range(1, 1000):
        total += Fraction(i % 7, i)
        table[i & 255] = total
        x = ((x ^ (x >> 31)) * 0xBF58476D1CE4E5B9) & _MASK64
    rng = np.random.Generator(np.random.PCG64(x & 0xFFFF))
    obs = (rng.random((_ROWS, _COLS)) < rng.random(_ROWS)[:, None]).astype(np.int8)
    match = np.take_along_axis(obs, _PEERS, axis=1) == obs
    return float((match / 0.9 - 1.0).mean()) + len(table) + float(total)


class Speedometer:
    """Reference times taken in the gaps between operations."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> int:
        """Time one reference(); returns the sample's index."""
        t0 = perf_counter()
        reference()
        self.samples.append(perf_counter() - t0)
        return len(self.samples) - 1

    def around(self, i: int) -> float:
        """Median of the samples within ``REACH`` gaps of gap i.

        One slow sample (an interrupt, a page fault) then does not move the
        scale of the operation next to it, while drift over seconds does.
        """
        return median(self.samples[max(0, i - REACH):i + REACH])

    def warm(self) -> float:
        """Median of three samples taken after one warm-up call."""
        self.sample()
        return median(self.samples[self.sample()] for _ in range(3))


def normalised(wall: float, ref: float) -> float:
    """Wall seconds scaled to the nominal reference speed."""
    return wall * NOMINAL_S / ref
