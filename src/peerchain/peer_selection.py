"""Deterministic seeded peer sampling without replacement.

The seed mirrors what an on-chain contract can reach for: the block
timestamp and the mining difficulty, hashed together.  All randomness
below is a SplitMix64 stream so that independent implementations agree
bit for bit.  Exact constants:

    seed64  = first 8 bytes (big-endian) of
              keccak256(timestamp as uint256 BE || difficulty as uint256 BE)
    next()  : state += 0x9E3779B97F4A7C15
              z = state; z ^= z >> 30; z *= 0xBF58476D1CE4E5B9
              z ^= z >> 27; z *= 0x94D049BB133111EB; z ^= z >> 31
    derive  : finalize(seed ^ finalize((tag+1) * GOLDEN)), one finalize
              chain per tag, used for per-(agent, question) substreams

``sample_peers`` is the bounded-work scheme: draw an index mod the
shrinking pool and swap the tail in (a Fisher-Yates prefix), so it
consumes exactly k draws.  Redrawing on collisions instead would make the
draw count unbounded, which a gas-metered contract cannot rely on.

``cell_stream(seed, i, j)`` derives one cell's substream.  ``cell_seeds``
derives the states of every cell of an agents x questions grid at once:
the two finalize layers of ``derive`` run as numpy ``uint64`` array
operations (wrapping adds, xor-shifts and multiplies), once over the agent
tags and once over the question tags, and the result comes back as Python
ints.  ``cell_seeds(seed, n, Q)[i][j] == cell_stream(seed, i, j).state``
for every cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import KTooLarge, require_ints
from .keccak import keccak256

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_LEAP = 0xD1B54A32D192ED03


def _finalize(z: int) -> int:
    z &= _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


class SplitMix64:
    """64-bit SplitMix generator; deterministic across platforms."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next(self) -> int:
        # _finalize written out: draws are the hot loop of peer sampling
        z = self.state = (self.state + _GOLDEN) & _MASK64
        z = ((z ^ z >> 30) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ z >> 27) * 0x94D049BB133111EB) & _MASK64
        return z ^ z >> 31

    def derive(self, *tags: int) -> "SplitMix64":
        """Child stream keyed by integer tags (agent index, question index...)."""
        s = self.state
        for i, tag in enumerate(tags):
            mult = _GOLDEN if i % 2 == 0 else _LEAP
            s = _finalize(s ^ _finalize(((tag + 1) * mult) & _MASK64))
        return SplitMix64(s)


@dataclass(frozen=True)
class SelectionSeed:
    """On-chain entropy sources for the sampling seed."""

    block_timestamp: int
    difficulty: int

    def __post_init__(self):
        if self.block_timestamp < 0 or self.difficulty < 0:
            raise ValueError("timestamp and difficulty are unsigned")

    def seed64(self) -> int:
        return self._seed64

    @cached_property
    def _seed64(self) -> int:
        # hashed on first use and kept: every sampled cell derives its
        # substream from this value, so rehashing would cost one keccak a cell
        payload = self.block_timestamp.to_bytes(32, "big") + self.difficulty.to_bytes(32, "big")
        return int.from_bytes(keccak256(payload)[:8], "big")

    def stream(self) -> SplitMix64:
        return SplitMix64(self.seed64())


SeedLike = SelectionSeed | SplitMix64 | int


def require_seed(seed: object) -> None:
    """Raise ValueError unless seed is a SelectionSeed, a SplitMix64 or an int."""
    if isinstance(seed, bool) or not isinstance(seed, (SelectionSeed, SplitMix64, int)):
        raise ValueError(f"seed must be a SelectionSeed, a SplitMix64 or an int, got {seed!r}")


def _as_stream(seed: SeedLike) -> SplitMix64:
    if type(seed) is int:  # checked first: `peer_visits` passes one int seed per sampled cell
        return SplitMix64(seed)
    if isinstance(seed, SplitMix64):
        return seed
    if isinstance(seed, SelectionSeed):
        return seed.stream()
    require_seed(seed)
    return SplitMix64(seed)


def sample_peers(candidates: Sequence[str], k: int, seed: SeedLike) -> list[str]:
    """Draw k distinct peers using exactly k PRNG draws.

    Each draw indexes the remaining pool modulo its size; the chosen entry
    is swapped out by the pool tail.  The modulo bias is below 2^-48 for
    any realistic pool and is accepted.
    """
    require_ints(k=k)
    size = len(candidates)
    if not 1 <= k <= size:
        raise KTooLarge(f"k={k} outside 1..{size}")
    draw = _as_stream(seed).next
    pool = list(candidates)
    picked = []
    # the live pool is pool[:n]; its tail entry fills the slot just drawn
    for n in range(size, size - k, -1):
        idx = draw() % n
        picked.append(pool[idx])
        pool[idx] = pool[n - 1]
    return picked


def cell_stream(seed: SeedLike, agent_index: int, question_index: int) -> SplitMix64:
    """Substream for one (agent, question) cell of a reward computation."""
    return _as_stream(seed).derive(agent_index, question_index)


def _finalize_array(z: np.ndarray) -> np.ndarray:
    """``_finalize`` on a uint64 array; array arithmetic wraps mod 2**64."""
    z = z ^ z >> np.uint64(30)
    z = z * np.uint64(0xBF58476D1CE4E5B9)
    z = z ^ z >> np.uint64(27)
    z = z * np.uint64(0x94D049BB133111EB)
    return z ^ z >> np.uint64(31)


def cell_seeds(seed: SeedLike, n_agents: int, n_questions: int) -> list[list[int]]:
    """State of ``cell_stream(seed, i, j)`` at row i, column j, for every
    cell of an n_agents x n_questions grid, as Python ints."""
    # uint64 arrays even for the one base seed: numpy warns when a scalar
    # overflows, while array arithmetic wraps silently
    base = np.array([_as_stream(seed).state], dtype=np.uint64)
    agent_tags = np.arange(1, n_agents + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
    question_tags = np.arange(1, n_questions + 1, dtype=np.uint64) * np.uint64(_LEAP)
    rows = _finalize_array(base ^ _finalize_array(agent_tags))
    return _finalize_array(rows[:, None] ^ _finalize_array(question_tags)).tolist()
