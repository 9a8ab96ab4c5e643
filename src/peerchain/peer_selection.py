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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .errors import KTooLarge
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
        self.state = (self.state + _GOLDEN) & _MASK64
        return _finalize(self.state)

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


def _as_stream(seed: SeedLike) -> SplitMix64:
    if isinstance(seed, SplitMix64):
        return seed
    if isinstance(seed, SelectionSeed):
        return seed.stream()
    return SplitMix64(seed)


def sample_peers(candidates: Sequence[str], k: int, seed: SeedLike) -> list[str]:
    """Draw k distinct peers using exactly k PRNG draws.

    Each draw indexes the remaining pool modulo its size; the chosen entry
    is swapped out by the pool tail.  The modulo bias is below 2^-48 for
    any realistic pool and is accepted.
    """
    if not 1 <= k <= len(candidates):
        raise KTooLarge(f"k={k} outside 1..{len(candidates)}")
    stream = _as_stream(seed)
    pool = list(candidates)
    picked = []
    for _ in range(k):
        idx = stream.next() % len(pool)
        picked.append(pool[idx])
        pool[idx] = pool[-1]
        pool.pop()
    return picked


def cell_stream(seed: SeedLike, agent_index: int, question_index: int) -> SplitMix64:
    """Substream for one (agent, question) cell of a reward computation."""
    return _as_stream(seed).derive(agent_index, question_index)
