"""Deterministic seeded peer sampling without replacement.

The seed mirrors what an on-chain contract can reach for: the block
timestamp and the mining difficulty, hashed together.  A seed is a
``SelectionSeed`` or an int; ``seed_state`` turns either into the 64-bit
state of a SplitMix64 stream, so that independent implementations agree
bit for bit.  Exact constants, with f the finalizer of ``next()``:

    seed64  = first 8 bytes (big-endian) of
              keccak256(timestamp as uint256 BE || difficulty as uint256 BE)
    int     : seed mod 2**64
    next()  : state += GOLDEN = 0x9E3779B97F4A7C15
              z = state; z ^= z >> 30; z *= 0xBF58476D1CE4E5B9
              z ^= z >> 27; z *= 0x94D049BB133111EB; z ^= z >> 31
    cell_seed(s, i, j) = f(f(s ^ f((i+1) * GOLDEN)) ^ f((j+1) * LEAP))
              with LEAP = 0xD1B54A32D192ED03, all arithmetic mod 2**64

``sample_peers`` is the bounded-work scheme: draw an index mod the
shrinking pool and swap the tail in (a Fisher-Yates prefix), so it
consumes exactly k draws.  Redrawing on collisions instead would make the
draw count unbounded, which a gas-metered contract cannot rely on.

The sampler draws positions, not names.  ``_draw_positions(size, k,
state)`` runs the Fisher-Yates prefix over the positions ``0..size-1``
and returns the k positions drawn; ``sample_peers`` names them from its
candidates in a fresh list.  Which positions are drawn depends only on the
pool size, k and the seed's state, so the draw is memoised on those three
ints: a pool of agent names and a pool of agent indices of one size share
an entry, and so do a ``SelectionSeed`` and its ``seed64()``.  A sampled
settle draws each cell twice, in the reward kernel and in the gas model,
and a replay of the log draws both again; with the memo the last three
find the first one's positions.  The memo is an LRU of ``DRAW_MEMO_SIZE``
= 4,096 draws, about 0.9 MiB at k = 10 (tracemalloc), above the 3,080
sampled cells of a skip-one 56x56 settle.  A hit costs about 2 us and a
draw 9-15 us (2-core Xeon, Python 3.11).  The kernel and the gas model
each draw every cell in row-major order, so a settle with more sampled
cells than ``DRAW_MEMO_SIZE`` (skip-one 100x100 has 9,900) gets no hits
and pays for the memo on every draw: the naming step, the lookup, the
insert and an eviction make its two ``peer_visits`` about 20% slower
than drawing names directly.  A log replayed in a process that did not
run its round draws every cell afresh in the kernel.

``cell_seed(seed, i, j)`` is the seed of one (agent, question) cell's
draws.  ``cell_seeds`` derives the seeds of every cell of an agents x
questions grid at once: the two finalize layers run as numpy ``uint64``
array operations (wrapping adds, xor-shifts and multiplies), once over the
agent tags and once over the question tags, and the result comes back as
Python ints.  ``cell_seeds(seed, n, Q)[i][j] == cell_seed(seed, i, j)``
for every cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import KTooLarge, require_ints
from .keccak import keccak256

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_LEAP = 0xD1B54A32D192ED03

DRAW_MEMO_SIZE = 4096  # draws kept by _draw_positions


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


@dataclass(frozen=True)
class SelectionSeed:
    """On-chain entropy sources for the sampling seed."""

    block_timestamp: int
    difficulty: int

    def __post_init__(self):
        require_ints(block_timestamp=self.block_timestamp, difficulty=self.difficulty)
        if not (0 <= self.block_timestamp < 1 << 256 and 0 <= self.difficulty < 1 << 256):
            raise ValueError("timestamp and difficulty are uint256")

    def seed64(self) -> int:
        payload = self.block_timestamp.to_bytes(32, "big") + self.difficulty.to_bytes(32, "big")
        return int.from_bytes(keccak256(payload)[:8], "big")


def seed_state(seed: SelectionSeed | int) -> int:
    """The 64-bit state a seed starts its stream from: a ``SelectionSeed``'s
    ``seed64()``, or an int mod 2**64.  Raises ValueError for anything else,
    a bool included."""
    # the exact type first: `peer_visits` passes one int seed per sampled cell
    if type(seed) is int or isinstance(seed, int) and not isinstance(seed, bool):
        return seed & _MASK64
    if isinstance(seed, SelectionSeed):
        return seed.seed64()
    raise ValueError(f"seed must be a SelectionSeed or an int, got {seed!r}")


def sample_peers(candidates: Sequence[str], k: int, seed: SelectionSeed | int) -> list[str]:
    """Draw k distinct peers using exactly k PRNG draws.

    Each draw indexes the remaining pool modulo its size; the chosen entry
    is swapped out by the pool tail.  The modulo bias is below 2^-48 for
    any realistic pool and is accepted.  The draw picks positions, which
    ``_draw_positions`` memoises; this names them, in a fresh list.
    """
    require_ints(k=k)
    size = len(candidates)
    if not 1 <= k <= size:
        raise KTooLarge(f"k={k} outside 1..{size}")
    return [candidates[p] for p in _draw_positions(size, k, seed_state(seed))]


@lru_cache(maxsize=DRAW_MEMO_SIZE)
def _draw_positions(size: int, k: int, state: int) -> tuple[int, ...]:
    """The positions in ``0..size-1`` of the k peers drawn from a pool of
    ``size`` by the stream at ``state``, in the order drawn."""
    draw = SplitMix64(state).next
    pool = list(range(size))
    picked = []
    # the live pool is pool[:n]; its tail entry fills the slot just drawn
    for n in range(size, size - k, -1):
        idx = draw() % n
        picked.append(pool[idx])
        pool[idx] = pool[n - 1]
    return tuple(picked)


def cell_seed(seed: SelectionSeed | int, agent_index: int, question_index: int) -> int:
    """The seed of one (agent, question) cell's draws."""
    row = _finalize(seed_state(seed) ^ _finalize((agent_index + 1) * _GOLDEN))
    return _finalize(row ^ _finalize((question_index + 1) * _LEAP))


def _finalize_array(z: np.ndarray) -> np.ndarray:
    """``_finalize`` on a uint64 array; array arithmetic wraps mod 2**64."""
    z = z ^ z >> np.uint64(30)
    z = z * np.uint64(0xBF58476D1CE4E5B9)
    z = z ^ z >> np.uint64(27)
    z = z * np.uint64(0x94D049BB133111EB)
    return z ^ z >> np.uint64(31)


def cell_seeds(seed: SelectionSeed | int, n_agents: int, n_questions: int) -> list[list[int]]:
    """``cell_seed(seed, i, j)`` at row i, column j, for every cell of an
    n_agents x n_questions grid, as Python ints."""
    # uint64 arrays even for the one base seed: numpy warns when a scalar
    # overflows, while array arithmetic wraps silently
    base = np.array([seed_state(seed)], dtype=np.uint64)
    agent_tags = np.arange(1, n_agents + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
    question_tags = np.arange(1, n_questions + 1, dtype=np.uint64) * np.uint64(_LEAP)
    rows = _finalize_array(base ^ _finalize_array(agent_tags))
    return _finalize_array(rows[:, None] ^ _finalize_array(question_tags)).tolist()
