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
an entry, and so do a ``SelectionSeed`` and its ``seed64()``.  The memo,
``_memo``, is an ``OrderedDict`` kept in least-recently-used order: a hit
moves its entry to the end, and each insert into a full memo first evicts
the oldest entry with ``popitem(last=False)``, so it never holds more than
``DRAW_MEMO_SIZE`` = 4,096 draws, about 0.9 MiB at k = 10 (tracemalloc).

``draw_positions_many(sizes, ks, states)`` fills the memo for a whole
batch of cells at once.  A batch the memo already holds changes nothing.
Otherwise the keys it holds move to its end, so that the batch's inserts
evict none of them, and the missing ones are drawn together: SplitMix64
as wrapping numpy ``uint64`` operations, and the swap-remove prefix as k
steps over a padded (cells x largest pool) array of positions in which
every row keeps its own live size, a row with a smaller k stopping after
its k steps.  The results enter the memo in batch order.  A sampled
settle (``mechanisms.peer_visits``) passes its cells through this batch
``DRAW_MEMO_SIZE`` at a time and then makes its per-cell ``sample_peers``
calls, which all hit, so it runs no scalar draw however many cells it
has.  The gas model's second ``peer_visits`` and a replay in the same
process find every draw in the memo; a replay in another process draws
them in one batch.  On 3,080 cells drawing 10 of 55 (2-core Xeon, Python
3.11, numpy 2.4) the batch takes about 5 ms against about 60 ms for the
scalar draws, and a batch that is all hits about 0.3 ms.  ``sample_peers``
called on its own, as the naive path's ``peers_for_cell`` calls it,
draws a miss with ``_draw_positions``, which is also the reference the
batch is tested against.

``cell_seed(seed, i, j)`` is the seed of one (agent, question) cell's
draws.  ``cell_seeds`` derives the seeds of every cell of an agents x
questions grid at once: the two finalize layers run as numpy ``uint64``
array operations (wrapping adds, xor-shifts and multiplies), once over the
agent tags and once over the question tags, and the result is an
agents x questions ``uint64`` array.  ``cell_seeds(seed, n, Q)[i, j] ==
cell_seed(seed, i, j)`` for every cell.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from .errors import KTooLarge, require_ints
from .keccak import keccak256

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_LEAP = 0xD1B54A32D192ED03

DRAW_MEMO_SIZE = 4096  # draws kept by the memo

# (pool size, k, seed state) -> positions drawn, least recently used first
_memo: OrderedDict[tuple[int, int, int], tuple[int, ...]] = OrderedDict()


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
    if isinstance(seed, int) and not isinstance(seed, bool):
        return seed & _MASK64
    if isinstance(seed, SelectionSeed):
        return seed.seed64()
    raise ValueError(f"seed must be a SelectionSeed or an int, got {seed!r}")


def sample_peers(candidates: Sequence[str], k: int, seed: SelectionSeed | int) -> list[str]:
    """Draw k distinct peers using exactly k PRNG draws.

    Each draw indexes the remaining pool modulo its size; the chosen entry
    is swapped out by the pool tail.  The modulo bias is below 2^-48 for
    any realistic pool and is accepted.  The draw picks positions, which
    the memo keeps; this names them, in a fresh list.
    """
    # the exact types first: `peer_visits` passes an int k and seed per sampled cell
    if type(k) is not int:
        require_ints(k=k)
    size = len(candidates)
    if not 1 <= k <= size:
        raise KTooLarge(f"k={k} outside 1..{size}")
    key = (size, k, seed & _MASK64 if type(seed) is int else seed_state(seed))
    positions = _memo.get(key)
    if positions is None:
        positions = _draw_positions(*key)
        _remember(key, positions)
    else:
        _memo.move_to_end(key)
    return [candidates[p] for p in positions]


def _remember(key: tuple[int, int, int], positions: tuple[int, ...]) -> None:
    if len(_memo) >= DRAW_MEMO_SIZE:
        _memo.popitem(last=False)
    _memo[key] = positions


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


def draw_positions_many(sizes: Sequence[int], ks: Sequence[int], states: Sequence[int]) -> None:
    """Put ``_draw_positions(size, k, state)`` for every ``(sizes[c],
    ks[c], states[c])`` in the memo, computing the missing ones in one pass.

    The three sequences hold ints.  For every key the memo lacks, k must
    lie in 1..size (``KTooLarge`` otherwise) and all three in 0..2**64-1
    (``ValueError`` otherwise).  When some key is missing, the keys the
    memo holds move to its end and the missing ones then enter it in batch
    order, so a batch of more than ``DRAW_MEMO_SIZE`` keys leaves its last
    ``DRAW_MEMO_SIZE`` there.
    """
    keys = list(zip(sizes, ks, states))
    missing = list(dict.fromkeys(key for key in keys if key not in _memo))
    if not missing:
        return
    if set(map(type, chain.from_iterable(missing))) != {int}:
        raise ValueError("sizes, ks and states must be ints")
    try:
        table = np.fromiter(chain.from_iterable(missing), dtype=np.uint64, count=3 * len(missing))
    except OverflowError:
        raise ValueError("sizes, ks and states lie in 0..2**64-1") from None
    sizes, ks, states = table.reshape(-1, 3).T
    bad = (ks < 1) | (ks > sizes)
    if bad.any():
        c = int(np.argmax(bad))
        raise KTooLarge(f"k={ks[c]} outside 1..{sizes[c]}")
    for key in keys:  # so that the inserts below evict none of the batch's hits
        if key in _memo:
            _memo.move_to_end(key)
    for key, positions in zip(missing, _draw_rows(sizes, ks, states)):
        _remember(key, positions)


def _draw_rows(sizes: np.ndarray, ks: np.ndarray, states: np.ndarray) -> list[tuple[int, ...]]:
    """``_draw_positions`` of each row of three ``uint64`` arrays, all rows
    drawn together."""
    order = np.argsort(ks)[::-1]  # rows with more draws first
    ks = ks[order]
    width = int(sizes.max())
    pool = np.empty((len(order), width), dtype=np.min_scalar_type(width - 1))
    pool[:] = np.arange(width, dtype=pool.dtype)
    picked = np.empty((len(order), int(ks[0])), dtype=pool.dtype)
    live = sizes[order]  # each row's live pool is pool[r, :live[r]]
    state = states[order]
    rows = np.arange(len(order))
    # step t draws for the rows with k > t, a prefix of the rows
    steps = len(order) - np.searchsorted(ks[::-1], np.arange(len(picked[0])), side="right")
    for t, active in enumerate(steps.tolist()):
        r = rows[:active]
        state[:active] += np.uint64(_GOLDEN)
        idx = _finalize_array(state[:active]) % live[:active]
        picked[:active, t] = pool[r, idx]
        live[:active] -= np.uint64(1)
        pool[r, idx] = pool[r, live[:active]]
    drawn = [None] * len(order)
    for row, positions, k in zip(order.tolist(), picked.tolist(), ks.tolist()):
        drawn[row] = tuple(positions[:k])
    return drawn


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


def cell_seeds(seed: SelectionSeed | int, n_agents: int, n_questions: int) -> np.ndarray:
    """``cell_seed(seed, i, j)`` at row i, column j, for every cell of an
    n_agents x n_questions grid, as a ``uint64`` array."""
    # uint64 arrays even for the one base seed: numpy warns when a scalar
    # overflows, while array arithmetic wraps silently
    base = np.array([seed_state(seed)], dtype=np.uint64)
    agent_tags = np.arange(1, n_agents + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
    question_tags = np.arange(1, n_questions + 1, dtype=np.uint64) * np.uint64(_LEAP)
    rows = _finalize_array(base ^ _finalize_array(agent_tags))
    return _finalize_array(rows[:, None] ^ _finalize_array(question_tags))
