"""SplitMix64 reference vectors, seed derivation, sampler statistics, and
the draw memo and its batch fill against an unmemoised sampler."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from peerchain import peer_selection
from peerchain.errors import KTooLarge
from peerchain.mechanisms import SampledPeers
from peerchain.peer_selection import (
    DRAW_MEMO_SIZE,
    SelectionSeed,
    SplitMix64,
    _draw_positions,
    _memo,
    cell_seed,
    cell_seeds,
    draw_positions_many,
    sample_peers,
    seed_state,
)

from conftest import count_draws


def reference_sample(candidates, k, seed):
    """The sampler without its memo: a Fisher-Yates prefix over the
    candidates themselves, k draws from the seed's stream."""
    draw = SplitMix64(seed_state(seed)).next
    pool = list(candidates)
    picked = []
    for n in range(len(pool), len(pool) - k, -1):
        idx = draw() % n
        picked.append(pool[idx])
        pool[idx] = pool[n - 1]
    return picked


def test_splitmix64_reference_vectors():
    # outputs of the reference C implementation seeded with 1234567
    sm = SplitMix64(1234567)
    assert [sm.next() for _ in range(5)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
        4593380528125082431,
        16408922859458223821,
    ]
    assert SplitMix64(0).next() == 0xE220A8397B1DCDAF


def test_selection_seed_is_keccak_prefix():
    # frozen: first 8 bytes of keccak256(uint256(1234) || uint256(5678))
    assert SelectionSeed(1234, 5678).seed64() == 13296744661913138702
    with pytest.raises(ValueError):
        SelectionSeed(-1, 0)


@pytest.mark.parametrize("seed, i, j, expected", [
    (42, 0, 0, 0xEC10639B42214D09),
    (42, 0, 1, 0x0720EDC34635875C),
    (42, 1, 0, 0xC9D2E2FAD6194405),
    (2**64 - 1, 55, 55, 0xAC1D680FEF9336A5),
    (-1, 3, 4, 0xA527EE02C0FF85C2),
    (SelectionSeed(1234, 5678), 3, 4, 0x7DE5EE0E71652C05),
], ids=repr)
def test_cell_seed_reference_vectors(seed, i, j, expected):
    # frozen from the two finalize chains of the module docstring
    assert cell_seed(seed, i, j) == expected


def test_derive_substreams_differ_and_are_stable():
    outs = {cell_seed(42, 0, 0), cell_seed(42, 0, 1), cell_seed(42, 1, 0)}
    assert len(outs) == 3
    assert cell_seed(42, 0, 0) == cell_seed(42, 0, 0)
    # the int seed and its 64-bit residue give the same cells
    assert cell_seed(42 + 2**64, 1, 0) == cell_seed(42, 1, 0)


def test_sample_peers_exact_draw_count_and_distinctness(monkeypatch):
    streams = []

    class CountingStream(SplitMix64):
        __slots__ = ("draws",)

        def __init__(self, seed):
            super().__init__(seed)
            self.draws = 0
            streams.append(self)

        def next(self):
            self.draws += 1
            return super().next()

    monkeypatch.setattr(peer_selection, "SplitMix64", CountingStream)
    _memo.clear()
    pool = [f"p{i}" for i in range(10)]
    for k in (1, 3, 10):
        streams.clear()
        picked = sample_peers(pool, k, 99)
        assert [stream.draws for stream in streams] == [k]
        assert len(picked) == len(set(picked)) == k
        assert set(picked) <= set(pool)
        # once a batch has drawn the cell, a repeat finds it in the memo and opens no stream
        streams.clear()
        draw_positions_many([10], [k], [99])
        assert sample_peers(pool, k, 99) == picked
        assert streams == []


def test_sample_peers_bounds_checked():
    with pytest.raises(KTooLarge):
        sample_peers(["a"], 2, 0)
    with pytest.raises(KTooLarge):
        sample_peers(["a", "b"], 0, 0)


def test_sampler_uniformity_chi_squared():
    # single-peer draws from 5 candidates should be uniform
    pool = [f"p{i}" for i in range(5)]
    counts = Counter()
    for trial in range(10_000):
        counts[sample_peers(pool, 1, trial)[0]] += 1
    observed = [counts[p] for p in pool]
    p_value = stats.chisquare(observed).pvalue
    assert p_value > 1e-3, f"chi-squared rejected uniformity: p={p_value}"


def test_full_pool_prefix_sample_is_permutation():
    pool = [f"p{i}" for i in range(8)]
    picked = sample_peers(pool, 8, 3)
    assert sorted(picked) == sorted(pool)


def test_cell_stream_independent_per_cell():
    seen = set()
    for agent in range(5):
        for q in range(5):
            seen.add(SplitMix64(cell_seed(7, agent, q)).next())
    assert len(seen) == 25
    assert SplitMix64(cell_seed(7, 2, 3)).next() == SplitMix64(cell_seed(7, 2, 3)).next()


def test_int_and_selection_seed_accepted_as_seed():
    pool = ["a", "b", "c"]
    seed = SelectionSeed(1234, 5678)
    assert sample_peers(pool, 2, seed) == sample_peers(pool, 2, seed.seed64())
    # an int seed is read mod 2**64
    assert sample_peers(pool, 2, 123) == sample_peers(pool, 2, 123 + 2**64)


@pytest.mark.parametrize("k", [2.0, True, False, "2", None])
def test_non_int_k_is_rejected(k):
    with pytest.raises(ValueError, match="k must be an int"):
        sample_peers(["a", "b", "c"], k, 0)
    with pytest.raises(ValueError, match="k must be an int"):
        SampledPeers(k, 0)


@pytest.mark.parametrize("seed", ["7", 7.0, True, None, (1, 2), SplitMix64(5)])
def test_seed_must_be_a_selection_seed_a_stream_or_an_int(seed):
    with pytest.raises(ValueError, match="seed must be"):
        sample_peers(["a", "b", "c"], 2, seed)
    with pytest.raises(ValueError, match="seed must be"):
        SampledPeers(2, seed)
    with pytest.raises(ValueError, match="seed must be"):
        cell_seeds(seed, 2, 2)


def test_accepted_seed_kinds_agree():
    pool = ["a", "b", "c", "d"]
    seed = SelectionSeed(1234, 5678)
    assert sample_peers(pool, 3, seed) == sample_peers(pool, 3, seed.seed64())
    for ok in (seed, 5, -5, 2**70):
        SampledPeers(2, ok)


@pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1, 2**64 + 5, -1,
                                  SelectionSeed(1234, 5678)], ids=repr)
@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (3, 5), (60, 60)])
def test_cell_seeds_equal_every_cell_stream(seed, shape):
    n_agents, n_questions = shape
    seeds = cell_seeds(seed, n_agents, n_questions)
    assert seeds.dtype == np.uint64 and seeds.shape == shape
    assert seeds.tolist() == [[cell_seed(seed, i, j) for j in range(n_questions)]
                              for i in range(n_agents)]


SEEDS = st.one_of(
    st.integers(-2**70, 2**70),
    st.integers(2**64, 2**80),
    st.builds(SelectionSeed, st.integers(0, 2**64), st.integers(0, 2**64)),
)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(size=st.integers(1, 60), names=st.booleans(), seed=SEEDS)
def test_memoised_sampler_equals_the_unmemoised_reference_cold_and_warm(size, names, seed):
    pool = [f"agent-{i}" for i in range(size)] if names else [7 * i + 3 for i in range(size)]
    expected = [reference_sample(pool, k, seed) for k in range(1, size + 1)]
    _memo.clear()
    with pytest.MonkeyPatch.context() as monkeypatch:
        scalar, _batched = count_draws(monkeypatch)
        for warm in (False, True):
            if warm:
                draw_positions_many([size] * size, list(range(1, size + 1)), [seed_state(seed)] * size)
            scalar.clear()
            assert [sample_peers(pool, k, seed) for k in range(1, size + 1)] == expected
            # cold: one draw per k; warm: the batch drew every k, so every call is a hit
            assert len(scalar) == (0 if warm else size)


def test_pools_of_one_size_share_their_drawn_positions(monkeypatch):
    names = [f"n{i}" for i in range(12)]
    ints = list(range(100, 112))
    chain_seed = SelectionSeed(12, 34)
    # a SelectionSeed, its seed64() and that int plus 2**64 are one entry, and so are 5 and 2**64 + 5
    seeds = (0, 5, 2**64 + 5, chain_seed, chain_seed.seed64(), chain_seed.seed64() + 2**64)
    _memo.clear()
    draw_positions_many([12, 12, 12], [4, 4, 4], [0, 5, chain_seed.seed64()])
    scalar, _batched = count_draws(monkeypatch)
    for seed in seeds:
        picked = sample_peers(names, 4, seed)
        positions = [names.index(name) for name in picked]
        assert sample_peers(ints, 4, seed) == [ints[p] for p in positions]
        assert sample_peers(ints, 4, seed) == reference_sample(ints, 4, seed)
    assert scalar == []
    # the same seed, another pool size or k: another key, drawn on its own and not kept
    assert sample_peers(names[:11], 4, 5) == reference_sample(names[:11], 4, 5)
    assert sample_peers(names, 3, 5) == reference_sample(names, 3, 5)
    assert scalar == [(11, 4, 5), (12, 3, 5)]
    assert len(_memo) == 3


def test_a_mutated_sample_does_not_reach_the_next_call():
    pool = ["a", "b", "c", "d", "e"]
    picked = sample_peers(pool, 3, 11)
    expected = list(picked)
    picked.append("z")
    picked[0] = "mutated"
    assert sample_peers(pool, 3, 11) == expected
    assert sample_peers(pool, 3, 11) is not sample_peers(pool, 3, 11)


def test_draw_memo_stays_within_its_bound(monkeypatch):
    pool = list(range(5))
    _memo.clear()
    held_keys = [(5, 2, seed) for seed in range(3)]
    draw_positions_many(*zip(*held_keys))
    held = dict(_memo)
    scalar, batched = count_draws(monkeypatch)
    # sample_peers stores nothing: its misses, past the bound, leave the last batch's memo
    for seed in range(DRAW_MEMO_SIZE + 1):
        assert sample_peers(pool, 2, seed) == reference_sample(pool, 2, seed)
        assert _memo == held
    assert batched == [] and scalar == [(5, 2, seed) for seed in range(3, DRAW_MEMO_SIZE + 1)]
    # a batch replaces the memo instead of adding to it: one full batch after another
    for start in (0, DRAW_MEMO_SIZE):
        draw_positions_many(*zip(*[(5, 2, seed) for seed in range(start, start + DRAW_MEMO_SIZE)]))
        assert len(_memo) == DRAW_MEMO_SIZE and min(state for _s, _k, state in _memo) == start


STATES = st.one_of(st.integers(0, 2**64 - 1), st.integers(2**64 - 16, 2**64 - 1), st.integers(0, 15))
KEYS = st.integers(1, 60).flatmap(lambda size: st.tuples(st.just(size), st.integers(1, size), STATES))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(keys=st.lists(KEYS, min_size=1, max_size=40), held=st.sets(st.integers(0, 39)),
       repeats=st.lists(st.integers(0, 39), max_size=10))
def test_batch_draws_equal_the_scalar_draws(keys, held, repeats):
    keys = keys + [keys[r % len(keys)] for r in repeats]
    held = list(dict.fromkeys(keys[h % len(keys)] for h in held))
    _memo.clear()
    if held:  # drawn by an earlier batch
        draw_positions_many(*zip(*held))
    with pytest.MonkeyPatch.context() as monkeypatch:
        scalar, batched = count_draws(monkeypatch)
        draw_positions_many(*zip(*keys))
        # a batch with a miss draws each of its keys once, in batch order, all in the batch
        assert scalar == []
        assert batched == ([] if set(keys) <= set(held) else list(dict.fromkeys(keys)))
    for key in keys:
        assert _memo[key] == _draw_positions(*key)
        size, k, state = key
        assert list(_memo[key]) == reference_sample(range(size), k, state)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(pool=st.lists(KEYS, min_size=1, max_size=12, unique=True),
       batches=st.lists(st.tuples(st.booleans(), st.lists(st.integers(0, 11), min_size=1, max_size=20)),
                        min_size=1, max_size=8))
def test_the_memo_holds_the_last_batch_drawn(pool, batches):
    _memo.clear()
    with pytest.MonkeyPatch.context() as monkeypatch:
        scalar, batched = count_draws(monkeypatch)
        for from_memo, picks in batches:
            # hits only when the batch picks from the memo, else hits, misses and duplicates from the pool
            source = list(_memo) if from_memo and _memo else pool
            batch = [source[p % len(source)] for p in picks]
            before = dict(_memo)
            batched.clear()
            draw_positions_many(*zip(*batch))
            if set(batch) <= set(before):
                assert _memo == before and batched == []
            else:  # one pass draws the batch's distinct keys, and they replace the memo
                assert batched == list(dict.fromkeys(batch))
                assert _memo == {key: _draw_positions(*key) for key in batched}
            # every cell of the batch finds its draw
            for size, k, state in batch:
                assert sample_peers(range(size), k, state) == reference_sample(range(size), k, state)
        assert scalar == []


@pytest.mark.parametrize("sizes, ks, states", [
    ([3], [True], [0]), ([3.0], [1], [0]), ([3], [1], [np.uint64(0)]), ([3, 3], [1, True], [0, 0]),
], ids=repr)
def test_a_key_that_is_not_all_ints_is_refused_though_it_equals_a_key_the_memo_holds(monkeypatch, sizes, ks, states):
    _memo.clear()
    draw_positions_many([3], [1], [0])
    held = dict(_memo)
    scalar, batched = count_draws(monkeypatch)
    with pytest.raises(ValueError, match="^sizes, ks and states must be ints$"):
        draw_positions_many(sizes, ks, states)
    assert _memo == held and batched == [] and scalar == []


def test_a_batch_of_more_distinct_keys_than_the_memo_holds_is_refused(monkeypatch):
    _memo.clear()
    draw_positions_many([7], [3], [0])
    held = dict(_memo)
    scalar, batched = count_draws(monkeypatch)
    with pytest.raises(ValueError, match="4097 distinct keys, more than DRAW_MEMO_SIZE"):
        draw_positions_many(*zip(*[(7, 3, state) for state in range(1, DRAW_MEMO_SIZE + 2)]))
    assert _memo == held and batched == [] and scalar == []


def test_batch_fills_the_memo_up_to_its_bound(monkeypatch):
    _memo.clear()
    draw_positions_many([7], [3], [0])
    scalar, batched = count_draws(monkeypatch)
    # DRAW_MEMO_SIZE distinct keys, each given twice, are drawn once each and fill the memo
    keys = [(7, 3, state) for state in range(1, DRAW_MEMO_SIZE + 1)]
    draw_positions_many(*zip(*(keys + keys)))
    assert batched == list(_memo) == keys and len(_memo) == DRAW_MEMO_SIZE
    # the memo's entries are found by sample_peers, not drawn again
    assert [sample_peers("abcdefg", 3, state) for _size, _k, state in keys[-3:]] == [
        reference_sample("abcdefg", 3, state) for _size, _k, state in keys[-3:]]
    assert scalar == []


@pytest.mark.parametrize("sizes, ks, states, error, message", [
    ([3, 4], [1, 5], [0, 0], KTooLarge, "k=5 outside 1..4"),
    ([3], [0], [0], KTooLarge, "k=0 outside 1..3"),
    ([3], [2.0], [0], ValueError, "must be ints"),
    ([3], [True], [0], ValueError, "must be ints"),
    ([3, 3], [1, True], [0, 0], ValueError, "must be ints"),  # True == 1, so the two keys are one
    ([3], [2], [-1], ValueError, "lie in 0..2..64-1"),
    ([3], [2], [2**64], ValueError, "lie in 0..2..64-1"),
], ids=repr)
def test_batch_refuses_keys_the_scalar_sampler_refuses(sizes, ks, states, error, message):
    _memo.clear()
    draw_positions_many([5], [2], [1])
    held = dict(_memo)
    with pytest.raises(error, match=message):
        draw_positions_many(sizes, ks, states)
    assert _memo == held
