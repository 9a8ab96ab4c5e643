"""SplitMix64 reference vectors, seed derivation, and sampler statistics."""

import random
from collections import Counter

import pytest
from scipy import stats

from peerchain.errors import KTooLarge
from peerchain.mechanisms import SampledPeers
from peerchain.peer_selection import (
    SelectionSeed,
    SplitMix64,
    cell_seeds,
    cell_stream,
    sample_peers,
)


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
    assert SelectionSeed(1234, 5678).stream().next() == SplitMix64(13296744661913138702).next()
    with pytest.raises(ValueError):
        SelectionSeed(-1, 0)


def test_derive_substreams_differ_and_are_stable():
    base = SplitMix64(42)
    a = base.derive(0, 0)
    b = base.derive(0, 1)
    c = base.derive(1, 0)
    outs = {a.next(), b.next(), c.next()}
    assert len(outs) == 3
    assert base.derive(0, 0).next() == SplitMix64(42).derive(0, 0).next()
    # deriving does not advance the parent
    assert base.next() == SplitMix64(42).next()


def test_sample_peers_exact_draw_count_and_distinctness():
    class CountingStream(SplitMix64):
        __slots__ = ("draws",)

        def __init__(self, seed):
            super().__init__(seed)
            self.draws = 0

        def next(self):
            self.draws += 1
            return super().next()

    pool = [f"p{i}" for i in range(10)]
    for k in (1, 3, 10):
        stream = CountingStream(99)
        picked = sample_peers(pool, k, stream)
        assert stream.draws == k
        assert len(picked) == len(set(picked)) == k
        assert set(picked) <= set(pool)


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
        counts[sample_peers(pool, 1, SplitMix64(trial))[0]] += 1
    observed = [counts[p] for p in pool]
    p_value = stats.chisquare(observed).pvalue
    assert p_value > 1e-3, f"chi-squared rejected uniformity: p={p_value}"


def test_full_pool_prefix_sample_is_permutation():
    pool = [f"p{i}" for i in range(8)]
    picked = sample_peers(pool, 8, SplitMix64(3))
    assert sorted(picked) == sorted(pool)


def test_cell_stream_independent_per_cell():
    seen = set()
    for agent in range(5):
        for q in range(5):
            seen.add(cell_stream(7, agent, q).next())
    assert len(seen) == 25
    assert cell_stream(7, 2, 3).next() == cell_stream(7, 2, 3).next()


def test_int_and_selection_seed_accepted_as_seed():
    pool = ["a", "b", "c"]
    by_int = sample_peers(pool, 2, 123)
    by_stream = sample_peers(pool, 2, SplitMix64(123))
    assert by_int == by_stream


@pytest.mark.parametrize("k", [2.0, True, False, "2", None])
def test_non_int_k_is_rejected(k):
    with pytest.raises(ValueError, match="k must be an int"):
        sample_peers(["a", "b", "c"], k, 0)
    with pytest.raises(ValueError, match="k must be an int"):
        SampledPeers(k, 0)


@pytest.mark.parametrize("seed", ["7", 7.0, True, None, (1, 2)])
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
    for ok in (seed, SplitMix64(5), 5, -5, 2**70):
        SampledPeers(2, ok)


@pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1, 2**64 + 5, -1, SplitMix64(99),
                                  SelectionSeed(1234, 5678)], ids=repr)
@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (3, 5), (60, 60)])
def test_cell_seeds_equal_every_cell_stream(seed, shape):
    n_agents, n_questions = shape
    seeds = cell_seeds(seed, n_agents, n_questions)
    assert seeds == [[cell_stream(seed, i, j).state for j in range(n_questions)]
                     for i in range(n_agents)]
    assert all(type(s) is int for row in seeds for s in row)
    # the draws of a cell's seed are the draws of its substream
    first = SplitMix64(seeds[-1][-1])
    assert first.next() == cell_stream(seed, n_agents - 1, n_questions - 1).next()


def test_cell_seeds_leave_a_stream_seed_unchanged():
    stream = SplitMix64(42)
    cell_seeds(stream, 4, 4)
    assert stream.state == 42
