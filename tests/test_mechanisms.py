"""Reward mechanisms against hand-computed and brute-force oracles."""

import hashlib
import itertools
import random
import re
import tracemalloc
from collections import Counter
from types import SimpleNamespace
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from peerchain import mechanisms
from peerchain.errors import EmptyMatrix, NoNonCommonQuestions
from peerchain.mechanisms import (
    ALL_PEERS,
    AnswerMatrix,
    _dg_terms,
    _grouped_sums,
    Mechanism,
    PeerVisits,
    SampledPeers,
    compute_rewards,
    peer_visits,
    peers_for_cell,
    rewards_naive,
)
from peerchain.peer_selection import DRAW_MEMO_SIZE, SelectionSeed, _memo, sample_peers
from peerchain.sim import assert_dg_valid

from conftest import BAD_ALPHAS, count_draws, matrix_of, random_matrix, skip_one_matrix

# three agents, two questions; worked through by hand in the module docs
M1 = matrix_of(("A", "B", "C"), ("q1", "q2"), {
    ("A", "q1"): 1, ("A", "q2"): 0,
    ("B", "q1"): 1, ("B", "q2"): 1,
    ("C", "q1"): 0, ("C", "q2"): 1,
})


def test_matrix_validation():
    # empty matrices are legal (a round where nobody revealed), but
    # reward computation refuses them
    empty = AnswerMatrix(("A",), ("q1",), [], [], [])
    assert empty.total_answers == 0 and empty.cells == {}
    with pytest.raises(EmptyMatrix):
        compute_rewards(empty, Mechanism.OA)
    for entries in (([1], [0], [1]), ([-1], [0], [1]), ([0], [1], [1]), ([0], [-1], [1]),
                    ([0], [0], [2]), ([0], [0], [-1]), ([0, 0], [0, 0], [1, 1])):
        with pytest.raises(ValueError):
            AnswerMatrix(("A",), ("q1",), *entries)
    with pytest.raises(ValueError, match="duplicate agent ids"):
        AnswerMatrix(("A", "A"), ("q1",), [0], [0], [1])
    with pytest.raises(ValueError, match="duplicate question ids"):
        AnswerMatrix(("A",), ("q1", "q1"), [0], [0], [1])


@pytest.mark.parametrize("entries, message", [
    (([0, 1], [0], [1, 1]), "question_idx is int64 of shape (1,)"),
    (([0], [0], []), "bits is float64 of shape (0,)"),
    (([[0]], [[0]], [[1]]), "agent_idx is int64 of shape (1, 1)"),
    (([0], 0, [1]), "question_idx is int64 of shape ()"),
    (([0.0], [0], [1]), "agent_idx is float64 of shape (1,)"),
    (([0], [0], [1.5]), "bits is float64 of shape (1,)"),  # not truncated to 1
    (([0], ["0"], [1]), "question_idx is <U1 of shape (1,)"),
    (([0], [0], [None]), "bits is object of shape (1,)"),
    (([0], [0], [2**70]), "bits is object of shape (1,)"),
])
def test_matrix_refuses_entries_that_are_not_one_int_per_answer(entries, message):
    with pytest.raises(ValueError, match=re.escape(f"want equal-length 1-D int arrays; {message}")):
        AnswerMatrix(("A", "B"), ("q1",), *entries)


def test_matrix_accepts_any_int_or_bool_dtype():
    for dtype in (np.int8, np.uint8, np.int32, np.uint64, np.int64, np.bool_):
        m = AnswerMatrix(("A", "B"), ("q1",), np.array([1, 0], dtype), np.array([0, 0], dtype),
                         np.array([0, 1], dtype))
        assert m.cells == {("B", "q1"): 0, ("A", "q1"): 1}
        assert m.ones.tolist() == [[1], [0]] and m.answered.tolist() == [[1], [1]]
    # a uint64 index is compared before any cast, so 2**64 - 1 is not read as -1
    with pytest.raises(ValueError, match="agent index 18446744073709551615"):
        AnswerMatrix(("A",), ("q1",), np.array([2**64 - 1], np.uint64), [0], [1])


# each bad entry follows the good entry 0, ("A", "q1") -> 1
BAD_ENTRIES = {
    "agent": ((2, 0, 1), "has agent index 2, want 0..1"),
    "question": ((0, 1, 1), "has question index 1, want 0..0"),
    "bit": ((1, 0, 2), "('B', 'q1') holds bit 2, want 0 or 1"),
    "repeat": ((0, 0, 0), "answers ('A', 'q1') again"),
}


@pytest.mark.parametrize("first, second", list(itertools.permutations(BAD_ENTRIES, 2)))
def test_matrix_raises_for_the_first_bad_cell(first, second):
    entries = [(0, 0, 1), BAD_ENTRIES[first][0], BAD_ENTRIES[second][0]]
    with pytest.raises(ValueError, match=re.escape(f"entry 1 {BAD_ENTRIES[first][1]}")):
        AnswerMatrix(("A", "B"), ("q1",), *zip(*entries))


@pytest.mark.parametrize("entry, message", [
    ((5, 7, 2), "entry 1 has agent index 5"),
    ((5, 0, 2), "entry 1 has agent index 5"),
    ((0, 7, 2), "entry 1 has question index 7"),
    ((0, 0, 2), "entry 1 ('A', 'q1') holds bit 2"),  # the bit before the repeated pair
])
def test_within_a_cell_an_unknown_agent_comes_before_its_question_and_its_bit(entry, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        AnswerMatrix(("A",), ("q1",), *zip((0, 0, 1), entry))


def test_matrix_refuses_2_31_cells_before_allocating():
    agents = [f"a{i}" for i in range(2**16)]
    questions = [f"q{j}" for j in range(2**15)]
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="2\\*\\*31 cells"):
            AnswerMatrix(agents, questions, [], [], [])
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**24  # the two 16 GiB int64 arrays were never asked for


def test_matrix_views():
    assert M1.total_answers == 6
    assert M1.answered.tolist() == [[1, 1], [1, 1], [1, 1]]
    assert M1.ones.tolist() == [[1, 0], [1, 1], [0, 1]]
    assert M1.answerers_per_question.tolist() == [3, 3]
    assert M1.ones_per_question.tolist() == [2, 2]
    assert M1.answers_by_agent["A"] == {"q1": 1, "q2": 0}
    assert M1.answerers_by_question["q2"] == ["A", "B", "C"]


def test_matrix_arrays_and_views_match_cells():
    rng = random.Random(3)
    matrices = [
        matrix_of(("A", "B"), ("q1", "q2"), {}),
        # C answers nothing and nobody answers q2
        matrix_of(("A", "B", "C"), ("q1", "q2", "q3"),
                     {("B", "q1"): 0, ("A", "q3"): 0, ("A", "q1"): 1}),
    ]
    matrices += [random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6), p_answer=0.5)
                 for _ in range(40)]
    for m in matrices:
        shape = (len(m.agents), len(m.questions))
        assert m.answered.shape == m.ones.shape == shape
        assert m.answered.dtype == m.ones.dtype == np.int64
        for i, a in enumerate(m.agents):
            for j, q in enumerate(m.questions):
                bit = m.cells.get((a, q))
                assert m.answered[i, j] == (bit is not None)
                assert m.ones[i, j] == (bit == 1)
        for j, q in enumerate(m.questions):
            bits = [m.cells[(a, q)] for a in m.agents if (a, q) in m.cells]
            assert (m.answerers_per_question[j], m.ones_per_question[j]) == (len(bits), sum(bits))
        # the views keep matrix order on both axes, not the order of cells
        assert [(a, list(row.items())) for a, row in m.answers_by_agent.items()] == [
            (a, [(q, m.cells[(a, q)]) for q in m.questions if (a, q) in m.cells]) for a in m.agents
        ]
        assert list(m.answerers_by_question.items()) == [
            (q, [a for a in m.agents if (a, q) in m.cells]) for q in m.questions
        ]


def test_ptsc_frequency_excludes_own_answers():
    # M1 holds two 0s and four 1s; without C's own answers its 0 is one of
    # four answers, so R_C(0) = 1/4 is the smallest frequency used, not 1/3
    for computer in (compute_rewards, rewards_naive):
        assert computer(M1, Mechanism.PTSC).r_min == F(1, 4)
    # a zero count gives frequency 0: the cell scores 0 and r_min skips it
    lone = matrix_of(("A", "B"), ("q1",), {("A", "q1"): 1, ("B", "q1"): 1})
    split = matrix_of(("A", "B"), ("q1",), {("A", "q1"): 1, ("B", "q1"): 0})
    for m, r_min in ((lone, F(1)), (split, None)):
        for computer in (compute_rewards, rewards_naive):
            report = computer(m, Mechanism.PTSC)
            assert report.per_agent_reward == {"A": F(0), "B": F(0)}
            assert report.r_min == r_min


def test_oa_hand_oracle():
    rewards = compute_rewards(M1, Mechanism.OA).per_agent_reward
    assert rewards == {"A": F(1, 4), "B": F(1, 2), "C": F(1, 4)}


def test_oa_perfect_consensus_is_one():
    m = matrix_of(("A", "B"), ("q1",), {("A", "q1"): 1, ("B", "q1"): 1})
    assert compute_rewards(m, Mechanism.OA).per_agent_reward == {"A": F(1), "B": F(1)}


def test_dg_hand_oracles():
    # disjoint-exclusive pair with zero blind agreement
    m2 = matrix_of(("A", "B"), ("q1", "q2", "q3", "q4"), {
        ("A", "q1"): 1, ("A", "q2"): 0, ("A", "q3"): 1,
        ("B", "q2"): 1, ("B", "q3"): 1, ("B", "q4"): 0,
    })
    assert compute_rewards(m2, Mechanism.DG).per_agent_reward == {"A": F(1, 2), "B": F(1, 2)}
    # full blind agreement: penalty 1 on every used pair
    m3 = matrix_of(("A", "B"), ("q1", "q2", "q3", "q4"), {
        ("A", "q1"): 1, ("A", "q2"): 1, ("A", "q3"): 0,
        ("B", "q2"): 0, ("B", "q3"): 0, ("B", "q4"): 1,
    })
    assert compute_rewards(m3, Mechanism.DG).per_agent_reward == {"A": F(-1, 2), "B": F(-1, 2)}


def test_dg_requires_exclusive_questions():
    m = matrix_of(("A", "B"), ("q1", "q2"), {
        ("A", "q1"): 1, ("A", "q2"): 0, ("B", "q1"): 1, ("B", "q2"): 0,
    })
    with pytest.raises(NoNonCommonQuestions):
        compute_rewards(m, Mechanism.DG)
    with pytest.raises(NoNonCommonQuestions):
        rewards_naive(m, Mechanism.DG)


def test_ptsc_hand_oracle():
    rewards = compute_rewards(M1, Mechanism.PTSC, alpha=F(1)).per_agent_reward
    assert rewards == {"A": F(-2, 3), "B": F(0), "C": F(-2, 3)}
    # alpha scales linearly
    doubled = compute_rewards(M1, Mechanism.PTSC, alpha=F(2)).per_agent_reward
    assert doubled == {a: 2 * r for a, r in rewards.items()}


def test_ptsc_zero_frequency_rule():
    # D's answer 0 is unique: R_D(0) = 0, so D's term is 0, not -alpha
    m4 = matrix_of(("A", "B", "D"), ("q1", "q2"), {
        ("A", "q1"): 1, ("A", "q2"): 1,
        ("B", "q1"): 1, ("B", "q2"): 1,
        ("D", "q1"): 0,
    })
    rewards = compute_rewards(m4, Mechanism.PTSC, alpha=F(1)).per_agent_reward
    assert rewards == {"A": F(1, 8), "B": F(1, 8), "D": F(0)}


def test_reward_bounds_hold_on_random_matrices():
    rng = random.Random(5)
    for _ in range(50):
        m = random_matrix(rng, rng.randint(2, 6), rng.randint(2, 6))
        oa = compute_rewards(m, Mechanism.OA)
        assert all(0 <= r <= 1 for r in oa.per_agent_reward.values())
        alpha = F(rng.randint(1, 4), 2)
        pt = compute_rewards(m, Mechanism.PTSC, alpha=alpha)
        assert all(r >= -alpha for r in pt.per_agent_reward.values())
    rng = random.Random(6)
    for _ in range(30):
        m = skip_one_matrix(rng, rng.randint(3, 6))
        dg = compute_rewards(m, Mechanism.DG)
        assert all(-1 <= r <= 1 for r in dg.per_agent_reward.values())


def _brute_force(matrix: AnswerMatrix, mechanism: Mechanism, alpha=F(1)):
    """Deliberately different third implementation: plain nested loops."""
    out = {}
    for agent in matrix.agents:
        terms = []
        for q in matrix.questions:
            y = matrix.cells.get((agent, q))
            if y is None:
                continue
            peers = [p for p in matrix.agents
                     if p != agent and (p, q) in matrix.cells]
            if not peers:
                continue
            if mechanism is Mechanism.OA:
                scores = [F(1) if matrix.cells[(p, q)] == y else F(0) for p in peers]
            elif mechanism is Mechanism.DG:
                scores = []
                for p in peers:
                    mine = {qq for (aa, qq) in matrix.cells if aa == agent}
                    theirs = {qq for (aa, qq) in matrix.cells if aa == p}
                    ex_m = sorted(mine - theirs)
                    ex_t = sorted(theirs - mine)
                    if not ex_m or not ex_t:
                        raise NoNonCommonQuestions(agent, p)
                    agree = sum(
                        1
                        for qa in ex_m for qb in ex_t
                        if matrix.cells[(agent, qa)] == matrix.cells[(p, qb)]
                    )
                    penalty = F(agree, len(ex_m) * len(ex_t))
                    scores.append((F(1) if matrix.cells[(p, q)] == y else F(0)) - penalty)
            else:
                counts = Counter(bit for (aa, _), bit in matrix.cells.items() if aa != agent)
                total = counts[0] + counts[1]
                freq = F(counts[y], total) if total else F(0)
                if freq == 0:
                    scores = [F(0)]
                else:
                    match = F(sum(1 for p in peers if matrix.cells[(p, q)] == y), len(peers))
                    scores = [alpha * (match / freq - 1)]
                terms.append(sum(scores, F(0)) / len(scores))
                continue
            terms.append(sum(scores, F(0)) / len(peers))
        out[agent] = sum(terms, F(0)) / len(terms) if terms else F(0)
    return out


def test_brute_force_oracle_agreement():
    rng = random.Random(77)
    checked = 0
    for _ in range(60):
        m = random_matrix(rng, rng.randint(2, 5), rng.randint(2, 5))
        for mech in (Mechanism.OA, Mechanism.PTSC):
            expected = _brute_force(m, mech, alpha=F(3, 2))
            got = compute_rewards(m, mech, alpha=F(3, 2)).per_agent_reward
            assert got == expected, (mech, m.cells)
            checked += 1
    for _ in range(40):
        m = skip_one_matrix(rng, rng.randint(3, 5))
        expected = _brute_force(m, Mechanism.DG)
        got = compute_rewards(m, Mechanism.DG).per_agent_reward
        assert got == expected, m.cells
        checked += 1
    assert checked == 160


def test_relabeling_invariance():
    rng = random.Random(13)
    m = skip_one_matrix(rng, 5)
    a_map = {a: f"agent-{a}" for a in m.agents}
    q_map = {q: f"question-{q}" for q in m.questions}
    relabeled = matrix_of(
        (a_map[a] for a in m.agents),
        (q_map[q] for q in m.questions),
        {(a_map[a], q_map[q]): bit for (a, q), bit in m.cells.items()},
    )
    for mech in Mechanism:
        base = compute_rewards(m, mech, alpha=F(1), peer_mode=SampledPeers(2, 9))
        moved = compute_rewards(relabeled, mech, alpha=F(1), peer_mode=SampledPeers(2, 9))
        assert moved.per_agent_reward == {
            a_map[a]: r for a, r in base.per_agent_reward.items()
        }


def test_sampled_peers_subset_and_determinism():
    rng = random.Random(21)
    m = random_matrix(rng, 6, 6, p_answer=0.9)
    mode = SampledPeers(2, 4242)
    for a in m.agents:
        for q, _y in m.answers_by_agent[a].items():
            peers = peers_for_cell(m, a, q, mode)
            candidates = [p for p in m.answerers_by_question[q] if p != a]
            assert len(peers) == min(2, len(candidates))
            assert set(peers) <= set(candidates)
            assert peers == peers_for_cell(m, a, q, mode)
    full = peers_for_cell(m, m.agents[0], m.questions[0], ALL_PEERS)
    assert full == [p for p in m.answerers_by_question[m.questions[0]] if p != m.agents[0]]


def _peer_scan(m, mode):
    """``peer_visits``' counts rebuilt cell by cell from ``peers_for_cell``."""
    n = len(m.agents)
    peers = np.zeros((n, len(m.questions)), dtype=np.int64)
    matches = np.zeros_like(peers)
    by_size = {}
    for i, agent in enumerate(m.agents):
        for q, y in m.answers_by_agent[agent].items():
            drawn = peers_for_cell(m, agent, q, mode)
            if drawn:
                j = m.question_index[q]
                peers[i, j] = len(drawn)
                matches[i, j] = sum(m.cells[(p, q)] == y for p in drawn)
                visited = by_size.setdefault(len(drawn), np.zeros((n, n), dtype=np.int64))
                for p in drawn:
                    visited[i, m.agent_index[p]] += 1
    return peers.tolist(), matches.tolist(), {s: v.tolist() for s, v in by_size.items()}


def _visit_lists(visits):
    return visits.peers.tolist(), visits.matches.tolist(), {s: v.tolist() for s, v in visits.by_size.items()}


def test_cell_plan_matches_peer_scan():
    rng = random.Random(17)
    for trial in range(20):
        m = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7), p_answer=0.7)
        # k=6 usually keeps the whole pool
        for mode in (ALL_PEERS, SampledPeers(1, trial), SampledPeers(6, trial)):
            assert _visit_lists(peer_visits(m, mode)) == _peer_scan(m, mode)


@pytest.mark.parametrize("k", [1, 10, 54, 55, 56])
def test_cell_plan_matches_peer_scan_on_skip_one(k):
    # every pool holds 54 peers: k = 54 draws the whole pool, 55 and 56 cap at it
    m = skip_one_matrix(random.Random(56), 56)
    mode = SampledPeers(k, k if k % 2 else SelectionSeed(k, 56))
    assert _visit_lists(peer_visits(m, mode)) == _peer_scan(m, mode)


def test_cell_plan_draws_more_cells_than_the_memo_holds_in_batches(monkeypatch):
    # 9,900 sampled cells: three batches of at most DRAW_MEMO_SIZE cells
    m = skip_one_matrix(random.Random(100), 100)
    mode = SampledPeers(10, SelectionSeed(100, 10))
    _memo.clear()
    scalar, batched = count_draws(monkeypatch)
    visits = peer_visits(m, mode)
    assert scalar == [] and len(batched) == 9_900 > 2 * DRAW_MEMO_SIZE
    assert len(_memo) == DRAW_MEMO_SIZE
    assert _visit_lists(visits) == _peer_scan(m, mode)


def test_cell_plan_calls_the_sampler_once_per_sampled_cell(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        # positional, as the round benchmark reads k from the second argument
        assert len(args) == 3 and not kwargs
        calls.append((len(args[0]), args[1]))
        return sample_peers(*args)

    monkeypatch.setattr(mechanisms, "sample_peers", counting)
    rng = random.Random(4)
    matrices = [skip_one_matrix(rng, 12)] + [random_matrix(rng, 6, 6, p_answer=0.6) for _ in range(10)]
    for m in matrices:
        for k in (1, 3, 20):
            calls.clear()
            peer_visits(m, SampledPeers(k, 7))
            # one call per answered cell with a peer, in row-major order
            pools = np.broadcast_to(m.answerers_per_question - 1, m.answered.shape)
            scored = pools[(m.answered == 1) & (pools > 0)].tolist()
            assert calls == [(pool, min(k, pool)) for pool in scored]
    calls.clear()
    peer_visits(matrices[0], ALL_PEERS)
    assert calls == []


def test_sampled_rewards_match_manual_recomputation():
    rng = random.Random(31)
    m = random_matrix(rng, 5, 5, p_answer=0.9)
    mode = SampledPeers(1, 77)
    got = compute_rewards(m, Mechanism.OA, peer_mode=mode).per_agent_reward
    for agent in m.agents:
        terms = []
        for q, y in m.answers_by_agent[agent].items():
            peers = peers_for_cell(m, agent, q, mode)
            if not peers:
                continue
            terms.append(F(sum(1 for p in peers if m.cells[(p, q)] == y), len(peers)))
        expected = sum(terms, F(0)) / len(terms) if terms else F(0)
        assert got[agent] == expected


def test_optimized_equals_naive_with_sampling():
    rng = random.Random(8)
    for trial in range(25):
        m = random_matrix(rng, rng.randint(3, 7), rng.randint(3, 7), p_answer=0.8)
        mode = SampledPeers(rng.randint(1, 3), trial)
        for mech in (Mechanism.OA, Mechanism.PTSC):
            a = compute_rewards(m, mech, alpha=F(1), peer_mode=mode).per_agent_reward
            b = rewards_naive(m, mech, alpha=F(1), peer_mode=mode).per_agent_reward
            assert a == b


@pytest.mark.parametrize("k", [2**63, 10**30])
def test_a_k_beyond_numpy_integers_scores_like_the_naive_path(k):
    rng = random.Random(63)
    for m in (skip_one_matrix(rng, 6), random_matrix(rng, 5, 6, p_answer=0.7)):
        mode = SampledPeers(k, 9)
        for mech in Mechanism:
            naive = _report_or_error(rewards_naive, m, mech, F(1), mode)
            assert _report_or_error(compute_rewards, m, mech, F(1), mode) == naive
            # every pool is drawn whole, as with a k of the largest pool
            assert _visit_lists(peer_visits(m, mode)) == _visit_lists(peer_visits(m, SampledPeers(len(m.agents), 9)))


def _outcome(fn, m, mode):
    """Rewards, or the (agent, peer) pair named by NoNonCommonQuestions."""
    try:
        return fn(m, Mechanism.DG, peer_mode=mode).per_agent_reward
    except NoNonCommonQuestions as e:
        return (e.agent, e.peer)


DG_MODES = (ALL_PEERS, SampledPeers(1, 3), SampledPeers(2, 4), SampledPeers(3, 5))


def test_dg_optimized_equals_naive_on_sparse_matrices():
    # DG-valid sparse matrices: exclusive sets of unequal sizes give penalty
    # denominators above 1, unlike skip-one matrices where every one is 1
    rng = random.Random(41)
    checked = denominators = 0
    while checked < 30:
        m = random_matrix(rng, rng.randint(3, 7), rng.randint(6, 12), p_answer=0.6)
        try:
            assert_dg_valid(m)
        except AssertionError:
            continue
        sizes = {a: set(m.answers_by_agent[a]) for a in m.agents}
        denominators += any(len(sizes[a] - sizes[b]) * len(sizes[b] - sizes[a]) > 1
                            for a in m.agents for b in m.agents if a != b)
        for mode in DG_MODES:
            fast = compute_rewards(m, Mechanism.DG, peer_mode=mode).per_agent_reward
            assert fast == rewards_naive(m, Mechanism.DG, peer_mode=mode).per_agent_reward
        checked += 1
    assert denominators == checked


def test_dg_raises_exactly_when_naive_raises():
    rng = random.Random(43)
    outcomes = Counter()
    for _ in range(80):
        m = random_matrix(rng, rng.randint(2, 6), rng.randint(2, 6), p_answer=0.75)
        for mode in DG_MODES:
            naive = _outcome(rewards_naive, m, mode)
            assert _outcome(compute_rewards, m, mode) == naive
            outcomes[type(naive)] += 1
    assert outcomes[tuple] and outcomes[dict]

    # A and B answer the same questions; sampling one peer per cell, seed 0
    # never pairs them, so neither path raises
    m = matrix_of(("A", "B", "C", "D"), ("q1", "q2", "q3"), {
        ("A", "q1"): 1, ("A", "q2"): 0,
        ("B", "q1"): 1, ("B", "q2"): 1,
        ("C", "q1"): 0, ("C", "q3"): 1,
        ("D", "q2"): 1, ("D", "q3"): 0,
    })
    with pytest.raises(NoNonCommonQuestions):
        compute_rewards(m, Mechanism.DG)
    undrawn_seeds = [seed for seed in range(20)
                     if isinstance(_outcome(rewards_naive, m, SampledPeers(1, seed)), dict)]
    assert undrawn_seeds
    for seed in undrawn_seeds:
        mode = SampledPeers(1, seed)
        assert compute_rewards(m, Mechanism.DG, peer_mode=mode).per_agent_reward == \
            rewards_naive(m, Mechanism.DG, peer_mode=mode).per_agent_reward


# SHA-256 of the sorted exact DG rewards ("p/q" lines) on a skip-one 120x120
# matrix, recorded from the per-visit Fraction kernel; the naive oracle is
# too slow to run at this size
SKIP_ONE_120_DG_SHA256 = {
    ALL_PEERS: "5cce475403ff7d4e775503456e7ce9c5711f2cc516cd0d94bbf3c13ec132c17b",
    SampledPeers(10, 1): "b6a877c0c519981f3c354beee7e0c5de36e1ff30341c1e4add36d2595dac333c",
}


def test_dg_large_skip_one_pins():
    m = skip_one_matrix(random.Random(120), 120)
    for mode, digest in SKIP_ONE_120_DG_SHA256.items():
        rewards = compute_rewards(m, Mechanism.DG, peer_mode=mode).per_agent_reward
        text = "\n".join(f"{r.numerator}/{r.denominator}" for r in sorted(rewards.values()))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, mode


def test_desk_regression_pins(desk_truth):
    oa = compute_rewards(desk_truth, Mechanism.OA).per_agent_reward
    assert float(oa["a000"]) == 0.8002675597757645
    assert float(sum(oa.values(), F(0))) == 41.7060141280139
    pt = compute_rewards(desk_truth, Mechanism.PTSC, alpha=F(1, 2))
    assert all(r >= -F(1, 2) for r in pt.per_agent_reward.values())


EXACT_MODES = (ALL_PEERS, SampledPeers(1, 3), SampledPeers(2, 4), SampledPeers(3, 5), SampledPeers(50, 6))


def test_rewards_are_exact_python_ints():
    # numpy scalars must not leak into exact arithmetic: every numerator and
    # denominator is a Python int on both paths
    rng = random.Random(19)
    matrices = [skip_one_matrix(rng, 5), skip_one_matrix(rng, 8)]
    for m in matrices:
        for mech in Mechanism:
            for mode in EXACT_MODES:
                for computer in (compute_rewards, rewards_naive):
                    report = computer(m, mech, alpha=F(3, 2), peer_mode=mode)
                    values = list(report.per_agent_reward.values())
                    if mech is Mechanism.PTSC:
                        values.append(report.r_min)
                    for r in values:
                        assert type(r.numerator) is int and type(r.denominator) is int, (mech, mode)


def test_dg_terms_past_int64_are_summed_exactly_as_python_ints():
    # pair numerators near 2**42 times weights near 2**21 pass 2**63; agent 0's
    # pairs with agents 1 (s = 1) and 2 (s = 2) share the denominator 2**44
    num = np.array([[0, 3 * 2**42 + 1, 2**42 + 5], [2**42 - 1, 0, 0], [7, 0, 0]], dtype=np.int64)
    den = np.array([[0, 2**44, 2**43], [2**44, 0, 0], [2**40, 0, 0]], dtype=np.int64)
    by_size = {1: np.array([[0, 2**21 + 3, 0], [2**21, 0, 0], [0, 0, 0]]),
               2: np.array([[0, 0, 2**22 - 1], [0, 0, 0], [5, 0, 0]])}
    reference, wrapped = {}, {}
    for s, visited in by_size.items():
        for (i, p), w in np.ndenumerate(visited):
            if w:
                key = (i, int(den[i, p]) * s)
                reference[key] = reference.get(key, 0) - int(num[i, p]) * int(w)
                wrapped[key] = wrapped.get(key, 0) + int((-num * visited)[i, p])  # int64 products
    assert max(map(abs, reference.values())) >= 2**63
    assert wrapped != reference  # so int64 terms would not be exact here

    visits = PeerVisits(np.zeros((3, 0), dtype=np.int64), np.zeros((3, 0), dtype=np.int64), by_size)
    columns = (np.concatenate(column) for column in zip(*_dg_terms(SimpleNamespace(num=num, den=den), visits)))
    agents, dens, sums = (array.tolist() for array in _grouped_sums(*columns))
    assert all(type(v) is int for v in agents + dens + sums)
    assert dict(zip(zip(agents, dens), sums)) == reference


@st.composite
def scoring_cases(draw):
    """A random sparse or skip-one matrix, a mechanism, an alpha and a peer
    mode: all peers, or k from 1 to one past the largest pool with the
    smallest or the largest 64-bit seed."""
    if draw(st.booleans()):
        n = draw(st.integers(2, 7))
        bits = draw(st.lists(st.integers(0, 1), min_size=n * n, max_size=n * n))
        agents, questions = [f"a{i}" for i in range(n)], [f"q{j}" for j in range(n)]
        cells = {(agents[i], questions[j]): bits[i * n + j] for i in range(n) for j in range(n) if i != j}
    else:
        n, n_q = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        slots = draw(st.lists(st.sampled_from((None, 0, 1)), min_size=n * n_q, max_size=n * n_q))
        agents, questions = [f"a{i}" for i in range(n)], [f"q{j}" for j in range(n_q)]
        cells = {(agents[i], questions[j]): slots[i * n_q + j]
                 for i in range(n) for j in range(n_q) if slots[i * n_q + j] is not None}
    mode = draw(st.one_of(
        st.just(ALL_PEERS),
        st.builds(SampledPeers, st.integers(1, n), st.sampled_from((0, 2**64 - 1))),
    ))
    mechanism = draw(st.sampled_from(Mechanism))
    alpha = draw(st.sampled_from((1, F(3, 2), F(1, 7))))
    return matrix_of(agents, questions, cells), mechanism, alpha, mode


def _report_or_error(computer, m, mechanism, alpha, mode):
    """The whole report, or the error's type and, for NoNonCommonQuestions,
    the (agent, peer) it names."""
    try:
        return computer(m, mechanism, alpha=alpha, peer_mode=mode)
    except (EmptyMatrix, NoNonCommonQuestions) as e:
        return type(e), getattr(e, "agent", None), getattr(e, "peer", None)


def test_optimized_report_equals_naive_report(tmp_path):
    @settings(derandomize=True, database=None, max_examples=400, deadline=None)
    @given(scoring_cases())
    def check(case):
        m, mechanism, alpha, mode = case
        naive = _report_or_error(rewards_naive, m, mechanism, alpha, mode)
        # rewards, r_min, scaling, mechanism and peer mode, or the same error
        assert _report_or_error(compute_rewards, m, mechanism, alpha, mode) == naive

    # keep Hypothesis' constants cache out of the working tree
    set_hypothesis_home_dir(tmp_path)
    try:
        check()
    finally:
        set_hypothesis_home_dir(None)


@pytest.mark.parametrize("computer", [compute_rewards, rewards_naive])
@pytest.mark.parametrize("mechanism, peer_mode, message", [
    ("dg", ALL_PEERS, "mechanism must be a Mechanism"),
    ("oa", SampledPeers(1, 3), "mechanism must be a Mechanism"),
    (None, ALL_PEERS, "mechanism must be a Mechanism"),
    (Mechanism.OA, 5, "peer_mode must be"),
    (Mechanism.DG, None, "peer_mode must be"),
    (Mechanism.PTSC, "all", "peer_mode must be"),
], ids=["mechanism-dg-string", "mechanism-oa-string", "mechanism-none",
        "peer-mode-int", "peer-mode-none", "peer-mode-string"])
def test_bad_mechanism_or_peer_mode_raises_value_error(computer, mechanism, peer_mode, message):
    with pytest.raises(ValueError, match=message):
        computer(M1, mechanism, peer_mode=peer_mode)


@pytest.mark.parametrize("computer", [compute_rewards, rewards_naive])
@pytest.mark.parametrize("mechanism", list(Mechanism))
@pytest.mark.parametrize("alpha, message", BAD_ALPHAS, ids=repr)
def test_bad_alpha_raises_value_error_for_every_mechanism(computer, mechanism, alpha, message):
    with pytest.raises(ValueError, match=message):
        computer(M1, mechanism, alpha=alpha)


@pytest.mark.parametrize("peer_mode", [5, None, "all"], ids=repr)
def test_bad_peer_mode_raises_value_error_where_read(peer_mode):
    with pytest.raises(ValueError, match="peer_mode must be"):
        peer_visits(M1, peer_mode)
    with pytest.raises(ValueError, match="peer_mode must be"):
        peers_for_cell(M1, "A", "q1", peer_mode)


def test_report_metadata():
    report = compute_rewards(M1, Mechanism.PTSC, alpha=F(1, 2))
    assert report.mechanism is Mechanism.PTSC
    assert report.scaling == F(1, 2)
    report.validate_bounds()
