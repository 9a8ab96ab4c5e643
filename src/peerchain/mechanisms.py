"""Peer-consistency reward mechanisms over a sparse binary answer matrix.

Three mechanisms are implemented:

* output agreement (OA): 1 unit per matching peer answer on a shared
  question, averaged over peers and then over the agent's questions.
* Dasgupta-Ghosh (DG): the OA agreement term minus a penalty equal to the
  average agreement between the pair's answers on questions only one of
  them answered.  Each used pair must have exclusive questions on both
  sides.
* peer truth serum (PTSC): alpha * (match / R_i(y) - 1) where R_i(y) is
  the relative frequency of answer y among all answers except agent i's
  own, across all questions; 0 whenever R_i(y) = 0.

Two paths score every mechanism: ``compute_rewards``, one kernel that
reads precomputed intermediary values, and ``rewards_naive``, which
rederives everything from scratch at each use.  Both make the same input
checks (``_require_inputs``; a mechanism must be a ``Mechanism``, a peer
mode an ``AllPeers`` or a ``SampledPeers`` and alpha a positive int or
``Fraction`` for every mechanism, else ``ValueError``) and
return equal ``RewardReport``s: rewards, ``r_min`` and scaling as
bitwise-identical exact rationals.  The naive path is the reference
oracle and the baseline for cost accounting.

``AnswerMatrix`` turns its entries, one (agent index, question index, bit)
per answer, into 0/1 arrays and per-question sums once for the kernels, the
gas model and the DG check; its dict views (``cells`` too) come on first use.

Peers are either all co-answerers of a question or a seeded sample drawn
per (agent, question) cell; sampling uses a substream so results do not
depend on evaluation order.  ``peer_visits`` is the one place a settle
asks which: its ``PeerVisits`` holds, as int arrays, the peers scored in
every cell, how many of them match, and per peer count s how often each
agent's cells with s peers score each other agent (``by_size``, counted on
its first read, which only DG makes).  With all peers these come from the
matrix's 0/1 arrays.  Sampled cells take their substream seeds from one
numpy pass (``peer_selection.cell_seeds``); each batch of
``DRAW_MEMO_SIZE`` of them is drawn in one numpy pass
(``peer_selection.draw_positions_many``) into the sampler's memo, and
then every cell makes one ``sample_peers`` call, in row-major order, on
the positions ``0..pool-1`` of its pool (one list per pool size, shared by
the cells), which finds its draw there.  The drawn positions are
flattened into one array and named by one gather over every question's
answerers, laid out question after question: position ``pos`` of agent
i's pool on question j is the answerer at place ``pos + (pos >= r)`` of
j, where r is i's own place.  ``peers_for_cell`` is the cell-by-cell
reference that the naive path uses; a test holds ``PeerVisits`` equal to
it.  The gas model prices the same ``PeerVisits``.

The optimized path is one exact integer kernel that reads only
``PeerVisits`` and the matrix's counts.  It makes one ``peer_visits`` call
and works in arrays over the scored cells (the nonzero peer counts): each
scored cell gives one (agent, denominator, numerator) term, the
numerators are summed per (agent, denominator) by one ``np.lexsort`` and
``np.add.reduceat``, and each agent's sums become one ``Fraction`` at the
end; array values enter that arithmetic only as Python ints.  OA and DG
put a cell's matches over its peer count; PTSC puts its term over n times
the count behind R_i(y), which comes from the per-agent row sums.  The DG
penalty of a pair, (a0*b0 + a1*b1) / (|ex_i| * |ex_p|), depends only on
0/1 counts over the two agents' exclusive questions, so ``PairCounts``
derives every pair's numerator and denominator from products of the
matrix's 0/1 arrays, and a pair's penalty adds one term per peer count s,
weighted by how many of the agent's cells with s peers score it, so no
peer is visited one by one.  Terms and their sums are int64, which the
2**31-cell cap keeps exact, except the DG products of a pair numerator and
its weight: those are Python ints (an object array) whenever a bound from
the matrix does not show they fit (``compute_rewards`` gives the bounds).
Conversion to integer units happens only at ledger settlement.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, partial
from itertools import chain
from math import lcm
from typing import Callable, Iterable

import numpy as np

from .errors import EmptyMatrix, NoNonCommonQuestions, require_int_arrays, require_ints
from .peer_selection import (
    DRAW_MEMO_SIZE,
    SelectionSeed,
    cell_seed,
    cell_seeds,
    draw_positions_many,
    sample_peers,
    seed_state,
)

ZERO = Fraction(0)
ONE = Fraction(1)


class Mechanism(str, Enum):
    OA = "oa"
    DG = "dg"
    PTSC = "ptsc"


@dataclass(frozen=True)
class AllPeers:
    """Score every peer who answered the cell."""


@dataclass(frozen=True)
class SampledPeers:
    """Use min(k, available) seeded random peers per (agent, question)."""

    k: int
    seed: SelectionSeed | int

    def __post_init__(self):
        require_ints(k=self.k)
        seed_state(self.seed)  # raises for anything but a SelectionSeed or an int
        if self.k < 1:
            raise ValueError("k must be at least 1")


PeerMode = AllPeers | SampledPeers
ALL_PEERS = AllPeers()


def _refuse_first_bad_entry(agents: tuple[str, ...], questions: tuple[str, ...], given: list[np.ndarray]) -> None:
    """Raise for the first bad entry: its agent index, question index, bit or an answered pair."""
    seen = set()
    for t, (i, j, bit) in enumerate(zip(*(e.tolist() for e in given))):
        if not 0 <= i < len(agents):
            raise ValueError(f"entry {t} has agent index {i}, want 0..{len(agents) - 1}")
        if not 0 <= j < len(questions):
            raise ValueError(f"entry {t} has question index {j}, want 0..{len(questions) - 1}")
        cell = agents[i], questions[j]
        if bit not in (0, 1):
            raise ValueError(f"entry {t} {cell!r} holds bit {bit!r}, want 0 or 1")
        if (i, j) in seen:
            raise ValueError(f"entry {t} answers {cell!r} again")
        seen.add((i, j))


class AnswerMatrix:
    """Sparse agent x question matrix of binary reports, one entry t per answer:
    agent ``agent_idx[t]`` gave question ``question_idx[t]`` the bit ``bits[t]``.
    ``answered`` and ``ones`` are its agents x questions int64 0/1 arrays, and
    ``answerers_per_question`` and ``ones_per_question`` their column sums."""

    def __init__(self, agents: Iterable[str], questions: Iterable[str],
                 agent_idx: np.typing.ArrayLike, question_idx: np.typing.ArrayLike, bits: np.typing.ArrayLike):
        self.agents = tuple(agents)
        self.questions = tuple(questions)
        n, m = shape = (len(self.agents), len(self.questions))
        # counts are at most Q, their products at most Q**2 and sums of
        # products over all pairs at most (n*Q)**2: all far inside int64
        if n * m >= 2**31:
            raise ValueError(f"{n} agents x {m} questions is 2**31 cells or more")
        self.agent_index = {a: i for i, a in enumerate(self.agents)}
        self.question_index = {q: j for j, q in enumerate(self.questions)}
        if len(self.agent_index) != n:
            raise ValueError("duplicate agent ids")
        if len(self.question_index) != m:
            raise ValueError("duplicate question ids")
        given = require_int_arrays(agent_idx=agent_idx, question_idx=question_idx, bits=bits)
        ai, qi, b = given  # compared in their own dtypes, so no cast can wrap a value into range
        if not ((0 <= ai) & (ai < n) & (0 <= qi) & (qi < m) & (0 <= b) & (b <= 1)).all():
            _refuse_first_bad_entry(self.agents, self.questions, given)
        self._entries = ai, qi, b = np.array(given, dtype=np.int64)
        self.total_answers = b.size
        flat = ai * m + qi
        self.answered = np.bincount(flat, minlength=n * m).reshape(shape)
        if self.answered.max(initial=0) > 1:
            _refuse_first_bad_entry(self.agents, self.questions, given)
        self.ones = np.bincount(flat[b == 1], minlength=n * m).reshape(shape)
        self.answerers_per_question = self.answered.sum(axis=0)
        self.ones_per_question = self.ones.sum(axis=0)

    @cached_property
    def cells(self) -> dict[tuple[str, str], int]:
        """(agent, question) -> bit of every answer, in entry order."""
        return {(self.agents[i], self.questions[j]): bit for i, j, bit in zip(*self._entries.tolist())}

    @cached_property
    def answers_by_agent(self) -> dict[str, dict[str, int]]:
        """Agent -> {question: bit}, both in matrix order."""
        return {
            a: {q: bit for q, seen, bit in zip(self.questions, answered, ones) if seen}
            for a, answered, ones in zip(self.agents, self.answered.tolist(), self.ones.tolist())
        }

    @cached_property
    def answerers_by_question(self) -> dict[str, list[str]]:
        """Question -> the agents who answered it, in matrix order."""
        return {
            q: [a for a, seen in zip(self.agents, column) if seen]
            for q, column in zip(self.questions, self.answered.T.tolist())
        }

    @cached_property
    def pair_counts(self) -> "PairCounts":
        """The matrix's ``PairCounts``, built on first use and kept for every
        later reader (``compute_rewards`` scoring DG, ``require_exclusive_questions``)."""
        return PairCounts(self.answered, self.ones)


@dataclass
class RewardReport:
    per_agent_reward: dict[str, Fraction]
    mechanism: Mechanism
    scaling: Fraction = ONE
    peer_mode: PeerMode = ALL_PEERS
    r_min: Fraction | None = None  # smallest nonzero R_i(y) used (PTSC only)

    def validate_bounds(self) -> None:
        """Assert the mechanism-specific reward range; the tests and the
        benchmark's round check (`perfbench` `_check_round`, every round) call it."""
        for agent, r in self.per_agent_reward.items():
            if self.mechanism is Mechanism.OA:
                ok = ZERO <= r <= ONE
            elif self.mechanism is Mechanism.DG:
                ok = -ONE <= r <= ONE
            else:
                hi = self.scaling * (1 / self.r_min - 1) if self.r_min else ZERO
                ok = -self.scaling <= r <= hi
            if not ok:
                raise AssertionError(f"{self.mechanism.value} reward {r} for {agent} out of range")


def require_peer_mode(peer_mode: object) -> None:
    """Raise ValueError unless ``peer_mode`` is an ``AllPeers`` or a
    ``SampledPeers``."""
    if not isinstance(peer_mode, (AllPeers, SampledPeers)):
        raise ValueError(f"peer_mode must be AllPeers or SampledPeers, got {peer_mode!r}")


def require_scoring(mechanism: object, peer_mode: object) -> None:
    """Raise ValueError unless ``mechanism`` is a ``Mechanism`` and
    ``peer_mode`` a peer mode; a string such as "dg" is not taken for a
    mechanism."""
    if not isinstance(mechanism, Mechanism):
        raise ValueError(f"mechanism must be a Mechanism, got {mechanism!r}")
    require_peer_mode(peer_mode)


def require_alpha(alpha: object) -> Fraction:
    """``alpha`` as a Fraction; raises ValueError unless it is a positive
    int or Fraction (a bool is neither)."""
    if isinstance(alpha, bool) or not isinstance(alpha, (int, Fraction)):
        raise ValueError(f"alpha must be an int or Fraction, got {alpha!r}")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return Fraction(alpha)


def _require_inputs(matrix: AnswerMatrix, mechanism: object, alpha: object, peer_mode: object) -> Fraction:
    """The checks both reward paths make, in one order; returns alpha as a
    Fraction."""
    require_scoring(mechanism, peer_mode)
    alpha = require_alpha(alpha)
    if matrix.total_answers == 0:
        raise EmptyMatrix("matrix holds no answers")
    return alpha


def peers_for_cell(matrix: AnswerMatrix, agent: str, q: str, peer_mode: PeerMode) -> list[str]:
    """Peers used for one (agent, question) cell, in the order scored.

    Sampling draws from ``cell_seed(seed, agent index, question index)``,
    so the draw for one cell is independent of every other cell.
    """
    require_peer_mode(peer_mode)
    candidates = [a for a in matrix.answerers_by_question[q] if a != agent]
    if not candidates or isinstance(peer_mode, AllPeers):
        return candidates
    k = min(peer_mode.k, len(candidates))
    seed = cell_seed(peer_mode.seed, matrix.agent_index[agent], matrix.question_index[q])
    return sample_peers(candidates, k, seed)


def _mean(contribs: list[Fraction]) -> Fraction:
    if not contribs:
        return ZERO
    return sum(contribs, ZERO) / len(contribs)


@dataclass(frozen=True)
class PeerVisits:
    """The peers a settle scores, as counts; rows and columns follow the
    matrix's agents and questions.

    ``peers[i, j]`` is the number of peers scored in cell (i, j), 0 when the
    cell is not scored; ``matches[i, j]`` how many of them gave agent i's
    answer; ``by_size[s][i, p]`` how many of agent i's cells with s peers
    score agent p, counted by ``count_by_size()`` on its first read (OA and
    PTSC read only ``peers`` and ``matches``).
    """

    peers: np.ndarray
    matches: np.ndarray
    count_by_size: Callable[[], dict[int, np.ndarray]]

    @cached_property
    def by_size(self) -> dict[int, np.ndarray]:
        return self.count_by_size()

    def visited(self) -> np.ndarray:
        """[i, p]: how many of agent i's cells score agent p."""
        n = len(self.peers)
        return sum(self.by_size.values(), np.zeros((n, n), dtype=np.int64))


def _shared_by_size(answered: np.ndarray, pools: np.ndarray) -> dict[int, np.ndarray]:
    """All peers' ``by_size``: [i, p] counts the questions with s peers that
    agents i and p both answered."""
    by_size = {}
    for s in np.flatnonzero(np.bincount(pools[pools > 0])).tolist():
        block = answered[:, pools == s]
        shared = block @ block.T
        np.fill_diagonal(shared, 0)
        by_size[s] = shared
    return by_size


def _drawn_by_size(agent: np.ndarray, sizes: np.ndarray, peer: np.ndarray, n_agents: int) -> dict[int, np.ndarray]:
    """A sample's ``by_size``: scored cell c is agent ``agent[c]``'s, with
    ``sizes[c]`` peers, and its peers are the next ``sizes[c]`` of ``peer``."""
    pair = np.repeat(agent * n_agents, sizes) + peer
    size = np.repeat(sizes, sizes)
    return {
        s: np.bincount(pair[size == s], minlength=n_agents**2).reshape(n_agents, n_agents)
        for s in np.flatnonzero(np.bincount(sizes)).tolist()
    }


def peer_visits(matrix: AnswerMatrix, peer_mode: PeerMode) -> PeerVisits:
    """The ``PeerVisits`` of scoring ``matrix`` under ``peer_mode``: every
    answered cell whose question has another answerer is scored.

    A sampled cell makes one ``sample_peers`` call, in row-major order,
    whose candidates are the positions ``0..pool-1`` of its pool (one list
    per pool size, shared by the cells); each ``DRAW_MEMO_SIZE`` cells are
    first drawn as one batch, so those calls find their draws in the memo.
    Position ``pos`` of agent i's pool on question j is the answerer of j
    at place ``pos + (pos >= r)``, r being i's own place, which is the peer
    ``peers_for_cell`` names; every visit's peer is read by one gather.
    """
    require_peer_mode(peer_mode)
    answered, ones = matrix.answered, matrix.ones
    answerers, said_one = matrix.answerers_per_question, matrix.ones_per_question
    pools = answerers - 1
    scored = (answered == 1) & (pools > 0)
    if isinstance(peer_mode, AllPeers):
        # a cell's matches: the other answerers of its question with the same bit
        same = np.where(ones == 1, said_one, answerers - said_one) - 1
        return PeerVisits(np.where(scored, pools, 0), np.where(scored, same, 0),
                          partial(_shared_by_size, answered, pools))

    n_agents, n_questions = answered.shape
    # k capped at n_agents, above every pool, so a huge k never meets numpy
    peers = np.where(scored, np.minimum(pools, min(peer_mode.k, n_agents)), 0)
    cells = np.flatnonzero(scored)
    agent, q = np.divmod(cells, n_questions)
    sizes = peers.flat[cells]
    pool_list, k_list = pools[q].tolist(), sizes.tolist()
    states = cell_seeds(peer_mode.seed, n_agents, n_questions).flat[cells].tolist()
    spots = {pool: list(range(pool)) for pool in set(pool_list)}
    drawn = []
    for start in range(0, len(cells), DRAW_MEMO_SIZE):
        part = slice(start, start + DRAW_MEMO_SIZE)
        draw_positions_many(pool_list[part], k_list[part], states[part])
        drawn += chain.from_iterable(
            map(sample_peers, map(spots.__getitem__, pool_list[part]), k_list[part], states[part]))
    pos = np.fromiter(drawn, dtype=np.intp, count=len(drawn))
    # every question's answerers in agent order, one question after another, and their bits
    taken = np.flatnonzero(answered.T)
    answerer, bit = taken % n_agents, ones.T.flat[taken]
    first = np.cumsum(answerers) - answerers
    place = (np.cumsum(answered, axis=0) - 1).flat[cells]  # the agent's place among them
    # one entry per visit, cell after cell: where its peer sits in `answerer`
    at = np.repeat(first[q], sizes) + pos + (pos >= np.repeat(place, sizes))
    agree = bit[at] == np.repeat(ones.flat[cells], sizes)
    matches = np.zeros_like(peers)
    matches.flat[cells] = np.add.reduceat(agree, np.cumsum(sizes) - sizes, dtype=np.int64)
    return PeerVisits(peers, matches, partial(_drawn_by_size, agent, sizes, answerer[at], n_agents))


class PairCounts:
    """Integer counts over agent pairs, from products of 0/1 matrices.

    Built from a matrix's ``answered`` and ``ones``; rows and columns follow
    its agents.  The DG penalty of a pair is ``num[i, p] / den[i, p]``:
    with a0, a1 the 0s and 1s of i on the questions only i answered and
    b0, b1 those of p on the questions only p answered, num = a0*b0 + a1*b1
    and den = |ex_i| * |ex_p|, which is 0 when either side has no exclusive
    question (so on the diagonal).
    """

    def __init__(self, answered: np.ndarray, ones: np.ndarray):
        exclusive = answered.sum(axis=1)[:, None] - answered @ answered.T  # row i: |ex_i| against p
        ex1 = ones.sum(axis=1)[:, None] - ones @ answered.T
        ex0 = exclusive - ex1
        self.num = ex0 * ex0.T + ex1 * ex1.T
        self.den = exclusive * exclusive.T


def _exact_mean(dens: list[int], nums: list[int], count: int, scale: Fraction = ONE) -> Fraction:
    """scale * (sum of nums[t]/dens[t]) / count, built as one Fraction from
    Python ints; 0 for an agent with no scored cell."""
    if not count:
        return ZERO
    common = lcm(*dens)
    total = sum(num * (common // den) for den, num in zip(dens, nums))
    return Fraction(scale.numerator * total, scale.denominator * common * count)


def _dg_terms(pairs: PairCounts, visits: PeerVisits) -> list[tuple[np.ndarray, ...]]:
    """The DG penalty terms (agent i, denominator den[i, p]*s, numerator
    -num[i, p]*w) of the pairs (i, p) that w > 0 of agent i's cells with s
    peers score, one triple of arrays per s.  The numerators are int64 when
    the bound in ``compute_rewards`` shows that one agent's sums fit, and
    Python ints (an object array) otherwise."""
    most_visits = int(visits.visited().sum(axis=1).max(initial=0))
    dtype = np.int64 if (int(pairs.num.max(initial=0)) + 1) * most_visits < 2**63 else object
    terms = []
    for s, visited in visits.by_size.items():
        i, p = np.nonzero(visited)
        terms.append((i, pairs.den[i, p] * s, -pairs.num[i, p].astype(dtype) * visited[i, p]))
    return terms


def _grouped_sums(agent: np.ndarray, den: np.ndarray, num: np.ndarray) -> tuple[np.ndarray, ...]:
    """The numerators summed per (agent, denominator): one (agent, den, sum)
    per distinct pair, sorted by agent and then denominator."""
    order = np.lexsort((den, agent))
    agent, den, num = agent[order], den[order], num[order]
    first = np.ones(len(agent), dtype=bool)
    first[1:] = (agent[1:] != agent[:-1]) | (den[1:] != den[:-1])
    starts = np.flatnonzero(first)
    return agent[starts], den[starts], np.add.reduceat(num, starts) if len(num) else num


def require_exclusive_questions(matrix: AnswerMatrix, peer_mode: PeerMode, visits: PeerVisits) -> None:
    """The DG-validity rule: raise ``NoNonCommonQuestions`` for the first
    pair that ``visits`` scores without exclusive questions on both sides,
    in the order the naive path visits peers: agent, then the agent's
    questions, then the cell's peers in scoring order."""
    bad = (visits.visited() > 0) & (matrix.pair_counts.den == 0)
    if not bad.any():
        return
    i = int(np.argmax(bad.any(axis=1)))
    agent = matrix.agents[i]
    for q in matrix.answers_by_agent[agent]:
        for peer in peers_for_cell(matrix, agent, q, peer_mode):
            if bad[i, matrix.agent_index[peer]]:
                raise NoNonCommonQuestions(agent, peer)


# ---------------------------------------------------------------------------
# optimized path: integer numerators summed per denominator, one Fraction
# per agent
# ---------------------------------------------------------------------------

def compute_rewards(
    matrix: AnswerMatrix,
    mechanism: Mechanism,
    alpha: Fraction | int = 1,
    peer_mode: PeerMode = ALL_PEERS,
) -> RewardReport:
    """Optimized reward computation for any mechanism.

    A cell with n peers, m of them agreeing, scores m/n under OA and DG,
    and under PTSC (m/n) / R_i(y) - 1 = (m*total - d) / d with
    d = n*others[y], where R_i(y) = others[y] / total; a PTSC cell with
    R_i(y) = 0 scores 0.  DG then takes penalty/n per peer, so pair
    (i, p) is penalised once per cell of i that scores p, weighted by the
    count of those cells per peer count.  Questions where the agent has no
    peer are left out of its mean; an agent with no scored cell gets 0.

    Exact in int64 for every matrix ``AnswerMatrix`` admits (N = n*Q <
    2**31 cells, n agents, Q questions): a cell's peer count n and matches
    m are below n, and R_i(y)'s counts at most N, so a PTSC term is at most
    n*N and one agent's sum over its Q cells at most N**2 < 2**62.  A DG
    pair's denominator |ex_i|*|ex_p|*s is at most (Q/2)**2 * n < 2**60.
    Its numerator times its weight w is not bounded so (two agents with
    2**22 questions each reach 2**63), but one agent's sums are at most
    (largest pair numerator + 1) times its peer visits, as each visit adds
    its match and weighs one penalty; the products are int64 when that
    bound is below 2**63 and Python ints otherwise, on the same path.
    """
    alpha = _require_inputs(matrix, mechanism, alpha, peer_mode)
    visits = peer_visits(matrix, peer_mode)
    agent, q = np.nonzero(visits.peers)
    n, m = visits.peers[agent, q], visits.matches[agent, q]
    terms = [(agent, n, m)]
    r_min: Fraction | None = None
    ptsc = mechanism is Mechanism.PTSC
    if ptsc:
        # R_i(y) = others[i, y] / totals[i] counts every answer but agent i's own
        totals = matrix.total_answers - matrix.answered.sum(axis=1)
        said_one = matrix.ones_per_question.sum() - matrix.ones.sum(axis=1)
        others = np.stack([totals - said_one, said_one], axis=1)
        y = matrix.ones[agent, q]
        kept = others[agent, y] > 0
        agent, y, n, m = agent[kept], y[kept], n[kept], m[kept]
        d = n * others[agent, y]
        terms = [(agent, d, m * totals[agent] - d)]
        # the smallest nonzero R_i(y) of an answer y that agent i gave in a scored cell
        i, y = np.divmod(np.flatnonzero(np.bincount(agent * 2 + y)), 2)
        r_min = min(map(Fraction, others[i, y].tolist(), totals[i].tolist()), default=None)
    elif mechanism is Mechanism.DG:
        require_exclusive_questions(matrix, peer_mode, visits)
        terms += _dg_terms(matrix.pair_counts, visits)

    groups, dens, sums = _grouped_sums(*(np.concatenate(column) for column in zip(*terms)))
    bounds = np.searchsorted(groups, np.arange(len(matrix.agents) + 1)).tolist()
    dens, sums = dens.tolist(), sums.tolist()
    scale = alpha if ptsc else ONE
    counts = np.count_nonzero(visits.peers, axis=1).tolist()
    rewards = {a: _exact_mean(dens[lo:hi], sums[lo:hi], count, scale)
               for a, lo, hi, count in zip(matrix.agents, bounds, bounds[1:], counts)}
    return RewardReport(rewards, mechanism, scale, peer_mode, r_min=r_min)


# ---------------------------------------------------------------------------
# naive reference path
# ---------------------------------------------------------------------------

def _naive_dg_penalty(matrix: AnswerMatrix, agent: str, peer: str) -> Fraction:
    mine = matrix.answers_by_agent[agent]
    theirs = matrix.answers_by_agent[peer]
    ex_mine = [q for q in mine if q not in theirs]
    ex_theirs = [q for q in theirs if q not in mine]
    if not ex_mine or not ex_theirs:
        raise NoNonCommonQuestions(agent, peer)
    agree = 0
    for qa in ex_mine:
        for qb in ex_theirs:
            if mine[qa] == theirs[qb]:
                agree += 1
    return Fraction(agree, len(ex_mine) * len(ex_theirs))


def _naive_ptsc_frequency(matrix: AnswerMatrix, agent: str, y: int) -> Fraction:
    num = [0, 0]
    for (a, _q), bit in matrix.cells.items():
        if a != agent:
            num[bit] += 1
    denom = num[0] + num[1]
    if denom == 0 or num[y] == 0:
        return ZERO
    return Fraction(num[y], denom)


def rewards_naive(
    matrix: AnswerMatrix,
    mechanism: Mechanism,
    alpha: Fraction | int = 1,
    peer_mode: PeerMode = ALL_PEERS,
) -> RewardReport:
    """Reference computation with no intermediary-value reuse.

    Recounts frequencies, matches and penalties from scratch wherever they
    are needed.  Output is exactly equal to the optimized path.
    """
    alpha = _require_inputs(matrix, mechanism, alpha, peer_mode)
    scale = alpha if mechanism is Mechanism.PTSC else ONE
    rewards = {}
    r_min: Fraction | None = None
    for agent in matrix.agents:
        contribs = []
        for q, y in matrix.answers_by_agent[agent].items():
            # the same substream as the optimized path: both score the same peers
            peers = peers_for_cell(matrix, agent, q, peer_mode)
            if not peers:
                continue
            if mechanism is Mechanism.OA:
                scores = [ONE if matrix.cells[(p, q)] == y else ZERO for p in peers]
            elif mechanism is Mechanism.DG:
                scores = [
                    (ONE if matrix.cells[(p, q)] == y else ZERO) - _naive_dg_penalty(matrix, agent, p)
                    for p in peers
                ]
            else:
                r = _naive_ptsc_frequency(matrix, agent, y)
                if r == 0:
                    scores = [ZERO for _ in peers]
                else:
                    if r_min is None or r < r_min:
                        r_min = r
                    scores = [
                        (ONE if matrix.cells[(p, q)] == y else ZERO) / r - 1
                        for p in peers
                    ]
            contribs.append(_mean(scores))
        rewards[agent] = scale * _mean(contribs)
    return RewardReport(rewards, mechanism, scale, peer_mode, r_min=r_min)
