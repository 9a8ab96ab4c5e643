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

``AnswerMatrix`` turns answers into numbers once, as 0/1 arrays and their
per-question sums that the kernels, the gas model and the DG validity
check read; its dict views are derived from the arrays on first use.

Peers are either all co-answerers of a question or a seeded sample drawn
per (agent, question) cell; sampling uses a substream so results do not
depend on evaluation order.  ``peer_visits`` is the one place a settle
asks which: its ``PeerVisits`` holds, as int arrays, the peers scored in
every cell, how many of them match, and per peer count s how often each
agent's cells with s peers score each other agent.  With all peers these
come from the matrix's 0/1 arrays.  Sampled cells take their substream
seeds from one numpy pass (``peer_selection.cell_seeds``); each batch of
``DRAW_MEMO_SIZE`` of them is drawn in one numpy pass
(``peer_selection.draw_positions_many``) into the sampler's memo, and
then every cell makes one ``sample_peers`` call, in row-major order, from
the question's answerer list with the agent sliced out, which finds its
draw there.  ``peers_for_cell`` is the cell-by-cell
reference that the naive path uses; a test holds ``PeerVisits`` equal to
it.  The gas model prices the same ``PeerVisits``.

The optimized path is one exact integer kernel that reads only
``PeerVisits`` and the matrix's counts.  It makes one ``peer_visits`` call
and one pass over each agent's cells.  Each agent's reward is a sum of
rationals whose numerators are summed as integers per denominator and
turned into one ``Fraction`` per agent at the end; array counts enter that
arithmetic only as Python ints.  OA and DG add a cell's matches under its
peer count; PTSC adds its term under n times the count behind R_i(y),
which comes from the per-agent row sums.  The DG penalty of a pair,
(a0*b0 + a1*b1) / (|ex_i| * |ex_p|), depends only on 0/1 counts over the
two agents' exclusive questions, so ``PairCounts`` derives every pair's
numerator and denominator from products of the matrix's 0/1 arrays, and
a pair's penalty is weighted by how many of the agent's cells of each
peer count score it, so no peer is visited one by one.  Conversion to
integer units happens only at ledger settlement.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Mapping

import numpy as np

from .errors import EmptyMatrix, NoNonCommonQuestions, require_ints
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


class AnswerMatrix:
    """Sparse agent x question matrix of binary reports.

    ``cells`` maps (agent, question) to 0/1; absence means the agent did
    not answer that question.  ``answered`` and ``ones`` are the agents x
    questions int64 0/1 arrays (answered, answered 1) in matrix order, and
    ``answerers_per_question`` and ``ones_per_question`` their column sums.
    """

    def __init__(
        self,
        agents: Iterable[str],
        questions: Iterable[str],
        cells: Mapping[tuple[str, str], int],
    ):
        self.agents = tuple(agents)
        self.questions = tuple(questions)
        shape = (len(self.agents), len(self.questions))
        # counts are at most Q, their products at most Q**2 and sums of
        # products over all pairs at most (n*Q)**2: all far inside int64
        if shape[0] * shape[1] >= 2**31:
            raise ValueError(f"{shape[0]} agents x {shape[1]} questions is 2**31 cells or more")
        self.agent_index = {a: i for i, a in enumerate(self.agents)}
        self.question_index = {q: j for j, q in enumerate(self.questions)}
        if len(self.agent_index) != len(self.agents):
            raise ValueError("duplicate agent ids")
        if len(self.question_index) != len(self.questions):
            raise ValueError("duplicate question ids")
        for (a, q), bit in cells.items():
            if a not in self.agent_index:
                raise ValueError(f"cell references unknown agent {a!r}")
            if q not in self.question_index:
                raise ValueError(f"cell references unknown question {q!r}")
            if bit not in (0, 1):
                raise ValueError(f"cell ({a!r}, {q!r}) holds {bit!r}, want 0 or 1")
        self.cells = dict(cells)

        self.answered = np.zeros(shape, dtype=np.int64)
        self.ones = np.zeros(shape, dtype=np.int64)
        at = (np.array([self.agent_index[a] for a, _q in self.cells], dtype=np.intp),
              np.array([self.question_index[q] for _a, q in self.cells], dtype=np.intp))
        self.answered[at] = 1
        self.ones[at] = list(self.cells.values())
        self.answerers_per_question = self.answered.sum(axis=0)
        self.ones_per_question = self.ones.sum(axis=0)

    @property
    def total_answers(self) -> int:
        return len(self.cells)

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
        """Assert the mechanism-specific reward range; used by tests."""
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
    score agent p.
    """

    peers: np.ndarray
    matches: np.ndarray
    by_size: dict[int, np.ndarray]

    def visited(self) -> np.ndarray:
        """[i, p]: how many of agent i's cells score agent p."""
        n = len(self.peers)
        return sum(self.by_size.values(), np.zeros((n, n), dtype=np.int64))


def peer_visits(matrix: AnswerMatrix, peer_mode: PeerMode) -> PeerVisits:
    """The ``PeerVisits`` of scoring ``matrix`` under ``peer_mode``: every
    answered cell whose question has another answerer is scored.

    A sampled cell makes one ``sample_peers`` call, in row-major order, on
    the pool ``peers_for_cell`` draws from, held as agent indices; the
    sampler picks by position, so the draws are the same.  Each
    ``DRAW_MEMO_SIZE`` cells are first drawn as one batch, so those calls
    find their draws in the memo.
    """
    require_peer_mode(peer_mode)
    answered, ones = matrix.answered, matrix.ones
    answerers, said_one = matrix.answerers_per_question, matrix.ones_per_question
    pools = answerers - 1
    scored = (answered == 1) & (pools > 0)
    if isinstance(peer_mode, AllPeers):
        # a cell's matches: the other answerers of its question with the same bit
        same = np.where(ones == 1, said_one, answerers - said_one) - 1
        by_size = {}
        for s in np.unique(pools[pools > 0]).tolist():
            block = answered[:, pools == s]
            shared = block @ block.T  # questions with s peers both answered
            np.fill_diagonal(shared, 0)
            by_size[s] = shared
        return PeerVisits(np.where(scored, pools, 0), np.where(scored, same, 0), by_size)

    n_agents, n_questions = answered.shape
    # k capped at n_agents, above every pool, so a huge k never meets numpy
    peers = np.where(scored, np.minimum(pools, min(peer_mode.k, n_agents)), 0)
    columns = [np.flatnonzero(column).tolist() for column in answered.T]
    # the agent's position among the answerers of each question it answered
    ranks = (np.cumsum(answered, axis=0) - 1).tolist()
    cells = np.flatnonzero(scored)
    sizes = peers.flat[cells]
    cell_list, pool_list, k_list = cells.tolist(), pools[cells % n_questions].tolist(), sizes.tolist()
    states = cell_seeds(peer_mode.seed, n_agents, n_questions).flat[cells].tolist()
    drawn = []
    for start in range(0, len(cells), DRAW_MEMO_SIZE):
        part = slice(start, start + DRAW_MEMO_SIZE)
        draw_positions_many(pool_list[part], k_list[part], states[part])
        for cell, k, state in zip(cell_list[part], k_list[part], states[part]):
            i, j = divmod(cell, n_questions)
            column, r = columns[j], ranks[i][j]
            drawn += sample_peers(column[:r] + column[r + 1:], k, state)
    # one entry per visit: its cell, the cell's agent and question, the peer
    visit = np.repeat(cells, sizes)
    agent, q = np.divmod(visit, n_questions)
    drawn = np.array(drawn, dtype=np.intp)
    agree = ones[drawn, q] == ones.flat[visit]
    matches = np.bincount(visit[agree], minlength=peers.size).reshape(peers.shape)
    pair, size = agent * n_agents + drawn, np.repeat(sizes, sizes)
    by_size = {
        s: np.bincount(pair[size == s], minlength=n_agents**2).reshape(n_agents, n_agents)
        for s in np.unique(sizes).tolist()
    }
    return PeerVisits(peers, matches, by_size)


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


def _exact_mean(sums: Mapping[int, int], count: int, scale: Fraction = ONE) -> Fraction:
    """scale * (sum of numerator/denominator over ``sums``) / count, built as
    one Fraction; 0 for an agent with no scored cell."""
    if not count:
        return ZERO
    common = lcm(*sums)
    total = sum(num * (common // den) for den, num in sums.items())
    return Fraction(scale.numerator * total, scale.denominator * common * count)


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
    """
    alpha = _require_inputs(matrix, mechanism, alpha, peer_mode)
    visits = peer_visits(matrix, peer_mode)
    ptsc = mechanism is Mechanism.PTSC
    if ptsc:
        # R_i(y) counts every answer but agent i's own
        totals = (matrix.total_answers - matrix.answered.sum(axis=1)).tolist()
        said_one = (int(matrix.ones_per_question.sum()) - matrix.ones.sum(axis=1)).tolist()
        freqs = [((t - o, o), t) for t, o in zip(totals, said_one)]
    else:
        freqs = [((0, 0), 0)] * len(matrix.agents)  # OA and DG read no frequency
    sums = []
    for ys, ns, ms, (others, total) in zip(
        matrix.ones.tolist(), visits.peers.tolist(), visits.matches.tolist(), freqs,
    ):
        acc = defaultdict(int)
        for y, n, m in zip(ys, ns, ms):
            if not n:
                continue
            if not ptsc:
                acc[n] += m
            elif others[y]:
                d = n * others[y]
                acc[d] += m * total - d
        sums.append(acc)

    if mechanism is Mechanism.DG:
        require_exclusive_questions(matrix, peer_mode, visits)
        num, den = matrix.pair_counts.num.tolist(), matrix.pair_counts.den.tolist()
        for s, visited in visits.by_size.items():
            rows, cols = np.nonzero(visited)
            for i, p, w in zip(rows.tolist(), cols.tolist(), visited[rows, cols].tolist()):
                sums[i][den[i][p] * s] -= num[i][p] * w

    r_min: Fraction | None = None
    if ptsc:
        # the smallest nonzero R_i(y) of an answer y that agent i gave in a scored cell
        scored = visits.peers > 0
        gave = [(scored & (matrix.ones == y)).any(axis=1).tolist() for y in (0, 1)]
        r_min = min(
            (Fraction(others[y], total)
             for i, (others, total) in enumerate(freqs)
             for y in (0, 1) if gave[y][i] and others[y]),
            default=None,
        )
    scale = alpha if ptsc else ONE
    counts = np.count_nonzero(visits.peers, axis=1).tolist()
    rewards = {agent: _exact_mean(acc, count, scale) for agent, acc, count in zip(matrix.agents, sums, counts)}
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
