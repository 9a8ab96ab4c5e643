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

Every mechanism has an optimized path that precomputes intermediary
values and a naive path that rederives everything from scratch at each
use.  Both produce bitwise-identical exact rationals; the naive path is
the reference oracle and the baseline for cost accounting.

``AnswerMatrix`` turns answers into numbers once, as 0/1 arrays and their
per-question sums that the kernels, the gas model and the DG validity
check read; its dict views are derived from the arrays on first use.

The optimized paths are exact integer kernels.  Each agent's reward is a
sum of rationals whose numerators are summed as integers per denominator
and turned into one ``Fraction`` per agent at the end; array counts enter
that arithmetic only as Python ints.  A cell scored against all
co-answerers reads its match count from the per-question counts, and
PTSC's R_i(y) from the per-agent row sums.  The DG penalty of a pair,
(a0*b0 + a1*b1) / (|ex_i| * |ex_p|), depends only on 0/1 counts over the
two agents' exclusive questions, so ``PairCounts`` derives every pair's
numerator and denominator from products of the matrix's 0/1 arrays; with
all peers, a pair's penalty is weighted by how many questions of each
pool size it shares, so no peer is visited one by one.

Peers are either all co-answerers of a question or a seeded sample drawn
per (agent, question) cell; sampling uses a substream so results do not
depend on evaluation order.  Sampled cells come from one per-round
``cell_plan``: for every agent, the answered cells that have peers, each
with its peers in scoring order and its match count.  The plan reads the
matrix's arrays: a cell's candidate pool is its question's answerer list
with the agent sliced out at its rank in that column, every cell's
substream seed comes from one numpy pass (``peer_selection.cell_seeds``),
and the only per-cell call is one ``sample_peers``.  ``peers_for_cell`` is
the cell-by-cell reference that the naive path uses; a test holds the plan
equal to it.  The gas model prices the same cells.  Conversion to integer
units happens only at ledger settlement.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import compress
from math import lcm
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .errors import EmptyMatrix, NoNonCommonQuestions
from .peer_selection import SeedLike, cell_seeds, cell_stream, require_k, require_seed, sample_peers

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
    seed: SeedLike

    def __post_init__(self):
        require_k(self.k)
        require_seed(self.seed)
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

        shape = (len(self.agents), len(self.questions))
        # counts are at most Q, their products at most Q**2 and sums of
        # products over all pairs at most (n*Q)**2: all far inside int64
        assert shape[0] * shape[1] < 2**31
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
        """The matrix's ``PairCounts``, built on first use and kept, so the
        DG kernel and the gas model of one settle share one build."""
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


def _require_answers(matrix: AnswerMatrix) -> None:
    if matrix.total_answers == 0:
        raise EmptyMatrix("matrix holds no answers")


def peers_for_cell(matrix: AnswerMatrix, agent: str, q: str, peer_mode: PeerMode) -> list[str]:
    """Peers used for one (agent, question) cell, in the order scored.

    Sampling derives a substream from (seed, agent index, question index),
    so the draw for one cell is independent of every other cell.
    """
    candidates = [a for a in matrix.answerers_by_question[q] if a != agent]
    if not candidates or isinstance(peer_mode, AllPeers):
        return candidates
    k = min(peer_mode.k, len(candidates))
    stream = cell_stream(peer_mode.seed, matrix.agent_index[agent], matrix.question_index[q])
    return sample_peers(candidates, k, stream)


def _mean(contribs: list[Fraction]) -> Fraction:
    if not contribs:
        return ZERO
    return sum(contribs, ZERO) / len(contribs)


class Cell(NamedTuple):
    """One answered cell with at least one peer, as the sampled paths score it."""

    q: str
    y: int
    peers: list[str]
    matches: int  # peers whose answer to q equals y


def cell_plan(matrix: AnswerMatrix, peer_mode: PeerMode) -> dict[str, list[Cell]]:
    """Every agent (matrix order) -> its answered cells that have peers.

    Cells keep the agent's question order and hold the peers that
    ``peers_for_cell`` gives, so the mechanisms and the gas model score and
    price the same draws; a test holds the two equal.  The plan is built
    from the matrix's arrays rather than cell by cell: a cell's candidate
    pool is its question's answerers with the agent sliced out at its rank
    in that column, and its substream state comes from ``cell_seeds``.
    A sampled cell makes one ``sample_peers`` call.  A cell whose peers are
    all co-answerers of q takes its match count from the question's 0/1
    counts; any other counts its peers among the question's 1-answerers.
    """
    sampled = isinstance(peer_mode, SampledPeers)
    answerers = matrix.answerers_per_question.tolist()
    ones = matrix.ones_per_question.tolist()
    columns = list(matrix.answerers_by_question.values())
    said_one = [set(compress(matrix.agents, column)) for column in matrix.ones.T.tolist()]
    # the agent's position among the answerers of each question it answered
    ranks = (np.cumsum(matrix.answered, axis=0) - 1).tolist()
    bits = matrix.ones.tolist()
    scored = (matrix.answered == 1) & (matrix.answerers_per_question > 1)
    if sampled:
        seeds = cell_seeds(peer_mode.seed, len(matrix.agents), len(matrix.questions))
    plan = {}
    for i, agent in enumerate(matrix.agents):
        cells = []
        for j in np.flatnonzero(scored[i]).tolist():
            col, r, y = columns[j], ranks[i][j], bits[i][j]
            peers = col[:r] + col[r + 1:]
            if sampled:
                peers = sample_peers(peers, min(peer_mode.k, len(peers)), seeds[i][j])
            if len(peers) == answerers[j] - 1:
                matches = (ones[j] if y else answerers[j] - ones[j]) - 1
            else:
                hits = len(said_one[j].intersection(peers))
                matches = hits if y else len(peers) - hits
            cells.append(Cell(matrix.questions[j], y, peers, matches))
        plan[agent] = cells
    return plan


def _tallies(matrix: AnswerMatrix, peer_mode: PeerMode):
    """Every agent (matrix order) -> (y, peer count, matches) of each scored
    cell, plus the sampled ``cell_plan`` (None for all peers).

    With all peers the counts come from the per-question 0/1 counts and no
    peer list is built; sampled cells are the plan's draws.
    """
    if isinstance(peer_mode, AllPeers):
        answerers, ones = matrix.answerers_per_question, matrix.ones_per_question
        pools = answerers - 1
        # a cell's matches: the other answerers of its question with the same bit
        matches = np.where(matrix.ones == 1, ones, answerers - ones) - 1
        scored = (matrix.answered == 1) & (pools > 0)
        tallies = {
            agent: list(zip(matrix.ones[i, s].tolist(), pools[s].tolist(), matches[i, s].tolist()))
            for i, (agent, s) in enumerate(zip(matrix.agents, scored))
        }
        return tallies, None
    plan = cell_plan(matrix, peer_mode)
    return {a: [(c.y, len(c.peers), c.matches) for c in cells] for a, cells in plan.items()}, plan


class PairCounts:
    """Integer counts over agent pairs, from products of 0/1 matrices.

    Built from a matrix's ``answered`` and ``ones``; rows and columns follow
    its agents.  ``common[i, p]`` is the number of questions two distinct
    agents both answered (0 on the diagonal).  The DG penalty of a pair is
    ``num[i, p] / den[i, p]``: with a0, a1 the 0s and 1s of i on the
    questions only i answered and b0, b1 those of p on the questions only p
    answered, num = a0*b0 + a1*b1 and den = |ex_i| * |ex_p|, which is 0 when
    either side has no exclusive question.
    """

    def __init__(self, answered: np.ndarray, ones: np.ndarray):
        common = answered @ answered.T
        exclusive = answered.sum(axis=1)[:, None] - common  # row i: |ex_i| against p
        ex1 = ones.sum(axis=1)[:, None] - ones @ answered.T
        ex0 = exclusive - ex1
        np.fill_diagonal(common, 0)
        self.common = common
        self.num = ex0 * ex0.T + ex1 * ex1.T
        self.den = exclusive * exclusive.T

    def require_exclusive_questions(self, matrix: AnswerMatrix) -> None:
        """Raise for the first co-answering pair without exclusive questions
        on both sides, in the order the naive path visits peers: agent, then
        the agent's questions, then peers in matrix order."""
        bad = (self.common > 0) & (self.den == 0)
        if not bad.any():
            return
        i = int(np.argmax(bad.any(axis=1)))
        _q, p = min(
            (int(np.argmax(matrix.answered[i] & matrix.answered[p])), int(p))
            for p in np.flatnonzero(bad[i])
        )
        raise NoNonCommonQuestions(matrix.agents[i], matrix.agents[p])


def _exact_mean(sums: Mapping[int, int], count: int, scale: Fraction = ONE) -> Fraction:
    """scale * (sum of numerator/denominator over ``sums``) / count, built as
    one Fraction; 0 for an agent with no scored cell."""
    if not count:
        return ZERO
    common = lcm(*sums)
    total = sum(num * (common // den) for den, num in sums.items())
    return Fraction(scale.numerator * total, scale.denominator * common * count)


# ---------------------------------------------------------------------------
# optimized paths: integer numerators summed per denominator, one Fraction
# per agent
# ---------------------------------------------------------------------------

def oa_rewards(matrix: AnswerMatrix, peer_mode: PeerMode = ALL_PEERS) -> RewardReport:
    """Output agreement: mean over peers of the match indicator, then over questions.

    Questions where the agent has no peer are excluded from her average;
    an agent with no scoreable question gets reward 0.
    """
    _require_answers(matrix)
    tallies, _plan = _tallies(matrix, peer_mode)
    rewards = {}
    for agent, cells in tallies.items():
        sums = defaultdict(int)
        for _y, n, m in cells:
            sums[n] += m
        rewards[agent] = _exact_mean(sums, len(cells))
    return RewardReport(rewards, Mechanism.OA, ONE, peer_mode)


def dg_rewards(matrix: AnswerMatrix, peer_mode: PeerMode = ALL_PEERS) -> RewardReport:
    """Dasgupta-Ghosh: per-peer score = match on the shared question minus
    the pair's mean agreement over non-common question pairs.

    A cell with n peers adds matches/n and takes penalty/n per peer.  With
    all peers, pair (i, p) is penalised once per question both answered, so
    its penalty is weighted by the count of those questions per pool size.
    Sampled cells visit their drawn peers; only pairs drawn are checked.
    """
    _require_answers(matrix)
    tallies, plan = _tallies(matrix, peer_mode)
    counts = matrix.pair_counts
    num, den = counts.num.tolist(), counts.den.tolist()
    sums = [defaultdict(int) for _ in matrix.agents]
    if plan is None:
        counts.require_exclusive_questions(matrix)
        pools = matrix.answerers_per_question - 1
        for s in np.unique(pools[pools > 0]).tolist():
            block = matrix.answered[:, pools == s]
            shared = block @ block.T  # questions with s peers both answered
            np.fill_diagonal(shared, 0)
            rows, cols = np.nonzero(shared)
            for i, p, w in zip(rows.tolist(), cols.tolist(), shared[rows, cols].tolist()):
                sums[i][den[i][p] * s] -= num[i][p] * w
    else:
        for i, (agent, cells) in enumerate(plan.items()):
            for c in cells:
                n = len(c.peers)
                for peer in c.peers:
                    p = matrix.agent_index[peer]
                    if not den[i][p]:
                        raise NoNonCommonQuestions(agent, peer)
                    sums[i][den[i][p] * n] -= num[i][p]
    rewards = {}
    for acc, (agent, cells) in zip(sums, tallies.items()):
        for _y, n, m in cells:
            acc[n] += m
        rewards[agent] = _exact_mean(acc, len(cells))
    return RewardReport(rewards, Mechanism.DG, ONE, peer_mode)


def ptsc_rewards(
    matrix: AnswerMatrix,
    alpha: Fraction | int = 1,
    peer_mode: PeerMode = ALL_PEERS,
) -> RewardReport:
    """Peer truth serum: alpha * (match / R_i(y) - 1), 0 when R_i(y) = 0."""
    alpha = Fraction(alpha)
    if alpha <= 0:
        raise ValueError("alpha must be strictly positive")
    _require_answers(matrix)
    tallies, _plan = _tallies(matrix, peer_mode)
    # R_i(y) counts every answer but agent i's own
    all_ones = int(matrix.ones_per_question.sum())
    r_min: Fraction | None = None
    rewards = {}
    for (agent, cells), answers, ones in zip(
        tallies.items(), matrix.answered.sum(axis=1).tolist(), matrix.ones.sum(axis=1).tolist()
    ):
        total = matrix.total_answers - answers
        others = (total - (all_ones - ones), all_ones - ones)
        sums = defaultdict(int)
        used = set()
        for y, n, m in cells:
            if total and others[y]:
                # (m / n) / R_i(y) - 1 with R_i(y) = others[y] / total
                d = n * others[y]
                sums[d] += m * total - d
                used.add(y)
        for y in used:
            r = Fraction(others[y], total)
            if r_min is None or r < r_min:
                r_min = r
        rewards[agent] = _exact_mean(sums, len(cells), alpha)
    return RewardReport(rewards, Mechanism.PTSC, alpha, peer_mode, r_min=r_min)


def compute_rewards(
    matrix: AnswerMatrix,
    mechanism: Mechanism,
    alpha: Fraction | int = 1,
    peer_mode: PeerMode = ALL_PEERS,
) -> RewardReport:
    """Optimized reward computation for any mechanism."""
    if mechanism is Mechanism.OA:
        return oa_rewards(matrix, peer_mode)
    if mechanism is Mechanism.DG:
        return dg_rewards(matrix, peer_mode)
    return ptsc_rewards(matrix, alpha, peer_mode)


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
    alpha = Fraction(alpha)
    if mechanism is Mechanism.PTSC and alpha <= 0:
        raise ValueError("alpha must be strictly positive")
    _require_answers(matrix)
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
        scale = alpha if mechanism is Mechanism.PTSC else ONE
        rewards[agent] = scale * _mean(contribs)
    return RewardReport(
        rewards,
        mechanism,
        alpha if mechanism is Mechanism.PTSC else ONE,
        peer_mode,
        r_min=r_min if mechanism is Mechanism.PTSC else None,
    )
