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
values (per-question counts, the frequency table, a pairwise penalty
cache) and a naive path that rederives everything from scratch at each
use.  Both produce bitwise-identical exact rationals; the naive path is
the reference oracle and the baseline for cost accounting.

The optimized paths and the gas model read one per-round ``cell_plan``:
for every agent, the answered cells that have peers, each with its peers
in scoring order and its match count.  Peers are either all co-answerers
of a question or a seeded sample drawn per (agent, question) cell;
sampling uses a substream so results do not depend on evaluation order.
All arithmetic is ``fractions.Fraction``; conversion to integer units
happens only at ledger settlement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple

from .errors import EmptyMatrix, NoNonCommonQuestions
from .peer_selection import SeedLike, cell_stream, sample_peers

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
        if self.k < 1:
            raise ValueError("k must be at least 1")


PeerMode = AllPeers | SampledPeers
ALL_PEERS = AllPeers()


class AnswerMatrix:
    """Sparse agent x question matrix of binary reports.

    ``cells`` maps (agent, question) to 0/1; absence means the agent did
    not answer that question.
    """

    def __init__(
        self,
        agents: Iterable[str],
        questions: Iterable[str],
        cells: Mapping[tuple[str, str], int],
    ):
        self.agents = tuple(agents)
        self.questions = tuple(questions)
        if len(set(self.agents)) != len(self.agents):
            raise ValueError("duplicate agent ids")
        if len(set(self.questions)) != len(self.questions):
            raise ValueError("duplicate question ids")
        agent_set = set(self.agents)
        question_set = set(self.questions)
        for (a, q), bit in cells.items():
            if a not in agent_set:
                raise ValueError(f"cell references unknown agent {a!r}")
            if q not in question_set:
                raise ValueError(f"cell references unknown question {q!r}")
            if bit not in (0, 1):
                raise ValueError(f"cell ({a!r}, {q!r}) holds {bit!r}, want 0 or 1")
        self.cells = dict(cells)

        # Indexes in canonical (matrix) order; all iteration below follows them.
        self.agent_index = {a: i for i, a in enumerate(self.agents)}
        self.question_index = {q: j for j, q in enumerate(self.questions)}
        self.answers_by_agent: dict[str, dict[str, int]] = {a: {} for a in self.agents}
        self.answerers_by_question: dict[str, list[str]] = {q: [] for q in self.questions}
        self._question_counts: dict[str, tuple[int, int]] = {}
        for q in self.questions:
            counts = [0, 0]
            for a in self.agents:
                bit = self.cells.get((a, q))
                if bit is not None:
                    self.answers_by_agent[a][q] = bit
                    self.answerers_by_question[q].append(a)
                    counts[bit] += 1
            self._question_counts[q] = (counts[0], counts[1])

    @property
    def total_answers(self) -> int:
        return len(self.cells)

    def question_counts(self, q: str) -> tuple[int, int]:
        """(count of 0s, count of 1s) among the answers to question q."""
        return self._question_counts[q]

    def relabeled(self, agent_map: Mapping[str, str], question_map: Mapping[str, str]) -> "AnswerMatrix":
        return AnswerMatrix(
            (agent_map[a] for a in self.agents),
            (question_map[q] for q in self.questions),
            {(agent_map[a], question_map[q]): bit for (a, q), bit in self.cells.items()},
        )


@dataclass(frozen=True)
class FrequencyTable:
    """Intermediary answer counts reused across agents by the PTSC path."""

    per_agent_counts: dict[str, tuple[int, int]]
    global_counts: tuple[int, int]

    @classmethod
    def from_matrix(cls, matrix: AnswerMatrix) -> "FrequencyTable":
        per_agent = {}
        g0 = g1 = 0
        for a in matrix.agents:
            ones = sum(matrix.answers_by_agent[a].values())
            zeros = len(matrix.answers_by_agent[a]) - ones
            per_agent[a] = (zeros, ones)
            g0 += zeros
            g1 += ones
        return cls(per_agent, (g0, g1))

    def excluding(self, agent: str) -> tuple[int, int]:
        own = self.per_agent_counts.get(agent, (0, 0))
        return self.global_counts[0] - own[0], self.global_counts[1] - own[1]

    def relative_frequency(self, agent: str, y: int) -> Fraction:
        """R_i(y); Fraction(0) when the count (or the whole pool) is empty."""
        num = self.excluding(agent)
        denom = num[0] + num[1]
        if denom == 0 or num[y] == 0:
            return ZERO
        return Fraction(num[y], denom)


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
    """One answered cell with at least one peer, as the optimized paths score it."""

    q: str
    y: int
    peers: list[str]
    matches: int  # peers whose answer to q equals y


def cell_plan(matrix: AnswerMatrix, peer_mode: PeerMode) -> dict[str, list[Cell]]:
    """Every agent (matrix order) -> its answered cells that have peers.

    Cells keep the agent's question order and their peers come from
    ``peers_for_cell``, so the mechanisms and the gas model score and price
    the same draws.  A cell whose peers are all co-answerers of q takes its
    match count from the question's cached 0/1 counts.
    """
    plan = {}
    for agent in matrix.agents:
        cells = []
        for q, y in matrix.answers_by_agent[agent].items():
            peers = peers_for_cell(matrix, agent, q, peer_mode)
            if not peers:
                continue
            if len(peers) == len(matrix.answerers_by_question[q]) - 1:
                matches = matrix.question_counts(q)[y] - 1
            else:
                matches = sum(1 for p in peers if matrix.cells[(p, q)] == y)
            cells.append(Cell(q, y, peers, matches))
        plan[agent] = cells
    return plan


# ---------------------------------------------------------------------------
# optimized paths
# ---------------------------------------------------------------------------

def oa_rewards(matrix: AnswerMatrix, peer_mode: PeerMode = ALL_PEERS) -> RewardReport:
    """Output agreement: mean over peers of the match indicator, then over questions.

    Questions where the agent has no peer are excluded from her average;
    an agent with no scoreable question gets reward 0.
    """
    _require_answers(matrix)
    rewards = {
        agent: _mean([Fraction(c.matches, len(c.peers)) for c in cells])
        for agent, cells in cell_plan(matrix, peer_mode).items()
    }
    return RewardReport(rewards, Mechanism.OA, ONE, peer_mode)


class _PenaltyCache:
    """Pairwise DG penalties, computed once per used (unordered) pair."""

    def __init__(self, matrix: AnswerMatrix):
        self.matrix = matrix
        self.cache: dict[tuple[str, str], Fraction] = {}

    def penalty(self, agent: str, peer: str) -> Fraction:
        key = (agent, peer) if agent < peer else (peer, agent)
        hit = self.cache.get(key)
        if hit is not None:
            return hit
        mine = self.matrix.answers_by_agent[agent]
        theirs = self.matrix.answers_by_agent[peer]
        ex_mine = [q for q in mine if q not in theirs]
        ex_theirs = [q for q in theirs if q not in mine]
        if not ex_mine or not ex_theirs:
            raise NoNonCommonQuestions(agent, peer)
        a1 = sum(mine[q] for q in ex_mine)
        a0 = len(ex_mine) - a1
        b1 = sum(theirs[q] for q in ex_theirs)
        b0 = len(ex_theirs) - b1
        value = Fraction(a0 * b0 + a1 * b1, len(ex_mine) * len(ex_theirs))
        self.cache[key] = value
        return value


def dg_rewards(matrix: AnswerMatrix, peer_mode: PeerMode = ALL_PEERS) -> RewardReport:
    """Dasgupta-Ghosh: per-peer score = match on the shared question minus
    the pair's mean agreement over non-common question pairs."""
    _require_answers(matrix)
    penalties = _PenaltyCache(matrix)
    rewards = {}
    for agent, cells in cell_plan(matrix, peer_mode).items():
        contribs = []
        for c in cells:
            pen_sum = sum((penalties.penalty(agent, p) for p in c.peers), ZERO)
            contribs.append((c.matches - pen_sum) / len(c.peers))
        rewards[agent] = _mean(contribs)
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
    table = FrequencyTable.from_matrix(matrix)
    r_min: Fraction | None = None
    rewards = {}
    for agent, cells in cell_plan(matrix, peer_mode).items():
        contribs = []
        for c in cells:
            r = table.relative_frequency(agent, c.y)
            if r == 0:
                contribs.append(ZERO)
                continue
            if r_min is None or r < r_min:
                r_min = r
            contribs.append(Fraction(c.matches, len(c.peers)) / r - 1)
        rewards[agent] = alpha * _mean(contribs)
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
