"""End-to-end experiment harness over a QoS response-time matrix.

A dataset row is one agent's measured response times against every
service; -1 marks a missing measurement (the rtMatrix convention).
Binarization turns times of at most the threshold (default 1 second,
inclusive) into answer 1 ("good") and the rest into 0.  Reports are then
generated from a behavior mix: Truthful agents copy the ground truth,
Random agents toss a fair coin independent of it, Adversarial agents flip
every bit.  The default mix is 50/25/25.  The coin tosses draw exactly the
stream of one ``randint(0, 1)`` per cell, through C-level iterators.

`run_experiment` drives a complete ledger round (post, select, commit,
reveal, settle) for one configuration and returns the per-phase gas
totals plus mean mechanism rewards per behavior class; sweeps over
packing, mechanisms, and peer counts expose the protocol's cost trends.
The agents' side of the round is built from the reports' row-major
arrays: their selections, and every batch's message in one
`commitment.encode_slots` pass.  Every output is a pure function of
(config, seed).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction
from functools import partial
from itertools import islice
from math import floor, isfinite

import numpy as np

from . import commitment as cmt
from .errors import EmptyDataset, NoNonCommonQuestions, require_ints
from .gas_model import DEFAULT_GAS_TABLE, GasTable
from .keccak import MEMO_SIZE, keccak256_many
from .ledger import Ledger, LedgerConfig, format_decimal
from .mechanisms import (
    ALL_PEERS,
    AnswerMatrix,
    Mechanism,
    PeerMode,
    RewardReport,
    SampledPeers,
    peer_visits,
    require_exclusive_questions,
)

MISSING = -1.0


@dataclass(frozen=True)
class QoSDataset:
    """Dense agent x service response-time matrix in seconds."""

    response_times: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if not self.response_times or not self.response_times[0]:
            raise EmptyDataset("dataset needs at least one agent and one service")
        width = len(self.response_times[0])
        for row in self.response_times:
            if len(row) != width:
                raise ValueError("ragged dataset rows")
            for v in row:
                if v != MISSING and not isfinite(v):
                    raise ValueError(f"response time {v} is not a finite number")
                if v != MISSING and v < 0:
                    raise ValueError(f"negative response time {v}")

    @property
    def n_agents(self) -> int:
        return len(self.response_times)

    @property
    def n_services(self) -> int:
        return len(self.response_times[0])

    @classmethod
    def load(cls, path) -> "QoSDataset":
        rows = []
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.replace(",", " ").strip()
                if not line:
                    continue
                rows.append(tuple(float(tok) for tok in line.split()))
        if not rows:
            raise EmptyDataset(f"no numeric rows in {path}")
        return cls(tuple(rows))

    @classmethod
    def synthetic(cls, agents: int, services: int, seed: int, p_miss: float = 0.3) -> "QoSDataset":
        """Services draw a latent quality; good ones answer fast.

        Good services (60%) respond in 0.35-1.05 s and bad ones in
        0.8-2.4 s, so the 1-second binarization mostly recovers the
        latent quality but a realistic minority of measurements lands on
        the other side of the threshold.
        """
        rng = random.Random(f"qos-synth:{seed}")
        base = [0.7 if rng.random() < 0.6 else 1.6 for _ in range(services)]
        rows = []
        for _ in range(agents):
            row = []
            for j in range(services):
                if rng.random() < p_miss:
                    row.append(MISSING)
                else:
                    row.append(round(base[j] * rng.uniform(0.5, 1.5), 6))
            rows.append(tuple(row))
        return cls(tuple(rows))

    @classmethod
    def skip_one(cls, agents: int, services: int, seed: int) -> "QoSDataset":
        """Dense except agent i skips service i: the smallest missingness
        pattern that leaves every agent pair exclusive questions, so DG
        runs on it regardless of size."""
        if services < agents:
            raise ValueError("skip_one needs at least as many services as agents")
        rng = random.Random(f"qos-skip:{seed}")
        base = [0.7 if rng.random() < 0.6 else 1.6 for _ in range(services)]
        rows = []
        for i in range(agents):
            row = [
                MISSING if j == i else round(base[j] * rng.uniform(0.5, 1.5), 6)
                for j in range(services)
            ]
            rows.append(tuple(row))
        return cls(tuple(rows))

    def corner(self, agents: int, services: int) -> "QoSDataset":
        """Top-left desk-scale slice, the documented default for tests; the
        dataset itself when the slice is all of it."""
        if agents > self.n_agents or services > self.n_services:
            raise ValueError("corner larger than the dataset")
        if (agents, services) == (self.n_agents, self.n_services):
            return self
        return QoSDataset(tuple(row[:services] for row in self.response_times[:agents]))


def binarize(dataset: QoSDataset, threshold_seconds: float = 1.0) -> AnswerMatrix:
    """Ground-truth matrix: time <= threshold -> 1, else 0, missing dropped; row-major entries."""
    if threshold_seconds <= 0:
        raise ValueError("threshold must be positive")
    rt = np.array(dataset.response_times)
    seen = rt != MISSING
    if not seen.any():
        raise EmptyDataset("every cell in the dataset is missing")
    agents = tuple(f"a{i:03d}" for i in range(dataset.n_agents))
    questions = tuple(f"s{j:04d}" for j in range(dataset.n_services))
    return AnswerMatrix(agents, questions, *np.nonzero(seen), rt[seen] <= threshold_seconds)


class Behavior(Enum):
    TRUTHFUL = "truthful"
    RANDOM = "random"
    ADVERSARIAL = "adversarial"


@dataclass(frozen=True)
class AgentPopulation:
    truthful: Fraction = Fraction(1, 2)
    random_: Fraction = Fraction(1, 4)
    adversarial: Fraction = Fraction(1, 4)

    def __post_init__(self):
        fractions = (self.truthful, self.random_, self.adversarial)
        for f in fractions:
            if isinstance(f, bool) or not isinstance(f, (int, Fraction)):
                raise ValueError(f"behavior fractions must be ints or Fractions, got {f!r}")
        if any(f < 0 for f in fractions):
            raise ValueError("behavior fractions must be nonnegative")
        if sum(fractions) != 1:
            raise ValueError("behavior fractions must sum to exactly 1")

    def counts(self, n: int) -> tuple[int, int, int]:
        """Largest-remainder apportionment, ties broken in declaration order."""
        fractions = (self.truthful, self.random_, self.adversarial)
        base = [floor(f * n) for f in fractions]
        remainders = [f * n - b for f, b in zip(fractions, base)]
        leftover = n - sum(base)
        order = sorted(range(3), key=lambda i: (-remainders[i], i))
        for i in order[:leftover]:
            base[i] += 1
        return tuple(base)

    def assign(self, agents) -> dict[str, Behavior]:
        """First agents truthful, then random, then adversarial."""
        agents = tuple(agents)
        n_t, n_r, _ = self.counts(len(agents))
        out = {}
        for idx, a in enumerate(agents):
            if idx < n_t:
                out[a] = Behavior.TRUTHFUL
            elif idx < n_t + n_r:
                out[a] = Behavior.RANDOM
            else:
                out[a] = Behavior.ADVERSARIAL
        return out


def _coin_tosses(rng: random.Random, count: int) -> np.ndarray:
    """``count`` fair bits, the values and stream of ``[rng.randint(0, 1) for _
    in range(count)]``: randint(0, 1) draws ``getrandbits(2)`` until one is
    below 2, and so does this, through C-level iterators, not a Python loop."""
    draws = filter((2).__gt__, iter(partial(rng.getrandbits, 2), None))  # None never comes
    return np.fromiter(islice(draws, count), np.int64, count)


def generate_reports(truth: AnswerMatrix, population: AgentPopulation, seed: int) -> AnswerMatrix:
    """Apply the behavior mix to the ground truth; same sparsity pattern, row-major entries.

    Random agents toss one fair coin per cell, in agent and then question
    order, with `_coin_tosses`: the bits and stream of one ``randint(0, 1)``
    per cell."""
    behaviors = population.assign(truth.agents).values()  # in truth.agents order
    agent_idx, question_idx = np.nonzero(truth.answered)
    bits = truth.ones[agent_idx, question_idx]
    bits ^= np.array([b is Behavior.ADVERSARIAL for b in behaviors], dtype=bool)[agent_idx]
    drawn = np.array([b is Behavior.RANDOM for b in behaviors], dtype=bool)[agent_idx]
    bits[drawn] = _coin_tosses(random.Random(f"reports:{seed}"), np.count_nonzero(drawn))
    return AnswerMatrix(truth.agents, truth.questions, agent_idx, question_idx, bits)


def assert_dg_valid(matrix: AnswerMatrix) -> None:
    """Every co-answering pair must leave both sides exclusive questions.

    Applies DG's own rule (`require_exclusive_questions`) under all peers,
    where a pair is scored iff it co-answers, and re-raises the pair it
    names as AssertionError."""
    try:
        require_exclusive_questions(matrix, ALL_PEERS, peer_visits(matrix, ALL_PEERS))
    except NoNonCommonQuestions as e:
        raise AssertionError(f"pair ({e.agent}, {e.peer}) has no exclusive questions") from None


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

# settings every experiment round shares: the 50/25/25 behavior mix, the
# requester's budget and gas deposit (binarization keeps its 1-s default)
POPULATION = AgentPopulation()
BUDGET = 10**6
REQUESTER_DEPOSIT = 10**5


@dataclass(frozen=True)
class ExperimentConfig:
    mechanism: Mechanism = Mechanism.OA
    peer_mode: PeerMode = ALL_PEERS
    packed: bool = True
    gas_table: GasTable = DEFAULT_GAS_TABLE
    agents: int = 50
    questions_per_agent: int | None = None
    alpha: Fraction = Fraction(1, 2)
    optimized: bool = True
    seed: int = 0
    config_id: str = ""
    # the round's settings, built from the fields above at construction, so its checks run then
    ledger_config: LedgerConfig = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        require_ints(agents=self.agents, seed=self.seed)
        if self.agents < 1:
            raise ValueError(f"an experiment needs at least one agent, got {self.agents}")
        if self.questions_per_agent is not None:
            require_ints(questions_per_agent=self.questions_per_agent)
            if self.questions_per_agent < 1:
                raise ValueError(f"questions per agent must be at least 1, got {self.questions_per_agent}")
        if not isinstance(self.packed, bool):
            raise ValueError(f"packed must be a bool, got {self.packed!r}")
        object.__setattr__(self, "ledger_config", LedgerConfig(
            mechanism=self.mechanism, alpha=self.alpha, peer_mode=self.peer_mode, gas_table=self.gas_table,
            batch_size=cmt.MAX_ANSWERS if self.packed else 1, optimized=self.optimized))


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    gas_per_phase: dict[str, int]
    gas_total: int
    reward_report: RewardReport
    behavior_means: dict[Behavior, Fraction | None]
    ledger: Ledger

    def csv_rows(self) -> list[str]:
        cfg = self.config
        k_peers = str(cfg.peer_mode.k) if isinstance(cfg.peer_mode, SampledPeers) else "all"
        qpa = cfg.questions_per_agent if cfg.questions_per_agent is not None else ""
        means = [
            "" if self.behavior_means[b] is None else format_decimal(self.behavior_means[b])
            for b in (Behavior.TRUTHFUL, Behavior.RANDOM, Behavior.ADVERSARIAL)
        ]
        rows = []
        for phase, gas in self.gas_per_phase.items():
            rows.append(
                f"{cfg.config_id},{cfg.mechanism.value},{'on' if cfg.packed else 'off'},"
                f"{k_peers},{cfg.agents},{qpa},{phase},{gas},"
                + ",".join(means)
            )
        return rows


CSV_HEADER = (
    "config_id,mechanism,packing,k_peers,agents,questions_per_agent,"
    "phase,gas,mean_reward_truthful,mean_reward_random,mean_reward_adversarial"
)


def run_experiment(config: ExperimentConfig, dataset: QoSDataset | None = None) -> ExperimentReport:
    """One full protocol round; deterministic in (config, dataset).

    The requester posts, every agent with answers selects its questions,
    and the agents prepare every commitment off-ledger (encode the batches,
    draw their keys, hash their layouts) before any is submitted; then every
    batch is committed, revealed and the round settled.  Key draws, and
    commits and reveals, follow agent order and batch order.
    """
    if dataset is None:
        dataset = QoSDataset.synthetic(config.agents, 50, seed=config.seed)
    if dataset.n_agents < config.agents:
        raise ValueError(f"dataset has {dataset.n_agents} agents, config wants {config.agents}")
    dataset = dataset.corner(config.agents, dataset.n_services)
    truth = binarize(dataset)
    reports = generate_reports(truth, POPULATION, config.seed)

    # each agent selects its answered questions in dataset order, the first
    # questions_per_agent of them: row-major entries keep an agent's answers
    # together, so an entry's rank is its place among them
    agent_idx, question_idx = np.nonzero(reports.answered)
    if config.questions_per_agent is not None:
        answered = reports.answered.sum(axis=1)
        rank = np.arange(agent_idx.size) - (np.cumsum(answered) - answered)[agent_idx]
        kept = rank < config.questions_per_agent
        agent_idx, question_idx = agent_idx[kept], question_idx[kept]
    selected = np.bincount(agent_idx, minlength=len(reports.agents))

    led_cfg = config.ledger_config
    ledger = Ledger(led_cfg)
    ledger.post_questions(reports.questions, BUDGET, REQUESTER_DEPOSIT)
    deposit = led_cfg.min_agent_deposit
    names = list(map(reports.questions.__getitem__, question_idx.tolist()))
    active = []
    end = 0
    for a, n in zip(reports.agents, selected.tolist()):
        if n:
            ledger.select_questions(a, names[end:end + n], deposit)
            active.append(a)
        end += n
    ledger.tick(led_cfg.selection_blocks)

    # off-ledger, the agents encode every batch in one pass, draw the keys
    # and hash the layouts.  An agent's batches, concatenated, are its
    # selection in posted order, so the round's batches, in agent and batch
    # order, cut the kept entries into runs of their sizes: slot j of batch t
    # holds entry j of run t.  The hashing runs as one batch per MEMO_SIZE
    # commitments, so each digest is still in the memo when `commit` and the
    # contract's reveal check ask for it
    sizes = [len(batch_qs) for a in active for batch_qs in ledger.agent_batches(a)]
    batch = np.repeat(np.arange(len(sizes)), sizes)
    slot = np.arange(batch.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    messages = iter(cmt.encode_slots(batch, slot, reports.ones[agent_idx, question_idx], len(sizes)))
    prepared: list[tuple[str, int, int, int, int]] = []  # (agent, batch, message, key, slots)
    for a in active:
        key_rng = random.Random(f"key:{config.seed}:{a}")
        for b, batch_qs in enumerate(ledger.agent_batches(a)):
            prepared.append((a, b, next(messages), key_rng.getrandbits(cmt.KEY_BITS), len(batch_qs)))
    slices = [prepared[i:i + MEMO_SIZE] for i in range(0, len(prepared), MEMO_SIZE)]
    layouts = [[cmt.layout_bytes(m, k, n) for _a, _b, m, k, n in part] for part in slices]
    for part, part_layouts in zip(slices, layouts):
        keccak256_many(part_layouts)
        for a, b, m, k, n in part:
            ledger.submit_commitment(a, b, cmt.commit(m, k, n))
    for part, part_layouts in zip(slices, layouts):
        keccak256_many(part_layouts)  # memo hits, unless the round outgrew the memo
        for a, b, m, k, _n in part:
            ledger.reveal(a, b, m, k)
    settlement = ledger.settle()

    reward_report = settlement.reward_report
    behaviors = POPULATION.assign(reports.agents)
    means: dict[Behavior, Fraction | None] = {}
    for b in Behavior:
        members = [a for a in active if behaviors[a] is b]
        if members and reward_report is not None:
            total = sum((reward_report.per_agent_reward[a] for a in members), Fraction(0))
            means[b] = total / len(members)
        else:
            means[b] = None

    per_phase = ledger.gas.per_phase
    return ExperimentReport(
        config=config,
        gas_per_phase=per_phase,
        gas_total=sum(per_phase.values()),
        reward_report=reward_report,
        behavior_means=means,
        ledger=ledger,
    )


# ---------------------------------------------------------------------------
# gas-trend sweeps
# ---------------------------------------------------------------------------

def sweep_packing(base: ExperimentConfig, dataset: QoSDataset, questions) -> list[ExperimentReport]:
    """Packed versus unpacked commit+reveal gas by questions per agent."""
    out = []
    for q in questions:
        for packed in (True, False):
            cfg = replace(base, packed=packed, questions_per_agent=q,
                          config_id=f"pack-{'on' if packed else 'off'}-q{q}")
            out.append(run_experiment(cfg, dataset))
    return out


def sweep_mechanisms(base: ExperimentConfig, dataset: QoSDataset) -> dict[Mechanism, ExperimentReport]:
    """Settlement gas per mechanism on one matrix."""
    return {
        mech: run_experiment(replace(base, mechanism=mech, config_id=f"mech-{mech.value}"), dataset)
        for mech in Mechanism
    }


def sweep_peers(base: ExperimentConfig, dataset: QoSDataset, ks, sample_seed: int = 1) -> dict[str, ExperimentReport]:
    """Sampled-k versus all-peers settlement gas."""
    out = {"all": run_experiment(replace(base, peer_mode=ALL_PEERS, config_id="peers-all"), dataset)}
    for k in ks:
        cfg = replace(base, peer_mode=SampledPeers(k, sample_seed), config_id=f"peers-{k}")
        out[str(k)] = run_experiment(cfg, dataset)
    return out
