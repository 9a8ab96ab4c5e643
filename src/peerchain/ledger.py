"""Deterministic protocol state machine simulating the on-chain contract.

A round moves through Posting -> Selection -> Commit -> Reveal -> Settled.
Time is a logical block counter; phase deadlines are block counts from the
config.  Every mutation is an event appended to a replayable log, one line
per event: ``block_number,event_type,party,payload_hex`` with the payload
hex-encoding canonical JSON.  Replaying a dumped log rebuilds the ledger
bit for bit, gas totals included.

Money is integer units throughout.  Mechanism rewards stay exact rationals
until settlement, where the fixed-point scale (10^9 units per mechanism
unit) converts penalties and the requester's budget is divided
proportionally over the clamped nonnegative rewards.  Settlement is
zero-sum: the net transfers of all parties add up to exactly zero.

Gas charges per event (words per the configured table):

* post: tx_base; new storage words for each question plus budget and
  deposit escrow.
* select: tx_base; one deposit word plus one word per 16 chosen question
  indices.
* commit: tx_base; one new storage word (the digest).  Hashing happened
  off-ledger, so no hash gas here; `gas_model.cost_of_commit_scheme`
  prices the writing side of the packing comparison.
* reveal: tx_base; one storage read (the digest), one hash of the 22-byte
  layout, one comparison; accepted reveals add one new storage word.
* settle: tx_base; the mechanism's compute pattern via
  `gas_model.charge_settlement_compute`; one update word per party paid.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from decimal import Decimal, localcontext
from enum import Enum
from fractions import Fraction
from math import ceil

from . import commitment as cmt
from .errors import (
    DepositExhausted,
    DuplicateCommitment,
    InsufficientDeposit,
    NoCommitment,
    UnknownQuestion,
    UnregisteredAgent,
    WrongPhase,
    ZeroBudget,
)
from .gas_model import DEFAULT_GAS_TABLE, GasLedger, GasTable, charge_settlement_compute
from .mechanisms import (
    ALL_PEERS,
    AllPeers,
    AnswerMatrix,
    Mechanism,
    PeerMode,
    RewardReport,
    SampledPeers,
    compute_rewards,
    rewards_naive,
)
from .peer_selection import SelectionSeed

DEFAULT_SCALE = 10**9


class Phase(Enum):
    POSTING = "posting"
    SELECTION = "selection"
    COMMIT = "commit"
    REVEAL = "reveal"
    SETTLED = "settled"


def format_decimal(x: Fraction | int, sig: int = 12) -> str:
    """Deterministic decimal rendering with `sig` significant digits."""
    x = Fraction(x)
    if x == 0:
        return "0"
    with localcontext() as ctx:
        ctx.prec = sig
        d = Decimal(x.numerator) / Decimal(x.denominator)
    return str(d)


def _peer_mode_payload(mode: PeerMode) -> dict:
    if isinstance(mode, AllPeers):
        return {"kind": "all"}
    seed = mode.seed
    if isinstance(seed, SelectionSeed):
        seed_payload = {"timestamp": seed.block_timestamp, "difficulty": seed.difficulty}
    elif isinstance(seed, int):
        seed_payload = seed
    else:
        raise ValueError("config peer seeds must be an integer or a SelectionSeed")
    return {"kind": "sampled", "k": mode.k, "seed": seed_payload}


def _peer_mode_from_payload(payload: dict) -> PeerMode:
    if payload["kind"] == "all":
        return ALL_PEERS
    seed = payload["seed"]
    if isinstance(seed, dict):
        seed = SelectionSeed(seed["timestamp"], seed["difficulty"])
    return SampledPeers(payload["k"], seed)


@dataclass(frozen=True)
class LedgerConfig:
    mechanism: Mechanism = Mechanism.OA
    alpha: Fraction = Fraction(1)
    peer_mode: PeerMode = ALL_PEERS
    batch_size: int = cmt.MAX_ANSWERS
    scale: int = DEFAULT_SCALE
    selection_blocks: int = 10
    commit_blocks: int = 10
    reveal_blocks: int = 10
    gas_table: GasTable = DEFAULT_GAS_TABLE
    optimized: bool = True

    def __post_init__(self):
        if not 1 <= self.batch_size <= cmt.MAX_ANSWERS:
            raise ValueError(f"batch_size must be in 1..{cmt.MAX_ANSWERS}")
        if self.scale < 1:
            raise ValueError("scale must be positive")
        if min(self.selection_blocks, self.commit_blocks, self.reveal_blocks) < 1:
            raise ValueError("phase windows must be at least one block")
        if isinstance(self.alpha, bool) or not isinstance(self.alpha, (int, Fraction)):
            raise ValueError(f"alpha must be an int or Fraction, got {self.alpha!r}")
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        _peer_mode_payload(self.peer_mode)  # reject non-serializable seeds

    @property
    def min_agent_deposit(self) -> int:
        """Deposit floor sized to the worst-case negative reward.

        PTSC rewards are bounded below by -alpha and DG by -1 per round;
        OA is never negative, so no deposit is demanded.
        """
        if self.mechanism is Mechanism.PTSC:
            return ceil(self.alpha * self.scale)
        if self.mechanism is Mechanism.DG:
            return self.scale
        return 0

    def to_payload(self) -> dict:
        return {
            "mechanism": self.mechanism.value,
            "alpha": [self.alpha.numerator, self.alpha.denominator],
            "peer_mode": _peer_mode_payload(self.peer_mode),
            "batch_size": self.batch_size,
            "scale": self.scale,
            "selection_blocks": self.selection_blocks,
            "commit_blocks": self.commit_blocks,
            "reveal_blocks": self.reveal_blocks,
            "gas_table": json.loads(self.gas_table.to_json()),
            "optimized": self.optimized,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "LedgerConfig":
        return cls(
            mechanism=Mechanism(payload["mechanism"]),
            alpha=Fraction(*payload["alpha"]),
            peer_mode=_peer_mode_from_payload(payload["peer_mode"]),
            batch_size=payload["batch_size"],
            scale=payload["scale"],
            selection_blocks=payload["selection_blocks"],
            commit_blocks=payload["commit_blocks"],
            reveal_blocks=payload["reveal_blocks"],
            gas_table=GasTable(**payload["gas_table"]),
            optimized=payload["optimized"],
        )


@dataclass(frozen=True)
class CommitRecord:
    agent: str
    batch: int
    commitment: cmt.Commitment
    submitted_at: int


@dataclass
class SettlementRow:
    agent: str
    mechanism_reward: Fraction
    payment_units: int
    deposit_returned: int
    gas_reimbursed: int


@dataclass
class SettlementReport:
    rows: list[SettlementRow]
    reward_report: RewardReport | None
    transfers: dict[str, int]
    budget_paid: int
    penalties_collected: int

    def to_csv(self) -> str:
        lines = ["agent,mechanism_reward,payment_units,deposit_returned,gas_reimbursed"]
        for r in self.rows:
            lines.append(
                f"{r.agent},{format_decimal(r.mechanism_reward)},"
                f"{r.payment_units},{r.deposit_returned},{r.gas_reimbursed}"
            )
        return "\n".join(lines) + "\n"


class Ledger:
    """Single-writer round state machine; see the module docstring."""

    REQUESTER = GasLedger.REQUESTER
    CHAIN = "chain"

    def __init__(self, config: LedgerConfig, _replay: bool = False):
        self.config = config
        self.block = 0
        self.phase = Phase.POSTING
        self.questions: tuple[str, ...] = ()
        self.budget = 0
        self.requester_deposit = 0
        self.selected: dict[str, tuple[str, ...]] = {}
        self.agent_deposits: dict[str, int] = {}
        self.commitments: dict[tuple[str, int], CommitRecord] = {}
        self.accepted: dict[tuple[str, int], tuple[int, int]] = {}  # (message, key value)
        self.discarded: list[tuple[str, int, int]] = []
        self.revealed_cells: dict[tuple[str, str], int] = {}
        self.gas = GasLedger(config.gas_table)
        self.transfers: dict[str, int] = {}
        self.notes: list[str] = []
        self.events: list[str] = []
        self.settlement: SettlementReport | None = None
        self._selection_end = self._commit_end = self._reveal_end = None
        if not _replay:
            self._record("genesis", self.CHAIN, config.to_payload())

    # -- event plumbing -----------------------------------------------------

    def _record(self, event_type: str, party: str, payload: dict) -> None:
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
        self.events.append(f"{self.block},{event_type},{party},{blob.hex()}")

    def _require_phase(self, expected: Phase) -> None:
        if self.phase is not expected:
            raise WrongPhase(f"expected phase {expected.value}, ledger is in {self.phase.value}")

    # -- block time -----------------------------------------------------------

    def tick(self, blocks: int = 1) -> None:
        """Advance the logical block counter, crossing phase deadlines."""
        if blocks < 1:
            raise ValueError("tick must advance at least one block")
        self._record("tick", self.CHAIN, {"blocks": blocks})
        for _ in range(blocks):
            self.block += 1
            self._deadline_transitions()

    def _deadline_transitions(self) -> None:
        if self.phase is Phase.SELECTION and self.block >= self._selection_end:
            self._enter_commit()
        if self.phase is Phase.COMMIT and self.block >= self._commit_end:
            self._enter_reveal()

    def _enter_commit(self) -> None:
        self.phase = Phase.COMMIT
        self._commit_end = self.block + self.config.commit_blocks

    def _enter_reveal(self) -> None:
        self.phase = Phase.REVEAL
        self._reveal_end = self.block + self.config.reveal_blocks

    # -- posting / selection --------------------------------------------------

    def post_questions(self, questions, budget: int, requester_deposit: int = 0) -> None:
        self._require_phase(Phase.POSTING)
        questions = tuple(questions)
        if not questions or len(set(questions)) != len(questions):
            raise ValueError("questions must be a nonempty unique sequence")
        if budget <= 0:
            raise ZeroBudget(f"budget must be positive, got {budget}")
        if requester_deposit < 0:
            raise ValueError("requester deposit must be nonnegative")
        self._record(
            "post",
            self.REQUESTER,
            {"questions": list(questions), "budget": budget, "deposit": requester_deposit},
        )
        self.questions = questions
        self.budget = budget
        self.requester_deposit = requester_deposit
        self.gas.charge("posting", self.REQUESTER, "tx_base")
        self.gas.charge("posting", self.REQUESTER, "storage_write_new_word", len(questions) + 2)
        self.phase = Phase.SELECTION
        self._selection_end = self.block + self.config.selection_blocks

    def select_questions(self, agent: str, question_ids, deposit: int = 0) -> None:
        self._require_phase(Phase.SELECTION)
        if agent in self.selected:
            raise ValueError(f"agent {agent!r} already registered")
        if agent == self.REQUESTER or agent == self.CHAIN:
            raise ValueError(f"{agent!r} is a reserved party name")
        ids = tuple(question_ids)
        if not ids or len(set(ids)) != len(ids):
            raise ValueError("question selection must be nonempty and unique")
        for q in ids:
            if q not in self.questions:
                raise UnknownQuestion(f"question {q!r} was never posted")
        if deposit < self.config.min_agent_deposit:
            raise InsufficientDeposit(
                f"{self.config.mechanism.value} rounds require at least "
                f"{self.config.min_agent_deposit} units, got {deposit}"
            )
        self._record("select", agent, {"questions": list(ids), "deposit": deposit})
        # canonical posted order makes batch slicing independent of input order
        order = {q: i for i, q in enumerate(self.questions)}
        self.selected[agent] = tuple(sorted(ids, key=order.__getitem__))
        self.agent_deposits[agent] = deposit
        self.gas.charge("selection", agent, "tx_base")
        self.gas.charge("selection", agent, "storage_write_new_word", 1 + ceil(len(ids) / 16))

    def agent_batches(self, agent: str) -> list[tuple[str, ...]]:
        """The agent's selected questions sliced into commitment batches."""
        if agent not in self.selected:
            raise UnregisteredAgent(f"agent {agent!r} never selected questions")
        sel = self.selected[agent]
        bs = self.config.batch_size
        return [sel[i:i + bs] for i in range(0, len(sel), bs)]

    # -- commit / reveal --------------------------------------------------------

    def submit_commitment(self, agent: str, batch: int, commitment_: cmt.Commitment) -> None:
        self._require_phase(Phase.COMMIT)
        batches = self.agent_batches(agent)
        if not 0 <= batch < len(batches):
            raise ValueError(f"agent {agent!r} has {len(batches)} batches, got index {batch}")
        if (agent, batch) in self.commitments:
            raise DuplicateCommitment(f"batch {batch} of agent {agent!r} already committed")
        self._record("commit", agent, {"batch": batch, "commitment": commitment_.hex()})
        self.commitments[(agent, batch)] = CommitRecord(agent, batch, commitment_, self.block)
        self.gas.charge("commit", agent, "tx_base")
        self.gas.charge("commit", agent, "storage_write_new_word", 1)
        if all(
            (a, b) in self.commitments
            for a in self.selected
            for b in range(len(self.agent_batches(a)))
        ):
            self._enter_reveal()

    def reveal(self, agent: str, batch: int, message: int, key_value: int) -> bool:
        """Open a commitment.  Returns True iff the reveal was accepted.

        A failed verification discards the answers without raising: the
        contract cannot tell tampering from honest corruption, and other
        agents' reveals must proceed either way.
        """
        self._require_phase(Phase.REVEAL)
        if agent not in self.selected:
            raise UnregisteredAgent(f"agent {agent!r} never selected questions")
        record = self.commitments.get((agent, batch))
        if record is None:
            raise NoCommitment(f"no commitment on record for {agent!r} batch {batch}")
        self._record("reveal", agent, {"batch": batch, "message": message, "key": key_value})
        self.gas.charge("reveal", agent, "tx_base")
        self.gas.charge("reveal", agent, "storage_read_word", 1)
        self.gas.charge("reveal", agent, "hash_base", 1)
        self.gas.charge("reveal", agent, "hash_per_word", 1)
        self.gas.charge("reveal", agent, "comparison_op", 1)
        if (agent, batch) in self.accepted:
            self.notes.append(f"duplicate reveal for {agent} batch {batch} discarded")
            return False
        order = self.agent_batches(agent)[batch]
        try:
            vector = cmt.decode(message, order)
            key = cmt.SecretKey(key_value)
        except (ValueError, cmt.TooManyAnswers):
            self.discarded.append((agent, batch, self.block))
            self.notes.append(f"malformed reveal for {agent} batch {batch} discarded")
            return False
        if not cmt.verify_reveal(record.commitment, vector, key):
            self.discarded.append((agent, batch, self.block))
            self.notes.append(f"reveal for {agent} batch {batch} failed verification")
            return False
        self.accepted[(agent, batch)] = (message, key_value)
        for q, bit in vector.answers().items():
            self.revealed_cells[(agent, q)] = bit
        self.gas.charge("reveal", agent, "storage_write_new_word", 1)
        return True

    def reveal_vector(self, agent: str, batch: int, vector: cmt.PackedAnswerVector, key: cmt.SecretKey) -> bool:
        """Convenience wrapper over `reveal` for already-packed answers."""
        return self.reveal(agent, batch, vector.message(), key.value)

    # -- settlement ---------------------------------------------------------------

    def _reveal_complete(self) -> bool:
        resolved = set(self.accepted) | {(a, b) for a, b, _ in self.discarded}
        return all(key in resolved for key in self.commitments)

    def revealed_matrix(self) -> AnswerMatrix:
        """Registered agents x posted questions holding every accepted answer."""
        return AnswerMatrix(tuple(self.selected), self.questions, dict(self.revealed_cells))

    def settle(self) -> SettlementReport:
        self._require_phase(Phase.REVEAL)
        if self.block < self._reveal_end and not self._reveal_complete():
            raise WrongPhase(
                f"reveal window open until block {self._reveal_end} "
                f"and reveals are still outstanding at block {self.block}"
            )
        matrix = self.revealed_matrix()
        if matrix.total_answers > 0:
            computer = compute_rewards if self.config.optimized else rewards_naive
            report = computer(matrix, self.config.mechanism, self.config.alpha, self.config.peer_mode)
            rewards = report.per_agent_reward
        else:
            report = None
            rewards = {a: Fraction(0) for a in self.selected}

        self._record("settle", self.REQUESTER, {})
        self.gas.charge("settle", self.REQUESTER, "tx_base")
        if matrix.total_answers > 0:
            charge_settlement_compute(
                self.gas, matrix, self.config.mechanism, self.config.peer_mode,
                self.config.optimized,
            )

        scale = self.config.scale
        positive_total = sum((r for r in rewards.values() if r > 0), Fraction(0))
        payments: dict[str, int] = {}
        penalties: dict[str, int] = {}
        for agent in self.selected:
            r = rewards[agent]
            if r > 0 and positive_total > 0:
                payments[agent] = int(Fraction(self.budget) * r / positive_total)
            else:
                payments[agent] = 0
            if r < 0:
                raw = int(-r * scale)
                deposit = self.agent_deposits[agent]
                penalties[agent] = min(deposit, raw)
                if raw > deposit:
                    self.notes.append(str(DepositExhausted(agent, raw - deposit)))
            else:
                penalties[agent] = 0

        # gas reimbursement from the requester's deposit, registration order
        agent_gas = self.gas.per_agent
        revealed_agents = {a for (a, _b) in self.accepted}
        reimbursements: dict[str, int] = {}
        remaining = self.requester_deposit
        for agent in self.selected:
            if agent in revealed_agents and remaining > 0:
                reimb = min(agent_gas.get(agent, 0), remaining)
                reimbursements[agent] = reimb
                remaining -= reimb
            else:
                reimbursements[agent] = 0

        self.gas.charge("settle", self.REQUESTER, "storage_write_update_word", len(self.selected) + 1)

        transfers: dict[str, int] = {}
        rows = []
        for agent in self.selected:
            pay = payments[agent]
            pen = penalties[agent]
            reimb = reimbursements[agent]
            transfers[agent] = pay - pen + reimb
            rows.append(SettlementRow(
                agent=agent,
                mechanism_reward=rewards[agent],
                payment_units=pay,
                deposit_returned=self.agent_deposits[agent] - pen,
                gas_reimbursed=reimb,
            ))
        transfers[self.REQUESTER] = (
            sum(penalties.values()) - sum(payments.values()) - sum(reimbursements.values())
        )
        assert sum(transfers.values()) == 0, "settlement must be zero-sum"

        self.transfers = transfers
        self.phase = Phase.SETTLED
        self.settlement = SettlementReport(
            rows=rows,
            reward_report=report,
            transfers=transfers,
            budget_paid=sum(payments.values()),
            penalties_collected=sum(penalties.values()),
        )
        return self.settlement

    # -- log replay -----------------------------------------------------------------

    def dump(self) -> str:
        return "\n".join(self.events) + "\n"

    @classmethod
    def load(cls, text: str) -> "Ledger":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty event log")
        block, event_type, party, payload_hex = lines[0].split(",", 3)
        if event_type != "genesis":
            raise ValueError("event log must start with a genesis event")
        config = LedgerConfig.from_payload(json.loads(bytes.fromhex(payload_hex)))
        ledger = cls(config, _replay=True)
        ledger._record("genesis", cls.CHAIN, config.to_payload())
        for line in lines[1:]:
            _block, event_type, party, payload_hex = line.split(",", 3)
            payload = json.loads(bytes.fromhex(payload_hex))
            if event_type == "tick":
                ledger.tick(payload["blocks"])
            elif event_type == "post":
                ledger.post_questions(payload["questions"], payload["budget"], payload["deposit"])
            elif event_type == "select":
                ledger.select_questions(party, payload["questions"], payload["deposit"])
            elif event_type == "commit":
                ledger.submit_commitment(party, payload["batch"], cmt.Commitment.from_hex(payload["commitment"]))
            elif event_type == "reveal":
                ledger.reveal(party, payload["batch"], payload["message"], payload["key"])
            elif event_type == "settle":
                ledger.settle()
            else:
                raise ValueError(f"unknown event type {event_type!r}")
        return ledger

    # -- audit -------------------------------------------------------------------------

    def audit(self) -> list[str]:
        """Hard-invariant findings; an empty list means the round is clean."""
        findings = []
        last_block = 0
        for line in self.events:
            b = int(line.split(",", 1)[0])
            if b < last_block:
                findings.append(f"event log block numbers regress at block {b}")
            last_block = b
        for (agent, batch), (message, key_value) in self.accepted.items():
            record = self.commitments.get((agent, batch))
            if record is None:
                findings.append(f"accepted reveal without commitment: {agent} batch {batch}")
                continue
            order = self.agent_batches(agent)[batch]
            vector = cmt.decode(message, order)
            if not cmt.verify_reveal(record.commitment, vector, cmt.SecretKey(key_value)):
                findings.append(f"stored reveal fails verification: {agent} batch {batch}")
        accepted_cells = set()
        for (agent, batch), (message, _key) in self.accepted.items():
            order = self.agent_batches(agent)[batch]
            for q in cmt.decode(message, order).answers():
                accepted_cells.add((agent, q))
        for cell in self.revealed_cells:
            if cell not in accepted_cells:
                findings.append(f"revealed cell {cell} lacks an accepted batch")
        if self.phase is Phase.SETTLED:
            if sum(self.transfers.values()) != 0:
                findings.append("settlement transfers do not sum to zero")
            for row in self.settlement.rows:
                dep = self.agent_deposits[row.agent]
                if not 0 <= row.deposit_returned <= dep:
                    findings.append(f"deposit accounting broken for {row.agent}")
        return findings
