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
  off-ledger, so no hash gas here.  Packing shows as fewer commitments,
  one per batch of up to 42 answers.
* reveal: tx_base; one storage read (the digest), one hash of the 22-byte
  layout, one comparison; accepted reveals add one new storage word.  A
  message with any bit beyond its batch's slots is malformed and
  discarded, so an accepted message is exactly the one that was hashed.
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
    DuplicateCommitment,
    InsufficientDeposit,
    NoCommitment,
    ReplayDivergence,
    UnknownQuestion,
    UnregisteredAgent,
    WrongPhase,
    ZeroBudget,
    require_ints,
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
    require_scoring,
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
    optimized: bool = True  # the settlement gas pattern; rewards do not depend on it

    def __post_init__(self):
        require_ints(
            batch_size=self.batch_size, scale=self.scale, selection_blocks=self.selection_blocks,
            commit_blocks=self.commit_blocks, reveal_blocks=self.reveal_blocks,
        )
        require_scoring(self.mechanism, self.peer_mode)
        if not isinstance(self.gas_table, GasTable):
            raise ValueError(f"gas_table must be a GasTable, got {self.gas_table!r}")
        if not isinstance(self.optimized, bool):
            raise ValueError(f"optimized must be a bool, got {self.optimized!r}")
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
        alpha = payload["alpha"]
        if not isinstance(alpha, list) or len(alpha) != 2 or alpha[1] == 0:
            raise ValueError(f"alpha must be [numerator, nonzero denominator], got {alpha!r}")
        require_ints(alpha_numerator=alpha[0], alpha_denominator=alpha[1])
        return cls(
            mechanism=Mechanism(payload["mechanism"]),
            alpha=Fraction(*alpha),
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
class LedgerNote:
    """A non-fatal outcome the round records for audit.

    kind is "malformed" or "failed-verification" (a reveal that discarded
    its batch), "duplicate" (a reveal of an already decided batch) or
    "deposit-shortfall" (a penalty clamped at the deposit; batch is None
    and shortfall holds the units the deposit could not cover).
    """

    kind: str
    agent: str
    batch: int | None
    block: int
    shortfall: int = 0


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

    def __init__(self, config: LedgerConfig):
        self.config = config
        self.block = 0
        self.phase = Phase.POSTING
        self.questions: tuple[str, ...] = ()
        self.budget = 0
        self.requester_deposit = 0
        # registration order; each agent's selection in posted order, sliced into batches
        self.batches: dict[str, tuple[tuple[str, ...], ...]] = {}
        self.agent_deposits: dict[str, int] = {}
        self.commitments: dict[tuple[str, int], cmt.Commitment] = {}
        self._uncommitted = 0  # registered batches without a commitment
        # a committed batch's first reveal puts it in exactly one of these two
        self.accepted: dict[tuple[str, int], tuple[int, int]] = {}  # (message, key value)
        self.discarded: dict[tuple[str, int], LedgerNote] = {}
        self.revealed_cells: dict[tuple[str, str], int] = {}
        self.gas = GasLedger(config.gas_table)
        self.transfers: dict[str, int] = {}
        self.notes: list[LedgerNote] = []
        self.events: list[str] = []
        self.settlement: SettlementReport | None = None
        self._selection_end = self._commit_end = self._reveal_end = None
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
        """Advance the logical block counter, crossing phase deadlines.

        Each deadline crossed is entered at its own block, so the next
        window is measured from there, as if the blocks came one by one.
        """
        require_ints(blocks=blocks)
        if blocks < 1:
            raise ValueError("tick must advance a positive integer number of blocks")
        self._record("tick", self.CHAIN, {"blocks": blocks})
        target = self.block + blocks
        if self.phase is Phase.SELECTION and target >= self._selection_end:
            self.block = self._selection_end
            self._enter_commit()
        if self.phase is Phase.COMMIT and target >= self._commit_end:
            self.block = self._commit_end
            self._enter_reveal()
        self.block = target

    def _enter_commit(self) -> None:
        self.phase = Phase.COMMIT
        self._commit_end = self.block + self.config.commit_blocks

    def _enter_reveal(self) -> None:
        self.phase = Phase.REVEAL
        self._reveal_end = self.block + self.config.reveal_blocks

    # -- posting / selection --------------------------------------------------

    def post_questions(self, questions, budget: int, requester_deposit: int = 0) -> None:
        self._require_phase(Phase.POSTING)
        require_ints(budget=budget, requester_deposit=requester_deposit)
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
        require_ints(deposit=deposit)
        if agent in self.batches:
            raise ValueError(f"agent {agent!r} already registered")
        if agent == self.REQUESTER or agent == self.CHAIN:
            raise ValueError(f"{agent!r} is a reserved party name")
        ids = tuple(question_ids)
        if not ids or len(set(ids)) != len(ids):
            raise ValueError("question selection must be nonempty and unique")
        order = {q: i for i, q in enumerate(self.questions)}
        for q in ids:
            if q not in order:
                raise UnknownQuestion(f"question {q!r} was never posted")
        if deposit < self.config.min_agent_deposit:
            raise InsufficientDeposit(
                f"{self.config.mechanism.value} rounds require at least "
                f"{self.config.min_agent_deposit} units, got {deposit}"
            )
        self._record("select", agent, {"questions": list(ids), "deposit": deposit})
        # canonical posted order makes batch slicing independent of input order
        sel = tuple(sorted(ids, key=order.__getitem__))
        bs = self.config.batch_size
        self.batches[agent] = tuple(sel[i:i + bs] for i in range(0, len(sel), bs))
        self._uncommitted += len(self.batches[agent])
        self.agent_deposits[agent] = deposit
        self.gas.charge("selection", agent, "tx_base")
        self.gas.charge("selection", agent, "storage_write_new_word", 1 + ceil(len(ids) / 16))

    def agent_batches(self, agent: str) -> tuple[tuple[str, ...], ...]:
        """The agent's selected questions sliced into commitment batches."""
        try:
            return self.batches[agent]
        except KeyError:
            raise UnregisteredAgent(f"agent {agent!r} never selected questions") from None

    # -- commit / reveal --------------------------------------------------------

    def submit_commitment(self, agent: str, batch: int, commitment_: cmt.Commitment) -> None:
        self._require_phase(Phase.COMMIT)
        require_ints(batch=batch)
        batches = self.agent_batches(agent)
        if not 0 <= batch < len(batches):
            raise ValueError(f"agent {agent!r} has {len(batches)} batches, got index {batch}")
        if (agent, batch) in self.commitments:
            raise DuplicateCommitment(f"batch {batch} of agent {agent!r} already committed")
        self._record("commit", agent, {"batch": batch, "commitment": commitment_.hex()})
        self.commitments[(agent, batch)] = commitment_
        self.gas.charge("commit", agent, "tx_base")
        self.gas.charge("commit", agent, "storage_write_new_word", 1)
        self._uncommitted -= 1
        if not self._uncommitted:
            self._enter_reveal()

    def reveal(self, agent: str, batch: int, message: int, key_value: int) -> bool:
        """Open a commitment.  Returns True iff the reveal was accepted.

        A batch's first reveal decides it.  A failed verification discards
        the answers without raising: the contract cannot tell tampering
        from honest corruption, and other agents' reveals must proceed
        either way.  A later reveal of the batch is a duplicate: it pays
        its gas and changes nothing else.
        """
        self._require_phase(Phase.REVEAL)
        require_ints(batch=batch, message=message, key_value=key_value)
        batches = self.agent_batches(agent)
        commitment_ = self.commitments.get((agent, batch))
        if commitment_ is None:
            raise NoCommitment(f"no commitment on record for {agent!r} batch {batch}")
        self._record("reveal", agent, {"batch": batch, "message": message, "key": key_value})
        self.gas.charge("reveal", agent, "tx_base")
        self.gas.charge("reveal", agent, "storage_read_word", 1)
        self.gas.charge("reveal", agent, "hash_base", 1)
        self.gas.charge("reveal", agent, "hash_per_word", 1)
        self.gas.charge("reveal", agent, "comparison_op", 1)
        if (agent, batch) in self.accepted or (agent, batch) in self.discarded:
            self.notes.append(LedgerNote("duplicate", agent, batch, self.block))
            return False
        try:
            vector = cmt.decode(message, batches[batch])
            key = cmt.SecretKey(key_value)
        except (ValueError, cmt.TooManyAnswers):
            return self._discard("malformed", agent, batch)
        if not cmt.verify_reveal(commitment_, vector, key):
            return self._discard("failed-verification", agent, batch)
        self.accepted[(agent, batch)] = (message, key_value)
        for q, bit in vector.answers().items():
            self.revealed_cells[(agent, q)] = bit
        self.gas.charge("reveal", agent, "storage_write_new_word", 1)
        return True

    def _discard(self, kind: str, agent: str, batch: int) -> bool:
        note = LedgerNote(kind, agent, batch, self.block)
        self.notes.append(note)
        self.discarded[(agent, batch)] = note
        return False

    def reveal_vector(self, agent: str, batch: int, vector: cmt.PackedAnswerVector, key: cmt.SecretKey) -> bool:
        """Convenience wrapper over `reveal` for already-packed answers."""
        return self.reveal(agent, batch, vector.message(), key.value)

    # -- settlement ---------------------------------------------------------------

    def revealed_matrix(self) -> AnswerMatrix:
        """Registered agents x posted questions holding every accepted answer."""
        return AnswerMatrix(tuple(self.batches), self.questions, dict(self.revealed_cells))

    def settle(self) -> SettlementReport:
        self._require_phase(Phase.REVEAL)
        outstanding = len(self.commitments) - len(self.accepted) - len(self.discarded)
        if self.block < self._reveal_end and outstanding:
            raise WrongPhase(
                f"reveal window open until block {self._reveal_end} "
                f"and reveals are still outstanding at block {self.block}"
            )
        matrix = self.revealed_matrix()
        if matrix.total_answers > 0:
            report = compute_rewards(matrix, self.config.mechanism, self.config.alpha, self.config.peer_mode)
            rewards = report.per_agent_reward
        else:
            report = None
            rewards = {a: Fraction(0) for a in self.batches}

        self._record("settle", self.REQUESTER, {})
        self.gas.charge("settle", self.REQUESTER, "tx_base")
        if report is not None:
            charge_settlement_compute(
                self.gas, matrix, self.config.mechanism, self.config.peer_mode,
                self.config.optimized,
            )
        self.gas.charge("settle", self.REQUESTER, "storage_write_update_word", len(self.batches) + 1)
        agent_gas = self.gas.per_agent

        positive_total = sum((r for r in rewards.values() if r > 0), Fraction(0))
        revealed_agents = {a for (a, _b) in self.accepted}
        remaining = self.requester_deposit  # gas reimbursements, registration order
        budget_paid = penalties = 0
        transfers: dict[str, int] = {}
        rows = []
        for agent, deposit in self.agent_deposits.items():
            r = rewards[agent]
            pay = int(self.budget * r / positive_total) if r > 0 else 0
            penalty = 0
            if r < 0:
                raw = int(-r * self.config.scale)
                penalty = min(deposit, raw)
                if raw > deposit:
                    self.notes.append(LedgerNote("deposit-shortfall", agent, None, self.block, raw - deposit))
            reimb = min(agent_gas[agent], remaining) if agent in revealed_agents else 0
            remaining -= reimb
            budget_paid += pay
            penalties += penalty
            transfers[agent] = pay - penalty + reimb
            rows.append(SettlementRow(agent, r, pay, deposit - penalty, reimb))
        transfers[self.REQUESTER] = penalties - budget_paid - (self.requester_deposit - remaining)
        assert sum(transfers.values()) == 0, "settlement must be zero-sum"

        self.transfers = transfers
        self.phase = Phase.SETTLED
        self.settlement = SettlementReport(rows, report, transfers, budget_paid, penalties)
        return self.settlement

    # -- log replay -----------------------------------------------------------------

    def dump(self) -> str:
        return "\n".join(self.events) + "\n"

    @classmethod
    def load(cls, text: str) -> "Ledger":
        """Rebuild a ledger by re-running its log.

        Every regenerated line must equal the line it came from; the first
        that does not raises `ReplayDivergence`, so a replay either
        reproduces the log byte for byte or fails.  A `ValueError` raised
        for a line names it: a line without four comma-separated fields, a
        payload that is not hex-encoded UTF-8 JSON or not an object, and a
        field that is missing or that the entry point it feeds rejects.  A
        `PeerchainError` from a replayed entry point passes unchanged.
        """
        ledger = None
        for number, line in enumerate(text.splitlines(), 1):
            fields = line.split(",", 3)
            event_type = fields[1] if len(fields) > 1 else "?"
            try:
                if len(fields) != 4:
                    raise ValueError(f"want 4 comma-separated fields, got {len(fields)}")
                party, payload = fields[2], json.loads(bytes.fromhex(fields[3]))
                if not isinstance(payload, dict):
                    raise ValueError("payload is not an object")
                if ledger is None:
                    if event_type != "genesis":
                        raise ValueError("event log must start with a genesis event")
                    ledger = cls(LedgerConfig.from_payload(payload))
                elif event_type == "tick":
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
            except (KeyError, TypeError) as e:
                raise ValueError(
                    f"event log line {number} ({event_type}): malformed payload ({type(e).__name__}: {e})"
                ) from None
            except ValueError as e:
                raise ValueError(f"event log line {number} ({event_type}): {e}") from None
            if ledger.events[-1] != line:
                raise ReplayDivergence(f"event log line {number} ({event_type}) does not replay byte for byte")
        if ledger is None:
            raise ValueError("empty event log")
        return ledger

    # -- audit -------------------------------------------------------------------------

    def audit(self) -> list[str]:
        """Hard-invariant findings; an empty list means the round is clean."""
        findings = []
        accepted_cells = set()
        for (agent, batch), (message, key_value) in self.accepted.items():
            vector = cmt.decode(message, self.batches[agent][batch])
            accepted_cells.update((agent, q) for q in vector.answers())
            commitment_ = self.commitments.get((agent, batch))
            if commitment_ is None:
                findings.append(f"accepted reveal without commitment: {agent} batch {batch}")
            elif not cmt.verify_reveal(commitment_, vector, cmt.SecretKey(key_value)):
                findings.append(f"stored reveal fails verification: {agent} batch {batch}")
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
