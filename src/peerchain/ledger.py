"""Deterministic protocol state machine simulating the on-chain contract.

A round moves through Posting -> Selection -> Commit -> Reveal -> Settled.
Time is a logical block counter; phase deadlines are block counts from the
config.  Every mutation is an event appended to a replayable log, one line
per event: ``block_number,event_type,party,payload_hex`` with the payload
hex-encoding canonical JSON (sorted keys, no spaces, ASCII, so UTF-8),
which `Ledger.load` reads as UTF-8 text only.  Replaying a dumped log
rebuilds the ledger bit for bit, gas totals included.

The first line, genesis, holds the `LedgerConfig`: one key per field, the
mechanism, alpha, peer mode and gas table encoded.  A payload whose keys
are not the fields is refused; the gas table is read by `GasTable.from_dict`
(an unknown entry is `UnknownOpKind`, as from `--gas-table`).

Money is integer units throughout.  Mechanism rewards stay exact rationals
until settlement, where the fixed-point scale (10^9 units per mechanism
unit) converts penalties and the requester's budget is divided
proportionally over the clamped nonnegative rewards.  The split is done in
integers over one common denominator: with L the lcm of the rewards'
denominators and r = v / L, an agent with v > 0 is paid
budget * v // (sum of the positive v), and one with v < 0 owes the raw
penalty (-v * scale) // L, the floors of budget * r / (sum of the positive
r) and -r * scale.  Settlement is zero-sum: the net transfers of all
parties add up to exactly zero.

Gas charges per event (words per the configured table).  Each event
makes one `GasLedger.charge` of one `gas_model.GasBundle`, after its
outcome is known; commit and reveal charge bundles built once, at import,
and post, select and settle build theirs per call:

* post: tx_base; new storage words for each question plus budget and
  deposit escrow.
* select: tx_base; one deposit word plus one word per 16 chosen question
  indices.
* commit (`_COMMIT_GAS`): tx_base; one new storage word (the digest).
  Hashing happened off-ledger, so no hash gas here.  Packing shows as
  fewer commitments, one per batch of up to 42 answers.
* reveal (`_REVEAL_GAS`): tx_base; one storage read (the digest), one hash
  of the 22-byte layout, one comparison.  An accepted reveal charges
  `_ACCEPTED_REVEAL_GAS` instead: the same words plus one new storage word.
  `reveal` is the one way to open a commitment, from the (message, key)
  integers, which `commitment.verify_reveal` checks: a message the slot
  rule refuses or a key beyond 85 bits is malformed and discarded, so an
  accepted message is exactly the one that was hashed.  `audit` re-checks
  each accepted pair the same way; for an accepted batch without a
  commitment it checks only the message, by `commitment.require_message`,
  and reads no key.  Accepted (message, key) pairs hold the answers;
  ``revealed_matrix`` decodes them all in one `commitment.decode_slots`
  call.
* settle: three charges, tx_base; the mechanism's compute pattern via
  `gas_model.charge_settlement_compute`; one update word per party paid.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, fields
from decimal import Decimal, localcontext
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import ceil, lcm

import numpy as np

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
from .gas_model import DEFAULT_GAS_TABLE, GasBundle, GasLedger, GasTable, charge_settlement_compute
from .mechanisms import (
    ALL_PEERS,
    AllPeers,
    AnswerMatrix,
    Mechanism,
    PeerMode,
    RewardReport,
    SampledPeers,
    compute_rewards,
    require_alpha,
    require_scoring,
)
from .peer_selection import SelectionSeed

DEFAULT_SCALE = 10**9
# what json.dumps(payload, sort_keys=True, separators=(",", ":")) builds anew on each call
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
# the words each commit and reveal charges, in charge order: see the module docstring
_COMMIT_GAS = GasBundle([("tx_base", 1), ("storage_write_new_word", 1)])
_REVEAL_GAS = GasBundle([("tx_base", 1), ("storage_read_word", 1), ("hash_base", 1), ("hash_per_word", 1),
                         ("comparison_op", 1)])
_ACCEPTED_REVEAL_GAS = GasBundle([*_REVEAL_GAS, ("storage_write_new_word", 1)])


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
        seed = {"timestamp": seed.block_timestamp, "difficulty": seed.difficulty}
    return {"kind": "sampled", "k": mode.k, "seed": seed}


def _peer_mode_from_payload(payload: dict) -> PeerMode:
    if payload["kind"] == "all":
        return ALL_PEERS
    seed = payload["seed"]
    if isinstance(seed, dict):
        seed = SelectionSeed(seed["timestamp"], seed["difficulty"])
    return SampledPeers(payload["k"], seed)


def _alpha_from_payload(alpha: object) -> Fraction:
    if not isinstance(alpha, list) or len(alpha) != 2 or alpha[1] == 0:
        raise ValueError(f"alpha must be [numerator, nonzero denominator], got {alpha!r}")
    require_ints(alpha_numerator=alpha[0], alpha_denominator=alpha[1])
    return Fraction(*alpha)


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
        object.__setattr__(self, "alpha", require_alpha(self.alpha))

    @cached_property
    def min_agent_deposit(self) -> int:
        """Deposit floor sized to the worst-case negative reward, computed on
        first read and kept (not a field, so not in the genesis payload).

        PTSC rewards are bounded below by -alpha and DG by -1 per round;
        OA is never negative, so no deposit is demanded.
        """
        if self.mechanism is Mechanism.PTSC:
            return ceil(self.alpha * self.scale)
        if self.mechanism is Mechanism.DG:
            return self.scale
        return 0

    def to_payload(self) -> dict:
        """The genesis payload: each field under its name, four of them encoded."""
        return {**{f.name: getattr(self, f.name) for f in fields(self)},
                "mechanism": self.mechanism.value, "alpha": [self.alpha.numerator, self.alpha.denominator],
                "peer_mode": _peer_mode_payload(self.peer_mode), "gas_table": asdict(self.gas_table)}

    @classmethod
    def from_payload(cls, payload: dict) -> "LedgerConfig":
        """The config a genesis payload holds.  Its keys must be the fields;
        past the form of the encoded four, every check is the constructor's."""
        names = [f.name for f in fields(cls)]
        faults = [f"missing key {name!r}" for name in names if name not in payload]
        faults += [f"unknown key {key!r}" for key in sorted(payload.keys() - set(names))]
        if faults:
            raise ValueError(f"genesis payload: {', '.join(faults)}")
        return cls(**{**payload, "mechanism": Mechanism(payload["mechanism"]),
                      "alpha": _alpha_from_payload(payload["alpha"]),
                      "peer_mode": _peer_mode_from_payload(payload["peer_mode"]),
                      "gas_table": GasTable.from_dict(payload["gas_table"])})


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


def _require_question_ids(ids: tuple) -> None:
    for q in ids:
        if not isinstance(q, str):
            raise ValueError(f"question ids must be str, got {q!r}")


class Ledger:
    """Single-writer round state machine; see the module docstring."""

    REQUESTER = GasLedger.REQUESTER
    CHAIN = "chain"

    def __init__(self, config: LedgerConfig):
        self.config = config
        self.block = 0
        self.phase = Phase.POSTING
        self.questions: tuple[str, ...] = ()
        self._posted_order: dict[str, int] = {}  # question -> its index in self.questions
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
        self.gas = GasLedger(config.gas_table)
        self.notes: list[LedgerNote] = []
        self.events: list[str] = []
        self.settlement: SettlementReport | None = None
        self._selection_end = self._commit_end = self._reveal_end = None
        self._record("genesis", self.CHAIN, config.to_payload())

    # -- event plumbing -----------------------------------------------------

    def _record(self, event_type: str, party: str, payload: dict) -> None:
        """Append one event line; every caller records before it changes any
        state, so a payload the log cannot write leaves the ledger as it was."""
        try:
            blob = _ENCODER.encode(payload).encode()
        except ValueError:  # a payload holds only ints, strs and lists: an int too long to write
            raise ValueError(f"{event_type} event: an int has more than {sys.get_int_max_str_digits()} digits, "
                             "which the event log cannot write") from None
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
        _require_question_ids(questions)
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
        self._posted_order = {q: i for i, q in enumerate(questions)}
        self.budget = budget
        self.requester_deposit = requester_deposit
        self.gas.charge("posting", self.REQUESTER,
                        GasBundle([("tx_base", 1), ("storage_write_new_word", len(questions) + 2)]))
        self.phase = Phase.SELECTION
        self._selection_end = self.block + self.config.selection_blocks

    def select_questions(self, agent: str, question_ids, deposit: int = 0) -> None:
        self._require_phase(Phase.SELECTION)
        require_ints(deposit=deposit)
        # the party is a comma-separated field of one log line
        if not isinstance(agent, str) or "," in agent or "".join(agent.splitlines()) != agent:
            raise ValueError(f"agent id must be a str without a comma or a line break, got {agent!r}")
        if agent in self.batches:
            raise ValueError(f"agent {agent!r} already registered")
        if agent == self.REQUESTER or agent == self.CHAIN:
            raise ValueError(f"{agent!r} is a reserved party name")
        ids = tuple(question_ids)
        if set(map(type, ids)) != {str}:
            _require_question_ids(ids)
        if not ids or len(set(ids)) != len(ids):
            raise ValueError("question selection must be nonempty and unique")
        # canonical posted order makes batch slicing independent of input order;
        # sorted computes keys in input order, so the first unposted id is named
        try:
            sel = tuple(sorted(ids, key=self._posted_order.__getitem__))
        except KeyError as e:
            raise UnknownQuestion(f"question {e.args[0]!r} was never posted") from None
        if deposit < self.config.min_agent_deposit:
            raise InsufficientDeposit(
                f"{self.config.mechanism.value} rounds require at least "
                f"{self.config.min_agent_deposit} units, got {deposit}"
            )
        self._record("select", agent, {"questions": list(ids), "deposit": deposit})
        bs = self.config.batch_size
        self.batches[agent] = tuple(sel[i:i + bs] for i in range(0, len(sel), bs))
        self._uncommitted += len(self.batches[agent])
        self.agent_deposits[agent] = deposit
        self.gas.charge("selection", agent,
                        GasBundle([("tx_base", 1), ("storage_write_new_word", 1 + ceil(len(ids) / 16))]))

    def agent_batches(self, agent: str) -> tuple[tuple[str, ...], ...]:
        """The agent's selected questions sliced into commitment batches."""
        try:
            return self.batches[agent]
        except KeyError:
            raise UnregisteredAgent(f"agent {agent!r} never selected questions") from None

    # -- commit / reveal --------------------------------------------------------

    def submit_commitment(self, agent: str, batch: int, commitment_: cmt.Commitment) -> None:
        self._require_phase(Phase.COMMIT)
        if type(batch) is not int:
            require_ints(batch=batch)  # raises its error for a non-int
        if not isinstance(commitment_, cmt.Commitment):
            raise ValueError(f"commitment must be a Commitment, got {type(commitment_).__name__}")
        batches = self.agent_batches(agent)
        if not 0 <= batch < len(batches):
            raise ValueError(f"agent {agent!r} has {len(batches)} batches, got index {batch}")
        if (agent, batch) in self.commitments:
            raise DuplicateCommitment(f"batch {batch} of agent {agent!r} already committed")
        self._record("commit", agent, {"batch": batch, "commitment": commitment_.hex()})
        self.commitments[(agent, batch)] = commitment_
        self.gas.charge("commit", agent, _COMMIT_GAS)
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
        if type(batch) is not int or type(message) is not int or type(key_value) is not int:
            require_ints(batch=batch, message=message, key_value=key_value)  # raises its error for a non-int
        batches = self.agent_batches(agent)
        commitment_ = self.commitments.get((agent, batch))
        if commitment_ is None:
            raise NoCommitment(f"no commitment on record for {agent!r} batch {batch}")
        self._record("reveal", agent, {"batch": batch, "message": message, "key": key_value})
        opened = False
        if (agent, batch) in self.accepted or (agent, batch) in self.discarded:
            self.notes.append(LedgerNote("duplicate", agent, batch, self.block))
        else:
            try:
                opened = cmt.verify_reveal(commitment_, message, key_value, len(batches[batch]))
            except (ValueError, cmt.TooManyAnswers):
                self._discard("malformed", agent, batch)
            else:
                if opened:
                    self.accepted[(agent, batch)] = (message, key_value)
                else:
                    self._discard("failed-verification", agent, batch)
        self.gas.charge("reveal", agent, _ACCEPTED_REVEAL_GAS if opened else _REVEAL_GAS)
        return opened

    def _discard(self, kind: str, agent: str, batch: int) -> None:
        note = LedgerNote(kind, agent, batch, self.block)
        self.notes.append(note)
        self.discarded[(agent, batch)] = note

    # -- settlement ---------------------------------------------------------------

    @property
    def revealed_cells(self) -> dict[tuple[str, str], int]:
        """(agent, question) -> bit of every accepted answer, in acceptance order."""
        return self.revealed_matrix().cells

    def revealed_matrix(self) -> AnswerMatrix:
        """Registered agents x posted questions holding every accepted answer, in acceptance order."""
        row = {agent: i for i, agent in enumerate(self.batches)}
        orders = [self.batches[agent][batch] for agent, batch in self.accepted]
        sizes = list(map(len, orders))
        batch, slot, bits = cmt.decode_slots([message for message, _key in self.accepted.values()], sizes)
        # slot j of accepted batch t is entry starts[t] + j of every batch order, concatenated
        posted = np.fromiter(map(self._posted_order.__getitem__, chain.from_iterable(orders)), np.int64, sum(sizes))
        starts = np.cumsum([0, *sizes[:-1]], dtype=np.int64)
        agents = np.array([row[agent] for agent, _ in self.accepted], np.int64)
        return AnswerMatrix(tuple(self.batches), self.questions, agents[batch], posted[starts[batch] + slot], bits)

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
        self.gas.charge("settle", self.REQUESTER, GasBundle([("tx_base", 1)]))
        if report is not None:
            charge_settlement_compute(
                self.gas, matrix, self.config.mechanism, self.config.peer_mode,
                self.config.optimized,
            )
        self.gas.charge("settle", self.REQUESTER, GasBundle([("storage_write_update_word", len(self.batches) + 1)]))
        agent_gas = self.gas.per_agent

        # every reward over one common denominator, r = v / common: see the module docstring
        common = lcm(*(r.denominator for r in rewards.values()))
        units = {agent: r.numerator * (common // r.denominator) for agent, r in rewards.items()}
        positive_total = sum(v for v in units.values() if v > 0)
        revealed_agents = {a for (a, _b) in self.accepted}
        remaining = self.requester_deposit  # gas reimbursements, registration order
        budget_paid = penalties = 0
        transfers: dict[str, int] = {}
        rows = []
        for agent, deposit in self.agent_deposits.items():
            v = units[agent]
            pay = self.budget * v // positive_total if v > 0 else 0
            penalty = 0
            if v < 0:
                raw = -v * self.config.scale // common
                penalty = min(deposit, raw)
                if raw > deposit:
                    self.notes.append(LedgerNote("deposit-shortfall", agent, None, self.block, raw - deposit))
            reimb = min(agent_gas[agent], remaining) if agent in revealed_agents else 0
            remaining -= reimb
            budget_paid += pay
            penalties += penalty
            transfers[agent] = pay - penalty + reimb
            rows.append(SettlementRow(agent, rewards[agent], pay, deposit - penalty, reimb))
        transfers[self.REQUESTER] = penalties - budget_paid - (self.requester_deposit - remaining)
        assert sum(transfers.values()) == 0, "settlement must be zero-sum"

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
                party, payload = fields[2], json.loads(bytes.fromhex(fields[3]).decode())
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
        """Hard-invariant findings, none for a clean round: each accepted batch has a commitment
        that its (message, key) reproduces; settled transfers sum to zero and return 0..deposit."""
        findings = []
        for (agent, batch), (message, key_value) in self.accepted.items():
            order = self.batches[agent][batch]
            commitment_ = self.commitments.get((agent, batch))
            if commitment_ is None:
                cmt.require_message(message, len(order))  # the stored message must still obey the slot rule
                findings.append(f"accepted reveal without commitment: {agent} batch {batch}")
            elif not cmt.verify_reveal(commitment_, message, key_value, len(order)):
                findings.append(f"stored reveal fails verification: {agent} batch {batch}")
        if self.phase is Phase.SETTLED:
            if sum(self.settlement.transfers.values()) != 0:
                findings.append("settlement transfers do not sum to zero")
            for row in self.settlement.rows:
                dep = self.agent_deposits[row.agent]
                if not 0 <= row.deposit_returned <= dep:
                    findings.append(f"deposit accounting broken for {row.agent}")
        return findings
