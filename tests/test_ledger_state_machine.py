"""Random sequences of ledger operations, valid and invalid, keep every invariant.

Each protocol operation runs in its own phase with arguments that are
often wrong (unknown agents or questions, missing batches, short deposits,
wrong keys, malformed or padded messages, repeated reveals, early
settlement); one more rule calls every operation the current phase
forbids.  A rejected call must raise a `PeerchainError` or a `ValueError`
and nothing else.  After every step the audit is clean, no batch has two
outcomes, every accepted (message, key) hashes to its commitment and the
event log replays to itself; after settlement the transfers are zero-sum
and no deposit is over- or under-returned.
"""

from fractions import Fraction as F

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

import peerchain.commitment as cmt
from peerchain.errors import PeerchainError, WrongPhase
from peerchain.keccak import keccak256
from peerchain.ledger import Ledger, LedgerConfig, Phase
from peerchain.mechanisms import ALL_PEERS, Mechanism, SampledPeers

from conftest import message_of

AGENTS = ("A", "B", "C", Ledger.REQUESTER)
QUESTIONS = ("q1", "q2", "q3")
AGENT = st.sampled_from(AGENTS)
ANSWER = st.sampled_from((1, 0, None))  # None leaves the question unanswered
BUDGET = st.sampled_from((1000, 1000, 7, 0))
REQUESTER_DEPOSIT = st.sampled_from((0, 10**6, -1))
VALID_SELECTION = st.lists(st.sampled_from(QUESTIONS), min_size=1, max_size=len(QUESTIONS), unique=True)
SELECTION = st.one_of(  # may be empty, repeat or name an unposted question
    VALID_SELECTION, st.lists(st.sampled_from(QUESTIONS + ("zz",)), max_size=4))
SHORTFALL = st.sampled_from((0, 0, 1))  # units below the deposit floor
ANSWERS = st.lists(ANSWER, min_size=len(QUESTIONS), max_size=len(QUESTIONS))
KEY = st.integers(0, (1 << cmt.KEY_BITS) - 1)

SETTINGS = settings(derandomize=True, database=None, max_examples=100,
                    stateful_step_count=20, deadline=None)


def in_phase(phase):
    return precondition(lambda self: self.ledger.phase is phase)


class LedgerMachine(RuleBasedStateMachine):
    mechanism = Mechanism.OA

    @initialize(batch_size=st.sampled_from((1, 2, cmt.MAX_ANSWERS)),
                peer_mode=st.sampled_from((ALL_PEERS, SampledPeers(1, 7))),
                budget=st.sampled_from((1000, 7, 0)), deposit=st.sampled_from((0, 10**6)),
                registrations=st.lists(st.tuples(st.sampled_from(AGENTS[:-1]), VALID_SELECTION),
                                       min_size=1, max_size=3, unique_by=lambda r: r[0]),
                head_start=st.sampled_from((3, 2, 1, 0)), answers=ANSWERS, key=KEY)
    def start(self, batch_size, peer_mode, budget, deposit, registrations, head_start, answers, key):
        """A ledger, usually posted with agents registered.  A head start then
        closes the selection window, commits every batch and reveals every
        batch honestly, stopping after 1, 2 or 3 of those steps, so that runs
        often begin in the commit or the reveal phase."""
        self.ledger = Ledger(LedgerConfig(
            mechanism=self.mechanism, alpha=F(1, 2), peer_mode=peer_mode,
            batch_size=batch_size, selection_blocks=3, commit_blocks=3, reveal_blocks=3,
        ))
        self.openings = {}  # (agent, batch) -> (message, key, slots) of its commitment
        self.post(budget, deposit)
        for agent, questions in registrations:
            self.select(agent, questions, 0)
        if head_start >= 1:
            self.tick(self.ledger.config.selection_blocks)
        if head_start >= 2:
            for i in range(sum(map(len, self.ledger.batches.values()))):
                self.commit(False, 0, None, 0, answers, key ^ i)
        if head_start >= 3:
            for agent, batch in self.openings:
                self.reveal(False, 0, agent, batch, "honest")

    def _call(self, fn, *args):
        """The call's result, or None when the ledger refused it."""
        try:
            return fn(*args)
        except (PeerchainError, ValueError):
            return None

    @in_phase(Phase.POSTING)
    @rule(budget=BUDGET, deposit=REQUESTER_DEPOSIT)
    def post(self, budget, deposit):
        self._call(self.ledger.post_questions, QUESTIONS, budget, deposit)

    @in_phase(Phase.SELECTION)
    @rule(agent=AGENT, questions=SELECTION, shortfall=SHORTFALL)
    def select(self, agent, questions, shortfall):
        deposit = self.ledger.config.min_agent_deposit - shortfall
        self._call(self.ledger.select_questions, agent, questions, deposit)

    @rule(blocks=st.sampled_from((1, 1, 2, 4, 0, -1)))
    def tick(self, blocks):
        self._call(self.ledger.tick, blocks)

    @in_phase(Phase.COMMIT)
    @rule(anywhere=st.booleans(), pick=st.integers(0, 63),
          agent=AGENT, batch=st.integers(-1, 3),
          answers=ANSWERS, key=KEY)
    def commit(self, anywhere, pick, agent, batch, answers, key):
        """Commit a registered batch that has no commitment yet, or anywhere: any (agent, batch)."""
        open_batches = [(a, b) for a, bs in self.ledger.batches.items() for b in range(len(bs))
                        if (a, b) not in self.ledger.commitments]
        if open_batches and not anywhere:
            agent, batch = open_batches[pick % len(open_batches)]
        batches = self.ledger.batches.get(agent, ())
        if 0 <= batch < len(batches):
            order = batches[batch]
            message = message_of([(q, a) for q, a in zip(order, answers) if a is not None], order)
        else:
            order, message = (), 0
        self._call(self.ledger.submit_commitment, agent, batch, cmt.commit(message, key, len(order)))
        if (agent, batch) in self.ledger.commitments:
            self.openings.setdefault((agent, batch), (message, key, len(order)))

    @in_phase(Phase.REVEAL)
    @rule(anywhere=st.booleans(), pick=st.integers(0, 63),
          agent=AGENT, batch=st.integers(-1, 3),
          how=st.sampled_from(("honest", "honest", "wrong-key", "malformed", "out-of-range", "padded")))
    def reveal(self, anywhere, pick, agent, batch, how):
        """Open a committed batch (perhaps again), or anywhere: any (agent, batch)."""
        if self.ledger.commitments and not anywhere:
            agent, batch = list(self.ledger.commitments)[pick % len(self.ledger.commitments)]
        message, key, slots = self.openings.get((agent, batch), (0, 0, 0))
        if how == "wrong-key":
            key ^= 1
        elif how == "malformed":
            message = 0b10  # an answer bit without its answered bit
        elif how == "out-of-range":
            message = 1 << cmt.MESSAGE_BITS
        elif how == "padded":  # the honest message plus one bit beyond its slots
            message |= 1 << 2 * slots
        decided = (agent, batch) in self.ledger.accepted or (agent, batch) in self.ledger.discarded
        accepted = self._call(self.ledger.reveal, agent, batch, message, key)
        if decided:
            assert accepted is False  # a batch's first reveal decides it
        elif how == "honest" and (agent, batch) in self.openings:
            assert accepted is True
        if how == "padded":
            assert accepted is not True

    @in_phase(Phase.REVEAL)
    @rule()
    def settle(self):
        self._call(self.ledger.settle)

    @rule()
    def out_of_phase(self):
        """Every operation the current phase forbids is refused and logs nothing."""
        led = self.ledger
        calls = {
            Phase.POSTING: lambda: led.post_questions(QUESTIONS, 10),
            Phase.SELECTION: lambda: led.select_questions("D", QUESTIONS),
            Phase.COMMIT: lambda: led.submit_commitment("A", 0, cmt.Commitment(bytes(32))),
            Phase.REVEAL: lambda: led.reveal("A", 0, 0, 0),
        }
        if led.phase is not Phase.REVEAL:
            calls[Phase.SETTLED] = led.settle
        events = list(led.events)
        for phase, call in calls.items():
            if phase is not led.phase:
                with pytest.raises(WrongPhase):
                    call()
        assert led.events == events

    @invariant()
    def every_batch_has_at_most_one_outcome(self):
        accepted, discarded = set(self.ledger.accepted), set(self.ledger.discarded)
        assert not accepted & discarded
        assert accepted | discarded <= set(self.ledger.commitments)

    @invariant()
    def every_accepted_reveal_hashes_to_its_commitment(self):
        for (agent, batch), (message, key) in self.ledger.accepted.items():
            layout = (key | message << cmt.KEY_BITS).to_bytes(cmt.LAYOUT_BYTES, "little")
            assert keccak256(layout) == self.ledger.commitments[(agent, batch)].digest

    @invariant()
    def audit_is_clean(self):
        assert self.ledger.audit() == []

    @invariant()
    def log_replays_to_itself(self):
        dump = self.ledger.dump()
        assert Ledger.load(dump).dump() == dump

    @invariant()
    def settlement_is_zero_sum_and_bounded(self):
        if self.ledger.phase is not Phase.SETTLED:
            return
        assert sum(self.ledger.settlement.transfers.values()) == 0
        for row in self.ledger.settlement.rows:
            assert 0 <= row.deposit_returned <= self.ledger.agent_deposits[row.agent]


@pytest.mark.parametrize("mechanism", [Mechanism.OA, Mechanism.PTSC])
def test_ledger_state_machine(mechanism, tmp_path):
    machine = type(f"{mechanism.name}LedgerMachine", (LedgerMachine,), {"mechanism": mechanism})
    # with no example database Hypothesis still caches the constants it
    # reads from local source files; keep that cache out of the working tree
    set_hypothesis_home_dir(tmp_path)
    try:
        run_state_machine_as_test(machine, settings=SETTINGS)
    finally:
        set_hypothesis_home_dir(None)
