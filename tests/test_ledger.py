"""Ledger state machine: lifecycle, integrity, settlement, replay."""

import functools
import hashlib
import itertools
import json
import math
import re
from dataclasses import fields
from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

import peerchain.commitment as cmt
import peerchain.ledger as ledger_module
from peerchain.errors import (
    DuplicateCommitment,
    InsufficientDeposit,
    NoCommitment,
    PeerchainError,
    ReplayDivergence,
    UnknownOpKind,
    UnknownQuestion,
    UnregisteredAgent,
    WrongPhase,
    ZeroBudget,
)
from peerchain import gas_model, keccak, mechanisms
from peerchain.gas_model import GasLedger, GasTable
from peerchain.keccak import _memo
from peerchain.ledger import Ledger, LedgerConfig, Phase, format_decimal
from peerchain.mechanisms import ALL_PEERS, Mechanism, RewardReport, SampledPeers
from peerchain.peer_selection import SelectionSeed, _memo as _draw_memo
from peerchain.sim import ExperimentConfig, QoSDataset, run_experiment

from conftest import BAD_ALPHAS, count_draws, message_of


def _commit_and_reveal(ledger, agent, answers):
    """Commit and reveal one agent's answers across all batches."""
    keys = {}
    for b, order in enumerate(ledger.agent_batches(agent)):
        message = message_of([(q, bit) for q, bit in answers if q in order], order)
        key = 1000 + 7 * b + sum(ord(ch) for ch in agent)
        ledger.submit_commitment(agent, b, cmt.commit(message, key, len(order)))
        keys[b] = (message, key)
    return keys


def _oa_round(budget=1000, requester_deposit=0, peer_mode=ALL_PEERS):
    ledger = Ledger(LedgerConfig(mechanism=Mechanism.OA, peer_mode=peer_mode))
    ledger.post_questions(("q1", "q2"), budget, requester_deposit)
    ledger.select_questions("A", ("q1", "q2"))
    ledger.select_questions("B", ("q1", "q2"))
    ledger.tick(10)
    assert ledger.phase is Phase.COMMIT
    ka = _commit_and_reveal(ledger, "A", [("q1", 1), ("q2", 1)])
    kb = _commit_and_reveal(ledger, "B", [("q1", 1), ("q2", 0)])
    assert ledger.phase is Phase.REVEAL  # all batches in -> early transition
    for agent, keys in (("A", ka), ("B", kb)):
        for b, (message, key) in keys.items():
            assert ledger.reveal(agent, b, message, key)
    return ledger


def test_format_decimal():
    assert format_decimal(F(1, 2)) == "0.5"
    assert format_decimal(F(0)) == "0"
    assert format_decimal(F(1, 3)) == "0.333333333333"
    assert format_decimal(F(2, 3)) == "0.666666666667"
    # 12 significant digits, falling back to E-notation out of range
    assert format_decimal(F(123456789123456789, 7)) == "1.76366841605E+16"


def test_config_validation_and_min_deposits():
    with pytest.raises(ValueError):
        LedgerConfig(batch_size=43)
    with pytest.raises(ValueError):
        LedgerConfig(batch_size=0)
    with pytest.raises(ValueError):
        LedgerConfig(alpha=F(0))
    with pytest.raises(ValueError):
        LedgerConfig(selection_blocks=0)
    assert LedgerConfig(mechanism=Mechanism.OA).min_agent_deposit == 0
    assert LedgerConfig(mechanism=Mechanism.DG).min_agent_deposit == 10**9
    assert LedgerConfig(mechanism=Mechanism.PTSC, alpha=F(1, 2)).min_agent_deposit == 5 * 10**8
    assert LedgerConfig(mechanism=Mechanism.PTSC, alpha=F(1, 3)).min_agent_deposit == 333333334


def test_min_agent_deposit_is_computed_once_per_config(tmp_path):
    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(st.sampled_from(list(Mechanism)), st.integers(1, 10**12),
           st.fractions(min_value=F(1, 10**9), max_value=10**3, max_denominator=10**9).filter(bool))
    def check(mechanism, scale, alpha):
        config = LedgerConfig(mechanism=mechanism, alpha=alpha, scale=scale)
        want = {Mechanism.PTSC: math.ceil(alpha * scale), Mechanism.DG: scale, Mechanism.OA: 0}[mechanism]
        with mock.patch.object(ledger_module, "ceil", wraps=math.ceil) as ceil:
            assert config.min_agent_deposit == config.min_agent_deposit == want
        assert ceil.call_count == (mechanism is Mechanism.PTSC)
        # kept beside the fields, not one of them: the genesis payload is unchanged
        assert "min_agent_deposit" not in {f.name for f in fields(config)} | config.to_payload().keys()
        assert LedgerConfig.from_payload(config.to_payload()) == config

    # keep Hypothesis' constants cache out of the working tree
    set_hypothesis_home_dir(tmp_path)
    try:
        check()
    finally:
        set_hypothesis_home_dir(None)


@pytest.mark.parametrize("bad, message", [
    (dict(mechanism="dg"), "mechanism must be a Mechanism"),
    (dict(mechanism="oa"), "mechanism must be a Mechanism"),
    (dict(peer_mode=None), "peer_mode must be"),
    (dict(peer_mode=5), "peer_mode must be"),
    (dict(gas_table={}), "gas_table must be a GasTable"),
    (dict(gas_table=None), "gas_table must be a GasTable"),
], ids=["mechanism-dg-string", "mechanism-oa-string", "peer-mode-none", "peer-mode-int",
        "gas-table-dict", "gas-table-none"])
def test_config_rejects_bad_mechanism_peer_mode_and_gas_table(bad, message):
    with pytest.raises(ValueError, match=message):
        Ledger(LedgerConfig(**bad))


def test_config_alpha_must_be_exact():
    cfg = LedgerConfig(mechanism=Mechanism.PTSC, alpha=2)
    assert type(cfg.alpha) is F and cfg.alpha == 2
    assert Ledger(cfg).config.to_payload()["alpha"] == [2, 1]
    for bad in (0.5, "x", True, None):
        with pytest.raises(ValueError):
            LedgerConfig(alpha=bad)


@pytest.mark.parametrize("mechanism", list(Mechanism))
@pytest.mark.parametrize("alpha, message", BAD_ALPHAS, ids=repr)
def test_config_rejects_bad_alpha_for_every_mechanism(mechanism, alpha, message):
    # the same rule and messages as both reward paths (mechanisms.require_alpha)
    with pytest.raises(ValueError, match=message):
        LedgerConfig(mechanism=mechanism, alpha=alpha)


def test_config_payload_roundtrip():
    for cfg in (
        LedgerConfig(),
        LedgerConfig(mechanism=Mechanism.PTSC, alpha=F(3, 7), batch_size=5),
        LedgerConfig(peer_mode=SampledPeers(2, 99)),
        LedgerConfig(peer_mode=SampledPeers(3, SelectionSeed(12, 34))),
    ):
        assert LedgerConfig.from_payload(cfg.to_payload()) == cfg


def _gas_table(words, others):
    """A table whose four word costs are ``words`` in decreasing order."""
    new, update, read, memory = sorted(words, reverse=True)
    return GasTable(*others[:1], new, update, read, *others[1:3], memory, *others[3:])


GAS_TABLES = st.builds(_gas_table, st.lists(st.integers(1, 10**6), min_size=4, max_size=4, unique=True),
                       st.lists(st.integers(1, 10**6), min_size=5, max_size=5))
SEEDS = st.one_of(st.integers(-2**70, 2**70),
                  st.builds(SelectionSeed, st.integers(0, 2**256 - 1), st.integers(0, 2**256 - 1)))
LEDGER_CONFIGS = st.builds(
    LedgerConfig,
    mechanism=st.sampled_from(Mechanism),
    alpha=st.one_of(st.integers(1, 10**6), st.fractions(min_value=F(1, 10**6), max_value=10**6)),
    peer_mode=st.one_of(st.just(ALL_PEERS), st.builds(SampledPeers, st.integers(1, 100), SEEDS)),
    batch_size=st.integers(1, cmt.MAX_ANSWERS),
    scale=st.integers(1, 10**18),
    selection_blocks=st.integers(1, 10**6),
    commit_blocks=st.integers(1, 10**6),
    reveal_blocks=st.integers(1, 10**6),
    gas_table=GAS_TABLES,
    optimized=st.booleans(),
)


def test_genesis_replays_every_config(tmp_path):
    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(LEDGER_CONFIGS)
    def check(cfg):
        dump = Ledger(cfg).dump()
        assert Ledger.load(dump).config == cfg
        genesis = json.loads(bytes.fromhex(dump.split(",", 3)[3]))
        assert genesis.keys() == {f.name for f in fields(LedgerConfig)}

    set_hypothesis_home_dir(tmp_path)
    try:
        check()
    finally:
        set_hypothesis_home_dir(None)


def _genesis_log(**changes):
    """A one-line log: the default genesis with payload keys set or, for a
    value of None, dropped."""
    head, payload_hex = Ledger(LedgerConfig()).dump().rstrip("\n").rsplit(",", 1)
    payload = {**json.loads(bytes.fromhex(payload_hex)), **changes}
    payload = {k: v for k, v in payload.items() if v is not None}
    return f"{head},{json.dumps(payload, sort_keys=True, separators=(',', ':')).encode().hex()}\n"


def test_genesis_gas_table_is_read_like_a_gas_table_file(tmp_path):
    entries = {**LedgerConfig().to_payload()["gas_table"], "quantum_op": 5}
    path = tmp_path / "table.json"
    path.write_text(json.dumps(entries))
    with pytest.raises(UnknownOpKind, match="quantum_op") as from_file:
        GasTable.load(path)
    with pytest.raises(UnknownOpKind, match="quantum_op") as from_log:
        Ledger.load(_genesis_log(gas_table=entries))
    assert str(from_log.value) == str(from_file.value)
    # a missing entry keeps its default, as in a --gas-table file (a log that
    # leaves one out then fails to replay byte for byte)
    payload = {**LedgerConfig().to_payload(), "gas_table": {"tx_base": 30000}}
    assert LedgerConfig.from_payload(payload).gas_table == GasTable(tx_base=30000)
    with pytest.raises(ReplayDivergence):
        Ledger.load(_genesis_log(gas_table={"tx_base": 30000}))


@pytest.mark.parametrize("changes, message", [
    (dict(scale=None), "missing key 'scale'"),
    (dict(optimized=None, alpha=None), "missing key 'alpha', missing key 'optimized'"),
    (dict(quantum=1), "unknown key 'quantum'"),
    (dict(batch_size=None, transfers={}), "missing key 'batch_size', unknown key 'transfers'"),
], ids=["missing", "two-missing", "unknown", "missing-and-unknown"])
def test_genesis_keys_must_be_the_config_fields(changes, message):
    with pytest.raises(ValueError, match=rf"^event log line 1 \(genesis\): genesis payload: {message}$"):
        Ledger.load(_genesis_log(**changes))


def test_oa_round_settles_evenly():
    ledger = _oa_round()
    report = ledger.settle()
    assert ledger.phase is Phase.SETTLED
    rewards = {r.agent: r.mechanism_reward for r in report.rows}
    assert rewards == {"A": F(1, 2), "B": F(1, 2)}
    assert {r.agent: r.payment_units for r in report.rows} == {"A": 500, "B": 500}
    assert report.budget_paid == 1000
    assert report.penalties_collected == 0
    assert sum(report.transfers.values()) == 0
    assert report.transfers[Ledger.REQUESTER] == -1000
    assert report.to_csv() == (
        "agent,mechanism_reward,payment_units,deposit_returned,gas_reimbursed\n"
        "A,0.5,500,0,0\n"
        "B,0.5,500,0,0\n"
    )
    assert ledger.audit() == []


def test_ptsc_penalties_draw_on_deposits():
    cfg = LedgerConfig(mechanism=Mechanism.PTSC, alpha=F(1, 2))
    ledger = Ledger(cfg)
    ledger.post_questions(("q1", "q2"), budget=10**6)
    dep = cfg.min_agent_deposit
    for agent in ("A", "B", "C"):
        ledger.select_questions(agent, ("q1", "q2"), deposit=dep)
    with pytest.raises(InsufficientDeposit):
        ledger.select_questions("D", ("q1",), deposit=dep - 1)
    ledger.tick(10)
    # the hand-oracle matrix M1: PTSC rewards (-1/3, 0, -1/3) at alpha 1/2
    answers = {"A": [("q1", 1), ("q2", 0)], "B": [("q1", 1), ("q2", 1)],
               "C": [("q1", 0), ("q2", 1)]}
    keys = {a: _commit_and_reveal(ledger, a, answers[a]) for a in answers}
    for a, ks in keys.items():
        for b, (message, key) in ks.items():
            assert ledger.reveal(a, b, message, key)
    report = ledger.settle()
    rows = {r.agent: r for r in report.rows}
    assert rows["A"].mechanism_reward == F(-1, 3)
    assert rows["B"].mechanism_reward == F(0)
    # penalty floor(1/3 * 1e9), the rest of the deposit comes back
    assert rows["A"].deposit_returned == dep - 333_333_333
    assert rows["B"].deposit_returned == dep
    assert rows["A"].payment_units == rows["B"].payment_units == 0
    assert report.budget_paid == 0
    assert report.penalties_collected == 2 * 333_333_333
    assert report.transfers[Ledger.REQUESTER] == 2 * 333_333_333
    assert sum(report.transfers.values()) == 0
    assert ledger.audit() == []


def test_phase_machine_rejections():
    ledger = Ledger(LedgerConfig())
    with pytest.raises(WrongPhase):
        ledger.select_questions("A", ("q1",))
    with pytest.raises(ZeroBudget):
        ledger.post_questions(("q1",), budget=0)
    ledger.post_questions(("q1",), budget=10)
    with pytest.raises(WrongPhase):
        ledger.post_questions(("q1",), budget=10)
    with pytest.raises(UnknownQuestion):
        ledger.select_questions("A", ("zz",))
    with pytest.raises(ValueError):
        ledger.select_questions("requester", ("q1",))
    ledger.select_questions("A", ("q1",))
    with pytest.raises(ValueError):
        ledger.select_questions("A", ("q1",))  # double registration
    ledger.select_questions("B", ("q1",))  # keeps the commit window open below
    with pytest.raises(WrongPhase):
        ledger.submit_commitment("A", 0, cmt.Commitment(b"\x00" * 32))
    ledger.tick(10)
    with pytest.raises(WrongPhase):
        ledger.reveal("A", 0, 0, 0)
    message = message_of([("q1", 1)], ("q1",))
    key = 5
    ledger.submit_commitment("A", 0, cmt.commit(message, key, 1))
    with pytest.raises(DuplicateCommitment):
        ledger.submit_commitment("A", 0, cmt.commit(message, key, 1))
    assert ledger.phase is Phase.COMMIT
    with pytest.raises(ValueError):
        ledger.submit_commitment("A", 5, cmt.commit(message, key, 1))  # no such batch
    ledger.submit_commitment("B", 0, cmt.commit(message, key, 1))
    # all batches committed -> reveal phase; unrevealed batches block settle
    assert ledger.phase is Phase.REVEAL
    with pytest.raises(WrongPhase):
        ledger.settle()


def test_commit_deadline_forces_reveal_phase():
    ledger = Ledger(LedgerConfig())
    ledger.post_questions(("q1",), budget=10)
    ledger.select_questions("A", ("q1",))
    ledger.select_questions("B", ("q1",))
    ledger.tick(10)
    assert ledger.phase is Phase.COMMIT
    message = message_of([("q1", 1)], ("q1",))
    key = 9
    ledger.submit_commitment("A", 0, cmt.commit(message, key, 1))
    ledger.tick(10)  # commit window closes with B missing
    assert ledger.phase is Phase.REVEAL
    with pytest.raises(NoCommitment):
        ledger.reveal("B", 0, 0, 0)
    assert ledger.reveal("A", 0, message, key)
    report = ledger.settle()
    rows = {r.agent: r for r in report.rows}
    assert rows["B"].mechanism_reward == F(0)
    assert rows["B"].payment_units == 0


def test_settle_blocked_while_reveals_outstanding():
    ledger = Ledger(LedgerConfig())
    ledger.post_questions(("q1",), budget=10)
    ledger.select_questions("A", ("q1",))
    ledger.select_questions("B", ("q1",))
    ledger.tick(10)
    message = message_of([("q1", 0)], ("q1",))
    ka, kb = 1, 2
    ledger.submit_commitment("A", 0, cmt.commit(message, ka, 1))
    ledger.submit_commitment("B", 0, cmt.commit(message, kb, 1))
    assert ledger.phase is Phase.REVEAL
    ledger.reveal("A", 0, message, ka)
    with pytest.raises(WrongPhase):
        ledger.settle()  # B's reveal still possible inside the window
    ledger.tick(10)
    report = ledger.settle()
    assert {r.agent for r in report.rows} == {"A", "B"}


def test_reveal_integrity_paths():
    ledger = Ledger(LedgerConfig())
    ledger.post_questions(("q1", "q2"), budget=100)
    ledger.select_questions("A", ("q1", "q2"))
    ledger.select_questions("B", ("q1",))
    ledger.tick(10)
    message = message_of([("q1", 1), ("q2", 0)], ("q1", "q2"))
    key = 31337
    ledger.submit_commitment("A", 0, cmt.commit(message, key, 2))
    mb = message_of([("q1", 1)], ("q1",))
    kb = 5
    ledger.submit_commitment("B", 0, cmt.commit(mb, kb, 1))

    with pytest.raises(UnregisteredAgent):
        ledger.reveal("Z", 0, 0, 0)
    with pytest.raises(NoCommitment):
        ledger.reveal("A", 1, 0, 0)
    # wrong key: discarded, not raised
    assert not ledger.reveal("A", 0, message, key ^ 1)
    assert ("A", 0) in ledger.discarded
    # malformed message: answer bit without answered bit
    assert not ledger.reveal("B", 0, 0b10, kb)
    # honest reveal still lands after a failed attempt? no: one discard
    # burns the batch, which is exactly what a contract would do, so the
    # message here is that A's answers stay out of the matrix
    assert ledger.revealed_matrix().total_answers == 0
    ledger.tick(10)
    report = ledger.settle()
    assert report.reward_report is None
    assert all(r.payment_units == 0 for r in report.rows)
    assert any(n.kind == "failed-verification" for n in ledger.notes)
    assert any(n.kind == "malformed" for n in ledger.notes)


def test_duplicate_reveal_discarded():
    ledger = Ledger(LedgerConfig())
    ledger.post_questions(("q1",), budget=100)
    ledger.select_questions("A", ("q1",))
    ledger.tick(10)
    message = message_of([("q1", 1)], ("q1",))
    key = 4
    ledger.submit_commitment("A", 0, cmt.commit(message, key, 1))
    assert ledger.reveal("A", 0, message, key)
    assert not ledger.reveal("A", 0, message, key)
    assert any(n.kind == "duplicate" for n in ledger.notes)
    assert ledger.revealed_cells == {("A", "q1"): 1}


def test_discard_is_final():
    ledger = Ledger(LedgerConfig())
    ledger.post_questions(("q1",), budget=100)
    ledger.select_questions("A", ("q1",))
    ledger.tick(10)
    message = message_of([("q1", 1)], ("q1",))
    key = 4
    ledger.submit_commitment("A", 0, cmt.commit(message, key, 1))
    assert not ledger.reveal("A", 0, message, key ^ 1)
    gas = sum(ledger.gas.per_phase.values())
    # the right key comes too late: it pays its gas and lands nothing
    assert not ledger.reveal("A", 0, message, key)
    assert sum(ledger.gas.per_phase.values()) > gas and ledger.events[-1].split(",")[1] == "reveal"
    assert ledger.revealed_cells == {} and ledger.accepted == {}
    assert list(ledger.discarded) == [("A", 0)]
    assert [n.kind for n in ledger.notes] == ["failed-verification", "duplicate"]
    assert ledger.settle().reward_report is None


def _answers_of(message, order):
    """Question -> bit of each answered slot of one accepted batch, decoded alone."""
    _t, slots, bits = cmt.decode_slots([message], [len(order)])
    return {order[j]: bit for j, bit in zip(slots.tolist(), bits.tolist())}


def _round_with_every_reveal_outcome(mechanism=Mechanism.OA, requester_deposit=0):
    """A settled two-question-batch round whose reveals are accepted,
    duplicated, malformed and failed, and the cells its accepted batches hold.
    Every agent pays the mechanism's minimum deposit."""
    ledger = Ledger(LedgerConfig(mechanism=mechanism, alpha=F(1, 2), batch_size=2))
    questions = ("q1", "q2", "q3", "q4", "q5")
    ledger.post_questions(questions, 1000, requester_deposit)
    answers = {
        "A": [("q1", 1), ("q2", 0), ("q3", 1), ("q5", 0)],
        "B": [("q1", 1), ("q4", 1)],
        "C": [("q2", 1), ("q3", 0), ("q4", 0)],
        "D": [("q1", 0), ("q5", 1)],
    }
    for agent, cells in answers.items():
        ledger.select_questions(agent, [q for q, _bit in cells], ledger.config.min_agent_deposit)
    ledger.tick(10)
    keys = {agent: _commit_and_reveal(ledger, agent, cells) for agent, cells in answers.items()}
    kept = {}
    for agent, batches in keys.items():
        for b, (message, key) in batches.items():
            if (agent, b) == ("C", 0):
                assert not ledger.reveal(agent, b, 0b10, key)  # answer bit without its flag
            elif (agent, b) == ("D", 0):
                assert not ledger.reveal(agent, b, message, key ^ 1)
            else:
                assert ledger.reveal(agent, b, message, key)
                kept.update({(agent, q): bit for q, bit in answers[agent] if q in ledger.agent_batches(agent)[b]})
    message, key = keys["B"][0]
    assert not ledger.reveal("B", 0, message, key)
    assert sorted(n.kind for n in ledger.notes) == ["duplicate", "failed-verification", "malformed"]
    ledger.settle()
    return ledger, kept


# SHA-256 of the event log, the gas report rows (one comma-joined line each)
# and the settlement CSV of `_round_with_every_reveal_outcome(Mechanism.PTSC,
# 500_000)`: the only pinned round with discarded and duplicate reveals
DISCARDED_REVEALS_SHA256 = {
    "log": "8315d2db0632ad1c8708a2a303ee14b4391a29d629b44a4a235517406c61d6c0",
    "gas": "23d6bb10258f6a1e9151d2d857accdaee355dff3da7e7d7fc4568258b0d58927",
    "csv": "ca6f396cabec8b4551d5f405a2cd7727c30e83b5f14402a956c7c11c8b3295e3",
}


def _pinned_outputs(ledger):
    gas = "".join(",".join(map(str, row)) + "\n" for row in ledger.gas.report_rows())
    return {name: hashlib.sha256(text.encode()).hexdigest()
            for name, text in (("log", ledger.dump()), ("gas", gas), ("csv", ledger.settlement.to_csv()))}


def test_a_round_with_discarded_reveals_and_its_replay_are_pinned():
    # a malformed reveal, a failed verification and a duplicate each pay the
    # reveal's words without the accepted reveal's storage word; the requester's
    # deposit runs out part way through C's gas, and D, with nothing accepted,
    # is not reimbursed
    ledger, _kept = _round_with_every_reveal_outcome(Mechanism.PTSC, 500_000)
    assert [n.kind for n in ledger.notes if n.batch is not None] == ["malformed", "failed-verification", "duplicate"]
    reimbursed = [row.gas_reimbursed for row in ledger.settlement.rows]
    assert reimbursed[:2] == [ledger.gas.per_agent[a] for a in "AB"]
    assert 0 < reimbursed[2] < ledger.gas.per_agent["C"] and reimbursed[3] == 0
    assert _pinned_outputs(ledger) == DISCARDED_REVEALS_SHA256
    assert _pinned_outputs(Ledger.load(ledger.dump())) == DISCARDED_REVEALS_SHA256


def test_accepted_batches_are_the_only_store_of_revealed_answers():
    ledger, kept = _round_with_every_reveal_outcome()
    union = {}
    for (agent, b), (message, _key) in ledger.accepted.items():
        union.update({(agent, q): bit for q, bit in _answers_of(message, ledger.batches[agent][b]).items()})
    assert ledger.revealed_cells == union == kept
    assert list(ledger.revealed_cells) == list(kept)  # in the order the batches were accepted
    assert ledger.audit() == []
    replayed = Ledger.load(ledger.dump())
    assert replayed.revealed_cells == ledger.revealed_cells
    ours, theirs = ledger.revealed_matrix(), replayed.revealed_matrix()
    assert (theirs.answered == ours.answered).all() and (theirs.ones == ours.ones).all()
    assert ours.total_answers == len(kept)
    with pytest.raises(AttributeError):
        ledger.revealed_cells = {}
    assert ledger.revealed_cells == kept


def test_revealed_matrix_holds_the_union_of_the_accepted_batches():
    ledger, kept = _round_with_every_reveal_outcome()
    unpacked = run_experiment(ExperimentConfig(mechanism=Mechanism.DG, packed=False, agents=6, seed=3),
                              QoSDataset.skip_one(6, 8, seed=3)).ledger
    for source in (ledger, Ledger.load(ledger.dump()), unpacked, Ledger.load(unpacked.dump())):
        m = source.revealed_matrix()
        assert (m.agents, m.questions) == (tuple(source.batches), source.questions)
        answered, ones = np.zeros_like(m.answered), np.zeros_like(m.ones)
        for (agent, b), (message, _key) in source.accepted.items():
            for q, bit in _answers_of(message, source.batches[agent][b]).items():
                answered[m.agents.index(agent), m.questions.index(q)] += 1
                ones[m.agents.index(agent), m.questions.index(q)] += bit
        assert (m.answered == answered).all() and (m.ones == ones).all()
        assert m.total_answers == answered.sum() > 0
        assert source.revealed_cells == m.cells
    assert ledger.revealed_matrix().cells == kept


def test_batching_splits_along_posted_order():
    cfg = LedgerConfig(batch_size=42)
    ledger = Ledger(cfg)
    questions = tuple(f"q{i:02d}" for i in range(50))
    ledger.post_questions(questions, budget=100)
    # selection order is canonicalized to posted order
    ledger.select_questions("A", tuple(reversed(questions)))
    batches = ledger.agent_batches("A")
    assert [len(b) for b in batches] == [42, 8]
    assert batches[0][0] == "q00" and batches[1][-1] == "q49"
    single = Ledger(LedgerConfig(batch_size=1))
    single.post_questions(questions, budget=100)
    single.select_questions("A", questions[:5])
    assert [len(b) for b in single.agent_batches("A")] == [1] * 5
    with pytest.raises(UnregisteredAgent):
        ledger.agent_batches("nobody")


def test_gas_reimbursement_registration_order():
    ledger = _oa_round(budget=1000, requester_deposit=50_000)
    report = ledger.settle()
    rows = {r.agent: r for r in report.rows}
    gas_a = ledger.gas.per_agent["A"]
    assert gas_a > 50_000  # selection + commit + reveal exceed the pot
    assert rows["A"].gas_reimbursed == 50_000
    assert rows["B"].gas_reimbursed == 0
    assert sum(report.transfers.values()) == 0


PRIMES_NEAR_10_12 = (999999999937, 999999999959, 999999999961, 999999999989)


@st.composite
def settlement_cases(draw):
    """Rewards of 1-6 agents (mixed signs, zeros, denominators up to 10**12,
    often distinct primes), in two cases of three made all nonpositive but
    for one positive agent or none, with a budget, deposits, a requester
    deposit and a scale."""
    n = draw(st.integers(1, 6))
    denominator = st.one_of(st.integers(1, 10**12), st.sampled_from(PRIMES_NEAR_10_12))
    reward = st.one_of(st.just(F(0)), st.builds(F, st.integers(-3 * 10**12, 3 * 10**12), denominator))
    rewards = draw(st.lists(reward, min_size=n, max_size=n))
    shape = draw(st.sampled_from(("any", "one positive", "none positive")))
    if shape != "any":
        rewards = [-abs(r) for r in rewards]
        if shape == "one positive":
            rewards[draw(st.integers(0, n - 1))] = draw(st.builds(F, st.integers(1, 10**12), denominator))
    deposits = draw(st.lists(st.integers(0, 10**13), min_size=n, max_size=n))
    return (rewards, deposits, draw(st.integers(1, 10**15)), draw(st.integers(0, 10**6)),
            draw(st.integers(1, 10**12)))


def _settled_with_rewards(rewards, deposits, budget, requester_deposit, scale):
    """A one-question OA round of len(rewards) agents, all revealed, settled
    with the kernel's rewards replaced by ``rewards``."""
    ledger = Ledger(LedgerConfig(mechanism=Mechanism.OA, scale=scale))
    ledger.post_questions(("q",), budget, requester_deposit)
    agents = [f"a{i}" for i in range(len(rewards))]
    for agent, deposit in zip(agents, deposits):
        ledger.select_questions(agent, ("q",), deposit)
    ledger.tick(10)
    message, key = message_of([("q", 1)], ("q",)), 12345  # one digest: one hash per case
    for agent in agents:
        ledger.submit_commitment(agent, 0, cmt.commit(message, key, 1))
    for agent in agents:
        assert ledger.reveal(agent, 0, message, key)
    report = RewardReport(dict(zip(agents, rewards)), Mechanism.OA)
    with mock.patch.object(ledger_module, "compute_rewards", lambda *args: report):
        return ledger, ledger.settle()


def test_integer_budget_split_equals_the_fraction_formula(tmp_path):
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(settlement_cases())
    def check(case):
        rewards, deposits, budget, requester_deposit, scale = case
        ledger, report = _settled_with_rewards(rewards, deposits, budget, requester_deposit, scale)
        # the split as exact Fractions: floored share of the budget, floored penalty
        positive_total = sum((r for r in rewards if r > 0), F(0))
        transfers, shortfalls, remaining = {}, [], requester_deposit
        for row, r, deposit in zip(report.rows, rewards, deposits):
            pay = int(budget * r / positive_total) if r > 0 else 0
            raw = int(-r * scale) if r < 0 else 0
            penalty = min(deposit, raw)
            if raw > deposit:
                shortfalls.append((row.agent, raw - deposit))
            reimb = min(ledger.gas.per_agent[row.agent], remaining)
            remaining -= reimb
            assert (row.mechanism_reward, row.payment_units, row.deposit_returned, row.gas_reimbursed) == (
                r, pay, deposit - penalty, reimb)
            transfers[row.agent] = pay - penalty + reimb
        transfers[Ledger.REQUESTER] = -sum(transfers.values())
        assert report.transfers == transfers
        assert [(n.agent, n.shortfall) for n in ledger.notes if n.kind == "deposit-shortfall"] == shortfalls
        assert report.budget_paid == sum(row.payment_units for row in report.rows) <= budget

    # keep Hypothesis' constants cache out of the working tree
    set_hypothesis_home_dir(tmp_path)
    try:
        check()
    finally:
        set_hypothesis_home_dir(None)


@pytest.mark.parametrize("mechanism", list(Mechanism))
@pytest.mark.parametrize("peer_mode", [ALL_PEERS, SampledPeers(3, 7)], ids=["all-peers", "sampled"])
def test_each_settle_builds_one_matrix_and_visits_peers_twice(mechanism, peer_mode, monkeypatch):
    """A round's settle and its replay's each build one `AnswerMatrix`, make
    one `peer_visits` call in the kernel and one in the gas model, and, when
    sampled, one `sample_peers` call per scored cell in each."""
    calls = []

    def counted(owner, attr):
        real = getattr(owner, attr)

        def run(*args, **kwargs):
            calls.append(attr)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, attr, run)

    counted(ledger_module, "AnswerMatrix")
    counted(mechanisms, "peer_visits")
    counted(gas_model, "peer_visits")
    counted(mechanisms, "sample_peers")
    config = ExperimentConfig(mechanism=mechanism, peer_mode=peer_mode, agents=12, seed=3)
    round_ = run_experiment(config, QoSDataset.skip_one(12, 12, seed=4)).ledger
    settles = [calls.copy()]
    calls.clear()
    Ledger.load(round_.dump())
    settles.append(calls.copy())
    monkeypatch.undo()
    m = round_.revealed_matrix()
    cells = int(((m.answered == 1) & (m.answerers_per_question > 1)).sum())
    assert cells == 12 * 11
    sampled = cells if isinstance(peer_mode, SampledPeers) else 0
    for settle in settles:
        assert [c for c in settle if c != "sample_peers"] == ["AnswerMatrix", "peer_visits", "peer_visits"]
        assert settle.count("sample_peers") == 2 * sampled


@pytest.mark.parametrize("mechanism", list(Mechanism))
@pytest.mark.parametrize("peer_mode", [ALL_PEERS, SampledPeers(3, 7)], ids=["all-peers", "sampled"])
def test_only_dg_settles_count_visits_by_peer_count(mechanism, peer_mode, monkeypatch):
    """OA and PTSC settles read a `PeerVisits`' per-cell counts alone, so
    its `by_size` is never built; a DG settle builds it once in each of its
    two `PeerVisits`, the kernel's and the gas model's."""
    built, made = [], []
    real_visits, real_by_size = mechanisms.peer_visits, mechanisms.PeerVisits.by_size.func

    def visits(*args):
        made.append(real_visits(*args))
        return made[-1]

    def by_size(self):
        built.append(self)
        return real_by_size(self)

    counted = functools.cached_property(by_size)
    counted.__set_name__(mechanisms.PeerVisits, "by_size")
    monkeypatch.setattr(mechanisms.PeerVisits, "by_size", counted)
    monkeypatch.setattr(mechanisms, "peer_visits", visits)
    monkeypatch.setattr(gas_model, "peer_visits", visits)
    config = ExperimentConfig(mechanism=mechanism, peer_mode=peer_mode, agents=12, seed=3)
    round_ = run_experiment(config, QoSDataset.skip_one(12, 12, seed=4)).ledger
    Ledger.load(round_.dump())
    assert len(made) == 4  # the settle's two and the replay's two
    assert built == (made if mechanism is Mechanism.DG else [])


def test_event_log_replay_is_byte_identical():
    ledger = _oa_round()
    ledger.settle()
    dump = ledger.dump()
    first = dump.splitlines()[0]
    block, event_type, party, payload = first.split(",", 3)
    assert (block, event_type, party) == ("0", "genesis", "chain")
    bytes.fromhex(payload)  # payload is valid hex

    replayed = Ledger.load(dump)
    assert replayed.dump() == dump
    assert sum(replayed.gas.per_phase.values()) == sum(ledger.gas.per_phase.values())
    assert replayed.phase is Phase.SETTLED
    assert replayed.settlement.to_csv() == ledger.settlement.to_csv()
    assert replayed.settlement.transfers == ledger.settlement.transfers
    assert replayed.audit() == []


def test_replay_rejects_corrupt_logs():
    ledger = _oa_round()
    dump = ledger.dump()
    with pytest.raises(ValueError):
        Ledger.load("")
    with pytest.raises(ValueError):
        Ledger.load(dump.replace("genesis", "sesame", 1))
    lines = dump.splitlines()
    lines.insert(3, "2,quantum,chain,7b7d")
    with pytest.raises(ValueError):
        Ledger.load("\n".join(lines))
    # malformed payloads: not an object, or missing a field
    for payload in ({}, [1], "x", None):
        lines = dump.splitlines()
        lines.insert(3, f"2,tick,chain,{json.dumps(payload).encode().hex()}")
        with pytest.raises(ValueError, match="line 4 "):
            Ledger.load("\n".join(lines))
    head, genesis_hex = dump.split("\n", 1)[0].rsplit(",", 1)
    genesis = json.loads(bytes.fromhex(genesis_hex))

    def load_with(genesis_payload):
        blob = json.dumps(genesis_payload, sort_keys=True, separators=(",", ":")).encode().hex()
        return Ledger.load(f"{head},{blob}\n" + dump.split("\n", 1)[1])

    no_scale = {k: v for k, v in genesis.items() if k != "scale"}
    with pytest.raises(ValueError, match="line 1 "):
        load_with(no_scale)
    # fields of the wrong type or value
    sampled = {"kind": "sampled", "seed": 1}
    for field, value in (("alpha", [1, 0]), ("alpha", [1]), ("alpha", [1.5, 2]), ("alpha", "1/2"),
                         ("batch_size", 2.5), ("scale", 1.5), ("selection_blocks", 1.5),
                         ("optimized", "yes"), ("peer_mode", {**sampled, "k": True}),
                         ("peer_mode", {**sampled, "k": 2.0})):
        with pytest.raises(ValueError):
            load_with({**genesis, field: value})


def _with_line(dump, number, line):
    lines = dump.splitlines()
    lines[number - 1] = line
    return "\n".join(lines) + "\n"


def _with_payload(dump, number, **fields):
    head, payload_hex = dump.splitlines()[number - 1].rsplit(",", 1)
    payload = {**json.loads(bytes.fromhex(payload_hex)), **fields}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode().hex()
    return _with_line(dump, number, f"{head},{blob}")


def _recoded(dump, number, encoding, text=None):
    """Line ``number`` with its payload (or ``text``) hex-encoded in ``encoding``."""
    head, payload_hex = dump.splitlines()[number - 1].rsplit(",", 1)
    text = bytes.fromhex(payload_hex).decode() if text is None else text
    return _with_line(dump, number, f"{head},{text.encode(encoding, 'surrogatepass').hex()}")


def _line_of(dump, event_type):
    return next(n for n, line in enumerate(dump.splitlines(), 1) if line.split(",")[1] == event_type)


@pytest.mark.parametrize("tamper, event_type", [
    (lambda d: _with_payload(d, _line_of(d, "post"), budget=2.5), "post"),
    (lambda d: _with_payload(d, 1, batch_size=2.5), "genesis"),
    (lambda d: _with_payload(d, 1, peer_mode={"kind": "sampled", "k": 1,
                                              "seed": {"timestamp": 1.5, "difficulty": 2}}), "genesis"),
    (lambda d: _with_line(d, _line_of(d, "select"), "0,select,A"), "select"),
    (lambda d: _with_line(d, _line_of(d, "tick"), "3"), "?"),
    (lambda d: _with_line(d, _line_of(d, "tick"), d.splitlines()[_line_of(d, "tick") - 1] + "zz"), "tick"),
    (lambda d: _with_line(d, _line_of(d, "tick"), "0,tick,chain," + b"\xff\xfe{".hex()), "tick"),
    (lambda d: _with_line(d, _line_of(d, "tick"), "0,tick,chain," + b"{blocks: 1}".hex()), "tick"),
    (lambda d: _with_payload(d, _line_of(d, "tick"), blocks=True), "tick"),
    # JSON that is not UTF-8 text: json.loads would sniff these bytes and parse them
    (lambda d: _recoded(d, _line_of(d, "tick"), "utf-16"), "tick"),
    (lambda d: _recoded(d, _line_of(d, "tick"), "utf-16-le"), "tick"),
    (lambda d: _recoded(d, _line_of(d, "tick"), "utf-8-sig"), "tick"),
    (lambda d: _recoded(d, _line_of(d, "tick"), "utf-8", '{"\ud800":0,"blocks":10}'), "tick"),
], ids=["post-budget-float", "genesis-batch-size-float", "genesis-seed-float", "three-fields", "one-field",
        "non-hex-payload", "payload-not-utf8", "payload-not-json", "tick-blocks-bool",
        "payload-utf16", "payload-utf16-without-bom", "payload-utf8-bom", "payload-lone-surrogate"])
def test_load_names_the_line_of_every_value_error(tamper, event_type):
    ledger = _oa_round()
    ledger.settle()
    dump = ledger.dump()
    tampered = tamper(dump)
    number = next(n for n, (a, b) in enumerate(zip(dump.splitlines(), tampered.splitlines()), 1) if a != b)
    with pytest.raises(ValueError, match=rf"^event log line {number} \({re.escape(event_type)}\): "):
        Ledger.load(tampered)


def test_load_keeps_domain_errors_and_divergence():
    ledger = _oa_round()
    ledger.settle()
    lines = ledger.dump().splitlines()
    commit = next(i for i, line in enumerate(lines) if ",commit," in line)
    with pytest.raises(DuplicateCommitment):
        Ledger.load("\n".join(lines[:commit + 1] + lines[commit:]) + "\n")
    with pytest.raises(ReplayDivergence):
        Ledger.load(_with_payload(ledger.dump(), len(lines), extra=1))


# a fixed alphabet: a text strategy over all of unicode builds a character
# map first, which takes seconds
SHORT_TEXT = st.text(alphabet="a1,{\"é", max_size=3)
WRONG_VALUE = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(allow_nan=False),
                        SHORT_TEXT, st.lists(st.integers(0, 2), max_size=2),
                        st.dictionaries(SHORT_TEXT, st.integers(0, 2), max_size=1))
LINE = st.integers(0, 20)  # taken modulo the line count
MUTATION = st.one_of(
    st.tuples(st.just("drop"), LINE),
    st.tuples(st.just("duplicate"), LINE),
    st.tuples(st.just("swap"), LINE, LINE),
    st.tuples(st.just("truncate"), LINE, st.integers(0, 200)),
    st.tuples(st.just("retype"), LINE, st.integers(0, 20), WRONG_VALUE),
)


def _mutate(lines, mutation):
    op, i, *args = mutation
    i %= len(lines)
    if op == "drop":
        del lines[i]
    elif op == "duplicate":
        lines.insert(i, lines[i])
    elif op == "swap":
        j = args[0] % len(lines)
        lines[i], lines[j] = lines[j], lines[i]
    elif op == "truncate":
        lines[i] = lines[i][:args[0] % (len(lines[i]) + 1)]
    elif lines[i].count(",") == 3:
        head, payload_hex = lines[i].rsplit(",", 1)
        try:
            payload = json.loads(bytes.fromhex(payload_hex))
        except ValueError:
            return  # a line truncated earlier
        # a top-level field, or a field of a nested object such as the seed
        paths = [(k,) for k in payload] + [(k, sub) for k, v in payload.items() if isinstance(v, dict)
                                            for sub in v]
        if not paths:
            return
        *parents, leaf = paths[args[0] % len(paths)]
        target = payload
        for key in parents:
            target = target[key]
        target[leaf] = args[1]
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode().hex()
        lines[i] = f"{head},{blob}"


def test_load_of_a_mutated_log_replays_it_or_raises_a_named_error(tmp_path):
    # a small valid log: a settled sampled OA round whose genesis nests a seed
    ledger = _oa_round(peer_mode=SampledPeers(1, SelectionSeed(5, 6)))
    ledger.settle()
    valid = ledger.dump().splitlines()

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(st.lists(MUTATION, min_size=1, max_size=3))
    def check(mutations):
        lines = list(valid)
        for mutation in mutations:
            _mutate(lines, mutation)
        text = "\n".join(lines) + "\n"
        try:
            ledger = Ledger.load(text)
        except PeerchainError:
            return
        except ValueError as e:
            assert "event log line" in str(e)
            return
        assert ledger.dump() == text

    # keep Hypothesis' constants cache out of the working tree
    set_hypothesis_home_dir(tmp_path)
    try:
        check()
    finally:
        set_hypothesis_home_dir(None)


def _bump_settle_block(dump):
    head, last = dump.rstrip("\n").rsplit("\n", 1)
    block, rest = last.split(",", 1)
    return f"{head}\n{int(block) + 999},{rest}\n"


def _reorder_reveal_payload(dump):
    lines = dump.splitlines()
    i = max(j for j, line in enumerate(lines) if ",reveal," in line)
    head, payload_hex = lines[i].rsplit(",", 1)
    payload = json.loads(bytes.fromhex(payload_hex))
    reordered = json.dumps(dict(reversed(payload.items())), separators=(",", ":"))
    lines[i] = f"{head},{reordered.encode().hex()}"
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("tamper", [_bump_settle_block, _reorder_reveal_payload])
def test_replay_raises_on_a_line_it_does_not_reproduce(tamper):
    ledger = _oa_round()
    ledger.settle()
    tampered = tamper(ledger.dump())
    assert tampered != ledger.dump()
    with pytest.raises(ReplayDivergence):
        Ledger.load(tampered)


def _staged(phase):
    """A one-agent OA ledger driven to `phase`, with that agent's batch."""
    ledger = Ledger(LedgerConfig(mechanism=Mechanism.OA))
    message = message_of([("q1", 1), ("q2", 0)], ("q1", "q2"))
    key = 7
    if phase is not Phase.POSTING:
        ledger.post_questions(("q1", "q2"), 1000)
    if phase in (Phase.COMMIT, Phase.REVEAL):
        ledger.select_questions("A", ("q1", "q2"))
        ledger.tick(10)
    if phase is Phase.REVEAL:
        ledger.submit_commitment("A", 0, cmt.commit(message, key, 2))
    assert ledger.phase is phase
    return ledger, message, key


@pytest.mark.parametrize("tamper, outcome", [
    (lambda led: None, []),
    (lambda led: led.commitments.clear(), ["accepted reveal without commitment: A batch 0"]),
    (lambda led: led.accepted.update({("A", 0): (0b0011, 7)}), ["stored reveal fails verification: A batch 0"]),
    (lambda led: led.accepted.update({("A", 0): (0b0111, 8)}), ["stored reveal fails verification: A batch 0"]),
    (lambda led: led.accepted.update({("A", 0): (0b1011, 7)}), ValueError),  # answer bit without its flag
    (lambda led: led.accepted.update({("A", 0): (0b0011, 1 << cmt.KEY_BITS)}), ValueError),
    (lambda led: led.accepted.update({("A", 0): (1 << 4, 7)}), ValueError),
    (lambda led: (led.commitments.clear(), led.accepted.update({("A", 0): (1 << 4, 7)})), ValueError),
    # without its commitment a stored key is not read
    (lambda led: (led.commitments.clear(), led.accepted.update({("A", 0): (0b0011, -1)})),
     ["accepted reveal without commitment: A batch 0"]),
    (lambda led: led.commitments.update({("A", 0): b"\0" * 32}), ValueError),
], ids=["clean", "no-commitment", "other-message", "other-key", "answer-without-flag", "key-out-of-range",
        "bits-beyond-slots", "no-commitment-bits-beyond-slots", "no-commitment-key-out-of-range",
        "digest-not-a-commitment"])
def test_audit_rechecks_each_stored_reveal(tamper, outcome):
    ledger, message, key = _staged(Phase.REVEAL)
    assert ledger.reveal("A", 0, message, key)
    tamper(ledger)
    if isinstance(outcome, list):
        assert ledger.audit() == outcome
    else:
        with pytest.raises(outcome):
            ledger.audit()


@pytest.mark.parametrize("phase, call", [
    (Phase.POSTING, lambda led, message, key: led.post_questions(("q1",), 2.5)),
    (Phase.POSTING, lambda led, message, key: led.post_questions(("q1",), True)),
    (Phase.POSTING, lambda led, message, key: led.post_questions(("q1",), 10, 0.0)),
    (Phase.SELECTION, lambda led, message, key: led.select_questions("A", ("q1",), 0.0)),
    (Phase.COMMIT, lambda led, message, key: led.submit_commitment("A", 0.0, cmt.commit(message, key, 2))),
    (Phase.REVEAL, lambda led, message, key: led.reveal("A", 0.0, message, key)),
    (Phase.REVEAL, lambda led, message, key: led.reveal("A", False, message, key)),
    (Phase.REVEAL, lambda led, message, key: led.reveal("A", 0, "x", key)),
    (Phase.REVEAL, lambda led, message, key: led.reveal("A", 0, message, 5.0)),
    (Phase.POSTING, lambda led, message, key: SampledPeers(2.0, 1)),
    (Phase.POSTING, lambda led, message, key: SampledPeers(True, 1)),
    (Phase.POSTING, lambda led, message, key: LedgerConfig(batch_size=2.5)),
    (Phase.POSTING, lambda led, message, key: LedgerConfig(scale=1.5)),
    (Phase.POSTING, lambda led, message, key: LedgerConfig(selection_blocks=1.5)),
    (Phase.POSTING, lambda led, message, key: LedgerConfig(commit_blocks=True)),
    (Phase.POSTING, lambda led, message, key: LedgerConfig(reveal_blocks=2.0)),
    (Phase.POSTING, lambda led, message, key: LedgerConfig(optimized="yes")),
], ids=["budget-float", "budget-bool", "requester-deposit-float", "deposit-float", "commit-batch-float",
        "reveal-batch-float", "reveal-batch-bool", "reveal-message-str", "reveal-key-float",
        "k-float", "k-bool", "batch-size-float", "scale-float", "selection-blocks-float",
        "commit-blocks-bool", "reveal-blocks-float", "optimized-str"])
def test_entry_points_take_only_ints(phase, call):
    ledger, message, key = _staged(phase)
    events, gas = list(ledger.events), sum(ledger.gas.per_phase.values())
    with pytest.raises(ValueError):
        call(ledger, message, key)
    assert (ledger.events, sum(ledger.gas.per_phase.values())) == (events, gas)


@pytest.mark.parametrize("raw", [
    lambda c: c.digest, lambda c: bytearray(c.digest), lambda c: c.hex(), lambda c: None,
], ids=["digest-bytes", "digest-bytearray", "digest-hex", "none"])
def test_submit_commitment_takes_only_a_commitment(raw):
    ledger, message, key = _staged(Phase.COMMIT)
    commitment_ = cmt.commit(message, key, 2)
    before = (list(ledger.events), sum(ledger.gas.per_phase.values()), ledger._uncommitted)
    with pytest.raises(ValueError, match="must be a Commitment"):
        ledger.submit_commitment("A", 0, raw(commitment_))
    assert (ledger.events, sum(ledger.gas.per_phase.values()), ledger._uncommitted) == before
    assert ledger.phase is Phase.COMMIT
    ledger.submit_commitment("A", 0, commitment_)
    assert ledger.phase is Phase.REVEAL
    assert ledger.reveal("A", 0, message, key)


# a comma would split the party field and a line break the line itself:
# Ledger.load could not read the log back
@pytest.mark.parametrize("agent", ["a,b", ",", "a\nb", "a\n", "a\r\nb", "\r", "a\x0bb", "a\x0cb", "a\x1cb",
                                   "a\x85b", "a\u2028b", "a\u2029b", 5, None, b"A", ("A",)])
def test_select_questions_refuses_an_agent_id_its_log_cannot_carry(agent):
    ledger, _message, _key = _staged(Phase.SELECTION)
    before = (list(ledger.events), sum(ledger.gas.per_phase.values()))
    with pytest.raises(ValueError, match="agent id"):
        ledger.select_questions(agent, ("q1", "q2"))
    assert (ledger.events, sum(ledger.gas.per_phase.values()), ledger.batches) == (*before, {})


@pytest.mark.parametrize("bad_id", [["q1"], 1, None, True], ids=repr)
def test_question_ids_must_be_str(bad_id):
    fresh = Ledger(LedgerConfig())
    with pytest.raises(ValueError, match="question ids must be str"):
        fresh.post_questions(("q1", bad_id), 1000)
    assert (fresh.phase, len(fresh.events), sum(fresh.gas.per_phase.values())) == (Phase.POSTING, 1, 0)
    ledger = _oa_round()
    ledger.settle()
    dump = ledger.dump()
    selecting = _staged(Phase.SELECTION)[0]
    with pytest.raises(ValueError, match="question ids must be str"):
        selecting.select_questions("A", ("q1", bad_id))
    assert "A" not in selecting.batches
    # a log line that carries one is named
    for event_type in ("post", "select"):
        number = _line_of(dump, event_type)
        tampered = _with_payload(dump, number, questions=["q1", bad_id])
        with pytest.raises(ValueError, match=rf"^event log line {number} \({event_type}\): question ids must be str"):
            Ledger.load(tampered)


class _Id(str):
    pass


@pytest.mark.parametrize("ids, deposit, error, message", [
    (("q1", 5), 1, ValueError, "question ids must be str, got 5"),
    (("q1", ["q2"]), 1, ValueError, r"question ids must be str, got \['q2'\]"),
    (("q1", True), 1, ValueError, "question ids must be str, got True"),
    (("zz", "zz", None), 0, ValueError, "question ids must be str, got None"),
    ((), 1, ValueError, "question selection must be nonempty and unique"),
    ((), 0, ValueError, "question selection must be nonempty and unique"),
    (("q2", "q1", "q2"), 1, ValueError, "question selection must be nonempty and unique"),
    (("zz", "zz"), 0, ValueError, "question selection must be nonempty and unique"),
    (("q1", "zz", "yy"), 1, UnknownQuestion, "question 'zz' was never posted"),
    (("zz",), 0, UnknownQuestion, "question 'zz' was never posted"),
    (("q2", "q1"), 0, InsufficientDeposit, "ptsc rounds require at least 1 units, got 0"),
], ids=["int", "list", "bool", "non-str-first", "empty", "empty-before-deposit", "duplicate",
        "duplicate-before-unknown", "unknown", "unknown-before-deposit", "deposit"])
def test_select_questions_raises_the_first_fault_in_order(ids, deposit, error, message):
    """A non-str id, then an empty or repeated selection, then an unposted
    id, then a short deposit: the first fault raises, and nothing changes."""
    ledger = Ledger(LedgerConfig(mechanism=Mechanism.PTSC, alpha=F(1, 2), scale=2))
    ledger.post_questions(("q1", "q2", "q3"), 1000)
    before = (list(ledger.events), ledger.gas.report_rows())
    with pytest.raises(error, match=f"^{message}$"):
        ledger.select_questions("A", ids, deposit)
    assert (ledger.events, ledger.gas.report_rows(), ledger.batches) == (*before, {})
    ledger.select_questions("A", ("q3", "q1"), 1)
    ledger.select_questions("B", (_Id("q2"),), 1)  # a str subclass is a str id
    assert ledger.batches == {"A": (("q1", "q3"),), "B": (("q2",),)}


def test_a_plain_agent_id_replays_byte_for_byte():
    ledger, message, key = _staged(Phase.SELECTION)
    agent = "agent 7: é\t;"
    ledger.select_questions(agent, ("q1", "q2"))
    ledger.tick(10)
    ledger.submit_commitment(agent, 0, cmt.commit(message, key, 2))
    assert ledger.reveal(agent, 0, message, key)
    ledger.settle()
    assert Ledger.load(ledger.dump()).dump() == ledger.dump()


def _settled_round_with_a_failed_reveal():
    """A settled OA round: A and B reveal honestly, C with a wrong key."""
    ledger = Ledger(LedgerConfig(mechanism=Mechanism.OA))
    ledger.post_questions(("q1", "q2"), 1000)
    for agent in "ABC":
        ledger.select_questions(agent, ("q1", "q2"))
    ledger.tick(10)
    keys = {agent: _commit_and_reveal(ledger, agent, [("q1", 1), ("q2", i % 2)])
            for i, agent in enumerate("ABC")}
    for agent, batches in keys.items():
        for b, (message, key) in batches.items():
            value = key ^ 1 if agent == "C" else key
            assert ledger.reveal(agent, b, message, value) == (agent != "C")
    ledger.settle()
    return ledger


def _sponge_runs(monkeypatch):
    """Record every message that keccak hashes with its sponge: its misses."""
    runs = []
    real = keccak._sponge_256

    def counted(messages, pad_byte):
        runs.extend(messages)
        return real(messages, pad_byte)

    monkeypatch.setattr(keccak, "_sponge_256", counted)
    return runs


def test_replay_outputs_do_not_depend_on_the_keccak_memo(monkeypatch):
    dump = _settled_round_with_a_failed_reveal().dump()
    misses = _sponge_runs(monkeypatch)
    runs = []
    for cold in (True, False):
        if cold:
            _memo.clear()
        misses.clear()
        replayed = Ledger.load(dump)
        clean = replayed.audit()
        # a stored key with one bit flipped: its layout was never hashed
        (agent, b), (message, key) = next(iter(replayed.accepted.items()))
        replayed.accepted[(agent, b)] = (message, key ^ 1 << 40)
        runs.append((replayed.dump(), clean, replayed.audit(), replayed.settlement.to_csv()))
        # cold: the three reveals and the flipped key miss; warm: every layout hits
        assert len(misses) == (4 if cold else 0)
    assert runs[0] == runs[1]
    assert runs[0][0] == dump and runs[0][1] == []
    assert runs[0][2] == [f"stored reveal fails verification: {agent} batch {b}"]
    assert any(n.kind == "failed-verification" and n.agent == "C" for n in replayed.notes)


@pytest.mark.parametrize("packed", [True, False], ids=["packed", "unpacked"])
def test_one_hash_per_commitment_at_commit_reveal_load_and_audit(packed, monkeypatch):
    """Every call of `commitment.keccak256`, memo hit or miss, counted by the
    outermost of commit, reveal, `Ledger.load` and audit it ran under."""
    running, hashes = [], {}
    real_hash = cmt.keccak256

    def counted(data):
        hashes[running[0]] = hashes.get(running[0], 0) + 1  # IndexError for a hash outside the four
        return real_hash(data)

    def labelled(owner, attr, label):
        real = getattr(owner, attr)

        def run(*args):
            running.append(label)
            try:
                return real(*args)
            finally:
                running.pop()

        monkeypatch.setattr(owner, attr, run)

    monkeypatch.setattr(cmt, "keccak256", counted)
    labelled(cmt, "commit", "commit")
    labelled(Ledger, "reveal", "reveal")
    labelled(Ledger, "load", "load")
    labelled(Ledger, "audit", "audit")
    config = ExperimentConfig(mechanism=Mechanism.PTSC, packed=packed, agents=12, seed=1)
    round_ = run_experiment(config, QoSDataset.synthetic(12, 40, seed=1)).ledger
    assert Ledger.load(round_.dump()).audit() == []
    n = len(round_.commitments)
    assert n == (12 if packed else len(round_.revealed_cells))
    assert hashes == {"commit": n, "reveal": n, "load": n, "audit": n}


@pytest.mark.parametrize("packed", [True, False], ids=["packed", "unpacked"])
def test_one_gas_charge_per_select_commit_and_reveal_event(packed, monkeypatch):
    """A round and its replay each make exactly one `GasLedger.charge` per
    select, commit and reveal event, one for the post and three for the settle."""
    charges = []
    real_charge = GasLedger.charge

    def counted(gas, phase, party, bundle):
        charges.append(phase)
        return real_charge(gas, phase, party, bundle)

    monkeypatch.setattr(GasLedger, "charge", counted)
    config = ExperimentConfig(mechanism=Mechanism.PTSC, packed=packed, agents=12, seed=1)
    round_ = run_experiment(config, QoSDataset.synthetic(12, 12 if packed else 40, seed=1)).ledger
    runs = [charges.copy()]
    charges.clear()
    Ledger.load(round_.dump())
    runs.append(charges.copy())
    events = [line.split(",")[1] for line in round_.events]
    expected = {"posting": 1, "selection": events.count("select"), "commit": events.count("commit"),
                "reveal": events.count("reveal"), "settle": 3}
    assert expected["commit"] == expected["reveal"] == (12 if packed else len(round_.revealed_cells))
    for run in runs:
        assert {phase: run.count(phase) for phase in expected} == expected
        assert len(run) == sum(expected.values())


@pytest.mark.parametrize("mechanism", [Mechanism.DG, Mechanism.OA], ids=["dg", "oa"])
def test_replay_outputs_do_not_depend_on_the_draw_memo(mechanism, monkeypatch):
    config = ExperimentConfig(mechanism=mechanism, peer_mode=SampledPeers(3, SelectionSeed(5, 6)),
                              agents=12, seed=3)
    round_ = run_experiment(config, QoSDataset.skip_one(12, 12, seed=4)).ledger
    dump = round_.dump()
    number = _line_of(dump, "reveal")
    key = json.loads(bytes.fromhex(dump.splitlines()[number - 1].rsplit(",", 1)[1]))["key"]
    tampered = _with_payload(dump, number, key=key ^ 1)
    cells = 12 * 11  # skip-one: every agent answers 11 of the 12 questions
    scalar, batched = count_draws(monkeypatch)
    runs = []
    for cold in (True, False):
        if cold:
            _draw_memo.clear()
        scalar.clear()
        batched.clear()
        replayed = Ledger.load(dump)
        # cold: the kernel's batch draws every sampled cell and the gas model finds it
        assert (len(scalar), len(batched)) == (0, cells if cold else 0)
        forged = Ledger.load(tampered)
        runs.append((replayed.dump(), replayed.settlement.to_csv(), replayed.gas.report_rows(),
                     replayed.audit(), forged.settlement.to_csv(), dict(forged.discarded)))
    assert runs[0] == runs[1]
    replay_dump, csv, gas_rows, findings, forged_csv, forged_discards = runs[0]
    assert (replay_dump, csv, gas_rows) == (dump, round_.settlement.to_csv(), round_.gas.report_rows())
    assert findings == []
    # the forged key fails verification at replay, and the settlement moves
    agent = dump.splitlines()[number - 1].split(",")[2]
    assert [(a, n.kind) for (a, _b), n in forged_discards.items()] == [(agent, "failed-verification")]
    assert forged_csv != csv


@pytest.mark.parametrize("mechanism", list(Mechanism))
def test_a_cold_sampled_round_draws_in_batches_and_its_replay_draws_nothing(mechanism, monkeypatch):
    config = ExperimentConfig(mechanism=mechanism, peer_mode=SampledPeers(4, 11), agents=14, seed=2)
    dataset = QoSDataset.skip_one(14, 14, seed=5)
    _draw_memo.clear()
    scalar, batched = count_draws(monkeypatch)
    round_ = run_experiment(config, dataset).ledger
    # the kernel draws every sampled cell in its batch, the gas model finds them
    assert (len(scalar), len(batched)) == (0, 14 * 13)
    batched.clear()
    replayed = Ledger.load(round_.dump())
    assert (scalar, batched) == ([], [])
    assert replayed.dump() == round_.dump()


def test_a_flipped_key_bit_fails_verification_with_the_honest_layout_memoised(monkeypatch):
    message = message_of([("q1", 1), ("q2", 0)], ("q1", "q2"))
    key = 0x1234_5678_9ABC_DEF0_1357
    commitment_ = cmt.commit(message, key, 2)
    misses = _sponge_runs(monkeypatch)
    for bit in range(cmt.KEY_BITS):
        ledger, _message, _key = _staged(Phase.COMMIT)
        ledger.submit_commitment("A", 0, commitment_)
        misses.clear()
        assert cmt.verify_reveal(commitment_, message, key, 2)
        assert misses == []  # the honest layout is memoised
        assert not ledger.reveal("A", 0, message, key ^ 1 << bit)
        assert ledger.discarded[("A", 0)].kind == "failed-verification"
        assert ledger.revealed_cells == {}


def test_tick_validation():
    ledger = Ledger(LedgerConfig())
    with pytest.raises(ValueError):
        ledger.tick(0)


def _tick_splits(total):
    """Every way of cutting `total` blocks into ticks, in order."""
    for cuts in itertools.product((False, True), repeat=total - 1):
        split, run = [], 1
        for cut in cuts:
            if cut:
                split.append(run)
                run = 0
            run += 1
        yield split + [run]


def test_tick_jumps_agree_with_block_by_block_time():
    for pre, sel, com, rev in itertools.product((0, 2), (1, 2, 3), (1, 3), (1, 2)):
        for split in _tick_splits(7):
            ledger = Ledger(LedgerConfig(selection_blocks=sel, commit_blocks=com, reveal_blocks=rev))
            if pre:
                ledger.tick(pre)
            ledger.post_questions(("q1",), budget=10)
            t = pre
            for blocks in split:
                ledger.tick(blocks)
                t += blocks
                # block by block, deadlines fall at fixed blocks after posting
                want = (Phase.SELECTION if t < pre + sel
                        else Phase.COMMIT if t < pre + sel + com else Phase.REVEAL)
                assert (ledger.block, ledger.phase) == (t, want), (pre, sel, com, split)
            if ledger.phase is Phase.REVEAL:
                assert ledger._reveal_end == pre + sel + com + rev


def test_tick_is_constant_time_and_takes_only_whole_blocks():
    ledger = Ledger(LedgerConfig())
    ledger.post_questions(("q1",), budget=10)
    ledger.tick(10**12)
    assert ledger.block == 10**12 and ledger.phase is Phase.REVEAL
    events = list(ledger.events)
    # True is an int to Python; taken as one block it would write
    # {"blocks":true} into the public log
    for bad in (1.5, "2", None, True):
        with pytest.raises(ValueError):
            ledger.tick(bad)
    assert ledger.events == events
