"""Gas table, ledger aggregation, and the documented cost patterns."""

import json
from dataclasses import asdict, fields
from math import ceil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

import peerchain.commitment as cmt
from peerchain.errors import NoCommitment, UnknownOpKind
from peerchain.gas_model import (
    DEFAULT_GAS_TABLE,
    GasBundle,
    GasLedger,
    GasTable,
    charge_settlement_compute,
)
from peerchain.ledger import Ledger, LedgerConfig, Phase
from peerchain.mechanisms import ALL_PEERS, Mechanism, SampledPeers

from conftest import message_of

# frozen settlement-compute totals on the canonical desk truth matrix
DESK_SETTLE_GAS = {
    ("oa", True): 397_292,
    ("oa", False): 13_005_536,
    ("dg", True): 1_885_965,
    ("dg", False): 855_699_948,
    ("ptsc", True): 429_394,
    ("ptsc", False): 632_990_338,
}

# the same with SampledPeers(k, 0): (mechanism, k, optimized) -> gas
DESK_SAMPLED_SETTLE_GAS = {
    ("oa", 1, True): 728_350,
    ("oa", 1, False): 1_056_721,
    ("dg", 1, True): 1_141_108,
    ("dg", 1, False): 25_757_761,
    ("ptsc", 1, True): 777_842,
    ("ptsc", 1, False): 621_041_523,
    ("oa", 5, True): 1_076_150,
    ("oa", 5, False): 2_774_853,
    ("dg", 5, True): 1_632_741,
    ("dg", 5, False): 126_313_954,
    ("ptsc", 5, True): 1_125_642,
    ("ptsc", 5, False): 622_759_655,
}


def test_default_table_constants():
    t = DEFAULT_GAS_TABLE
    assert (t.tx_base, t.storage_write_new_word, t.storage_write_update_word,
            t.storage_read_word) == (21000, 20000, 5000, 200)
    assert (t.hash_base, t.hash_per_word) == (30, 6)
    assert (t.memory_word, t.arithmetic_op, t.comparison_op) == (3, 5, 3)


def test_table_validation_and_cost():
    with pytest.raises(ValueError):
        GasTable(storage_write_new_word=100, storage_write_update_word=200)
    with pytest.raises(ValueError):
        GasTable(tx_base=-1)
    assert DEFAULT_GAS_TABLE.cost("hash_base") == 30
    assert DEFAULT_GAS_TABLE.cost("storage_read_word") == 200
    with pytest.raises(UnknownOpKind):
        DEFAULT_GAS_TABLE.cost("quantum_op")
    # cost looks names up in the instance dict, which must hold the fields only
    assert vars(DEFAULT_GAS_TABLE).keys() == {f.name for f in fields(GasTable)}


def test_table_json_roundtrip(tmp_path):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(asdict(DEFAULT_GAS_TABLE)))
    assert GasTable.load(path) == DEFAULT_GAS_TABLE
    parsed = json.loads(path.read_text())
    assert parsed["tx_base"] == 21000
    path.write_text(json.dumps({**parsed, "tx_base": 30000}))
    assert GasTable.load(path).tx_base == 30000
    path.write_text(json.dumps({**parsed, "quantum_op": 5}))
    with pytest.raises(UnknownOpKind):
        GasTable.load(path)


def test_ledger_aggregation_and_invariant():
    gas = GasLedger(DEFAULT_GAS_TABLE)
    tx = GasBundle([("tx_base", 1)])
    gas.charge("commit", "a1", tx)
    gas.charge("commit", "a1", GasBundle([("tx_base", 1)]))   # an equal bundle aggregates
    gas.charge("commit", "a1", GasBundle([("hash_base", 2)]))
    gas.charge("settle", "requester", GasBundle([("arithmetic_op", 4), ("memory_word", 0), ("arithmetic_op", 6)]))
    assert sum(gas.per_phase.values()) == sum(gas.per_party.values()) == 2 * 21000 + 30 * 2 + 5 * 10
    assert gas.per_agent == {"a1": 42_060}
    assert gas.per_phase["commit"] == 42_060
    assert gas.report_rows() == [          # first-charge order, gas = words x cost
        ("commit", "a1", "tx_base", 2, 42000),
        ("commit", "a1", "hash_base", 2, 60),
        ("settle", "requester", "arithmetic_op", 10, 50),
        ("settle", "requester", "memory_word", 0, 0),
    ]
    assert DEFAULT_GAS_TABLE.gas(GasBundle([("tx_base", 1), ("hash_base", 2)])) == 21_060
    with pytest.raises(UnknownOpKind):     # a plain tuple is priced through cost()
        DEFAULT_GAS_TABLE.gas((("tx_base", 1), ("nonsense", 2)))


@pytest.mark.parametrize("op_kind", ["from_dict", "cost", "gas", "__doc__", "", "__init__", None, ["tx_base"]])
def test_bundle_refuses_names_outside_the_table(op_kind):
    with pytest.raises(UnknownOpKind):
        GasBundle([("tx_base", 1), (op_kind, 1)])


@pytest.mark.parametrize("words", [1.5, True, np.int64(1), -1], ids=repr)
def test_bundle_takes_only_a_nonnegative_int_word_count(words):
    with pytest.raises(ValueError, match="word count must be a nonnegative int"):
        GasBundle([("tx_base", words)])


@pytest.mark.parametrize("pairs, message", [
    ([], "at least one op kind"),
    ([("tx_base", 1, 2)], "pairs"),
    ([["tx_base", 1]], "pairs"),
    (["tx_base"], "pairs"),
], ids=["empty", "triple", "list-pair", "bare-name"])
def test_bundle_holds_only_pairs(pairs, message):
    with pytest.raises(ValueError, match=message):
        GasBundle(pairs)


@pytest.mark.parametrize("bundle", [(("tx_base", 1),), "tx_base", None], ids=repr)
def test_charge_takes_only_a_bundle(bundle):
    gas = GasLedger(DEFAULT_GAS_TABLE)
    gas.charge("posting", "requester", GasBundle([("tx_base", 1)]))
    with pytest.raises(ValueError, match="takes a GasBundle"):
        gas.charge("posting", "requester", bundle)
    assert gas.report_rows() == [("posting", "requester", "tx_base", 1, 21000)]
    assert sum(gas.per_phase.values()) == 21000


def test_table_json_missing_entry_gets_its_default(tmp_path):
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"tx_base": 30000}))
    table = GasTable.load(path)
    assert table == GasTable(tx_base=30000)
    assert table.cost("hash_base") == DEFAULT_GAS_TABLE.hash_base


def test_settlement_compute_frozen_desk_values(desk_truth):
    for (mech, optimized), expected in DESK_SETTLE_GAS.items():
        gas = GasLedger(DEFAULT_GAS_TABLE)
        gas.charge("settle", "requester", GasBundle([("tx_base", 1)]))  # charges made before are not counted
        got = charge_settlement_compute(
            gas, desk_truth, Mechanism(mech), ALL_PEERS, optimized=optimized
        )
        assert got == sum(gas.per_phase.values()) - 21000 == expected, (mech, optimized)


def test_settlement_compute_frozen_desk_sampled_values(desk_truth):
    for (mech, k, optimized), expected in DESK_SAMPLED_SETTLE_GAS.items():
        gas = GasLedger(DEFAULT_GAS_TABLE)
        got = charge_settlement_compute(
            gas, desk_truth, Mechanism(mech), SampledPeers(k, 0), optimized=optimized
        )
        assert got == sum(gas.per_phase.values()) == expected, (mech, k, optimized)


def test_settlement_compute_orderings(desk_truth):
    g = DESK_SETTLE_GAS
    # optimization wins for every mechanism, dramatically for DG/PTSC
    for mech in ("oa", "dg", "ptsc"):
        assert g[(mech, True)] < g[(mech, False)]
    assert g[("dg", False)] / g[("dg", True)] > 100
    # DG costs the most among optimized paths
    assert g[("dg", True)] > g[("ptsc", True)] > g[("oa", True)]
    # k=1 sampling undercuts all-peers DG
    gas = GasLedger(DEFAULT_GAS_TABLE)
    sampled = charge_settlement_compute(
        gas, desk_truth, Mechanism.DG, SampledPeers(1, 0), optimized=True
    )
    assert sampled == DESK_SAMPLED_SETTLE_GAS[("dg", 1, True)] < g[("dg", True)]


@pytest.mark.parametrize("mechanism, peer_mode", [
    ("dg", ALL_PEERS), (None, SampledPeers(1, 0)), (Mechanism.OA, 5), (Mechanism.DG, None),
], ids=["mechanism-dg-string", "mechanism-none", "peer-mode-int", "peer-mode-none"])
def test_settlement_compute_checks_inputs_before_charging(desk_truth, mechanism, peer_mode):
    gas = GasLedger(DEFAULT_GAS_TABLE)
    with pytest.raises(ValueError, match="must be"):
        charge_settlement_compute(gas, desk_truth, mechanism, peer_mode)
    assert gas.report_rows() == []


def test_settlement_compute_monotone_in_matrix_size(desk_truth):
    from conftest import random_matrix
    import random

    rng = random.Random(4)
    small = random_matrix(rng, 5, 5, p_answer=0.9)
    big = random_matrix(rng, 20, 20, p_answer=0.9)
    for mech in Mechanism:
        cost = {}
        for name, m in (("small", small), ("big", big)):
            gas = GasLedger(DEFAULT_GAS_TABLE)
            cost[name] = charge_settlement_compute(gas, m, mech, ALL_PEERS)
        assert cost["big"] > cost["small"]


def test_costlier_table_costs_more(desk_truth):
    dear = GasTable(storage_read_word=400, arithmetic_op=10)
    cheap_gas, dear_gas = GasLedger(DEFAULT_GAS_TABLE), GasLedger(dear)
    a = charge_settlement_compute(cheap_gas, desk_truth, Mechanism.PTSC, ALL_PEERS)
    b = charge_settlement_compute(dear_gas, desk_truth, Mechanism.PTSC, ALL_PEERS)
    assert b > a


class _ReferenceGas:
    """Words per (phase, party, op kind), added one key at a time in
    first-charge order: the store `GasLedger` kept before bundles."""

    def __init__(self, table):
        self.table = table
        self.words = {}

    def charge(self, phase, party, op_kind, words=1):
        key = (phase, party, op_kind)
        self.words[key] = self.words.get(key, 0) + words

    def rows(self):
        return [(phase, party, op_kind, words, getattr(self.table, op_kind) * words)
                for (phase, party, op_kind), words in self.words.items()]

    def views(self):
        """total, per_phase, per_party and per_agent from the rows."""
        per_phase, per_party = {}, {}
        for phase, party, _op_kind, _words, gas in self.rows():
            per_phase[phase] = per_phase.get(phase, 0) + gas
            per_party[party] = per_party.get(party, 0) + gas
        per_agent = {p: g for p, g in per_party.items() if p != GasLedger.REQUESTER}
        return sum(per_phase.values()), per_phase, per_party, per_agent


GAS_QUESTIONS = tuple(f"q{i}" for i in range(18))
GAS_BATCH = 4
REVEAL_KINDS = ("honest", "wrong-key", "malformed")


@st.composite
def gas_rounds(draw):
    """A post, then selects, commits and reveals over up to four agents in
    a drawn order: some batches stay uncommitted, and a reveal may repeat a
    batch, carry a wrong key or a malformed message, or open no commitment."""
    agents = [f"a{i}" for i in range(draw(st.integers(1, 4)))]
    selections = [(agent, draw(st.lists(st.sampled_from(GAS_QUESTIONS), min_size=1, unique=True)))
                  for agent in draw(st.permutations(agents))]
    batches = [(agent, b) for agent, ids in selections for b in range(-(-len(ids) // GAS_BATCH))]
    commits = draw(st.lists(st.sampled_from(batches), unique=True, max_size=len(batches)))
    reveals = draw(st.lists(st.tuples(st.sampled_from(batches), st.sampled_from(REVEAL_KINDS)), max_size=16))
    return selections, commits, reveals


def _play_gas_round(selections, commits, reveals):
    """Run the round on a ledger and on the reference, checking rows and views after every event."""
    table = GasTable(tx_base=21001, hash_per_word=7, comparison_op=2)
    ledger = Ledger(LedgerConfig(batch_size=GAS_BATCH, gas_table=table))
    ref = _ReferenceGas(table)

    def check():
        gas = ledger.gas
        total, *views = ref.views()
        assert gas.report_rows() == ref.rows()
        assert sum(gas.per_phase.values()) == total
        # equal in content and in first-charge order
        assert [list(v.items()) for v in (gas.per_phase, gas.per_party, gas.per_agent)] == [
            list(v.items()) for v in views]

    ledger.post_questions(GAS_QUESTIONS, 1000)
    ref.charge("posting", GasLedger.REQUESTER, "tx_base")
    ref.charge("posting", GasLedger.REQUESTER, "storage_write_new_word", len(GAS_QUESTIONS) + 2)
    check()
    for agent, ids in selections:
        ledger.select_questions(agent, ids)
        ref.charge("selection", agent, "tx_base")
        ref.charge("selection", agent, "storage_write_new_word", 1 + ceil(len(ids) / 16))
        check()
    ledger.tick(10)
    keys = {}
    for agent, b in commits:
        order = ledger.agent_batches(agent)[b]
        keys[(agent, b)] = (message_of([(q, len(q) % 2) for q in order], order), 1000 + 7 * b + int(agent[1:]))
        ledger.submit_commitment(agent, b, cmt.commit(*keys[(agent, b)], len(order)))
        ref.charge("commit", agent, "tx_base")
        ref.charge("commit", agent, "storage_write_new_word", 1)
        check()
    if ledger.phase is Phase.COMMIT:
        ledger.tick(10)
    decided = set()
    for (agent, b), kind in reveals:
        if (agent, b) not in keys:
            with pytest.raises(NoCommitment):
                ledger.reveal(agent, b, 0, 0)
            check()
            continue
        message, key = keys[(agent, b)]
        if kind == "wrong-key":
            key ^= 1
        elif kind == "malformed":
            message = 0b10  # an answer bit without its answered flag
        accepted = kind == "honest" and (agent, b) not in decided
        decided.add((agent, b))
        assert ledger.reveal(agent, b, message, key) == accepted
        for op_kind in ("tx_base", "storage_read_word", "hash_base", "hash_per_word", "comparison_op"):
            ref.charge("reveal", agent, op_kind, 1)
        if accepted:
            ref.charge("reveal", agent, "storage_write_new_word", 1)
        check()
    return ledger


def test_gas_store_equals_one_key_at_a_time(tmp_path):
    # a discarded first reveal, then the agent's accepted one; a duplicate; a malformed reveal
    every_outcome = (
        [("a0", ["q1", "q2", "q3", "q4", "q5"]), ("a1", ["q0"])],
        [("a0", 0), ("a0", 1), ("a1", 0)],
        [(("a0", 1), "wrong-key"), (("a0", 0), "honest"), (("a0", 0), "honest"),
         (("a1", 0), "malformed"), (("a1", 0), "honest"), (("a0", 1), "honest")],
    )
    ledger = _play_gas_round(*every_outcome)
    assert [n.kind for n in ledger.notes] == ["failed-verification", "duplicate", "malformed", "duplicate",
                                              "duplicate"]

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(gas_rounds())
    def check(case):
        _play_gas_round(*case)

    # keep Hypothesis' constants cache out of the working tree
    set_hypothesis_home_dir(tmp_path)
    try:
        check()
    finally:
        set_hypothesis_home_dir(None)
