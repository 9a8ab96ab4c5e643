"""Gas table, ledger aggregation, and the documented cost patterns."""

import json
from dataclasses import asdict, fields

import numpy as np
import pytest

from peerchain.errors import UnknownOpKind
from peerchain.gas_model import (
    DEFAULT_GAS_TABLE,
    GasLedger,
    GasTable,
    charge_settlement_compute,
)
from peerchain.mechanisms import ALL_PEERS, Mechanism, SampledPeers

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
    mutated = GasTable.from_json(json.dumps({**parsed, "tx_base": 30000}))
    assert mutated.tx_base == 30000
    with pytest.raises(UnknownOpKind):
        GasTable.from_json(json.dumps({**parsed, "quantum_op": 5}))


def test_ledger_aggregation_and_invariant():
    gas = GasLedger(DEFAULT_GAS_TABLE)
    gas.charge("commit", "a1", "tx_base")
    gas.charge("commit", "a1", "tx_base")          # same key aggregates
    gas.charge("commit", "a1", "hash_base", words=2)
    gas.charge("settle", "requester", "arithmetic_op", words=10)
    assert gas.total == 2 * 21000 + 30 * 2 + 5 * 10
    assert gas.total == sum(gas.per_phase.values()) == sum(gas.per_party.values())
    assert gas.per_agent == {"a1": 42_060}
    assert gas.per_phase["commit"] == 42_060
    assert gas.report_rows() == [          # first-charge order, gas = words x cost
        ("commit", "a1", "tx_base", 2, 42000),
        ("commit", "a1", "hash_base", 2, 60),
        ("settle", "requester", "arithmetic_op", 10, 50),
    ]


@pytest.mark.parametrize("op_kind", ["from_dict", "cost", "__doc__", "", "__init__", None, ["tx_base"]])
def test_charge_refuses_names_outside_the_table(op_kind):
    gas = GasLedger(DEFAULT_GAS_TABLE)
    gas.charge("posting", "requester", "tx_base")
    with pytest.raises(UnknownOpKind):
        gas.charge("posting", "requester", op_kind, 1)
    assert gas.report_rows() == [("posting", "requester", "tx_base", 1, 21000)]
    assert gas.total == 21000


@pytest.mark.parametrize("words", [1.5, True, np.int64(1), -1], ids=repr)
def test_charge_takes_only_a_nonnegative_int_word_count(words):
    gas = GasLedger(DEFAULT_GAS_TABLE)
    with pytest.raises(ValueError, match="word count must be a nonnegative int"):
        gas.charge("posting", "requester", "tx_base", words)
    assert gas.report_rows() == []


def test_table_json_missing_entry_gets_its_default():
    table = GasTable.from_json(json.dumps({"tx_base": 30000}))
    assert table == GasTable(tx_base=30000)
    assert table.cost("hash_base") == DEFAULT_GAS_TABLE.hash_base


def test_settlement_compute_frozen_desk_values(desk_truth):
    for (mech, optimized), expected in DESK_SETTLE_GAS.items():
        gas = GasLedger(DEFAULT_GAS_TABLE)
        gas.charge("settle", "requester", "tx_base")  # charges made before are not counted
        got = charge_settlement_compute(
            gas, desk_truth, Mechanism(mech), ALL_PEERS, optimized=optimized
        )
        assert got == gas.total - 21000 == expected, (mech, optimized)


def test_settlement_compute_frozen_desk_sampled_values(desk_truth):
    for (mech, k, optimized), expected in DESK_SAMPLED_SETTLE_GAS.items():
        gas = GasLedger(DEFAULT_GAS_TABLE)
        got = charge_settlement_compute(
            gas, desk_truth, Mechanism(mech), SampledPeers(k, 0), optimized=optimized
        )
        assert got == gas.total == expected, (mech, k, optimized)


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
