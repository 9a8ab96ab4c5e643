"""Dataset handling, behavior mixes, and the end-to-end experiment driver."""

import hashlib
from fractions import Fraction as F

import pytest

from peerchain import commitment as cmt
from peerchain import keccak, mechanisms, peer_selection
from peerchain.errors import EmptyDataset
from peerchain.ledger import Ledger, Phase
from peerchain.mechanisms import Mechanism, SampledPeers
from peerchain.peer_selection import SelectionSeed
from peerchain.sim import (
    MISSING,
    AgentPopulation,
    Behavior,
    ExperimentConfig,
    QoSDataset,
    assert_dg_valid,
    binarize,
    generate_reports,
    run_experiment,
    sweep_mechanisms,
    sweep_packing,
    sweep_peers,
)


def test_dataset_validation():
    with pytest.raises(EmptyDataset):
        QoSDataset(())
    with pytest.raises(ValueError):
        QoSDataset(((1.0, 2.0), (1.0,)))
    with pytest.raises(ValueError):
        QoSDataset(((-0.5,),))
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="finite"):
            QoSDataset(((0.5, bad),))
    ds = QoSDataset(((0.5, MISSING), (MISSING, 2.0)))
    assert ds.n_agents == 2 and ds.n_services == 2


def test_load_accepts_commas_and_whitespace(tmp_path):
    p = tmp_path / "rt.txt"
    p.write_text("0.5, 3.2, -1\n\n1.0 0.25 0.9\n")
    ds = QoSDataset.load(p)
    assert ds.response_times == ((0.5, 3.2, -1.0), (1.0, 0.25, 0.9))
    empty = tmp_path / "empty.txt"
    empty.write_text("\n  \n")
    with pytest.raises(EmptyDataset):
        QoSDataset.load(empty)


def test_binarize_threshold_inclusive():
    ds = QoSDataset(((0.5, 3.2, 1.0, MISSING),))
    m = binarize(ds)
    assert m.cells[("a000", "s0000")] == 1
    assert m.cells[("a000", "s0001")] == 0
    assert m.cells[("a000", "s0002")] == 1  # exactly at the threshold
    assert ("a000", "s0003") not in m.cells
    with pytest.raises(EmptyDataset):
        binarize(QoSDataset(((MISSING, MISSING),)))
    with pytest.raises(ValueError):
        binarize(ds, threshold_seconds=0)


def test_population_counts_and_assignment():
    pop = AgentPopulation()
    assert pop.counts(50) == (25, 13, 12)
    assert pop.counts(4) == (2, 1, 1)
    assert pop.counts(1) == (1, 0, 0)
    assert sum(pop.counts(7)) == 7
    assigned = pop.assign([f"a{i}" for i in range(4)])
    assert assigned == {
        "a0": Behavior.TRUTHFUL,
        "a1": Behavior.TRUTHFUL,
        "a2": Behavior.RANDOM,
        "a3": Behavior.ADVERSARIAL,
    }
    with pytest.raises(ValueError):
        AgentPopulation(F(1, 2), F(1, 2), F(1, 2))
    with pytest.raises(ValueError):
        AgentPopulation(F(3, 2), F(-1, 4), F(-1, 4))


def test_generate_reports_behaviors(desk_truth):
    all_truthful = AgentPopulation(F(1), F(0), F(0))
    assert generate_reports(desk_truth, all_truthful, seed=0).cells == desk_truth.cells

    all_flipped = generate_reports(desk_truth, AgentPopulation(F(0), F(0), F(1)), seed=0)
    assert set(all_flipped.cells) == set(desk_truth.cells)
    assert all(all_flipped.cells[k] == 1 - desk_truth.cells[k] for k in desk_truth.cells)

    mixed = generate_reports(desk_truth, AgentPopulation(), seed=7)
    behaviors = AgentPopulation().assign(desk_truth.agents)
    agree = {b: [] for b in Behavior}
    for (a, q), bit in desk_truth.cells.items():
        agree[behaviors[a]].append(mixed.cells[(a, q)] == bit)
    assert all(agree[Behavior.TRUTHFUL])
    assert not any(agree[Behavior.ADVERSARIAL])
    n = len(agree[Behavior.RANDOM])
    rate = sum(agree[Behavior.RANDOM]) / n
    assert abs(rate - 0.5) < 3 * (0.25 / n) ** 0.5


def test_skip_one_is_dg_valid():
    ds = QoSDataset.skip_one(8, 8, seed=3)
    assert all(ds.response_times[i][i] == MISSING for i in range(8))
    assert_dg_valid(binarize(ds))
    with pytest.raises(ValueError):
        QoSDataset.skip_one(5, 4, seed=0)


def test_assert_dg_valid_catches_subsets():
    bad = QoSDataset(((0.5, 0.5), (0.5, MISSING)))  # row 1 answers a subset
    with pytest.raises(AssertionError):
        assert_dg_valid(binarize(bad))


def test_run_experiment_deterministic_and_reconciled(desk_dataset):
    cfg = ExperimentConfig(mechanism=Mechanism.OA, agents=12, seed=4)
    r1 = run_experiment(cfg, desk_dataset)
    r2 = run_experiment(cfg, desk_dataset)
    assert r1.gas_per_phase == r2.gas_per_phase
    assert r1.behavior_means == r2.behavior_means
    assert r1.gas_total == sum(r1.gas_per_phase.values())
    assert r1.gas_total == r1.ledger.gas.total
    assert r1.ledger.phase is Phase.SETTLED
    rows = r1.csv_rows()
    assert len(rows) == len(r1.gas_per_phase)
    assert all(row.count(",") == 10 for row in rows)
    # settle() runs no audit, so audit the settled round here; then
    # spot-check that rewards flowed to the behaviours in the right order
    assert r1.ledger.audit() == []
    assert r1.behavior_means[Behavior.TRUTHFUL] > r1.behavior_means[Behavior.ADVERSARIAL]


def test_run_experiment_rejects_small_dataset(desk_dataset):
    with pytest.raises(ValueError):
        run_experiment(ExperimentConfig(agents=51), desk_dataset)


@pytest.mark.parametrize("bad", [
    dict(mechanism="oa"), dict(mechanism="dg"), dict(peer_mode=None), dict(gas_table={}),
], ids=["mechanism-oa-string", "mechanism-dg-string", "peer-mode-none", "gas-table-dict"])
def test_run_experiment_rejects_bad_config_with_value_error(bad):
    with pytest.raises(ValueError, match="must be"):
        run_experiment(ExperimentConfig(agents=5, **bad))


def test_sweep_packing_shapes(desk_dataset):
    base = ExperimentConfig(agents=6, seed=2)
    reports = sweep_packing(base, desk_dataset, questions=[1, 3])
    assert len(reports) == 4
    gas = {r.config.config_id: r.gas_per_phase["commit"] + r.gas_per_phase["reveal"] for r in reports}
    assert gas["pack-off-q3"] > gas["pack-on-q3"]
    assert gas["pack-off-q3"] > gas["pack-off-q1"]


def test_sweep_mechanisms_and_peers(desk_dataset):
    base = ExperimentConfig(agents=10, seed=2, alpha=F(1, 2))
    ds = QoSDataset.skip_one(10, 50, seed=2)
    mechs = sweep_mechanisms(base, ds)
    assert set(mechs) == set(Mechanism)
    assert all(r.gas_per_phase["settle"] > 0 for r in mechs.values())

    peers = sweep_peers(ExperimentConfig(mechanism=Mechanism.DG, agents=10, seed=2), ds, ks=[1])
    assert set(peers) == {"all", "1"}
    assert isinstance(peers["1"].config.peer_mode, SampledPeers)
    assert peers["1"].gas_per_phase["settle"] < peers["all"].gas_per_phase["settle"]


def _counting(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that counts its calls."""
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_selection_seed_is_hashed_once_per_round_and_replay(monkeypatch):
    # every sampled cell derives its substream from the seed; the seed is
    # looked up once per pass over the cells, not once per cell, and the
    # sponge behind it runs once per seed value: keccak256 memoises it
    ds = QoSDataset.skip_one(12, 12, seed=5)
    seed = SelectionSeed(12, 34)
    cfg = ExperimentConfig(peer_mode=SampledPeers(3, seed), agents=12, seed=5)
    payload = (12).to_bytes(32, "big") + (34).to_bytes(32, "big")
    keccak._memo.clear()
    sponges = _counting(monkeypatch, keccak, "_sponge_256")
    lookups = _counting(monkeypatch, peer_selection, "keccak256")
    report = run_experiment(cfg, ds)
    assert [args[0] for args in sponges].count(payload) == 1
    assert 1 <= len(lookups) <= 3  # the config check, the kernel and the gas model
    sponges.clear()
    lookups.clear()
    Ledger.load(report.ledger.dump())  # a new SelectionSeed from the log
    assert [args[0] for args in sponges].count(payload) == 0
    assert 1 <= len(lookups) <= 3


# (config, dataset, commitments, gas total, SHA-256 of the event log and of
# the settlement CSV), the outputs recorded before the batch hash existed
LAYOUT_ROUNDS = {
    "packed": (
        ExperimentConfig(mechanism=Mechanism.PTSC, agents=30, seed=3), QoSDataset.synthetic(30, 50, seed=3),
        30, 6871828,
        "7047d2e89a133d78d797e5f22875ef6dd04017aff2e46b53e4ae44e9aa740688",
        "d773c44fa0177494587eaa9c08b3b30854f5ca9626d1b994a656d37b7930a517",
    ),
    "unpacked-past-the-memo": (
        ExperimentConfig(packed=False, agents=40, seed=4), QoSDataset.synthetic(40, 40, seed=4),
        1090, 94236670,
        "239907758e0a9898c3dcd0f2ca62e772523a998d8efab00abc1bdb63dbbf46b7",
        "9f8ecc4e35d24866f3d215f528b1989b6c2e976bd802394d83f15613b778b847",
    ),
}


@pytest.mark.parametrize("config, dataset, commitments, gas, log_sha, csv_sha",
                         LAYOUT_ROUNDS.values(), ids=LAYOUT_ROUNDS.keys())
def test_a_round_never_runs_the_sponge_on_a_commitment_layout(monkeypatch, config, dataset, commitments,
                                                              gas, log_sha, csv_sha):
    # the agents' batch hash fills the memo slice by slice; every commit and
    # reveal check finds its layout there, also past MEMO_SIZE commitments
    keccak._memo.clear()
    sponges = _counting(monkeypatch, keccak, "_sponge_256")
    report = run_experiment(config, dataset)
    assert [args[0] for args in sponges if len(args[0]) == cmt.LAYOUT_BYTES] == []
    assert len(report.ledger.commitments) == commitments
    assert report.gas_total == gas
    assert hashlib.sha256(report.ledger.dump().encode()).hexdigest() == log_sha
    assert hashlib.sha256(report.ledger.settlement.to_csv().encode()).hexdigest() == csv_sha


def test_the_large_layout_round_outgrows_the_memo():
    assert LAYOUT_ROUNDS["unpacked-past-the-memo"][2] > keccak.MEMO_SIZE


@pytest.mark.parametrize("mechanism", list(Mechanism))
def test_selection_seed_rounds_equal_its_seed64_rounds(mechanism):
    ds = QoSDataset.skip_one(12, 12, seed=5)
    reports = [
        run_experiment(ExperimentConfig(mechanism=mechanism, peer_mode=SampledPeers(3, s),
                                        agents=12, seed=5), ds)
        for s in (SelectionSeed(12, 34), SelectionSeed(12, 34).seed64())
    ]
    a, b = (r.reward_report.per_agent_reward for r in reports)
    assert a == b
    a, b = (r.ledger.gas.report_rows() for r in reports)
    assert a == b


def test_dg_settle_builds_pair_counts_once(monkeypatch):
    # the DG kernel builds it once per matrix, in the round and again in
    # its replay
    ds = QoSDataset.skip_one(12, 12, seed=5)
    builds = _counting(monkeypatch, mechanisms.PairCounts, "__init__")
    report = run_experiment(ExperimentConfig(mechanism=Mechanism.DG, agents=12, seed=5), ds)
    assert len(builds) == 1
    builds.clear()
    Ledger.load(report.ledger.dump())
    assert len(builds) == 1
