"""The twelve acceptance criteria, one test each.

Every test registers a PASS/FAIL line through `_verdict` before asserting,
so the terminal summary (see conftest) reports each criterion it reached
even on a red run.  Monte-Carlo checks use a 3-standard-error tolerance;
closed forms are compared as exact rationals.
"""

import random
from fractions import Fraction as F
from math import ceil, sqrt
from statistics import mean, stdev

import peerchain.commitment as cmt
import peerchain.incentives as inc
from peerchain.keccak import MEMO_SIZE, keccak256_many
from peerchain.ledger import Ledger, LedgerConfig
from peerchain.mechanisms import (
    ALL_PEERS,
    Mechanism,
    SampledPeers,
    compute_rewards,
    rewards_naive,
)
from peerchain.sim import (
    Behavior,
    ExperimentConfig,
    run_experiment,
    sweep_mechanisms,
    sweep_packing,
    sweep_peers,
)
from conftest import ACCEPTANCE_RESULTS, message_of, random_matrix, skip_one_matrix


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    ACCEPTANCE_RESULTS.append((name, bool(ok), detail))
    assert ok, f"{name}: {detail}"


# -- 1. capacity ------------------------------------------------------------------

def test_commitment_capacity():
    ok = cmt.KEY_BITS == 256 // 3 == 85 and cmt.MAX_ANSWERS == 85 // 2 == 42
    order43 = [f"q{j}" for j in range(43)]
    try:
        message_of([(q, 1) for q in order43], order43)
        ok = False
    except Exception as e:
        ok = ok and type(e).__name__ == "TooManyAnswers"

    rng = random.Random("capacity")
    trips = 10_000
    orders, answers, messages = [], [], []
    for _ in range(trips):
        order = [f"q{j}" for j in range(rng.randint(1, 42))]
        orders.append(order)
        answers.append({q: rng.randint(0, 1) for q in order if rng.random() < 0.6})
        messages.append(message_of(list(answers[-1].items()), order))
    # every message decodes back to its answers
    t, j, bits = cmt.decode_slots(messages, list(map(len, orders)))
    decoded = [{} for _ in messages]
    for message, slot, bit in zip(t.tolist(), j.tolist(), bits.tolist()):
        decoded[message][orders[message][slot]] = bit
    ok = ok and decoded == answers
    _verdict("capacity: 85/42 constants, 43rd rejected, round-trip",
             ok, f"{trips} random vectors")


# -- 2. commit-reveal integrity ---------------------------------------------------

def _prehashed(trials: list, layouts: list[list[bytes]]):
    """Yield ``trials`` in order.  Each run of trials whose ``layouts`` fit
    in the keccak memo is hashed first in one ``keccak256_many`` batch, so
    every commit and reveal check of those layouts is a memo hit."""
    start = 0
    while start < len(trials):
        end, size = start, 0
        while end < len(trials) and size + len(layouts[end]) <= MEMO_SIZE:
            size += len(layouts[end])
            end += 1
        end = max(end, start + 1)
        keccak256_many([m for run in layouts[start:end] for m in run])
        yield from trials[start:end]
        start = end


def test_commit_reveal_integrity():
    rng = random.Random("integrity")
    trials = 10_000
    drawn = []  # (slots, honest message, key, tampered message, tampered key)
    for _ in range(trials):
        order = [f"q{j}" for j in range(rng.randint(1, 42))]
        answers = [(q, rng.randint(0, 1)) for q in order]
        message = message_of(answers, order)
        key = rng.getrandbits(cmt.KEY_BITS)
        if rng.random() < 0.5:
            # flip one bit of the secret key
            drawn.append((len(order), message, key, message, key ^ (1 << rng.randrange(cmt.KEY_BITS))))
        else:
            # flip one answer bit of an answered slot
            j = rng.randrange(len(order))
            drawn.append((len(order), message, key, message ^ (1 << (2 * j + 1)), key))
    layouts = [[cmt.layout_bytes(message, key, slots), cmt.layout_bytes(bad_message, bad_key, slots)]
               for slots, message, key, bad_message, bad_key in drawn]
    honest_ok = tampered_rejected = 0
    for slots, message, key, bad_message, bad_key in _prehashed(drawn, layouts):
        com = cmt.commit(message, key, slots)
        honest_ok += cmt.verify_reveal(com, message, key, slots)
        tampered_rejected += not cmt.verify_reveal(com, bad_message, bad_key, slots)
    ok = honest_ok == trials and tampered_rejected == trials
    _verdict("commit-reveal integrity: all tampers rejected, honest accepted",
             ok, f"{trials} trials, {tampered_rejected} rejections")


# -- 3. oracle equivalence --------------------------------------------------------

def test_mechanism_oracle_equivalence():
    rng = random.Random("equivalence")
    checked = 0
    ok = True
    for i in range(1_050):
        mech = list(Mechanism)[i % 3]
        if mech is Mechanism.DG:
            matrix = skip_one_matrix(rng, rng.randint(3, 10))
        else:
            matrix = random_matrix(rng, rng.randint(2, 10), rng.randint(2, 10))
        alpha = F(rng.randint(1, 4), rng.randint(1, 4))
        fast = compute_rewards(matrix, mech, alpha)
        slow = rewards_naive(matrix, mech, alpha)
        if fast.per_agent_reward != slow.per_agent_reward:
            ok = False
            break
        checked += 1
    _verdict("oracle equivalence: optimized == naive, exact rationals",
             ok, f"{checked} random matrices up to 10x10")


# -- 4. sampled-peer unbiasedness -------------------------------------------------

def test_sampled_peer_unbiasedness():
    matrix = random_matrix(random.Random(7), 5, 5, p_answer=0.8)
    target = float(sum(compute_rewards(matrix, Mechanism.OA, peer_mode=ALL_PEERS).per_agent_reward.values()))
    seeds = 10_000
    totals = [
        float(sum(compute_rewards(matrix, Mechanism.OA, peer_mode=SampledPeers(1, s)).per_agent_reward.values()))
        for s in range(seeds)
    ]
    mu = mean(totals)
    se = stdev(totals) / sqrt(seeds)
    ok = abs(mu - target) <= 3 * se
    _verdict("sampled-peer unbiasedness: k=1 mean == all-peers within 3 SE",
             ok, f"mean {mu:.5f} vs {target:.5f}, se {se:.5f}, {seeds} seeds")


# -- 5. packing gas trend ---------------------------------------------------------

def test_packing_gas_steps(desk_dataset):
    from peerchain.sim import QoSDataset
    agents = 4
    dense = QoSDataset.synthetic(agents, 43, seed=0, p_miss=0.0)
    base = ExperimentConfig(agents=agents, seed=0)
    reports = {
        (r.config.packed, r.config.questions_per_agent): r
        for r in sweep_packing(base, dense, questions=range(1, 44))
    }
    # one commitment per 42 answers packed, one per answer unpacked
    ok = all(
        len(reports[(True, q)].ledger.commitments) == agents * ceil(q / 42)
        and len(reports[(False, q)].ledger.commitments) == agents * q
        for q in range(1, 44)
    )
    gas = {key: r.gas_per_phase["commit"] + r.gas_per_phase["reveal"] for key, r in reports.items()}
    packed_sim = [gas[(True, q)] for q in range(1, 44)]
    unpacked_sim = [gas[(False, q)] for q in range(1, 44)]
    ok = ok and len(set(packed_sim[:42])) == 1 and packed_sim[42] > packed_sim[41]
    ok = ok and all(a < b for a, b in zip(unpacked_sim, unpacked_sim[1:]))
    _verdict("packing: packed gas flat over 1-42, steps at 43; unpacked increasing",
             ok, f"packed {packed_sim[0]} -> {packed_sim[42]} at q=43")


# -- 6. mechanism gas ordering ------------------------------------------------------

def test_mechanism_gas_ordering(desk_dataset):
    by_mech = sweep_mechanisms(ExperimentConfig(agents=50, seed=0), desk_dataset)
    gas = {m: r.gas_per_phase["settle"] for m, r in by_mech.items()}
    ok = gas[Mechanism.DG] > gas[Mechanism.PTSC] and gas[Mechanism.DG] > gas[Mechanism.OA]
    _verdict("mechanisms: DG settlement gas above PTSC and OA on the 50x50 desk",
             ok, f"dg {gas[Mechanism.DG]}, ptsc {gas[Mechanism.PTSC]}, oa {gas[Mechanism.OA]}")


# -- 7. peer-sampling crossover -----------------------------------------------------

def test_peer_sampling_crossover(desk_dataset):
    base = ExperimentConfig(mechanism=Mechanism.DG, agents=50, seed=0)
    reports = sweep_peers(base, desk_dataset, ks=[1, 10, 25], sample_seed=1)
    gas = {k: r.gas_per_phase["settle"] for k, r in reports.items()}
    ok = gas["1"] < gas["all"] and any(
        gas[k] > gas["all"] for k in gas if k != "all"
    )
    _verdict("peer sampling: k=1 beats all-peers, large k overshoots",
             ok, f"k=1 {gas['1']}, all {gas['all']}, k=25 {gas['25']}")


# -- 8. behavior separation -------------------------------------------------------

def test_behavior_separation(desk_dataset):
    runs = 30
    ok = True
    details = []
    for mech in Mechanism:
        d_tr, d_ra = [], []
        for seed in range(runs):
            cfg = ExperimentConfig(mechanism=mech, agents=50, seed=seed, alpha=F(1, 2))
            means = run_experiment(cfg, desk_dataset).behavior_means
            d_tr.append(float(means[Behavior.TRUTHFUL] - means[Behavior.RANDOM]))
            d_ra.append(float(means[Behavior.RANDOM] - means[Behavior.ADVERSARIAL]))
        se_tr = stdev(d_tr) / sqrt(runs)
        se_ra = stdev(d_ra) / sqrt(runs)
        ok = ok and mean(d_tr) > 3 * se_tr and mean(d_ra) > -3 * se_ra
        details.append(f"{mech.value} T-R {mean(d_tr):+.3f} R-A {mean(d_ra):+.3f}")
    _verdict("behavior separation: truthful > random >= adversarial, 3 SE",
             ok, f"{runs} runs each; " + "; ".join(details))


# -- 9. truthfulness bound ----------------------------------------------------------

def test_alpha_bound_and_equilibrium():
    model = inc.BeliefModel.from_bump(F(19, 20), F(1, 100))
    bound = inc.alpha_bound(10, 1, model)
    ok = bound == F(323, 500) == F(34, 25) / (10 * F(4, 19))
    ok = ok and abs(float(bound) - 0.64600) < 5e-6

    scenario = inc.IncentiveScenario.from_parameters(
        n=10, c=F(1), alpha="auto", prior_1=F(19, 20), bump=F(1, 100))
    ok = ok and scenario.alpha == 2 * bound
    verdicts = []
    for dev in (inc.ALWAYS_0, inc.ALWAYS_1, inc.FLIP, inc.Deviation("random", 0.5)):
        est = inc.equilibrium_check(scenario, dev, rounds=10**6, master_seed=0)
        verdicts.append(est.verdict())
    ok = ok and all(v == "StrictlyPositive" for v in verdicts)
    _verdict("truthfulness: alpha_bound = 0.646c at n=10, deviations lose at 2x bound",
             ok, f"bound {bound}, verdicts {verdicts}")


# -- 10. payment cap ----------------------------------------------------------------

def test_payment_at_most_alpha():
    ok = True
    cells = 0
    min_slack = float("inf")
    for n in (5, 10, 25):
        for prior in (F(7, 10), F(9, 10), F(19, 20)):
            for bump in (F(1, 100), F(1, 20)):
                if prior + bump >= 1:
                    continue  # no generative world produces this posterior
                sc = inc.IncentiveScenario.from_parameters(
                    n=n, c=F(1), alpha="auto", prior_1=prior, bump=bump)
                est = inc.payment_mc(sc, rounds=100_000, master_seed=cells)
                min_slack = min(min_slack, (float(sc.alpha) - est.mean) / est.std_error)
                ok = ok and est.mean <= float(sc.alpha) + 3 * est.std_error
                cells += 1
    _verdict("payment cap: truthful PTSC payment per agent <= alpha (3 SE)",
             ok, f"{cells} (n, prior, bump) cells, tightest slack {min_slack:.1f} SE")


# -- 11. relative saving --------------------------------------------------------------

def test_relative_saving():
    ok = inc.max_saving(F(19, 20)) == F(399, 400)
    ok = ok and float(inc.max_saving(F(19, 20))) == 0.9975

    checked = 0
    for prior, bump in ((F(19, 20), F(1, 100)), (F(19, 20), F(1, 25))):
        model = inc.BeliefModel.from_bump(prior, bump)
        lo = inc.alpha_bound(10, 1, model)
        hi = inc.max_saving(prior)
        if lo >= hi:
            continue
        alpha = (lo + hi) / 2
        sc = inc.IncentiveScenario.from_parameters(
            n=10, c=F(1), alpha=alpha, prior_1=prior, bump=bump)
        target = inc.saving_lower_bound(sc)
        ok = ok and target == prior * (2 - prior) - alpha
        est = inc.saving_mc(sc, rounds=200_000, master_seed=0)
        ok = ok and est.mean >= float(target) - 3 * est.std_error
        checked += 1
    ok = ok and checked > 0
    _verdict("relative saving: max_saving(0.95) = 0.9975 exact, MC saving >= bound",
             ok, f"{checked} positive-bound scenarios")


# -- 12. ledger conservation ------------------------------------------------------

def _draw_round(rng: random.Random, mech: Mechanism):
    """A random round up to its commit phase, with every draw it takes:
    the matrix, the config, the budget, each batch's key and which reveals
    are skipped.  Returns (ledger, reveals, skips, budget, deposit)."""
    if mech is Mechanism.DG:
        matrix = skip_one_matrix(rng, rng.randint(3, 5))
    else:
        matrix = random_matrix(rng, rng.randint(2, 5), rng.randint(2, 6), p_answer=0.8)
    cfg = LedgerConfig(
        mechanism=mech,
        alpha=F(rng.randint(1, 3), rng.randint(1, 2)),
        batch_size=rng.choice((1, 7, 42)),
        optimized=rng.random() < 0.8,
    )
    ledger = Ledger(cfg)
    budget = rng.randint(1, 10**6)
    ledger.post_questions(matrix.questions, budget, rng.choice((0, 10**4)))
    active = [a for a in matrix.agents if matrix.answers_by_agent[a]]
    deposit = cfg.min_agent_deposit
    for a in active:
        ledger.select_questions(a, list(matrix.answers_by_agent[a]), deposit)
    ledger.tick(cfg.selection_blocks)

    reveals = []
    for a in active:
        row = matrix.answers_by_agent[a]
        for b, order in enumerate(ledger.agent_batches(a)):
            message = message_of([(q, row[q]) for q in order if q in row], order)
            reveals.append((a, b, message, rng.getrandbits(cmt.KEY_BITS), len(order)))
    # DG needs the full skip-one pattern to stay valid, so only OA and
    # PTSC rounds exercise the non-revealer path
    skips = [mech is not Mechanism.DG and rng.random() < 0.1 for _ in reveals]
    return ledger, reveals, skips, budget, deposit


def _play_round(ledger: Ledger, reveals, skips):
    for a, b, message, key, slots in reveals:
        ledger.submit_commitment(a, b, cmt.commit(message, key, slots))
    for (a, b, message, key, _slots), skipped in zip(reveals, skips):
        if not skipped:
            assert ledger.reveal(a, b, message, key)
    if any(skips):
        ledger.tick(ledger.config.reveal_blocks)
    return ledger.settle()


def test_ledger_conservation():
    rng = random.Random("conservation")
    rounds = 1_000
    negative_rounds = 0
    ok = True
    drawn = [_draw_round(rng, list(Mechanism)[i % 3]) for i in range(rounds)]
    layouts = [[cmt.layout_bytes(message, key, slots) for _a, _b, message, key, slots in reveals]
               for _ledger, reveals, _skips, _budget, _deposit in drawn]
    for ledger, reveals, skips, budget, deposit in _prehashed(drawn, layouts):
        report = _play_round(ledger, reveals, skips)
        if sum(report.transfers.values()) != 0:
            ok = False
            break
        if not all(0 <= row.deposit_returned <= deposit for row in report.rows):
            ok = False
            break
        if not (0 <= report.budget_paid <= budget):
            ok = False
            break
        if ledger.audit():
            ok = False
            break
        negative_rounds += report.penalties_collected > 0
    ok = ok and negative_rounds > 0
    _verdict("ledger conservation: zero-sum settlement over randomized rounds",
             ok, f"{rounds} rounds, {negative_rounds} with deposit-funded penalties")
