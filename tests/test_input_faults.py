"""Bad input ends in a ValueError or a PeerchainError at construction, never
in a TypeError, AttributeError, OverflowError or ZeroDivisionError, and never
in a later step that accepted it."""

import json
import sys
import tempfile
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peerchain import cli, commitment as cmt, sim
from peerchain import incentives as inc
from peerchain.errors import DegeneratePrior, NonPositiveBeta, PeerchainError, TooManyAnswers
from peerchain.ledger import Ledger, LedgerConfig, Phase
from peerchain.peer_selection import SelectionSeed

from conftest import message_of

BELIEFS = inc.BeliefModel(F(19, 20), F(24, 25))
COMMITMENT = cmt.commit(message_of([("q", 1)], ("q",)), 1, 1)

FAULTS = {
    # incentive scenarios: every number goes through exact_number
    "c-inf": (lambda: inc.IncentiveScenario.from_parameters(10, float("inf"), 1, "19/20", "1/100"), ValueError),
    "c-bool": (lambda: inc.IncentiveScenario.from_parameters(10, True, 1, "19/20", "1/100"), ValueError),
    "bump-1/0": (lambda: inc.IncentiveScenario.from_parameters(10, 1, 1, "19/20", "1/0"), ValueError),
    "prior-none": (lambda: inc.IncentiveScenario.from_parameters(10, 1, 1, None, "1/100"), ValueError),
    "scenario-c-string-inf": (lambda: inc.IncentiveScenario(10, "inf", 1, BELIEFS), ValueError),
    "scenario-alpha-auto": (lambda: inc.IncentiveScenario(10, 1, "auto", BELIEFS), ValueError),
    "scenario-beliefs-none": (lambda: inc.IncentiveScenario(10, 1, 1, None), ValueError),
    "exact-number-bool": (lambda: inc.exact_number(True), ValueError),
    "beliefs-bool": (lambda: inc.BeliefModel(True, F(1, 2)), ValueError),
    "beliefs-none": (lambda: inc.BeliefModel(F(1, 2), None), ValueError),
    "beliefs-prior-0": (lambda: inc.BeliefModel(F(0), F(1, 2)), DegeneratePrior),
    "beliefs-below-prior": (lambda: inc.BeliefModel(F(1, 2), F(2, 5)), NonPositiveBeta),
    "from-bump-bump-inf": (lambda: inc.BeliefModel.from_bump("1/2", float("inf")), ValueError),
    "alpha-bound-c-inf": (lambda: inc.alpha_bound(10, float("inf"), BELIEFS), ValueError),
    "alpha-bound-c-none": (lambda: inc.alpha_bound(10, None, BELIEFS), ValueError),
    "max-saving-none": (lambda: inc.max_saving(None), ValueError),
    # commitments
    "commit-key-float": (lambda: cmt.commit(0b11, 1.5, 1), ValueError),
    "commit-key-bool": (lambda: cmt.commit(0b11, True, 1), ValueError),
    "message-float": (lambda: cmt.require_message(1.0, 1), ValueError),
    "message-bool": (lambda: cmt.require_message(True, 1), ValueError),
    "commitment-str": (lambda: cmt.Commitment("x" * 32), ValueError),
    "commit-message-none": (lambda: cmt.commit(None, 1, 1), ValueError),
    "commit-slots-none": (lambda: cmt.commit(0b11, 1, None), ValueError),
    "layout-key-str": (lambda: cmt.layout_bytes(0b11, "1", 1), ValueError),
    "layout-slots-43": (lambda: cmt.layout_bytes(0, 1, 43), TooManyAnswers),
    "verify-commitment-none": (lambda: cmt.verify_reveal(None, 0b11, 1, 1), ValueError),
    "verify-commitment-digest": (lambda: cmt.verify_reveal(COMMITMENT.digest, 0b11, 1, 1), ValueError),
    "verify-message-bytes": (lambda: cmt.verify_reveal(COMMITMENT, b"\x03", 1, 1), ValueError),
    "verify-message-float": (lambda: cmt.verify_reveal(COMMITMENT, 3.0, 1, 1), ValueError),
    "verify-key-bool": (lambda: cmt.verify_reveal(COMMITMENT, 0b11, True, 1), ValueError),
    "verify-slots-float": (lambda: cmt.verify_reveal(COMMITMENT, 0b11, 1, 1.0), ValueError),
    "verify-slots-negative": (lambda: cmt.verify_reveal(COMMITMENT, 0, 1, -1), ValueError),
    # peer selection seeds: two uint256 words
    "seed-timestamp-float": (lambda: SelectionSeed(1.5, 2), ValueError),
    "seed-timestamp-2**256": (lambda: SelectionSeed(2**256, 1), ValueError),
    "seed-timestamp-bool": (lambda: SelectionSeed(True, 1), ValueError),
    "seed-difficulty-none": (lambda: SelectionSeed(1, None), ValueError),
    # experiments
    "agents-float": (lambda: sim.ExperimentConfig(agents=2.5), ValueError),
    "agents-bool": (lambda: sim.ExperimentConfig(agents=True), ValueError),
    "questions-float": (lambda: sim.ExperimentConfig(questions_per_agent=2.5), ValueError),
    "seed-float": (lambda: sim.ExperimentConfig(seed=1.5), ValueError),
    "packed-str": (lambda: sim.ExperimentConfig(packed="no"), ValueError),
    "optimized-str": (lambda: sim.ExperimentConfig(optimized="no"), ValueError),
    "population-floats": (lambda: sim.AgentPopulation(0.5, 0.25, 0.25), ValueError),
    "population-bool": (lambda: sim.AgentPopulation(True, F(0), F(0)), ValueError),
}


@pytest.mark.parametrize("build, error", FAULTS.values(), ids=FAULTS.keys())
def test_every_input_fault_raises_a_value_error_or_its_domain_error(build, error):
    with pytest.raises(error):
        build()


HUGE = 10**5000  # more digits than Python writes as text by default


def _ledger_in(phase: Phase) -> Ledger:
    """A ledger in ``phase``: question q posted, and agent A's one batch
    committed (which opens the reveal phase) when ``phase`` is REVEAL."""
    ledger = Ledger(LedgerConfig())
    if phase is not Phase.POSTING:
        ledger.post_questions(("q",), budget=10)
    if phase is Phase.REVEAL:
        ledger.select_questions("A", ("q",))
        ledger.tick(ledger.config.selection_blocks)
        ledger.submit_commitment("A", 0, COMMITMENT)
    return ledger


@pytest.mark.parametrize("phase, event, act", [
    (Phase.POSTING, "tick", lambda ledger: ledger.tick(HUGE)),
    (Phase.POSTING, "post", lambda ledger: ledger.post_questions(("q",), budget=HUGE)),
    (Phase.POSTING, "post", lambda ledger: ledger.post_questions(("q",), 10, requester_deposit=HUGE)),
    (Phase.SELECTION, "select", lambda ledger: ledger.select_questions("A", ("q",), deposit=HUGE)),
    (Phase.REVEAL, "reveal", lambda ledger: ledger.reveal("A", 0, HUGE, 1)),
    (Phase.REVEAL, "reveal", lambda ledger: ledger.reveal("A", 0, 0b11, HUGE)),
], ids=["tick-blocks", "post-budget", "post-deposit", "select-deposit", "reveal-message", "reveal-key"])
def test_an_int_the_event_log_cannot_write_is_refused_by_name_and_changes_nothing(phase, event, act):
    ledger = _ledger_in(phase)
    before = (ledger.phase, ledger.block, list(ledger.events), ledger.gas.report_rows(), list(ledger.notes))
    limit = sys.get_int_max_str_digits()
    with pytest.raises(ValueError, match=f"^{event} event: an int has more than {limit} digits, which the event log"):
        act(ledger)
    assert (ledger.phase, ledger.block, ledger.events, ledger.gas.report_rows(), ledger.notes) == before
    assert not ledger.accepted and not ledger.discarded


def test_a_genesis_int_the_event_log_cannot_write_is_refused_by_name():
    with pytest.raises(ValueError, match=f"^genesis event: an int has more than {sys.get_int_max_str_digits()} digits"):
        Ledger(LedgerConfig(scale=HUGE))


@pytest.mark.parametrize("prior, bump, error", [
    (1, 0, DegeneratePrior),
    (0, "1/2", DegeneratePrior),
    ("1/2", "-1/10", NonPositiveBeta),
], ids=["prior-1", "prior-0", "posterior-below-prior"])
def test_a_belief_fault_raises_one_error_whatever_the_alpha_form(prior, bump, error):
    for alpha in ("auto", "auto*3", 1, "1/2"):
        with pytest.raises(error):
            inc.IncentiveScenario.from_parameters(10, 1, alpha, prior, bump)


def test_every_form_of_a_number_reads_as_the_same_rational():
    assert inc.IncentiveScenario.from_parameters(10, 0.1, 0.1, 0.95, 0.01) == \
        inc.IncentiveScenario.from_parameters(10, "1/10", "1/10", "19/20", "1/100")
    sc = inc.IncentiveScenario.from_parameters(10, 0.1, 0.1, 0.95, 0.01)
    assert (sc.c, sc.alpha, sc.beliefs) == (F(1, 10), F(1, 10), inc.BeliefModel(F(19, 20), F(24, 25)))
    beliefs = inc.BeliefModel(0.5, 0.6)
    assert (beliefs.prior_1, beliefs.post_1_given_1) == (F(1, 2), F(3, 5))
    assert all(type(v) is F for v in (sc.c, sc.alpha, beliefs.prior_1, beliefs.post_1_given_1))


NUMBERS = st.one_of(
    st.integers(-3, 1200),
    st.integers(),
    st.floats(),  # nan and +-inf included
    st.fractions().map(str),
    st.decimals(allow_nan=True, allow_infinity=True).map(str),
    st.integers(-6000, 6000).map(lambda e: f"1e{e}"),
    st.sampled_from(["0.95", "19/20", "1/100", "0.01", "1/0", "", "x", "auto", "auto*3", "auto*-1"]),
    st.none(),
    st.booleans(),
)


def mostly(usable):
    """A usable value four times in five, else any value a JSON scenario can hold."""
    return st.integers(0, 4).flatmap(lambda k: NUMBERS if k == 0 else usable)


def number_forms(lo, hi):
    return st.one_of(st.floats(lo, hi), st.fractions(F(lo), F(hi)).map(str),
                     st.decimals(str(lo), str(hi), places=4).map(str))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(n=mostly(st.integers(2, 60)),
       c=mostly(number_forms(0.01, 10)),
       alpha=mostly(st.one_of(st.sampled_from(["auto", "auto*3", "auto*1/2"]), number_forms(0, 10))),
       prior=mostly(number_forms(0.05, 0.95)),
       bump=mostly(number_forms(0, 0.04)))
def test_scenarios_from_any_json_value_build_or_raise_a_value_or_domain_error(n, c, alpha, prior, bump):
    """`from_parameters` and `peerchain incentives` agree: a scenario that
    raises a PeerchainError exits 1, one that raises a ValueError exits 2."""
    try:
        inc.IncentiveScenario.from_parameters(n, c, alpha, prior, bump)
        expected = (0, 1, 2)  # the Monte-Carlo run may still refuse alpha or overflow
    except PeerchainError:
        expected = (1,)
    except ValueError:
        expected = (2,)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.json"
        path.write_text(json.dumps({"n": n, "c": c, "alpha": alpha, "prior": prior, "bump": bump}))
        code = cli.main(["incentives", "--scenario", str(path), "--rounds", "1", "--out", str(Path(tmp) / "o")])
    assert code in expected
