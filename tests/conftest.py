"""Shared fixtures and the acceptance-summary hook."""

import random
from fractions import Fraction

import pytest

from peerchain import peer_selection
from peerchain.mechanisms import AnswerMatrix
from peerchain.sim import QoSDataset, assert_dg_valid, binarize

# (alpha, message) pairs that the reward paths and LedgerConfig all refuse
BAD_ALPHAS = [
    ("1/2", "alpha must be an int or Fraction"),
    (0.1, "alpha must be an int or Fraction"),
    (None, "alpha must be an int or Fraction"),
    (True, "alpha must be an int or Fraction"),
    (0, "alpha must be positive"),
    (-1, "alpha must be positive"),
]

# (name, passed, detail) triples collected by tests/test_acceptance.py
ACCEPTANCE_RESULTS: list[tuple[str, bool, str]] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, ok, detail in ACCEPTANCE_RESULTS:
        status = "PASS" if ok else "FAIL"
        line = f"{status}  {name}"
        if detail:
            line += f"  ({detail})"
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def desk_dataset() -> QoSDataset:
    """The canonical 50x50 desk-scale dataset (synthetic, seed 11)."""
    return QoSDataset.synthetic(50, 50, seed=11)


@pytest.fixture(scope="session")
def desk_truth(desk_dataset) -> AnswerMatrix:
    truth = binarize(desk_dataset)
    # regression pin: this exact matrix backs several frozen gas numbers
    assert truth.total_answers == 1739
    assert_dg_valid(truth)
    return truth


def random_matrix(rng: random.Random, agents: int, questions: int,
                  p_answer: float = 0.7) -> AnswerMatrix:
    """Random sparse matrix; at least one answer guaranteed."""
    names_a = tuple(f"a{i}" for i in range(agents))
    names_q = tuple(f"q{j}" for j in range(questions))
    cells = {}
    for a in names_a:
        for q in names_q:
            if rng.random() < p_answer:
                cells[(a, q)] = rng.randint(0, 1)
    if not cells:
        cells[(names_a[0], names_q[0])] = 1
    return AnswerMatrix(names_a, names_q, cells)


def skip_one_matrix(rng: random.Random, n: int) -> AnswerMatrix:
    """Agent i answers every question except q_i: valid for DG at any n."""
    names_a = tuple(f"a{i}" for i in range(n))
    names_q = tuple(f"q{j}" for j in range(n))
    cells = {
        (names_a[i], names_q[j]): rng.randint(0, 1)
        for i in range(n) for j in range(n) if i != j
    }
    return AnswerMatrix(names_a, names_q, cells)


def frac(a, b=1) -> Fraction:
    return Fraction(a, b)


def count_draws(monkeypatch) -> tuple[list, list]:
    """Record every draw the sampler computes instead of finding it in its
    memo: the (size, k, state) keys of the scalar ``_draw_positions`` calls,
    and those of the rows that batches draw with ``_draw_rows``."""
    scalar, batched = [], []
    draw_one, draw_rows = peer_selection._draw_positions, peer_selection._draw_rows

    def counted_one(*key):
        scalar.append(key)
        return draw_one(*key)

    def counted_rows(sizes, ks, states):
        batched.extend(zip(sizes.tolist(), ks.tolist(), states.tolist()))
        return draw_rows(sizes, ks, states)

    monkeypatch.setattr(peer_selection, "_draw_positions", counted_one)
    monkeypatch.setattr(peer_selection, "_draw_rows", counted_rows)
    return scalar, batched
