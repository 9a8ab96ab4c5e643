"""Domain errors shared across the protocol modules.

Every error the CLI maps to exit code 1 derives from ``PeerchainError``.
``require_ints`` is the one check that a count, index or seed is an int,
and ``require_int_arrays`` the one check of a set of entry arrays.
"""

from __future__ import annotations

import numpy as np


def require_ints(**values: object) -> None:
    """Raise ValueError for the first value that is not an int (a bool is not)."""
    for name, v in values.items():
        if isinstance(v, bool) or not isinstance(v, int):
            raise ValueError(f"{name} must be an int, got {v!r}")


def require_int_arrays(**entries: np.typing.ArrayLike) -> list[np.ndarray]:
    """The entries as arrays, in the order given; ValueError for the first
    that is not a 1-D int array as long as the first (an empty list is
    float64, so it passes as long as it is empty)."""
    given = [np.asarray(e) for e in entries.values()]
    for name, e in zip(entries, given):
        if e.ndim != 1 or e.size and e.dtype.kind not in "biu" or e.size != given[0].size:
            raise ValueError(f"want equal-length 1-D int arrays; {name} is {e.dtype} of shape {e.shape}")
    return given


class PeerchainError(Exception):
    """Base class for all protocol domain errors."""


# -- reward mechanisms ------------------------------------------------------

class EmptyMatrix(PeerchainError):
    """No answers exist in the matrix."""


class NoNonCommonQuestions(PeerchainError):
    """A used peer pair lacks exclusive questions on at least one side."""

    def __init__(self, agent: str, peer: str):
        super().__init__(f"agents {agent!r} and {peer!r} have no usable non-common questions")
        self.agent = agent
        self.peer = peer


# -- commitments ------------------------------------------------------------

class TooManyAnswers(PeerchainError):
    """More answers than one 256-bit commitment can bind (42)."""


class UnknownQuestion(PeerchainError):
    """Question id not present in the relevant question set."""


class DuplicateAnswer(PeerchainError):
    """Two answers supplied for the same question."""


# -- ledger state machine ---------------------------------------------------

class WrongPhase(PeerchainError):
    """Operation attempted outside its allowed protocol phase."""


class ZeroBudget(PeerchainError):
    """Question posting requires a positive budget."""


class InsufficientDeposit(PeerchainError):
    """Agent deposit below the configured minimum for the mechanism."""


class DuplicateCommitment(PeerchainError):
    """A commitment already exists for this (agent, batch)."""


class UnregisteredAgent(PeerchainError):
    """Agent never selected questions in this round."""


class NoCommitment(PeerchainError):
    """Reveal without a matching commitment on record."""


class ReplayDivergence(PeerchainError):
    """A replayed event log line differs from the line it was rebuilt from."""


# -- peer selection ---------------------------------------------------------

class KTooLarge(PeerchainError):
    """Requested more peers than candidates available."""


# -- gas accounting ---------------------------------------------------------

class UnknownOpKind(PeerchainError):
    """Op kind missing from the gas table."""


# -- incentive analysis -----------------------------------------------------

class DegeneratePrior(PeerchainError):
    """A belief prior of 0 or 1 (priors must be fully mixed)."""


class NonPositiveBeta(PeerchainError):
    """Belief correlation beta <= 0; the scaling bound is undefined."""


class AlphaTooSmall(PeerchainError):
    """Scaling constant at or below the truthfulness bound."""


class NoSolution(PeerchainError):
    """World calibration constraints are infeasible."""


# -- datasets ---------------------------------------------------------------

class EmptyDataset(PeerchainError):
    """Dataset has no rows or columns."""
