"""Answer packing and hash commitments.

A 256-bit Keccak commitment binds a message of at most 85 bits (one third
of the digest size), which at 2 bits per answer holds 42 answers.  The two
bits are: "was the question answered" and "the answer itself".  One
commitment therefore covers a whole batch of an agent's answers; rounds
with more than 42 selected questions use several batches, each under an
independent secret key.

A packed vector is its message, one int.  For a batch of n questions only
the low 2n bits may be set, and an answer bit only with its answered bit;
``decode`` refuses any other int, so a reveal opens to exactly the message
that was hashed or to nothing.

Canonical byte layout (22 bytes, 176 bits, bit i = bit i%8 of byte i//8):

    bits 0..84    secret key S (85 random bits)
    bits 85..169  message m; slot j holds its answered flag at bit 85+2j
                  and the answer bit at 86+2j
    bits 170..175 zero padding

The digest is keccak256 over those 22 bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DuplicateAnswer, TooManyAnswers, UnknownQuestion, require_ints
from .keccak import keccak256

DIGEST_BITS = 256
MESSAGE_BITS = DIGEST_BITS // 3          # 85
KEY_BITS = MESSAGE_BITS                  # 85
MAX_ANSWERS = MESSAGE_BITS // 2          # 42
LAYOUT_BYTES = 22                        # ceil((85 + 85 + 6 padding) / 8)
ANSWERED = ((1 << 2 * MAX_ANSWERS) - 1) // 3  # bits 0, 2, ..., 82: the answered flags


@dataclass(frozen=True)
class SecretKey:
    """An 85-bit blinding key, generated off-ledger."""

    value: int

    def __post_init__(self):
        require_ints(value=self.value)
        if not 0 <= self.value < (1 << KEY_BITS):
            raise ValueError(f"secret key must fit in {KEY_BITS} bits")

    @classmethod
    def from_rng(cls, rng) -> "SecretKey":
        """Deterministic key for simulations; ``rng`` needs ``getrandbits``."""
        return cls(rng.getrandbits(KEY_BITS))


@dataclass(frozen=True)
class Commitment:
    digest: bytes

    def __post_init__(self):
        if not isinstance(self.digest, bytes) or len(self.digest) != DIGEST_BITS // 8:
            raise ValueError("commitment digest must be 32 bytes")

    def hex(self) -> str:
        return self.digest.hex()

    @classmethod
    def from_hex(cls, s: str) -> "Commitment":
        return cls(bytes.fromhex(s))


@dataclass(frozen=True)
class PackedAnswerVector:
    """One batch's answers as its message m: slot j's bits 2j and 2j+1.

    ``bits`` is the message itself; no other form is kept.  It must fit in
    the 2n slot bits of its n-question order, and no answer bit may be set
    without its answered bit, so ``decode`` and ``message`` are inverses.
    """

    bits: int
    question_order: tuple[str, ...]

    def __post_init__(self):
        require_ints(bits=self.bits)
        n = len(self.question_order)
        if n > MAX_ANSWERS:
            raise TooManyAnswers(f"{n} slots exceed the {MAX_ANSWERS}-answer capacity")
        if not 0 <= self.bits < 1 << 2 * n:
            raise ValueError(f"message has bits beyond its {n} slots")
        if self.bits >> 1 & ~self.bits & ANSWERED:
            raise ValueError("unanswered slots must carry answer bit 0")

    def answers(self) -> dict[str, int]:
        """Mapping question id -> answer bit for the answered slots."""
        m = self.bits
        return {q: m >> 2 * j + 1 & 1 for j, q in enumerate(self.question_order) if m >> 2 * j & 1}

    def message(self) -> int:
        """The packed message m as an integer of at most 85 bits."""
        return self.bits


def pack(answers: list[tuple[str, int]], question_order: list[str] | tuple[str, ...]) -> PackedAnswerVector:
    """Pack (question id, bit) pairs into slots following ``question_order``.

    Questions absent from ``answers`` stay unanswered (both bits 0).  Raises
    TooManyAnswers past the 42-slot capacity and UnknownQuestion for ids
    outside the order.
    """
    order = tuple(question_order)
    if len(answers) > MAX_ANSWERS or len(order) > MAX_ANSWERS:
        raise TooManyAnswers(
            f"at most {MAX_ANSWERS} answers fit in one commitment "
            f"(got {max(len(answers), len(order))})"
        )
    index = {q: j for j, q in enumerate(order)}
    m = 0
    for q, bit in answers:
        if q not in index:
            raise UnknownQuestion(f"question {q!r} not in the commitment's question order")
        shift = 2 * index[q]
        if m >> shift & 1:
            raise DuplicateAnswer(f"question {q!r} answered twice")
        if bit not in (0, 1):
            raise ValueError("answers must be 0 or 1")
        m |= (0b11 if bit else 0b01) << shift
    return PackedAnswerVector(m, order)


def decode(message: int, question_order: list[str] | tuple[str, ...]) -> PackedAnswerVector:
    """The vector whose message is ``message``; ValueError if none is."""
    return PackedAnswerVector(message, tuple(question_order))


def layout_bytes(v: PackedAnswerVector, s: SecretKey) -> bytes:
    """Canonical 22-byte layout hashed by ``commit`` (key low, message high)."""
    if not (isinstance(v, PackedAnswerVector) and isinstance(s, SecretKey)):
        raise ValueError(
            f"a layout needs a PackedAnswerVector and a SecretKey, got {type(v).__name__} and {type(s).__name__}"
        )
    return (s.value | (v.message() << KEY_BITS)).to_bytes(LAYOUT_BYTES, "little")


def commit(v: PackedAnswerVector, s: SecretKey) -> Commitment:
    """Keccak-256 commitment over the canonical layout of (S, m)."""
    return Commitment(keccak256(layout_bytes(v, s)))


def verify_reveal(c: Commitment, v: PackedAnswerVector, s: SecretKey) -> bool:
    """True iff the revealed (answers, key) reproduce the commitment."""
    if not isinstance(c, Commitment):
        raise ValueError(f"a reveal is checked against a Commitment, got {type(c).__name__}")
    return commit(v, s).digest == c.digest
