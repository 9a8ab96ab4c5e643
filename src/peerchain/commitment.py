"""Answer packing and hash commitments.

A 256-bit Keccak commitment binds a message of at most 85 bits (one third
of the digest size), which at 2 bits per answer holds 42 answers.  The two
bits are: "was the question answered" and "the answer itself".  One
commitment therefore covers a whole batch of an agent's answers; rounds
with more than 42 selected questions use several batches, each under an
independent secret key.

An opening is two ints, the message and the key, from the agent's commit
to the auditor's check.  For a batch of n questions only the low 2n bits
of the message may be set, and an answer bit only with its answered bit
(`require_message`); the key has at most 85 bits.  ``layout_bytes`` is the
one checked layout: it applies the slot rule and the key range and builds
the 22 bytes below.  Its two users, ``commit`` and ``verify_reveal``, each
hash it with one ``keccak256`` call, so a reveal opens to exactly the
message that was hashed or to nothing.  ``encode_slots`` is the one slot
encoder and ``decode_slots`` its inverse, the one slot decoder: each
handles every message of a round in one numpy pass.

Canonical byte layout (22 bytes, 176 bits, bit i = bit i%8 of byte i//8):

    bits 0..84    secret key S (85 random bits)
    bits 85..169  message m; slot j holds its answered flag at bit 85+2j
                  and the answer bit at 86+2j
    bits 170..175 zero padding

The digest is keccak256 over those 22 bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DuplicateAnswer, TooManyAnswers, require_int_arrays, require_ints
from .keccak import keccak256

DIGEST_BITS = 256
MESSAGE_BITS = DIGEST_BITS // 3          # 85
KEY_BITS = MESSAGE_BITS                  # 85
MAX_ANSWERS = MESSAGE_BITS // 2          # 42
LAYOUT_BYTES = 22                        # ceil((85 + 85 + 6 padding) / 8)
ANSWERED = ((1 << 2 * MAX_ANSWERS) - 1) // 3  # bits 0, 2, ..., 82: the answered flags
_MESSAGE_BYTES = 11                      # ceil(85 / 8): one message, little-endian


def require_message(message: int, slots: int) -> None:
    """The slot rule: an int within the 2n slot bits of an n-slot batch, n at
    most 42, with no answer bit set without its answered bit."""
    if type(message) is not int or type(slots) is not int:
        require_ints(message=message, slots=slots)  # raises its error for a non-int
    if slots < 0:
        raise ValueError(f"slots must be a nonnegative slot count, got {slots}")
    if slots > MAX_ANSWERS:
        raise TooManyAnswers(f"{slots} slots exceed the {MAX_ANSWERS}-answer capacity")
    if not 0 <= message < 1 << 2 * slots:
        raise ValueError(f"message has bits beyond its {slots} slots")
    if message >> 1 & ~message & ANSWERED:
        raise ValueError("unanswered slots must carry answer bit 0")


def _require_key(key: int) -> None:
    """The key range: an int of at most 85 bits."""
    if type(key) is not int:
        require_ints(key=key)  # raises its error for a non-int
    if not 0 <= key < 1 << KEY_BITS:
        raise ValueError(f"secret key must fit in {KEY_BITS} bits")


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


def decode_slots(messages: list[int], slots: list[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every answered slot of every message, in message then slot order, as
    three int64 arrays: the message's index t, the slot j and its answer bit.

    Message t is read over its first ``slots[t]`` slots (slot j: answered
    flag at bit 2j, answer bit at 2j+1); bits above them are ignored.  Each
    message is an int in [0, 2**85), so all are unpacked in one numpy pass.
    """
    raw = b"".join(m.to_bytes(_MESSAGE_BYTES, "little") for m in messages)
    bits = np.unpackbits(np.frombuffer(raw, np.uint8), bitorder="little").reshape(len(messages), 8 * _MESSAGE_BYTES)
    flags = bits[:, 0:2 * MAX_ANSWERS:2] & (np.arange(MAX_ANSWERS) < np.array(slots, np.int64)[:, None])
    t, j = np.nonzero(flags)
    return t, j, bits[t, 2 * j + 1].astype(np.int64)


def encode_slots(t: np.typing.ArrayLike, j: np.typing.ArrayLike, bits: np.typing.ArrayLike,
                 count: int) -> list[int]:
    """The inverse of `decode_slots`: ``count`` messages in which message
    ``t[e]`` holds the answer bit ``bits[e]`` in slot ``j[e]``, for every
    entry e of the three equal-length int arrays.  Every other bit is 0.  All
    messages are packed in one numpy pass.

    Raises ValueError for inputs that are not equal-length 1-D int arrays, a
    message index outside 0..count-1, a negative slot or a bit outside
    {0, 1}; TooManyAnswers for a slot of 42 or more; DuplicateAnswer for a
    (t, j) pair given twice.
    """
    if type(count) is not int:
        require_ints(count=count)  # raises its error for a non-int
    if count < 0:
        raise ValueError(f"message count must be nonnegative, got {count}")
    given = require_int_arrays(t=t, j=j, bits=bits)
    if given[0].size:  # compared in their own dtypes, so no cast can wrap a value into range
        t, j, bits = given
        if t.min() < 0 or t.max() >= count:
            raise ValueError(f"message indices must be in 0..{count - 1}")
        if j.min() < 0:
            raise ValueError("slots must be nonnegative")
        if j.max() >= MAX_ANSWERS:
            raise TooManyAnswers(f"slot {j.max()} is beyond the {MAX_ANSWERS}-answer capacity")
        if bits.min() < 0 or bits.max() > 1:
            raise ValueError("answers must be 0 or 1")
    t, j, bits = np.array(given, dtype=np.int64)
    grid = np.zeros((count, 8 * _MESSAGE_BYTES), np.uint8)
    grid[t, 2 * j] = 1
    if np.count_nonzero(grid) != t.size:
        taken = set()
        for pair in zip(t.tolist(), j.tolist()):
            if pair in taken:
                raise DuplicateAnswer(f"slot {pair[1]} of message {pair[0]} answered twice")
            taken.add(pair)
    grid[t, 2 * j + 1] = bits
    raw = np.packbits(grid, axis=1, bitorder="little").tobytes()
    return [int.from_bytes(raw[i:i + _MESSAGE_BYTES], "little") for i in range(0, len(raw), _MESSAGE_BYTES)]


def layout_bytes(message: int, key: int, slots: int) -> bytes:
    """The canonical 22 bytes of a ``slots``-question batch's opening: key in
    bits 0..84, message from bit 85.

    Raises as `require_message` for a message the slot rule refuses
    (ValueError, or TooManyAnswers past 42 slots), then ValueError for a
    key that is not an int of at most 85 bits.
    """
    require_message(message, slots)
    _require_key(key)
    return (key | message << KEY_BITS).to_bytes(LAYOUT_BYTES, "little")


def commit(message: int, key: int, slots: int) -> Commitment:
    """Keccak-256 commitment over the checked layout of (message, key)."""
    return Commitment(keccak256(layout_bytes(message, key, slots)))


def verify_reveal(c: Commitment, message: int, key: int, slots: int) -> bool:
    """True iff the revealed (message, key) of a ``slots``-question batch reproduce ``c``.

    Raises as `layout_bytes` does for a message or key it refuses, and
    ValueError for a ``c`` that is not a Commitment.
    """
    layout = layout_bytes(message, key, slots)
    if not isinstance(c, Commitment):
        raise ValueError(f"a reveal is checked against a Commitment, got {type(c).__name__}")
    return keccak256(layout) == c.digest
