"""Packing layout, capacity limits, and commit/reveal binding."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from peerchain.commitment import (
    KEY_BITS,
    LAYOUT_BYTES,
    MAX_ANSWERS,
    MESSAGE_BITS,
    Commitment,
    PackedAnswerVector,
    SecretKey,
    answers_of,
    commit,
    decode,
    layout_bytes,
    pack,
    verify_reveal,
)
from peerchain.errors import DuplicateAnswer, TooManyAnswers, UnknownQuestion
from peerchain.keccak import keccak256


def test_capacity_constants_follow_from_digest_size():
    assert MESSAGE_BITS == 256 // 3 == 85
    assert KEY_BITS == 85
    assert MAX_ANSWERS == 85 // 2 == 42
    assert LAYOUT_BYTES == 22


def test_pack_small_example_layout():
    vec = pack([("qa", 1)], ["qa", "qb"])
    assert vec.message() == 0b11
    raw = layout_bytes(vec, SecretKey(1))
    # key bit 0 -> byte 0; message bits 85,86 -> byte 10 bits 5,6
    expected = bytes([1] + [0] * 9 + [0x60] + [0] * 11)
    assert raw == expected
    assert commit(vec, SecretKey(1)).digest == keccak256(expected)


def test_pack_rejects_43rd_answer():
    order = [f"q{i}" for i in range(43)]
    with pytest.raises(TooManyAnswers):
        pack([(q, 1) for q in order], order)
    with pytest.raises(TooManyAnswers):
        pack([], order)
    pack([(q, 0) for q in order[:42]], order[:42])  # 42 is fine


def test_pack_input_validation():
    with pytest.raises(UnknownQuestion):
        pack([("zz", 1)], ["qa"])
    with pytest.raises(DuplicateAnswer):
        pack([("qa", 1), ("qa", 0)], ["qa", "qb"])
    with pytest.raises(ValueError):
        pack([("qa", 2)], ["qa"])


def test_vector_validation():
    with pytest.raises(ValueError):
        PackedAnswerVector(0b10, ("qa",))  # unanswered slot with answer bit
    with pytest.raises(ValueError):
        PackedAnswerVector(0b1100, ("qa",))  # bits beyond the slots


def test_decode_rejects_malformed_messages():
    with pytest.raises(ValueError):
        decode(1 << MESSAGE_BITS, ["qa"])
    with pytest.raises(ValueError):
        decode(0b10, ["qa"])  # answer bit set on an unanswered slot
    with pytest.raises(ValueError):
        decode(0b11 | 1 << 84, ["qa"])  # a bit beyond the batch's slots


def test_roundtrip_random_vectors():
    rng = random.Random(2024)
    for _ in range(1000):
        n = rng.randint(1, MAX_ANSWERS)
        order = [f"q{i}" for i in range(n)]
        answered = [q for q in order if rng.random() < 0.8]
        answers = [(q, rng.randint(0, 1)) for q in answered]
        vec = pack(answers, order)
        back = decode(vec.message(), order)
        assert back == vec
        assert answers_of(back.message(), back.question_order) == dict(answers)


SLOT = st.sampled_from((0b00, 0b01, 0b11))  # unanswered, answered 0, answered 1


@st.composite
def order_and_message(draw):
    """An order of 0-42 questions and an int in [-1, 2**85]: often a valid
    message, often one with a single bit flipped, otherwise any int."""
    n = draw(st.integers(0, MAX_ANSWERS))
    slots = draw(st.lists(SLOT, min_size=n, max_size=n))
    valid = sum(slot << 2 * j for j, slot in enumerate(slots))
    message = draw(st.one_of(
        st.just(valid),
        st.integers(0, MESSAGE_BITS - 1).map(lambda bit: valid ^ 1 << bit),
        st.integers(-1, 1 << MESSAGE_BITS),
    ))
    return [f"q{i}" for i in range(n)], message


def test_decode_keeps_every_bit_or_refuses(tmp_path):
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(order_and_message())
    def check(case):
        order, message = case
        try:
            vec = decode(message, order)
        except ValueError:
            return
        assert vec.message() == message
        assert pack(list(answers_of(vec.message(), vec.question_order).items()), order) == vec

    # keep Hypothesis' constants cache out of the working tree
    set_hypothesis_home_dir(tmp_path)
    try:
        check()
    finally:
        set_hypothesis_home_dir(None)


def _answers_slot_by_slot(message, order):
    """The reference decode: slot j's answered flag at bit 2j, its answer at
    bit 2j+1; a slot whose flag is 0 is skipped."""
    answers = {}
    for j, q in enumerate(order):
        if (message >> 2 * j) & 1:
            answers[q] = (message >> (2 * j + 1)) & 1
    return answers


@st.composite
def order_and_any_message(draw):
    """An order of 0-42 questions and a message of its 2n slot bits, with
    bits above slot n half the time."""
    n = draw(st.integers(0, MAX_ANSWERS))
    message = draw(st.integers(0, 4**n - 1))
    high = draw(st.one_of(st.just(0), st.integers(1, 1 << MESSAGE_BITS)))
    return [f"q{i}" for i in range(n)], message | high << 2 * n


def test_answers_of_reads_each_slot_like_the_reference(tmp_path):
    @settings(derandomize=True, database=None, max_examples=500, deadline=None)
    @given(order_and_any_message())
    def check(case):
        order, message = case
        expected = _answers_slot_by_slot(message, order)
        assert answers_of(message, tuple(order)) == expected
        try:
            vec = decode(message, order)
        except ValueError:
            # decode refuses exactly the messages with bits above the slots
            # or an answer bit without its flag
            assert message >> 2 * len(order) or any(
                (message >> 2 * j) & 0b11 == 0b10 for j in range(len(order)))
            return
        assert vec.message() == message  # the vector holds the message answers_of read

    # keep Hypothesis' constants cache out of the working tree
    set_hypothesis_home_dir(tmp_path)
    try:
        check()
    finally:
        set_hypothesis_home_dir(None)


@pytest.mark.parametrize("n", range(5))
def test_answers_of_every_message_of_a_short_order(n):
    order = tuple(f"q{i}" for i in range(n))
    for message in range(4**n):
        for high in (0, 1, 0b1011 << 40):
            assert answers_of(message | high << 2 * n, order) == _answers_slot_by_slot(message, order)


def test_key_range_checked():
    SecretKey((1 << KEY_BITS) - 1)
    with pytest.raises(ValueError):
        SecretKey(1 << KEY_BITS)
    with pytest.raises(ValueError):
        SecretKey(-1)


def test_commit_verify_and_tampering():
    rng = random.Random(7)
    order = [f"q{i}" for i in range(10)]
    vec = pack([(q, rng.randint(0, 1)) for q in order], order)
    key = SecretKey.from_rng(rng)
    c = commit(vec, key)
    assert verify_reveal(c, vec, key)
    # any single-bit flip of the key is rejected
    for bit in range(KEY_BITS):
        assert not verify_reveal(c, vec, SecretKey(key.value ^ (1 << bit)))
    # any single answer-bit flip is rejected
    for j in range(len(order)):
        assert not verify_reveal(c, decode(vec.message() ^ 1 << (2 * j + 1), order), key)


def test_commitment_hex_roundtrip():
    c = commit(pack([("qa", 1)], ["qa"]), SecretKey(5))
    assert Commitment.from_hex(c.hex()) == c
    with pytest.raises(ValueError):
        Commitment(b"\x00" * 31)
