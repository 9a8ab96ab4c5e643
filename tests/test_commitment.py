"""Packing layout, capacity limits, and commit/reveal binding."""

import random

import numpy as np
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
    commit,
    decode_slots,
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


def test_vector_rejects_malformed_messages():
    with pytest.raises(ValueError):
        PackedAnswerVector(1 << MESSAGE_BITS, ("qa",))
    with pytest.raises(ValueError):
        PackedAnswerVector(0b11 | 1 << 84, ("qa",))  # a bit beyond the batch's slots
    with pytest.raises(ValueError):
        PackedAnswerVector(-1, ("qa",))
    with pytest.raises(TooManyAnswers):
        PackedAnswerVector(0, tuple(f"q{i}" for i in range(MAX_ANSWERS + 1)))


def test_roundtrip_random_vectors():
    rng = random.Random(2024)
    for _ in range(1000):
        n = rng.randint(1, MAX_ANSWERS)
        order = [f"q{i}" for i in range(n)]
        answered = [q for q in order if rng.random() < 0.8]
        answers = [(q, rng.randint(0, 1)) for q in answered]
        vec = pack(answers, order)
        back = PackedAnswerVector(vec.message(), tuple(order))
        assert back == vec
        assert _decoded([back.message()], [back.question_order]) == [dict(answers)]


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


def test_vector_keeps_every_bit_or_refuses(tmp_path):
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(order_and_message())
    def check(case):
        order, message = case
        try:
            vec = PackedAnswerVector(message, tuple(order))
        except ValueError:
            return
        assert vec.message() == message
        assert pack(list(_decoded([vec.message()], [vec.question_order])[0].items()), order) == vec

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


def _decoded(messages, orders):
    """``decode_slots`` over all messages in one call, as one question -> bit
    dict per message; its entries must come in message then slot order."""
    t, j, bits = decode_slots(messages, [len(order) for order in orders])
    assert t.dtype == j.dtype == bits.dtype == np.int64
    entries = list(zip(t.tolist(), j.tolist()))
    assert entries == sorted(set(entries))
    out = [{} for _ in messages]
    for (message, slot), bit in zip(entries, bits.tolist()):
        out[message][orders[message][slot]] = bit
    return out


@st.composite
def order_and_any_message(draw):
    """An order of 0-42 questions and an 85-bit message of its 2n slot bits,
    with bits above slot n half the time."""
    n = draw(st.integers(0, MAX_ANSWERS))
    message = draw(st.integers(0, 4**n - 1))
    high = draw(st.one_of(st.just(0), st.integers(1, (1 << MESSAGE_BITS - 2 * n) - 1)))
    return [f"q{i}" for i in range(n)], message | high << 2 * n


def test_decode_slots_reads_each_slot_like_the_reference(tmp_path):
    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(st.lists(order_and_any_message(), max_size=8))
    def check(cases):
        orders, messages = [order for order, _ in cases], [message for _, message in cases]
        assert _decoded(messages, orders) == [_answers_slot_by_slot(m, o) for m, o in zip(messages, orders)]
        for order, message in cases:
            try:
                vec = PackedAnswerVector(message, tuple(order))
            except ValueError:
                # the vector refuses exactly the messages with bits above the slots
                # or an answer bit without its flag
                assert message >> 2 * len(order) or any(
                    (message >> 2 * j) & 0b11 == 0b10 for j in range(len(order)))
                continue
            assert vec.message() == message  # the vector holds the message decode_slots read

    # keep Hypothesis' constants cache out of the working tree
    set_hypothesis_home_dir(tmp_path)
    try:
        check()
    finally:
        set_hypothesis_home_dir(None)


@pytest.mark.parametrize("n", range(5))
def test_decode_slots_on_every_message_of_a_short_order(n):
    order = tuple(f"q{i}" for i in range(n))
    messages = [message | high << 2 * n for message in range(4**n) for high in (0, 1, 0b1011 << 40)]
    expected = [_answers_slot_by_slot(message, order) for message in messages]
    assert _decoded(messages, [order] * len(messages)) == expected


def test_decode_slots_on_random_42_slot_messages():
    rng = random.Random(42)
    messages = [rng.getrandbits(MESSAGE_BITS) for _ in range(2000)]
    orders = [tuple(f"q{i}" for i in range(rng.choice((MAX_ANSWERS, rng.randint(0, MAX_ANSWERS)))))
              for _ in messages]
    assert _decoded(messages, orders) == [_answers_slot_by_slot(m, o) for m, o in zip(messages, orders)]


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
    assert verify_reveal(c, vec.message(), key.value, len(order))
    # any single-bit flip of the key is rejected
    for bit in range(KEY_BITS):
        assert not verify_reveal(c, vec.message(), key.value ^ (1 << bit), len(order))
    # any single answer-bit flip is rejected
    for j in range(len(order)):
        assert not verify_reveal(c, vec.message() ^ 1 << (2 * j + 1), key.value, len(order))


def test_commitment_hex_roundtrip():
    c = commit(pack([("qa", 1)], ["qa"]), SecretKey(5))
    assert Commitment.from_hex(c.hex()) == c
    with pytest.raises(ValueError):
        Commitment(b"\x00" * 31)


def _opening_by_objects(c, message, key, order):
    """The reference check: build the vector and the key, hash their layout
    and compare digests."""
    try:
        vec = PackedAnswerVector(message, order)
        secret = SecretKey(key)
    except (ValueError, TooManyAnswers):
        return "malformed"
    return "opens" if commit(vec, secret).digest == c.digest else "fails"


def _opening(c, message, key, slots):
    try:
        return "opens" if verify_reveal(c, message, key, slots) else "fails"
    except (ValueError, TooManyAnswers):
        return "malformed"


@st.composite
def reveal_cases(draw):
    """A commitment to an honest (message, key) of 1-43 slots, and a reveal:
    the honest pair, or a pair with a bit flipped, out of range or negative;
    sometimes the commitment's digest has one bit flipped."""
    n = draw(st.integers(1, MAX_ANSWERS + 1))
    slots = draw(st.lists(SLOT, min_size=n, max_size=n))
    # 43 slots never open; the modulus keeps that honest message inside the layout
    honest = sum(slot << 2 * j for j, slot in enumerate(slots)) % (1 << 2 * MAX_ANSWERS)
    honest_key = draw(st.integers(0, (1 << KEY_BITS) - 1))
    c = Commitment(keccak256((honest_key | honest << KEY_BITS).to_bytes(LAYOUT_BYTES, "little")))
    if draw(st.booleans()):
        flip = draw(st.integers(0, 255))
        c = Commitment((int.from_bytes(c.digest, "little") ^ 1 << flip).to_bytes(32, "little"))
    message = draw(st.one_of(
        st.just(honest),
        st.integers(0, MESSAGE_BITS + 2).map(lambda bit: honest ^ 1 << bit),  # incl. answer without flag
        st.integers(-(1 << 90), 1 << 90),
    ))
    key = draw(st.one_of(
        st.just(honest_key),
        st.integers(0, KEY_BITS + 2).map(lambda bit: honest_key ^ 1 << bit),
        st.sampled_from((1 << KEY_BITS, (1 << KEY_BITS) + 1, 1 << 100, -1, -honest_key - 1)),
    ))
    return c, message, key, tuple(f"q{i}" for i in range(n))


def test_verify_reveal_opens_exactly_like_the_vector_and_key(tmp_path):
    seen = set()

    @settings(derandomize=True, database=None, max_examples=1000, deadline=None)
    @given(reveal_cases())
    def check(case):
        c, message, key, order = case
        outcome = _opening(c, message, key, len(order))
        assert outcome == _opening_by_objects(c, message, key, order)
        seen.add(outcome)

    # keep Hypothesis' constants cache out of the working tree
    set_hypothesis_home_dir(tmp_path)
    try:
        check()
    finally:
        set_hypothesis_home_dir(None)
    assert seen == {"opens", "fails", "malformed"}
