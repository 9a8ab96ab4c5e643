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
    commit,
    decode_slots,
    encode_slots,
    layout_bytes,
    pack,
    require_message,
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
    message = pack([("qa", 1)], ["qa", "qb"])
    assert message == 0b11
    raw = layout_bytes(message, 1, 2)
    # key bit 0 -> byte 0; message bits 85,86 -> byte 10 bits 5,6
    expected = bytes([1] + [0] * 9 + [0x60] + [0] * 11)
    assert raw == expected
    assert commit(message, 1, 2).digest == keccak256(expected)


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


def test_slot_rule_validation():
    with pytest.raises(ValueError):
        require_message(0b10, 1)  # unanswered slot with answer bit
    with pytest.raises(ValueError):
        require_message(0b1100, 1)  # bits beyond the slots


def test_slot_rule_rejects_malformed_messages():
    with pytest.raises(ValueError):
        require_message(1 << MESSAGE_BITS, 1)
    with pytest.raises(ValueError):
        require_message(0b11 | 1 << 84, 1)  # a bit beyond the batch's slots
    with pytest.raises(ValueError):
        require_message(-1, 1)
    with pytest.raises(TooManyAnswers):
        require_message(0, MAX_ANSWERS + 1)


def test_a_negative_slot_count_is_refused_by_name():
    # refused before the slot count becomes a shift count
    c = commit(0, 1, 0)
    for call in (lambda: require_message(0, -1), lambda: layout_bytes(0, 1, -1),
                 lambda: commit(0, 1, -1), lambda: verify_reveal(c, 0, 1, -1)):
        with pytest.raises(ValueError, match="slots must be a nonnegative slot count, got -1"):
            call()


def test_roundtrip_random_messages():
    rng = random.Random(2024)
    for _ in range(1000):
        n = rng.randint(1, MAX_ANSWERS)
        order = [f"q{i}" for i in range(n)]
        answered = [q for q in order if rng.random() < 0.8]
        answers = [(q, rng.randint(0, 1)) for q in answered]
        message = pack(answers, order)
        require_message(message, n)
        assert _decoded([message], [order]) == [dict(answers)]


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


def test_slot_rule_keeps_every_bit_or_refuses(tmp_path):
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(order_and_message())
    def check(case):
        order, message = case
        try:
            require_message(message, len(order))
        except ValueError:
            return
        assert pack(list(_decoded([message], [order])[0].items()), order) == message

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
            # the slot rule refuses exactly the messages with bits above the
            # slots or an answer bit without its flag
            try:
                require_message(message, len(order))
            except ValueError:
                assert message >> 2 * len(order) or any(
                    (message >> 2 * j) & 0b11 == 0b10 for j in range(len(order)))
            else:
                assert not message >> 2 * len(order)
                assert all((message >> 2 * j) & 0b11 != 0b10 for j in range(len(order)))

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


@st.composite
def answered_batches(draw):
    """Up to 8 batches of up to 42 slots, each with any answered subset: the
    slot counts and the (t, j, bit) entries in message then slot order."""
    slots = draw(st.lists(st.integers(0, MAX_ANSWERS), max_size=8))
    entries = [(t, j, draw(st.integers(0, 1))) for t, n in enumerate(slots)
               for j in sorted(draw(st.sets(st.integers(0, n - 1), max_size=n)) if n else ())]
    return slots, entries


def test_encode_slots_is_the_inverse_of_decode_slots_and_builds_pack(tmp_path):
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(answered_batches(), st.randoms(use_true_random=False))
    def check(case, rng):
        slots, entries = case
        t, j, bits = (list(column) for column in zip(*entries)) if entries else ([], [], [])
        messages = encode_slots(t, j, bits, len(slots))
        assert len(messages) == len(slots)
        assert [a.tolist() for a in decode_slots(messages, slots)] == [t, j, bits]
        shuffled = rng.sample(entries, len(entries))
        columns = [np.array([entry[k] for entry in shuffled], np.int64) for k in range(3)]
        assert encode_slots(*columns, len(slots)) == messages  # entry order does not matter
        for batch, (n, message) in enumerate(zip(slots, messages)):
            order = [f"q{i}" for i in range(n)]
            mine = [(slot, bit) for tt, slot, bit in entries if tt == batch]
            (one,) = encode_slots([0] * len(mine), [slot for slot, _ in mine], [bit for _, bit in mine], 1)
            answers = [(order[slot], bit) for slot, bit in mine]
            assert pack(rng.sample(answers, len(answers)), order) == one == message

    # keep Hypothesis' constants cache out of the working tree
    set_hypothesis_home_dir(tmp_path)
    try:
        check()
    finally:
        set_hypothesis_home_dir(None)


@pytest.mark.parametrize("t, j, bits, count, error, message", [
    ([0, 0], [1], [1, 0], 1, ValueError, "want equal-length 1-D int arrays; j is int64 of shape (1,)"),
    ([0], [0], [1, 1], 1, ValueError, "want equal-length 1-D int arrays; bits is int64 of shape (2,)"),
    ([[0]], [[0]], [[1]], 1, ValueError, "want equal-length 1-D int arrays; t is int64 of shape (1, 1)"),
    ([0], [0.0], [1], 1, ValueError, "want equal-length 1-D int arrays; j is float64 of shape (1,)"),
    ([0], [42], [1], 1, TooManyAnswers, "slot 42 is beyond the 42-answer capacity"),
    ([0, 1], [3, 41], [1, 0], 2, None, None),
    ([0], [0], [2], 1, ValueError, "answers must be 0 or 1"),
    ([0], [0], [-1], 1, ValueError, "answers must be 0 or 1"),
    ([0, 1, 1], [4, 2, 2], [1, 0, 1], 2, DuplicateAnswer, "slot 2 of message 1 answered twice"),
    ([1], [0], [1], 1, ValueError, "message indices must be in 0..0"),
    ([-1], [0], [1], 1, ValueError, "message indices must be in 0..0"),
    ([0], [-1], [1], 1, ValueError, "slots must be nonnegative"),
    ([], [], [], -1, ValueError, "message count must be nonnegative, got -1"),
    ([], [], [], 1.0, ValueError, "count must be an int, got 1.0"),
], ids=["short-j", "long-bits", "2-d", "float-slot", "slot-42", "slot-41-accepted", "bit-2", "bit-minus-1",
        "repeated-pair", "index-past-count", "negative-index", "negative-slot", "negative-count", "float-count"])
def test_encode_slots_refuses_bad_entries(t, j, bits, count, error, message):
    if error is None:
        assert encode_slots(t, j, bits, count) == [0b11 << 6, 0b01 << 82]
        return
    with pytest.raises(error) as raised:
        encode_slots(t, j, bits, count)
    assert message in str(raised.value)


def test_encode_slots_compares_each_entry_in_its_own_dtype():
    # uint64 2**64 - 1 must not wrap to -1, nor a uint8 slot 255 to 255 % 42
    with pytest.raises(ValueError, match="message indices"):
        encode_slots(np.array([2**64 - 1], np.uint64), [0], [1], 1)
    with pytest.raises(TooManyAnswers):
        encode_slots([0], np.array([255], np.uint8), [1], 1)
    assert encode_slots(np.array([0], np.uint8), np.array([41], np.uint8), np.array([True]), 1) == [0b11 << 82]
    assert encode_slots([], [], [], 0) == [] and encode_slots([], [], [], 2) == [0, 0]


def test_key_range_checked():
    assert layout_bytes(0, (1 << KEY_BITS) - 1, 0) == ((1 << KEY_BITS) - 1).to_bytes(LAYOUT_BYTES, "little")
    with pytest.raises(ValueError, match="secret key must fit in 85 bits"):
        layout_bytes(0, 1 << KEY_BITS, 0)
    with pytest.raises(ValueError, match="secret key must fit in 85 bits"):
        commit(0, -1, 0)


def test_commit_verify_and_tampering():
    rng = random.Random(7)
    order = [f"q{i}" for i in range(10)]
    message = pack([(q, rng.randint(0, 1)) for q in order], order)
    key = rng.getrandbits(KEY_BITS)
    c = commit(message, key, len(order))
    assert verify_reveal(c, message, key, len(order))
    # any single-bit flip of the key is rejected
    for bit in range(KEY_BITS):
        assert not verify_reveal(c, message, key ^ (1 << bit), len(order))
    # any single answer-bit flip is rejected
    for j in range(len(order)):
        assert not verify_reveal(c, message ^ 1 << (2 * j + 1), key, len(order))


def test_commitment_hex_roundtrip():
    c = commit(pack([("qa", 1)], ["qa"]), 5, 1)
    assert Commitment.from_hex(c.hex()) == c
    with pytest.raises(ValueError):
        Commitment(b"\x00" * 31)


def _reference_opening(c, message, key, slots):
    """The reference check: the slot rule and the key range as plain integer
    tests, then keccak256 of the raw layout against the digest."""
    if not (slots <= MAX_ANSWERS and 0 <= message < 4**slots and 0 <= key < 1 << KEY_BITS
            and all((message >> 2 * j) & 0b11 != 0b10 for j in range(slots))):
        return "malformed"
    raw = (key | message << KEY_BITS).to_bytes(LAYOUT_BYTES, "little")
    return "opens" if keccak256(raw) == c.digest else "fails"


def _refusal(call, *args):
    """What ``call(*args)`` returns, or the type and message of its refusal."""
    try:
        return call(*args), None
    except (ValueError, TooManyAnswers) as e:
        return None, (type(e), str(e))


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


def test_commit_and_verify_reveal_open_like_the_reference_layout(tmp_path):
    seen = set()

    @settings(derandomize=True, database=None, max_examples=1000, deadline=None)
    @given(reveal_cases())
    def check(case):
        c, message, key, order = case
        n = len(order)
        committed, commit_refusal = _refusal(commit, message, key, n)
        opened, verify_refusal = _refusal(verify_reveal, c, message, key, n)
        assert commit_refusal == verify_refusal  # the same refusal, type and message, or none
        outcome = "malformed" if verify_refusal else "opens" if opened else "fails"
        assert outcome == _reference_opening(c, message, key, n)
        if committed is not None:
            assert verify_reveal(committed, message, key, n)
        seen.add(outcome)

    # keep Hypothesis' constants cache out of the working tree
    set_hypothesis_home_dir(tmp_path)
    try:
        check()
    finally:
        set_hypothesis_home_dir(None)
    assert seen == {"opens", "fails", "malformed"}
