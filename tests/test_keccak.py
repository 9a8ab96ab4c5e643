"""Keccak-256 against published vectors and NIST SHA3-256 divergence, its
one-block batch against the scalar sponge, and their digest memo against
the unmemoised sponge."""

import array
import hashlib
import random

import pytest

from peerchain import keccak
from peerchain.keccak import (
    MEMO_SIZE,
    _memo,
    _sponge_256,
    _sponge_256_many,
    keccak256,
    keccak256_many,
    sha3_256,
)

# canonical vectors used across the Ethereum ecosystem
VECTORS = {
    b"": "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470",
    b"abc": "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45",
    b"The quick brown fox jumps over the lazy dog":
        "4d741b6f1eb29cb2a9b9911c82f56fa8d73b04959d3d9d222895df6c0b28aa15",
}

# regression pins around the 136-byte rate boundary (frozen outputs)
BOUNDARY = {
    135: "3c172af358851e71c45d39b53a91bb503e72de2548ea55caedbb5202f6d34bdb",
    136: "782165b181823a770bd1c5d6c0b5e7c5f1b53e91da289c27b3622c49fcb91402",
    137: "4f38ae164a67b80212ba70c0ad76dbbf3ccbe763db6722f200a29d2c0c0114e5",
}

# SHA-256 over the concatenated digests of PIN_MESSAGES random messages of
# 0-400 bytes (up to three rate blocks), recorded with the earlier
# list-indexed permutation
PIN_MESSAGES = 1000
PIN_SHA256 = "c800aabb59b41bbfee072a824cb8d60e839712f85c57e38205403b3c12ad815c"


def test_golden_vectors():
    for msg, digest in VECTORS.items():
        assert keccak256(msg).hex() == digest


def test_rate_boundary_pins():
    for n, digest in BOUNDARY.items():
        assert keccak256(b"\x01" * n).hex() == digest


def test_sha3_path_equals_hashlib_for_every_length_to_300():
    # the SHA-3 pad drives the same permutation and sponge as keccak256;
    # lengths 135-137 and 271-273 cross the one- and two-block boundaries
    rng = random.Random("sha3-cross-check")
    for n in range(301):
        msg = rng.randbytes(n)
        assert sha3_256(msg) == hashlib.sha3_256(msg).digest(), n


def test_random_message_pin():
    rng = random.Random("keccak-pin")
    pin = hashlib.sha256()
    for _ in range(PIN_MESSAGES):
        pin.update(keccak256(rng.randbytes(rng.randint(0, 400))))
    assert pin.hexdigest() == PIN_SHA256


def _sponge_runs(monkeypatch, name="_sponge_256"):
    """Record the first argument of every call keccak makes to ``name``."""
    runs = []
    real = getattr(keccak, name)

    def counted(data, pad_byte):
        runs.append(data)
        return real(data, pad_byte)

    monkeypatch.setattr(keccak, name, counted)
    return runs


def test_memoised_digests_equal_the_sponge_cold_and_warm(monkeypatch):
    rng = random.Random("keccak-memo")
    msgs = [rng.randbytes(n) for n in range(301)] + [b"y" * 1000]
    _memo.clear()
    runs = _sponge_runs(monkeypatch)
    for warm in (False, True):
        runs.clear()
        for msg in msgs:
            d = keccak256(msg)
            assert len(d) == 32
            assert d == _sponge_256(msg, 0x01), len(msg)
        hits = len(msgs) - len(runs)
        assert hits == (len(msgs) if warm else 0)


def test_bytes_like_inputs_give_the_bytes_digest():
    msg = b"commit-reveal layout, 22B"
    digest = _sponge_256(msg, 0x01)
    for data in (bytearray(msg), memoryview(msg), memoryview(bytearray(msg)), array.array("B", msg)):
        assert keccak256(data) == digest
        assert type(keccak256(data)) is bytes
        assert sha3_256(data) == hashlib.sha3_256(msg).digest()


@pytest.mark.parametrize("data", [3, 0, True, [1, 2, 3], "abc", None, 2.0],
                         ids=["int", "zero", "bool", "list", "str", "none", "float"])
def test_only_bytes_like_input_is_hashed(data):
    # bytes(3) is three zero bytes and bytes([1, 2, 3]) their values: neither
    # is what a caller passing an int or a list meant to hash
    with pytest.raises(TypeError):
        keccak256(data)
    with pytest.raises(TypeError):
        sha3_256(data)


def test_a_mutated_bytearray_gets_its_new_digest():
    buf = bytearray(b"\x00" * 22)
    assert keccak256(buf) == _sponge_256(bytes(22), 0x01)
    buf[5] ^= 1
    assert keccak256(buf) == _sponge_256(bytes(buf), 0x01) != _sponge_256(bytes(22), 0x01)
    view = memoryview(buf)
    buf[6] ^= 1
    assert keccak256(view) == _sponge_256(bytes(buf), 0x01)


def test_memo_stays_within_its_bound():
    _memo.clear()
    msgs = [b"distinct message %d" % i for i in range(MEMO_SIZE + 1)]
    for msg in msgs[:MEMO_SIZE]:
        keccak256(msg)
    assert len(_memo) == MEMO_SIZE  # nothing is evicted below the bound
    keccak256(msgs[0])  # a hit makes the first message the most recently used
    keccak256(msgs[MEMO_SIZE])
    assert len(_memo) == MEMO_SIZE
    assert msgs[1] not in _memo and msgs[0] in _memo and msgs[MEMO_SIZE] in _memo


# --- keccak256_many ----------------------------------------------------------

def test_batch_equals_the_sponge_for_every_one_block_length():
    rng = random.Random("keccak-many-lengths")
    msgs = [rng.randbytes(n) for n in range(136)]
    _memo.clear()
    assert keccak256_many(msgs) == [_sponge_256(m, 0x01) for m in msgs]
    # length 135 puts the pad byte and the final bit in one byte, 0x81
    _memo.clear()
    assert keccak256_many([b"\x01" * 135])[0].hex() == BOUNDARY[135]
    assert [keccak256_many([m])[0] for m in VECTORS] == [bytes.fromhex(d) for d in VECTORS.values()]


def test_batch_permutation_under_the_sha3_pad_equals_hashlib():
    rng = random.Random("keccak-many-sha3")
    msgs = [rng.randbytes(n) for n in range(136)]
    assert _sponge_256_many(msgs, 0x06) == [hashlib.sha3_256(m).digest() for m in msgs]


@pytest.mark.parametrize("size", [1, 2, 353, MEMO_SIZE + 1])
def test_batches_of_any_size_equal_the_sponge(size):
    rng = random.Random(f"keccak-many-{size}")
    msgs = [rng.randbytes(22) for _ in range(size)]
    _memo.clear()
    assert keccak256_many(msgs) == [_sponge_256(m, 0x01) for m in msgs]
    assert len(_memo) == min(size, MEMO_SIZE)
    # a batch past the bound keeps its last MEMO_SIZE digests
    assert all(m in _memo for m in msgs[-MEMO_SIZE:])
    assert keccak256_many([]) == []


def test_a_repeated_message_is_hashed_once(monkeypatch):
    msgs = [b"a" * 22, b"b" * 22, b"a" * 22, b"a" * 22]
    _memo.clear()
    runs = _sponge_runs(monkeypatch, "_sponge_256_many")
    digests = keccak256_many(msgs)
    assert digests == [_sponge_256(m, 0x01) for m in msgs]
    assert runs == [[b"a" * 22, b"b" * 22]]
    assert list(_memo) == [b"a" * 22, b"b" * 22]
    # repeated and already memoised: read from the memo, never hashed
    assert keccak256_many(msgs) == digests
    assert runs == [[b"a" * 22, b"b" * 22]]


def test_batch_and_scalar_share_one_memo(monkeypatch):
    rng = random.Random("keccak-many-memo")
    old, new = rng.randbytes(22), rng.randbytes(22)
    _memo.clear()
    keccak256(old)
    batch_runs = _sponge_runs(monkeypatch, "_sponge_256_many")
    scalar_runs = _sponge_runs(monkeypatch)
    # the batch reads old from the memo and hashes only new ...
    assert keccak256_many([new, old]) == [_sponge_256(new, 0x01), _sponge_256(old, 0x01)]
    assert batch_runs == [[new]]
    # ... and keccak256 finds both; a batch of hits runs no permutation
    assert keccak256(new) == _sponge_256(new, 0x01) and keccak256(old) == _sponge_256(old, 0x01)
    assert keccak256_many([bytearray(old), memoryview(new)]) == [keccak256(old), keccak256(new)]
    assert scalar_runs == [] and batch_runs == [[new]]
    assert list(_memo) == [old, new]


@pytest.mark.parametrize("messages, error", [
    ([b"x" * 136], ValueError),
    ([b"ok", b"x" * 200], ValueError),
    ([b"ok", 3], TypeError),
    (["abc"], TypeError),
    ([None], TypeError),
    ([[1, 2, 3]], TypeError),
    (3, TypeError),
], ids=["136-bytes", "200-bytes", "int", "str", "none", "list", "not-a-list"])
def test_batch_refuses_a_long_or_non_bytes_message(messages, error):
    _memo.clear()
    keccak256(b"ok")
    with pytest.raises(error):
        keccak256_many(messages)
    assert list(_memo) == [b"ok"]  # a refused batch leaves the memo as it was


def test_differs_from_nist_sha3():
    # Keccak pads with 0x01, SHA3 with 0x06: equal lengths, different digests
    for msg in (b"", b"abc", b"\x00" * 136):
        nist = hashlib.sha3_256(msg).digest()
        ours = keccak256(msg)
        assert len(nist) == len(ours) == 32
        assert nist != ours


def test_avalanche():
    base = keccak256(b"avalanche probe")
    flipped = keccak256(b"avalanche probf")
    differing = sum(bin(a ^ b).count("1") for a, b in zip(base, flipped))
    assert differing > 80  # ~128 expected of 256
