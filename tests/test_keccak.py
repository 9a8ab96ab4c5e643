"""Keccak-256 against published vectors and NIST SHA3-256 divergence."""

import hashlib
import random

from peerchain.keccak import keccak256, sha3_256

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


def test_digest_length_and_determinism():
    for msg in (b"", b"x", b"y" * 1000):
        d = keccak256(msg)
        assert len(d) == 32
        assert d == keccak256(msg)


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
