"""Keccak-256 in pure Python.

This is the original Keccak (pad byte 0x01) as used on Ethereum, not the
finalized SHA-3 standard (pad byte 0x06).  Both variants share the
Keccak-f[1600] permutation, which lets the test suite cross-check this
implementation against ``hashlib.sha3_256`` on the SHA-3 padding path.

The permutation is one straight-line round body over 25 local ints, run
24 times.  Lane x + 5*y is the local ``a<x + 5*y>``.  Each round computes
theta's column parities and the five ``d`` values, then applies theta's
xor, rho's rotation and pi's move in one expression per lane, then chi
row by row and iota.  No lane is read through a list or a table inside
the rounds: the rho offsets and pi destinations are written into the
code.  The rounds run on a lane-complemented state (Bertoni, Daemen,
Peeters, Van Assche and Van Keer, "Keccak implementation overview",
section 2.2): lanes 1, 2, 8, 12, 17 and 20 are held inverted, which lets
chi use ``|`` where it would use ``~x & y`` and leaves five NOTs a round
instead of 25.  The sponge absorbs each 136-byte block with one
little-endian ``struct`` unpack of 17 lanes and squeezes the digest with
one pack of 4.

``keccak256`` keeps a bounded memo of its last ``MEMO_SIZE`` digests.  A
commitment's 22-byte layout is hashed four times: by the agent when it
commits, by the contract when it checks the reveal, by ``Ledger.load``
when a replay checks that reveal again, and by ``audit`` over the
replayed ledger.  With the memo the last three find the first one's
digest.  The memo is keyed on the exact input bytes, so a hit returns
the digest the sponge would compute; ``bytearray`` and ``memoryview``
inputs are copied to ``bytes`` first, so a buffer mutated after it was
hashed is hashed afresh.  Both digests take bytes-like input only,
through ``memoryview``: an int, a str, a list of ints or ``None`` raises
``TypeError`` rather than hash what ``bytes()`` would make of it (an int
n makes n zero bytes).  ``MEMO_SIZE`` is 1,024 layouts, about 160 kB,
well above the 112 commitments of a packed 56x56 round and the 333-353
of a 12x40 unpacked one.  A hit costs about 0.5 us; a miss adds a lookup
and an insert, under a microsecond, to a 180-300 us hash.  The memo
evicts the least recently used layout, and a round commits every batch
before it reveals any, so a round with more commitments than
``MEMO_SIZE`` finds none of them at reveal time and pays the sponge as
if there were no memo.  ``sha3_256`` is not memoised.
"""

from __future__ import annotations

import struct
from functools import lru_cache

_MASK = (1 << 64) - 1

_ROUND_CONSTANTS = (
    0x0000000000000001, 0x0000000000008082, 0x800000000000808A,
    0x8000000080008000, 0x000000000000808B, 0x0000000080000001,
    0x8000000080008081, 0x8000000000008009, 0x000000000000008A,
    0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
    0x000000008000808B, 0x800000000000008B, 0x8000000000008089,
    0x8000000000008003, 0x8000000000008002, 0x8000000000000080,
    0x000000000000800A, 0x800000008000000A, 0x8000000080008081,
    0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
)

# rho offsets by source lane x + 5*y, as written into the round body below:
#    0,  1, 62, 28, 27,
#   36, 44,  6, 55, 20,
#    3, 10, 43, 25, 39,
#   41, 45, 15, 21,  8,
#   18,  2, 61, 56, 14

_RATE_BYTES = 136  # 1600 - 2*256 bits
_BLOCK = struct.Struct("<17Q")  # one rate block as lanes 0..16
_DIGEST = struct.Struct("<4Q")  # 32 bytes from lanes 0..3

MEMO_SIZE = 1024  # digests kept by keccak256


def _keccak_f1600(lanes: list[int]) -> list[int]:
    """One full 24-round Keccak-f[1600] permutation over 25 64-bit lanes."""
    M = _MASK
    (
        a0, a1, a2, a3, a4,
        a5, a6, a7, a8, a9,
        a10, a11, a12, a13, a14,
        a15, a16, a17, a18, a19,
        a20, a21, a22, a23, a24,
    ) = lanes
    # run the rounds with lanes 1, 2, 8, 12, 17 and 20 complemented
    a1, a2, a8, a12, a17, a20 = a1 ^ M, a2 ^ M, a8 ^ M, a12 ^ M, a17 ^ M, a20 ^ M
    for rc in _ROUND_CONSTANTS:
        # theta: column parities, and the d that every lane of column x takes
        c0 = a0 ^ a5 ^ a10 ^ a15 ^ a20
        c1 = a1 ^ a6 ^ a11 ^ a16 ^ a21
        c2 = a2 ^ a7 ^ a12 ^ a17 ^ a22
        c3 = a3 ^ a8 ^ a13 ^ a18 ^ a23
        c4 = a4 ^ a9 ^ a14 ^ a19 ^ a24
        d0 = c4 ^ ((c1 << 1 | c1 >> 63) & M)
        d1 = c0 ^ ((c2 << 1 | c2 >> 63) & M)
        d2 = c1 ^ ((c3 << 1 | c3 >> 63) & M)
        d3 = c2 ^ ((c4 << 1 | c4 >> 63) & M)
        d4 = c3 ^ ((c0 << 1 | c0 >> 63) & M)
        # theta's xor, rho and pi in one step per lane: b[y + 5*((2x + 3y) % 5)]
        # is a[x + 5y] ^ d[x] rotated left by the rho offset of lane x + 5y
        b0 = a0 ^ d0
        t = a6 ^ d1
        b1 = (t << 44 | t >> 20) & M
        t = a12 ^ d2
        b2 = (t << 43 | t >> 21) & M
        t = a18 ^ d3
        b3 = (t << 21 | t >> 43) & M
        t = a24 ^ d4
        b4 = (t << 14 | t >> 50) & M
        t = a3 ^ d3
        b5 = (t << 28 | t >> 36) & M
        t = a9 ^ d4
        b6 = (t << 20 | t >> 44) & M
        t = a10 ^ d0
        b7 = (t << 3 | t >> 61) & M
        t = a16 ^ d1
        b8 = (t << 45 | t >> 19) & M
        t = a22 ^ d2
        b9 = (t << 61 | t >> 3) & M
        t = a1 ^ d1
        b10 = (t << 1 | t >> 63) & M
        t = a7 ^ d2
        b11 = (t << 6 | t >> 58) & M
        t = a13 ^ d3
        b12 = (t << 25 | t >> 39) & M
        t = a19 ^ d4
        b13 = (t << 8 | t >> 56) & M
        t = a20 ^ d0
        b14 = (t << 18 | t >> 46) & M
        t = a4 ^ d4
        b15 = (t << 27 | t >> 37) & M
        t = a5 ^ d0
        b16 = (t << 36 | t >> 28) & M
        t = a11 ^ d1
        b17 = (t << 10 | t >> 54) & M
        t = a17 ^ d2
        b18 = (t << 15 | t >> 49) & M
        t = a23 ^ d3
        b19 = (t << 56 | t >> 8) & M
        t = a2 ^ d2
        b20 = (t << 62 | t >> 2) & M
        t = a8 ^ d3
        b21 = (t << 55 | t >> 9) & M
        t = a14 ^ d4
        b22 = (t << 39 | t >> 25) & M
        t = a15 ^ d0
        b23 = (t << 41 | t >> 23) & M
        t = a21 ^ d1
        b24 = (t << 2 | t >> 62) & M
        # chi along each row, then iota.  b lanes 0, 2, 3, 5, 7, 10, 12, 16,
        # 18, 19, 20 and 23 arrive inverted; each row is chi rewritten so
        # that its outputs land in the state's pattern, with five NOTs
        n13 = b13 ^ M
        n18 = b18 ^ M
        n21 = b21 ^ M
        a0 = b0 ^ (b1 | b2)
        a1 = b1 ^ ((b2 ^ M) | b3)
        a2 = b2 ^ (b3 & b4)
        a3 = b3 ^ (b4 | b0)
        a4 = b4 ^ (b0 & b1)
        a5 = b5 ^ (b6 | b7)
        a6 = b6 ^ (b7 & b8)
        a7 = b7 ^ (b8 | (b9 ^ M))
        a8 = b8 ^ (b9 | b5)
        a9 = b9 ^ (b5 & b6)
        a10 = b10 ^ (b11 | b12)
        a11 = b11 ^ (b12 & b13)
        a12 = b12 ^ (n13 & b14)
        a13 = n13 ^ (b14 | b10)
        a14 = b14 ^ (b10 & b11)
        a15 = b15 ^ (b16 & b17)
        a16 = b16 ^ (b17 | b18)
        a17 = b17 ^ (n18 | b19)
        a18 = n18 ^ (b19 & b15)
        a19 = b19 ^ (b15 | b16)
        a20 = b20 ^ (n21 & b22)
        a21 = n21 ^ (b22 | b23)
        a22 = b22 ^ (b23 & b24)
        a23 = b23 ^ (b24 | b20)
        a24 = b24 ^ (b20 & b21)
        a0 ^= rc
    a1, a2, a8, a12, a17, a20 = a1 ^ M, a2 ^ M, a8 ^ M, a12 ^ M, a17 ^ M, a20 ^ M
    return [
        a0, a1, a2, a3, a4,
        a5, a6, a7, a8, a9,
        a10, a11, a12, a13, a14,
        a15, a16, a17, a18, a19,
        a20, a21, a22, a23, a24,
    ]


def _sponge_256(data: bytes, pad_byte: int) -> bytes:
    padded = bytearray(data)
    padded.append(pad_byte)
    padded += bytes(-len(padded) % _RATE_BYTES)
    padded[-1] ^= 0x80

    lanes = [0] * 25
    for offset in range(0, len(padded), _RATE_BYTES):
        block = _BLOCK.unpack_from(padded, offset)
        lanes = _keccak_f1600([a ^ w for a, w in zip(lanes, block)] + lanes[17:])
    return _DIGEST.pack(*lanes[:4])


@lru_cache(maxsize=MEMO_SIZE)
def _keccak256_memo(data: bytes) -> bytes:
    return _sponge_256(data, 0x01)


def keccak256(data: bytes) -> bytes:
    """Ethereum-style Keccak-256 digest of ``data`` (any bytes-like).

    Anything that is not bytes-like, an int or a list of ints included,
    raises TypeError: ``bytes(3)`` would be three zero bytes.
    """
    if type(data) is not bytes:
        data = bytes(memoryview(data))
    return _keccak256_memo(data)


def sha3_256(data: bytes) -> bytes:
    """NIST SHA3-256 digest; exists only to cross-check the permutation."""
    return _sponge_256(memoryview(data), 0x06)
