"""Keccak-256: one numpy Keccak-f[1600] over a batch of lane states.

This is the original Keccak (pad byte 0x01) as used on Ethereum, not the
finalized SHA-3 standard (pad byte 0x06).  Both variants share the
Keccak-f[1600] permutation and the sponge, which lets the test suite
cross-check this implementation against ``hashlib.sha3_256`` by running
the sponge with the SHA-3 pad.

The permutation runs on N states at once: a (25, N) ``uint64`` array,
lane x + 5*y in row x + 5*y, and every step of a round is a numpy
operation on whole rows (Bertoni, Daemen, Peeters and Van Assche, "The
Keccak reference", 2011).  The sponge pads each message with FIPS 202's
multi-rate padding, XORs each 136-byte rate block into lanes 0..16 of its
column, permutes, and squeezes 32 bytes from lanes 0..3.  The messages of
one sponge call must pad to the same number of rate blocks.

``keccak256`` hashes one message of any length as a one-column state; a
miss costs about 0.55-0.9 ms a rate block on a shared 2-core Xeon (Python
3.11, numpy 2.4), almost all of it numpy's per-operation overhead, so a
caller with many messages batches them.
``keccak256_many`` hashes a list of messages of at most 135 bytes, each of
which pads to one rate block, with one permutation over all of them: a
batch costs about 0.9 ms whatever its size plus about 7 us a message.
Longer messages go through ``keccak256``.

Both share one bounded memo of the last ``MEMO_SIZE`` digests, an
``OrderedDict`` in LRU order: a hit calls ``move_to_end``, and a new
entry evicts the oldest with ``popitem(last=False)``.  A commitment's
22-byte layout is hashed four times: by the agent when it commits, by the
contract when it checks the reveal, by ``Ledger.load`` when a replay
checks that reveal again, and by ``audit`` over the replayed ledger.
``sim.run_experiment`` pre-hashes: it builds every layout of a round with
``commitment.layout_bytes`` from the batch's (message, key) ints, the
bytes ``commit`` and ``verify_reveal`` build from the same ints, and
hashes them through ``keccak256_many`` before it commits, so each of the
four ``keccak256`` calls finds the digest in the memo.  The memo is keyed
on the exact input bytes, so a hit returns the digest the sponge would
compute; ``bytearray`` and ``memoryview`` inputs are copied to ``bytes``
first, so a buffer mutated after it was hashed is hashed afresh.  Every
digest takes bytes-like input only, through ``memoryview``: an int, a str,
a list of ints or ``None`` raises ``TypeError`` rather than hash what
``bytes()`` would make of it (an int n makes n zero bytes).  ``MEMO_SIZE`` is 1,024
layouts, about 160 kB, well above the 112 commitments of a packed 56x56
round and the 333-353 of a 12x40 unpacked one.  A hit costs about
0.3 us.  A batch of more than ``MEMO_SIZE`` distinct messages returns
every digest but leaves only the last ``MEMO_SIZE`` in the memo.  So
``run_experiment`` hashes and commits ``MEMO_SIZE`` layouts at a time,
and passes each slice through ``keccak256_many`` again before it reveals
it: all hits while the round fits in the memo, one batch for the evicted
layouts of a round that does not.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

_ROUND_CONSTANTS = tuple(np.uint64(rc) for rc in (
    0x0000000000000001, 0x0000000000008082, 0x800000000000808A,
    0x8000000080008000, 0x000000000000808B, 0x0000000080000001,
    0x8000000080008081, 0x8000000000008009, 0x000000000000008A,
    0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
    0x000000008000808B, 0x800000000000008B, 0x8000000000008089,
    0x8000000000008003, 0x8000000000008002, 0x8000000000000080,
    0x000000000000800A, 0x800000008000000A, 0x8000000080008081,
    0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
))

# rho offsets by source lane x + 5*y
_RHO = (
    0, 1, 62, 28, 27,
    36, 44, 6, 55, 20,
    3, 10, 43, 25, 39,
    41, 45, 15, 21, 8,
    18, 2, 61, 56, 14,
)

_RATE_BYTES = 136  # 1600 - 2*256 bits

MEMO_SIZE = 1024  # digests kept by the memo

# pi moves lane x + 5y to y + 5*((2x + 3y) % 5), so row d of the rho-pi
# step is row _PI_SOURCE[d] rotated left by _ROTATE[d]
_PI_SOURCE = np.array(sorted(range(25), key=lambda i: i // 5 + 5 * ((2 * (i % 5) + 3 * (i // 5)) % 5)))
_ROTATE = np.array([_RHO[i] for i in _PI_SOURCE], dtype=np.uint64)[:, None]
_ROTATE_BACK = np.array([-_RHO[i] % 64 for i in _PI_SOURCE], dtype=np.uint64)[:, None]
_NEXT = np.array([1, 2, 3, 4, 0])      # column x + 1
_AFTER_NEXT = np.array([2, 3, 4, 0, 1])  # column x + 2
_PREVIOUS = np.array([4, 0, 1, 2, 3])  # column x - 1

_memo: OrderedDict[bytes, bytes] = OrderedDict()  # message -> digest, least recently used first


def _keccak_f1600_rows(a: np.ndarray) -> np.ndarray:
    """Keccak-f[1600] on every column of a (25, N) ``uint64`` lane array."""
    n = a.shape[1]
    for rc in _ROUND_CONSTANTS:
        # theta: column parities c[x], and d[x] = c[x - 1] ^ rotl(c[x + 1], 1)
        c = np.bitwise_xor.reduce(a.reshape(5, 5, n), axis=0)
        t = c[_NEXT]
        d = c[_PREVIOUS] ^ ((t << 1) | (t >> 63))
        a.reshape(5, 5, n)[...] ^= d
        # rho and pi
        t = a[_PI_SOURCE]
        b = ((t << _ROTATE) | (t >> _ROTATE_BACK)).reshape(5, 5, n)
        # chi along each row, then iota
        a = (b ^ (~b[:, _NEXT] & b[:, _AFTER_NEXT])).reshape(25, n)
        a[0] ^= rc
    return a


def _sponge_256(messages: list[bytes], pad_byte: int) -> list[bytes]:
    """The 256-bit sponge of each message, one permutation a rate block for
    the lot; every message must pad to the same number of rate blocks."""
    n = len(messages)
    width = (len(messages[0]) // _RATE_BYTES + 1) * _RATE_BYTES  # padded length
    padded = bytearray(width * n)
    for offset, m in zip(range(0, len(padded), width), messages):
        padded[offset:offset + len(m)] = m
        padded[offset + len(m)] = pad_byte
        padded[offset + width - 1] ^= 0x80
    blocks = np.frombuffer(padded, dtype="<u8").reshape(n, -1, 17)
    lanes = np.zeros((25, n), dtype=np.uint64)
    for i in range(blocks.shape[1]):
        lanes[:17] ^= blocks[:, i].T
        lanes = _keccak_f1600_rows(lanes)
    digests = lanes[:4].T.astype("<u8").tobytes()
    return [digests[i:i + 32] for i in range(0, len(digests), 32)]


def keccak256(data: bytes) -> bytes:
    """Ethereum-style Keccak-256 digest of ``data`` (any bytes-like).

    Anything that is not bytes-like, an int or a list of ints included,
    raises TypeError: ``bytes(3)`` would be three zero bytes.
    """
    if type(data) is not bytes:
        data = bytes(memoryview(data))
    digest = _memo.get(data)
    if digest is None:
        digest = _sponge_256([data], 0x01)[0]
        _remember(data, digest)
    else:
        _memo.move_to_end(data)
    return digest


def keccak256_many(messages) -> list[bytes]:
    """``[keccak256(m) for m in messages]``, with one permutation for the lot.

    Every message must be bytes-like (TypeError otherwise) and at most 135
    bytes long, so that it pads to one rate block (ValueError otherwise).
    Digests the memo holds are read from it and the rest are computed
    together; then every digest enters the memo as most recently used, in
    the order the messages first appear.
    """
    data = [m if type(m) is bytes else bytes(memoryview(m)) for m in messages]
    if data and max(map(len, data)) >= _RATE_BYTES:
        raise ValueError(f"keccak256_many hashes messages of at most {_RATE_BYTES - 1} bytes")
    digests = {m: _memo.get(m) for m in dict.fromkeys(data)}
    fresh = [m for m, digest in digests.items() if digest is None]
    if fresh:
        digests.update(zip(fresh, _sponge_256(fresh, 0x01)))
    for m, digest in digests.items():
        _remember(m, digest)
    return [digests[m] for m in data]


def _remember(data: bytes, digest: bytes) -> None:
    if data not in _memo and len(_memo) >= MEMO_SIZE:
        _memo.popitem(last=False)
    _memo[data] = digest
    _memo.move_to_end(data)
