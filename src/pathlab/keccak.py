"""Keccak-256 (original padding, as used for Ethereum addresses).

Self-contained sponge implementation; stdlib ``hashlib.sha3_256`` uses
the NIST padding variant and produces different digests, so it cannot be
substituted here.

The permutation runs on numpy uint64 lanes, one ``(n,)`` vector per lane
of the 5 x 5 state, so a batch of ``n`` equal-length messages is hashed
with the same few hundred array operations as one message (Bertoni et
al., *The Keccak reference*, 2011).
"""

from __future__ import annotations

import numpy as np

_RATE = 136  # bytes, for 256-bit output

# Rotation offsets r[x][y] of the lane at column x, row y.
_ROTATION = (
    (0, 36, 3, 41, 18),
    (1, 44, 10, 45, 2),
    (62, 6, 43, 15, 61),
    (28, 55, 25, 21, 56),
    (27, 20, 39, 8, 14),
)

_ROUND_CONSTANTS = np.array([
    0x0000000000000001, 0x0000000000008082, 0x800000000000808A,
    0x8000000080008000, 0x000000000000808B, 0x0000000080000001,
    0x8000000080008081, 0x8000000000008009, 0x000000000000008A,
    0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
    0x000000008000808B, 0x800000000000008B, 0x8000000000008089,
    0x8000000000008003, 0x8000000000008002, 0x8000000000000080,
    0x000000000000800A, 0x800000008000000A, 0x8000000080008081,
    0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
], dtype=np.uint64)

# The state is a (25, n) array; lane x + 5y holds column x, row y, the
# order in which a block's 8-byte words are absorbed.
_SHIFT = np.array(_ROTATION, dtype=np.uint64).T.reshape(25, 1)
_SHIFT_BACK = (64 - _SHIFT) % 64  # a zero rotation must not shift by 64
# rho + pi: lane (x, y) moves to (y, 2x + 3y); _PI[dest] = source.
_PI = np.empty(25, dtype=np.intp)
for _x in range(5):
    for _y in range(5):
        _PI[_y + 5 * ((2 * _x + 3 * _y) % 5)] = _x + 5 * _y
_ONE = np.uint64(1)
_63 = np.uint64(63)
# Neighbouring columns x - 1, x + 1 and x + 2 (mod 5).
_PREV = np.array([4, 0, 1, 2, 3])
_NEXT = np.array([1, 2, 3, 4, 0])
_NEXT2 = np.array([2, 3, 4, 0, 1])


def _permute(state: np.ndarray) -> np.ndarray:
    """Keccak-f[1600] on a (25, n) uint64 lane array; returns a new array."""
    n = state.shape[1]
    for rc in _ROUND_CONSTANTS:
        grid = state.reshape(5, 5, n)  # [y, x]
        # theta
        c = np.bitwise_xor.reduce(grid, axis=0)
        right = c[_NEXT]
        state = (grid ^ c[_PREV] ^ ((right << _ONE) | (right >> _63))).reshape(25, n)
        # rho + pi
        b = ((state << _SHIFT) | (state >> _SHIFT_BACK))[_PI].reshape(5, 5, n)
        # chi
        b ^= ~b[:, _NEXT] & b[:, _NEXT2]
        # iota
        b[0, 0] ^= rc
        state = b.reshape(25, n)
    return state


def keccak256_rows(messages: np.ndarray) -> np.ndarray:
    """Keccak-256 digests of the rows of an ``(n, m)`` uint8 array, as an
    ``(n, 32)`` uint8 array."""
    n, m = messages.shape
    blocks = m // _RATE + 1
    padded = np.zeros((n, blocks * _RATE), dtype=np.uint8)
    padded[:, :m] = messages
    padded[:, m] ^= 0x01
    padded[:, -1] ^= 0x80
    words = padded.view("<u8").reshape(n, blocks, _RATE // 8)
    state = np.zeros((25, n), dtype=np.uint64)
    for i in range(blocks):
        state[: _RATE // 8] ^= words[:, i].T
        state = _permute(state)
    return np.ascontiguousarray(state[:4].T, dtype="<u8").view(np.uint8)


def keccak256(data: bytes) -> bytes:
    """Return the 32-byte Keccak-256 digest of ``data``."""
    return keccak256_rows(np.frombuffer(data, dtype=np.uint8)[None])[0].tobytes()
