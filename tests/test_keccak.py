"""The numpy-lane Keccak-256 against a plain-int reference sponge.

The reference below is the straightforward Keccak-f[1600] on a 5 x 5 list
of Python ints, one lane per int, absorbing one 136-byte block at a time.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathlab.keccak import keccak256, keccak256_rows

_MASK = (1 << 64) - 1
_RATE = 136

_ROTATION = (
    (0, 36, 3, 41, 18),
    (1, 44, 10, 45, 2),
    (62, 6, 43, 15, 61),
    (28, 55, 25, 21, 56),
    (27, 20, 39, 8, 14),
)

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


def _rol(x: int, s: int) -> int:
    return ((x << s) | (x >> (64 - s))) & _MASK


def _permute(state):
    for rc in _ROUND_CONSTANTS:
        # theta
        c = [state[x][0] ^ state[x][1] ^ state[x][2] ^ state[x][3] ^ state[x][4]
             for x in range(5)]
        d = [c[(x - 1) % 5] ^ _rol(c[(x + 1) % 5], 1) for x in range(5)]
        state = [[state[x][y] ^ d[x] for y in range(5)] for x in range(5)]
        # rho + pi
        b = [[0] * 5 for _ in range(5)]
        for x in range(5):
            for y in range(5):
                b[y][(2 * x + 3 * y) % 5] = _rol(state[x][y], _ROTATION[x][y])
        # chi
        state = [[b[x][y] ^ ((~b[(x + 1) % 5][y]) & b[(x + 2) % 5][y])
                  for y in range(5)] for x in range(5)]
        # iota
        state[0][0] ^= rc
    return state


def reference_keccak256(data: bytes) -> bytes:
    pad_len = _RATE - (len(data) % _RATE)
    if pad_len == 1:
        padded = data + b"\x81"
    else:
        padded = data + b"\x01" + b"\x00" * (pad_len - 2) + b"\x80"
    state = [[0] * 5 for _ in range(5)]
    for offset in range(0, len(padded), _RATE):
        block = padded[offset : offset + _RATE]
        for i in range(_RATE // 8):
            lane = int.from_bytes(block[8 * i : 8 * i + 8], "little")
            state[i % 5][i // 5] ^= lane
        state = _permute(state)
    return b"".join(state[i % 5][i // 5].to_bytes(8, "little") for i in range(4))


@pytest.mark.parametrize("length", [0, 1, 64, 135, 136, 137, 271, 272, 273, 300])
def test_matches_reference_at_block_edges(length):
    data = np.random.default_rng(length).integers(0, 256, length, np.uint8).tobytes()
    assert keccak256(data) == reference_keccak256(data)


@settings(max_examples=60, deadline=None)
@given(st.binary(max_size=300))
def test_matches_reference_on_random_messages(data):
    assert keccak256(data) == reference_keccak256(data)


@pytest.mark.parametrize("length", [0, 64, 135, 136, 272])
def test_rows_are_hashed_independently(length):
    rows = np.random.default_rng(7).integers(0, 256, (9, length), np.uint8)
    rows[3] = rows[4]  # equal rows, equal digests
    digests = keccak256_rows(rows)
    assert digests.shape == (9, 32) and digests.dtype == np.uint8
    assert [d.tobytes() for d in digests] == [
        reference_keccak256(r.tobytes()) for r in rows
    ]


def test_no_rows():
    assert keccak256_rows(np.zeros((0, 64), np.uint8)).shape == (0, 32)
