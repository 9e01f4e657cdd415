"""The batch secp256k1 path against the ``cryptography`` package."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathlab.secp256k1 import (
    INFINITY,
    ORDER,
    P,
    _add_mixed,
    _to_affine,
    public_keys,
    window_table,
)

ec = pytest.importorskip("cryptography.hazmat.primitives.asymmetric.ec")


def oracle_point(scalar: int) -> tuple[int, int]:
    numbers = ec.derive_private_key(scalar, ec.SECP256K1()).public_key().public_numbers()
    return numbers.x, numbers.y


def oracle_keys(scalars) -> list[bytes]:
    return [
        x.to_bytes(32, "big") + y.to_bytes(32, "big")
        for x, y in map(oracle_point, scalars)
    ]


def derived_keys(scalars) -> list[bytes]:
    keys = public_keys(scalars)
    assert keys.shape == (len(scalars), 64) and keys.dtype == np.uint8
    return [row.tobytes() for row in keys]


EDGE_SCALARS = [
    1, 2, 3, ORDER - 1, ORDER - 2,
    *(2**k for k in range(256)),
    # a digit in the lowest and highest windows, zeros between
    2**255 + 1, 2**248 + 1,
    # all-0xFF windows: the last entry of every window's table
    2**248 - 1, *(255 * 256**i for i in range(32)),
    int("FF00" * 16, 16), int("00FF" * 16, 16),
]


def test_edge_scalars():
    assert derived_keys(EDGE_SCALARS) == oracle_keys(EDGE_SCALARS)


def test_duplicates_within_a_batch():
    k = 0xDEADBEEF * 2**200 + 12345
    scalars = [k, k, 1, k, ORDER - 1, 1]
    assert derived_keys(scalars) == oracle_keys(scalars)


@pytest.mark.parametrize("size", [0, 1, 1_000])
def test_batch_sizes(size):
    rng = random.Random(size)
    scalars = [rng.randrange(1, ORDER) for _ in range(size)]
    assert derived_keys(scalars) == oracle_keys(scalars)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=ORDER - 1), max_size=6))
def test_random_scalars(scalars):
    assert derived_keys(scalars) == oracle_keys(scalars)


@pytest.mark.parametrize("i, d", [(0, 1), (0, 255), (17, 128), (31, 1), (31, 255)])
def test_window_table_entries(i, d):
    assert window_table()[i][d - 1] == oracle_point(d * 256**i)


def _jacobian(point, z):
    """The affine ``point`` written with a Z other than 1."""
    x, y = point
    return x * z * z % P, y * z * z * z % P, z


def test_mixed_addition_from_infinity():
    q = oracle_point(5)
    assert _add_mixed(INFINITY, q) == (*q, 1)


def test_mixed_addition_doubles_an_equal_point():
    q = oracle_point(3)
    total = _add_mixed(_jacobian(q, 0x1234567890ABCDEF), q)
    assert _to_affine([total]) == [oracle_point(6)]


def test_mixed_addition_of_a_negation_is_infinity():
    x, y = oracle_point(7)
    total = _add_mixed(_jacobian((x, y), 987654321), (x, P - y))
    assert total[2] == 0


def test_mixed_addition_of_distinct_points():
    total = _add_mixed(_jacobian(oracle_point(11), 31337), oracle_point(4))
    assert _to_affine([total]) == [oracle_point(15)]


def test_to_affine_refuses_infinity():
    with pytest.raises(ValueError):
        _to_affine([_jacobian(oracle_point(2), 5), INFINITY])
