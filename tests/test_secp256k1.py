"""The batch secp256k1 path against the ``cryptography`` package."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathlab.secp256k1 import ORDER, P, _add_into, _inverses, public_keys, window_table

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


@pytest.mark.parametrize("size", [0, 1, 2, 1_000])
def test_inverses_match_pow(size):
    rng = random.Random(size)
    values = [rng.randrange(1, P) for _ in range(size)]
    assert _inverses(values) == [pow(v, -1, P) for v in values]


def test_inverses_refuse_zero():
    for position in (0, 3, 6):  # first, middle, last
        values = [2, 3, 5, 7, 11, 13, 17]
        values[position] = 0
        with pytest.raises(ValueError):
            _inverses(values)


def test_add_of_distinct_points():
    points = [oracle_point(11), oracle_point(1), oracle_point(8)]
    _add_into(points, [0, 2], [oracle_point(4), oracle_point(2)])
    assert points == [oracle_point(15), oracle_point(1), oracle_point(10)]


@pytest.mark.parametrize("scalar, other", [(3, 3), (7, ORDER - 7)], ids=["equal-point", "negation"])
def test_add_refuses_equal_x(scalar, other):
    """An equal point (a doubling) or a negation (the point at infinity)
    has no chord: the batch raises, leaving every point as it was, rather
    than store a wrong sum."""
    points = [oracle_point(1), oracle_point(scalar)]
    with pytest.raises(ValueError):
        _add_into(points, [0, 1], [oracle_point(5), oracle_point(other)])
    assert points == [oracle_point(1), oracle_point(scalar)]


def test_group_order_is_refused():
    """k = ORDER meets its own negation in the last window: the batch
    raises instead of returning a key for an invalid scalar."""
    with pytest.raises(ValueError):
        public_keys([1, ORDER, 2])


@pytest.mark.parametrize("d", [1, 2, 255])
def test_window_table_digit_in_every_window(d):
    """d = 2 is the affine doubling of each window's base, d = 255 the last
    of its chord steps."""
    table = window_table()
    assert [window[d - 1] for window in table] == [oracle_point(d * 256**i) for i in range(32)]
