"""The batch secp256k1 path against the ``cryptography`` package."""

import hashlib
import importlib.util
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathlab import secp256k1
from pathlab.secp256k1 import (
    ORDER, P, TABLE_BYTES, TABLE_PATH, TABLE_SHA256, _add_into, _inverses, _signed_digits,
    public_keys, window_table,
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


def from_digits(digits) -> int:
    return sum(d * 1024**i for i, d in enumerate(digits))


EDGE_SCALARS = [
    1, 2, 3, ORDER - 1, ORDER - 2,
    *(2**k for k in range(256)),
    # a digit in the lowest and highest windows, zeros between
    2**250 + 1, 2**255 + 1, 2**248 + 1,
    # all-0xFF bytes, each a run of ones across two 10-bit windows
    2**248 - 1, *(255 * 256**i for i in range(32)),
    int("FF00" * 16, 16), int("00FF" * 16, 16),
    # window value 0x200 in every window below the top: -512, then -511s
    from_digits([0x200] * 25 + [1]),
    # a -512 digit in every window below the top, the top digit 1 or 64
    from_digits([-512] * 25 + [1]), from_digits([-512] * 25 + [64]),
    # all-ones 10-bit windows: a -1 digit, carried into the next window
    *(1023 * 1024**i for i in range(25)), from_digits([1023] * 25 + [0]),
    # the top window's six bits all ones
    63 * 2**250, 63 * 2**250 + 1,
    # carries into the top window: digits 1 and 64 there
    2**250 - 1, 63 * 2**250 + 2**249,
    # either side of the sign change in window 0
    511, 512, 513, 1023, 1024, 1025,
]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=ORDER - 1), max_size=8))
def test_signed_digits_rebuild_the_scalar(scalars):
    digits = _signed_digits(scalars)
    assert digits.shape == (len(scalars), 26)
    assert [from_digits(row) for row in digits.tolist()] == scalars
    assert (abs(digits) <= 512).all()
    assert ((digits[:, 25] >= 0) & (digits[:, 25] <= 64)).all()


def test_signed_digits_of_the_edge_scalars():
    digits = _signed_digits(EDGE_SCALARS)
    assert [from_digits(row) for row in digits.tolist()] == EDGE_SCALARS
    assert digits.min() == -512 and digits.max() == 511 and digits[:, 25].max() == 64
    assert (digits[EDGE_SCALARS.index(from_digits([-512] * 25 + [64])), :25] == -512).all()


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


@pytest.mark.parametrize("i, d", [(0, 1), (0, 255), (17, 128), (25, 1), (25, -512),
                                  (0, -1), (13, 2), (0, 511), (25, 511), (25, 64)])
def test_window_table_entries(i, d):
    assert window_table()[i][d] == oracle_point(d * 1024**i % ORDER)


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
    """Every scalar outside [1, ORDER - 1] is refused up front, in any
    place in the batch, instead of giving the key of ``k mod ORDER`` or
    failing inside the additions."""
    for k in (0, -1, ORDER, ORDER + 1, 2**256 - 1):
        with pytest.raises(ValueError, match="must be in"):
            public_keys([1, k, 2])


@pytest.mark.parametrize("d", [1, 2, 255, -1, 511, -512])
def test_window_table_digit_in_every_window(d):
    """d = 2 is the affine doubling of each window's base, 512 (read as
    -512) the last of its chord steps."""
    table = window_table()
    assert [window[d] for window in table] == [oracle_point(d * 1024**i % ORDER) for i in range(26)]


def test_window_table_has_no_zero_digit_entry():
    assert all(len(window) == 1024 and window[0] is None for window in window_table())


def test_committed_table_is_the_tools_output():
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location(
        "make_secp256k1_table", root / "tools" / "make_secp256k1_table.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    data = TABLE_PATH.read_bytes()
    assert tool.table_bytes() == data
    assert (len(data), hashlib.sha256(data).hexdigest()) == (TABLE_BYTES, TABLE_SHA256)


@pytest.mark.parametrize("damage", ["truncated", "altered"])
def test_window_table_refuses_a_damaged_file(tmp_path, monkeypatch, damage):
    data = bytearray(TABLE_PATH.read_bytes())
    if damage == "truncated":
        del data[-64:]
    else:
        data[1000] ^= 1
    copy = tmp_path / "table.bin"
    copy.write_bytes(data)
    monkeypatch.setattr(secp256k1, "TABLE_PATH", copy)
    window_table.cache_clear()
    try:
        with pytest.raises(ValueError, match="not the secp256k1 window table"):
            window_table()
    finally:
        window_table.cache_clear()


def test_cli_import_leaves_the_table_and_hashlib_unloaded():
    """The table is read on first use, in the process that derives keys;
    importing the command line opens no file and loads no OpenSSL."""
    code = ("import sys, pathlab.cli\n"
            "from pathlab.secp256k1 import window_table\n"
            "print('hashlib' in sys.modules, window_table.cache_info().currsize)\n")
    src = str(Path(secp256k1.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code], check=True, text=True,
                         stdout=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.split() == ["False", "0"]
