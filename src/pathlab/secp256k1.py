"""secp256k1 public keys for batches of private scalars, in Python ints.

One scalar-multiplication path: fixed-base windowing with signed digits.
A scalar k is written as sum(d_i * 1024**i) over 26 windows, each digit
d_i in [-512, 511] and the top one in [0, 64] (:func:`_signed_digits`),
and its key is the sum of the points ``d_i * 1024**i * G``, read from a
precomputed table of the positive multiples with each negative derived as
``(x, P - y)`` (Hankerson, Menezes & Vanstone, *Guide to Elliptic Curve
Cryptography*, 2004, section 3.3). A key costs about 25 additions. Every
point is an affine ``(x, y)`` tuple. A batch adds its points in lockstep,
so the slopes of all the additions in one window share a single modular
inversion (Montgomery's simultaneous inversion; the same book, section
3.2). Curve: y^2 = x^3 + 7 over GF(p).

The table ships with the package as ``secp256k1_table.bin``, written by
``tools/make_secp256k1_table.py``, and is read once per process on first
use; a file whose length or SHA-256 differs from ``TABLE_BYTES`` and
``TABLE_SHA256`` is refused.

The chord rule needs two points with different x. For a valid scalar,
k in [1, ORDER - 1], the additions here never meet equal x. A key's first
non-zero digit sets its sum; before each later window i it has summed
S * G, S = sum(d_j * 1024**j for j < i), so |S| <= 512 * (1024**i - 1)
/ 1023 < 0.51 * 1024**i. Adding d * 1024**i * G, d != 0, meets equal x
only if S - d * 1024**i or S + d * 1024**i is a multiple of ORDER. Below
the top window both are non-zero, as |S| < |d| * 1024**i, and smaller
in magnitude than 513 * 1024**24 < ORDER. In the top window (i = 25),
1 <= d <= 64 and S + d * 2**250 = k lies in (0, ORDER); S - d * 2**250
lies in (-65 * 2**250, 0), so it could only be -ORDER, which needs
|d * 2**250 - ORDER| < 0.51 * 2**250, so d = 64 and S = 2**256 - ORDER:
that is k = 2**257 - ORDER > ORDER. Scalars outside [1, ORDER - 1] are
refused up front, and a zero x-difference anywhere raises ValueError
rather than return a wrong key.
"""

from __future__ import annotations

from functools import cache
from pathlib import Path

import numpy as np

P = 2**256 - 2**32 - 977
ORDER = int("FFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141", 16)
G = (
    0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798,
    0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8,
)

# Signed base-1024 digits: 26 windows hold 256 bits and the last carry.
WINDOW_BITS = 10
WINDOWS = 26
HALF = 1 << (WINDOW_BITS - 1)  # digits run over [-HALF, HALF - 1]
# k + _RECODE_OFFSET has, in each window, k's digit there plus HALF
_RECODE_OFFSET = sum(HALF << (WINDOW_BITS * i) for i in range(WINDOWS))

# d * 1024**i * G for each window i and d in 1..HALF, as affine x || y
TABLE_PATH = Path(__file__).with_name("secp256k1_table.bin")
TABLE_BYTES = WINDOWS * HALF * 64
TABLE_SHA256 = "2a9f56ac7914f288dc912d80d3965dd39bc9df1a44d7748ce02a9470227e7c7a"


def _inverses(values):
    """Inverses mod P of ``values`` with a single ``pow`` (Montgomery's
    trick); raises ValueError if any value is 0 mod P."""
    out = []
    acc = 1
    for v in values:
        out.append(acc)  # product of the values before v
        acc = acc * v % P
    inv = pow(acc, -1, P)  # inverse of the whole product
    for i in range(len(values) - 1, -1, -1):
        out[i] = inv * out[i] % P
        inv = inv * values[i] % P
    return out


def _add_into(points, lanes, addends):
    """Replace ``points[lane]`` by ``points[lane] + addend`` for each lane
    and its addend, all affine, with one shared inversion; raises
    ValueError if any pair has equal x."""
    inverses = _inverses([(x2 - points[lane][0]) % P for lane, (x2, _) in zip(lanes, addends)])
    for lane, (x2, y2), inv in zip(lanes, addends, inverses):
        x1, y1 = points[lane]
        slope = (y2 - y1) * inv % P
        x3 = (slope * slope - x1 - x2) % P
        points[lane] = (x3, (slope * (x1 - x3) - y1) % P)


@cache
def window_table():
    """``table[i][d] == d * 1024**i * G`` in affine form, for the 26
    windows ``i`` and digits ``d`` in [-512, 511]; a negative ``d`` is
    Python's index from the end, and ``table[i][0]`` is None.

    Read from ``TABLE_PATH`` on first use and kept for the process; the
    tuples are immutable, so every caller can share them. Raises
    ValueError if the file's length or SHA-256 is not the table's.
    """
    import hashlib  # here, so that only a process deriving keys loads OpenSSL

    data = TABLE_PATH.read_bytes()
    if len(data) != TABLE_BYTES or hashlib.sha256(data).hexdigest() != TABLE_SHA256:
        raise ValueError(f"{TABLE_PATH} is not the secp256k1 window table "
                         f"({TABLE_BYTES} bytes, sha256 {TABLE_SHA256})")
    from_bytes = int.from_bytes
    points = [(from_bytes(data[at:at + 32], "big"), from_bytes(data[at + 32:at + 64], "big"))
              for at in range(0, len(data), 64)]
    table = []
    for i in range(WINDOWS):
        positive = points[HALF * i:HALF * (i + 1)]  # d = 1..512
        table.append((None, *positive[:-1], *((x, P - y) for x, y in reversed(positive))))
    return tuple(table)


def _signed_digits(scalars) -> np.ndarray:
    """``(n, 26)`` digits of ``n`` scalars in [0, 2**256), each row's
    ``d[i]`` in [-512, 511] with ``sum(d[i] * 1024**i)`` its scalar; the
    top digit is at most 64."""
    # k + _RECODE_OFFSET < 2**260 in 35 bytes: 7 groups of 5 bytes, each
    # group a 40-bit word of four windows, 28 windows in all
    data = b"".join((k + _RECODE_OFFSET).to_bytes(35, "little") for k in scalars)
    groups = np.frombuffer(data, np.uint8).reshape(-1, 7, 5).astype(np.int64)
    words = groups @ (1 << np.arange(0, 40, 8))
    windows = (words[:, :, None] >> np.arange(0, 40, WINDOW_BITS)) & (2 * HALF - 1)
    return windows.reshape(-1, 28)[:, :WINDOWS] - HALF


def public_keys(scalars) -> np.ndarray:
    """Uncompressed public keys ``X || Y`` (32 bytes each, big-endian) of
    private ``scalars``, as an ``(n, 64)`` uint8 array, one key per row.
    Raises ValueError unless every scalar is in [1, ORDER - 1]."""
    scalars = list(scalars)
    if not all(0 < k < ORDER for k in scalars):
        raise ValueError("secp256k1 private scalars must be in [1, ORDER - 1]")
    sums = [None] * len(scalars)  # each key's running sum, None until its first digit
    for window, digits in zip(window_table(), _signed_digits(scalars).T.tolist()):
        lanes, addends = [], []
        for lane, d in enumerate(digits):
            if d:
                if sums[lane] is None:
                    sums[lane] = window[d]
                else:
                    lanes.append(lane)
                    addends.append(window[d])
        _add_into(sums, lanes, addends)
    coords = b"".join(x.to_bytes(32, "big") + y.to_bytes(32, "big") for x, y in sums)
    return np.frombuffer(coords, dtype=np.uint8).reshape(-1, 64)
