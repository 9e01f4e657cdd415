"""secp256k1 public keys for batches of private scalars, in Python ints.

One scalar-multiplication path: fixed-base windowing over a table of
affine multiples of the generator G (8-bit windows, 32 x 255 points).
Every point is an affine ``(x, y)`` tuple. A batch adds its points in
lockstep, so the slopes of all the additions in one step share a single
modular inversion (Montgomery's simultaneous inversion; Hankerson,
Menezes & Vanstone, *Guide to Elliptic Curve Cryptography*, 2004,
section 3.2). Curve: y^2 = x^3 + 7 over GF(p).

The chord rule needs two points with different x. The additions here
never meet equal x: before window w a key k has summed (k mod 256^w) * G,
and it adds d * 256^w * G with d >= 1. Both multiples lie in
(0, ORDER), they differ because k mod 256^w < d * 256^w, and they are
not negatives of each other because (k mod 256^w) + d * 256^w <= k < ORDER.
The table's own steps, d * B + B for d in 2..254, are distinct multiples
too. A zero x-difference would mean an invalid scalar; the inversion then
raises ValueError instead of returning a wrong key.
"""

from __future__ import annotations

from functools import cache

import numpy as np

P = 2**256 - 2**32 - 977
ORDER = int("FFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141", 16)
G = (
    0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798,
    0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8,
)


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
    """``table[i][d - 1] == d * 256**i * G`` in affine form, for the 32
    byte positions ``i`` and digits ``d`` in 1..255.

    Built on first use (about 0.04 s, 8,160 points) and kept for the
    process; the tuples are immutable, so every caller can share them.
    """
    powers = [G]  # 2**j * G, by affine doubling, up to 2 * 256**31 * G
    for _ in range(8 * 31 + 1):
        x, y = powers[-1]
        slope = 3 * x * x * pow(2 * y, -1, P) % P
        x3 = (slope * slope - 2 * x) % P
        powers.append((x3, (slope * (x - x3) - y) % P))
    bases = powers[::8]  # 256**i * G
    latest = powers[1::8]  # 2 * 256**i * G
    rows = [[base, point] for base, point in zip(bases, latest)]
    for _ in range(253):  # all windows step d * base -> (d + 1) * base at once
        _add_into(latest, range(32), bases)
        for row, point in zip(rows, latest):
            row.append(point)
    return tuple(map(tuple, rows))


def public_keys(scalars) -> np.ndarray:
    """Uncompressed public keys ``X || Y`` (32 bytes each, big-endian) of
    private ``scalars``, each in [1, ORDER - 1], as an ``(n, 64)`` uint8
    array, one key per row."""
    digits = [k.to_bytes(32, "little") for k in scalars]
    sums = [None] * len(digits)  # each key's running sum, None until its first digit
    for w, window in enumerate(window_table()):
        lanes, addends = [], []
        for lane, k in enumerate(digits):
            if k[w]:
                if sums[lane] is None:
                    sums[lane] = window[k[w] - 1]
                else:
                    lanes.append(lane)
                    addends.append(window[k[w] - 1])
        _add_into(sums, lanes, addends)
    coords = b"".join(x.to_bytes(32, "big") + y.to_bytes(32, "big") for x, y in sums)
    return np.frombuffer(coords, dtype=np.uint8).reshape(-1, 64)
