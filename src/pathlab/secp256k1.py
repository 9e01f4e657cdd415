"""secp256k1 public keys for batches of private scalars, in Python ints.

One scalar-multiplication path: fixed-base windowing over a table of
affine multiples of the generator G (8-bit windows, 32 x 255 points),
accumulated with mixed Jacobian + affine additions, then one Montgomery
batch inversion to bring the whole batch back to affine coordinates
(Hankerson, Menezes & Vanstone, *Guide to Elliptic Curve Cryptography*,
2004, sections 3.2-3.3; the batch inversion is Montgomery's simultaneous
inversion). Curve: y^2 = x^3 + 7 over GF(p).

Points in Jacobian coordinates are ``(X, Y, Z)`` tuples standing for
``(X / Z^2, Y / Z^3)``; ``Z == 0`` is the point at infinity. Affine points
are ``(x, y)`` tuples.
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
INFINITY = (1, 1, 0)


def _double(p1):
    """2 * p1 (Jacobian, a = 0); a point with Y == 0 doubles to infinity."""
    x, y, z = p1
    yy = y * y % P
    s = 4 * x * yy % P
    m = 3 * x * x % P
    x3 = (m * m - 2 * s) % P
    return x3, (m * (s - x3) - 8 * yy * yy) % P, 2 * y * z % P


def _add_mixed(p1, q):
    """Jacobian ``p1`` plus affine ``q``, as a Jacobian point."""
    x1, y1, z1 = p1
    if not z1:
        return q[0], q[1], 1
    z1z1 = z1 * z1 % P
    h = (q[0] * z1z1 - x1) % P
    r = (q[1] * z1 * z1z1 - y1) % P
    if not h:
        # Same x: either the same point (double it) or its negation.
        return _double(p1) if not r else INFINITY
    hh = h * h % P
    hhh = h * hh % P
    v = x1 * hh % P
    x3 = (r * r - hhh - 2 * v) % P
    return x3, (r * (v - x3) - y1 * hhh) % P, z1 * h % P


def _to_affine(points):
    """Affine forms of Jacobian ``points`` with a single modular inversion
    (Montgomery's trick); raises ValueError if any point is at infinity."""
    prefix = []
    acc = 1
    for _, _, z in points:
        acc = acc * z % P
        prefix.append(acc)
    inv = pow(acc, -1, P)  # inverse of every Z at once
    out = [None] * len(points)
    for i in range(len(points) - 1, -1, -1):
        x, y, z = points[i]
        zinv = inv * prefix[i - 1] % P if i else inv
        inv = inv * z % P
        zinv2 = zinv * zinv % P
        out[i] = (x * zinv2 % P, y * zinv2 * zinv % P)
    return out


@cache
def window_table():
    """``table[i][d - 1] == d * 256**i * G`` in affine form, for the 32
    byte positions ``i`` and digits ``d`` in 1..255.

    Built on first use (about 0.1 s, 8,160 points) and kept for the
    process; the tuples are immutable, so every caller can share them.
    """
    table = []
    base = G  # 256**i * G for the window being built
    for _ in range(32):  # one window per byte of a scalar
        multiples = [(base[0], base[1], 1)]
        for _ in range(255):  # 2 * base .. 256 * base
            multiples.append(_add_mixed(multiples[-1], base))
        affine = _to_affine(multiples)
        table.append(tuple(affine[:-1]))
        base = affine[-1]
    return tuple(table)


def public_keys(scalars) -> np.ndarray:
    """Uncompressed public keys ``X || Y`` (32 bytes each, big-endian) of
    private ``scalars``, each in [1, ORDER - 1], as an ``(n, 64)`` uint8
    array, one key per row."""
    table = window_table()
    points = []
    for k in scalars:
        acc = INFINITY
        for window, digit in zip(table, k.to_bytes(32, "little")):
            if digit:
                acc = _add_mixed(acc, window[digit - 1])
        points.append(acc)
    coords = b"".join(
        x.to_bytes(32, "big") + y.to_bytes(32, "big") for x, y in _to_affine(points)
    )
    return np.frombuffer(coords, dtype=np.uint8).reshape(-1, 64)
