"""Deterministic, seedable generation of random 20-byte addresses.

``generate(count, seed=0, mode="uniform")`` returns ``count`` addresses
as a ``(count, 20)`` uint8 array in one of the two ``MODES``:

* ``uniform`` (default): draw 20 octets straight from a seeded PCG64
  stream. PCG64 has 128-bit state and passes the standard statistical
  batteries (TestU01 BigCrush, PractRand), which is what matters for
  the path-length statistics; cryptographic unpredictability is not
  needed for reproducible experiments.
* ``crypto``: the full derivation pipeline — a seeded random valid
  secp256k1 private scalar, scalar-multiplied onto the generator point,
  with the address taken as the last 20 bytes of the Keccak-256 hash of
  the 64-byte uncompressed public-key coordinates (X || Y, no 0x04
  prefix byte). A trial's keys are derived together, in batches of
  up to 4,096: fixed-base windowed scalar multiplication in affine
  coordinates, one shared inversion per window (``pathlab.secp256k1``),
  then Keccak-256 over numpy lanes (``pathlab.keccak``). About 0.11 ms
  per key (``tools/bench_layers.py crypto``), against microseconds for
  ``uniform``, and statistically indistinguishable from it.
"""

from __future__ import annotations

import math

import numpy as np

from .keccak import keccak256, keccak256_rows
from .keyspace import ADDRESS_BYTES
from .secp256k1 import ORDER as SECP256K1_ORDER
from .secp256k1 import public_keys

# Keys derived per batch in crypto mode: large enough to amortise the one
# modular inversion (``pow``) per window that a batch's point additions
# share, small enough that the batch's Keccak lanes (25 x 8 bytes per key)
# and points stay a few MB at any trial size.
CRYPTO_BATCH = 4096

# The generator modes; the experiment config and the command line take
# their names from here.
MODES = ("uniform", "crypto")


class InvalidPrivateKeyError(ValueError):
    """Scalar outside [1, group order - 1]."""


def crypto_derive(private_key: bytes | int) -> bytes:
    """Derive the address for a secp256k1 private key.

    Accepts a 32-byte big-endian scalar or an int.
    """
    if isinstance(private_key, bytes):
        if len(private_key) != 32:
            raise InvalidPrivateKeyError(
                f"private key must be 32 bytes, got {len(private_key)}"
            )
        private_key = int.from_bytes(private_key, "big")
    if not 1 <= private_key <= SECP256K1_ORDER - 1:
        raise InvalidPrivateKeyError(
            "private key must be in [1, secp256k1 group order - 1]"
        )
    return keccak256(public_keys([private_key]).tobytes())[-ADDRESS_BYTES:]


def generate(count: int, seed: int = 0, mode: str = "uniform") -> np.ndarray:
    """Produce ``count`` addresses as a ``(count, 20)`` uint8 array, one
    address per row; bit-exact for identical arguments."""
    if mode not in MODES:
        raise ValueError(f"unknown generator mode {mode!r}")
    if count < 0:
        raise ValueError("count must be non-negative")
    if mode == "uniform":
        # The bytes ``integers(0, 256, (count, 20), uint8)`` gives on this
        # stream: numpy fills full-range uint8 from 32-bit draws, low byte
        # first, and PCG64 yields each 64-bit word's low half first.
        nbytes = count * ADDRESS_BYTES
        words = np.random.PCG64(seed).random_raw(-(-nbytes // 8))
        octets = words.astype("<u8", copy=False).view(np.uint8)
        return octets[:nbytes].reshape(count, ADDRESS_BYTES)
    rng = np.random.default_rng(np.random.PCG64(seed))
    addresses = np.empty((count, ADDRESS_BYTES), dtype=np.uint8)
    for start in range(0, count, CRYPTO_BATCH):
        rows = addresses[start : start + CRYPTO_BATCH]
        scalars = []
        while len(scalars) < len(rows):
            # rejection keeps the scalars uniform over the group; the PCG64
            # uint8 stream is the same drawn in blocks or one row at a time
            draws = rng.integers(0, 256, (len(rows) - len(scalars), 32), np.uint8).tobytes()
            for i in range(0, len(draws), 32):
                scalar = int.from_bytes(draws[i : i + 32], "big")
                if 1 <= scalar < SECP256K1_ORDER:
                    scalars.append(scalar)
        rows[:] = keccak256_rows(public_keys(scalars))[:, -ADDRESS_BYTES:]
    return addresses


def collision_probability(n: int) -> float:
    """Birthday bound 1 - exp(-n^2 / 2^161) for n random addresses.

    Evaluated with expm1 so sub-epsilon exponents survive.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    exponent = (n * n) / float(2 ** (8 * ADDRESS_BYTES + 1))
    return -math.expm1(-exponent)
