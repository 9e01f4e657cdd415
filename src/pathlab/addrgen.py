"""Deterministic, seedable generation of random 20-byte addresses.

``generate(count, seed=0, mode="uniform", start=0)`` returns ``count``
addresses as a ``(count, 20)`` uint8 array in one of the two ``MODES``:

* ``uniform`` (default): draw 20 octets straight from a seeded PCG64
  stream. PCG64 has 128-bit state and passes the standard statistical
  batteries (TestU01 BigCrush, PractRand), which is what matters for
  the path-length statistics; cryptographic unpredictability is not
  needed for reproducible experiments.
* ``crypto``: the full derivation pipeline — a seeded random valid
  secp256k1 private scalar, scalar-multiplied onto the generator point,
  with the address taken as the last 20 bytes of the Keccak-256 hash of
  the 64-byte uncompressed public-key coordinates (X || Y, no 0x04
  prefix byte). Keys are derived together, in batches of up to 4,096:
  fixed-base scalar multiplication with signed 10-bit windows over a
  shipped table, about 25 affine additions a key, one shared inversion
  per window (``pathlab.secp256k1``), then Keccak-256 over numpy lanes
  (``pathlab.keccak``). About 0.1 ms per key, plus about 0.02 s to load
  the table once per process (``tools/bench_layers.py crypto``), against
  microseconds for ``uniform``, and statistically indistinguishable
  from it.

In both modes ``start`` picks keys ``[start, start + count)`` of the
seed's stream, so a large key set can be read a chunk at a time and read
again, in the same bytes, without ever being held whole. ``uniform``
reaches its start with ``PCG64.advance``, without drawing the keys before
it; ``crypto`` draws their scalars, about 0.4 us a key, and derives none
of them.
"""

from __future__ import annotations

import math

import numpy as np

from .keccak import keccak256, keccak256_rows
from .keyspace import ADDRESS_BYTES
from .secp256k1 import ORDER as SECP256K1_ORDER
from .secp256k1 import public_keys

# Keys derived per batch in crypto mode: large enough to amortise the one
# modular inversion (``pow``) that a batch's point additions share in each
# of its 26 windows, small enough that the batch's Keccak lanes (25 x 8
# bytes per key) and points stay a few MB at any trial size.
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


def generate(count: int, seed: int = 0, mode: str = "uniform",
             start: int = 0) -> np.ndarray:
    """Produce ``count`` addresses as a ``(count, 20)`` uint8 array, one
    address per row; bit-exact for identical arguments.

    The rows are addresses ``[start, start + count)`` of the seed's
    stream: ``generate(c, s, m, start=k)`` equals ``generate(k + c, s, m)[k:]``
    in either mode.
    """
    if mode not in MODES:
        raise ValueError(f"unknown generator mode {mode!r}")
    if count < 0:
        raise ValueError("count must be non-negative")
    if start < 0:
        raise ValueError(f"{mode} addresses cannot start at {start}")
    if mode == "uniform":
        # The bytes ``integers(0, 256, (count, 20), uint8)`` gives on this
        # stream: numpy fills full-range uint8 from 32-bit draws, low byte
        # first, and PCG64 yields each 64-bit word's low half first. An
        # address is 2.5 words, so an odd ``start`` begins 4 bytes into one.
        words_before, offset = divmod(start * ADDRESS_BYTES, 8)
        nbytes = count * ADDRESS_BYTES
        bitgen = np.random.PCG64(seed)
        bitgen.advance(words_before)
        words = bitgen.random_raw(-(-(offset + nbytes) // 8))
        octets = words.astype("<u8", copy=False).view(np.uint8)
        return octets[offset:offset + nbytes].reshape(count, ADDRESS_BYTES)
    rng = np.random.default_rng(np.random.PCG64(seed))
    end = start + count
    addresses = np.empty((count, ADDRESS_BYTES), dtype=np.uint8)
    # Batches run from key 0 whatever the start: the scalars of the keys
    # before it are drawn, to keep the stream's place, and dropped, not
    # derived.
    for first in range(0, end, CRYPTO_BATCH):
        last = min(first + CRYPTO_BATCH, end)
        scalars = _draw_scalars(rng, last - first)
        if last > start:
            lo = max(first, start)
            addresses[lo - start:last - start] = keccak256_rows(
                public_keys(scalars[lo - first:]))[:, -ADDRESS_BYTES:]
    return addresses


def _draw_scalars(rng: np.random.Generator, count: int) -> list[int]:
    """The next ``count`` private scalars of ``rng``'s stream: 32-byte
    big-endian draws, those outside [1, group order - 1] rejected."""
    scalars = []
    while len(scalars) < count:
        # rejection keeps the scalars uniform over the group; the PCG64
        # uint8 stream is the same drawn in blocks or one row at a time,
        # and a block draws only as many rows as scalars are missing
        draws = rng.integers(0, 256, (count - len(scalars), 32), np.uint8).tobytes()
        for i in range(0, len(draws), 32):
            scalar = int.from_bytes(draws[i : i + 32], "big")
            if 1 <= scalar < SECP256K1_ORDER:
                scalars.append(scalar)
    return scalars


def collision_probability(n: int) -> float:
    """Birthday bound 1 - exp(-n^2 / 2^161) for n random addresses.

    Evaluated with expm1 so sub-epsilon exponents survive.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    exponent = (n * n) / float(2 ** (8 * ADDRESS_BYTES + 1))
    return -math.expm1(-exponent)
