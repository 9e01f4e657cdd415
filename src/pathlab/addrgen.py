"""Deterministic, seedable generation of random 20-byte addresses.

Two modes:

* ``uniform`` (default): draw 20 octets straight from a seeded PCG64
  stream. PCG64 has 128-bit state and passes the standard statistical
  batteries (TestU01 BigCrush, PractRand), which is what matters for
  the path-length statistics; cryptographic unpredictability is not
  needed for reproducible experiments.
* ``crypto``: the full derivation pipeline — a seeded random valid
  secp256k1 private scalar, scalar-multiplied onto the generator point,
  with the address taken as the last 20 bytes of the Keccak-256 hash of
  the 64-byte uncompressed public-key coordinates (X || Y, no 0x04
  prefix byte). Roughly three orders of magnitude slower and
  statistically indistinguishable from ``uniform``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np
from cryptography.hazmat.primitives.asymmetric import ec

from .keccak import keccak256

SECP256K1_ORDER = int(
    "FFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141", 16
)

ADDRESS_SPACE_BITS = 160


class InvalidPrivateKeyError(ValueError):
    """Scalar outside [1, group order - 1]."""


@dataclass(frozen=True)
class GeneratorConfig:
    mode: Literal["uniform", "crypto"] = "uniform"
    seed: int = 0
    count: int = 0

    def __post_init__(self):
        if self.mode not in ("uniform", "crypto"):
            raise ValueError(f"unknown generator mode {self.mode!r}")
        if self.count < 0:
            raise ValueError("count must be non-negative")


def crypto_derive(private_key: bytes | int) -> bytes:
    """Derive the address for a secp256k1 private key.

    Accepts a 32-byte big-endian scalar or an int.
    """
    scalar = (
        int.from_bytes(private_key, "big")
        if isinstance(private_key, bytes)
        else private_key
    )
    if not 1 <= scalar <= SECP256K1_ORDER - 1:
        raise InvalidPrivateKeyError(
            "private key must be in [1, secp256k1 group order - 1]"
        )
    key = ec.derive_private_key(scalar, ec.SECP256K1())
    numbers = key.public_key().public_numbers()
    public = numbers.x.to_bytes(32, "big") + numbers.y.to_bytes(32, "big")
    return keccak256(public)[-20:]


def generate(cfg: GeneratorConfig) -> np.ndarray:
    """Produce ``cfg.count`` addresses as a ``(count, 20)`` uint8 array, one
    address per row; bit-exact for identical configs."""
    rng = np.random.default_rng(np.random.PCG64(cfg.seed))
    if cfg.mode == "uniform":
        return rng.integers(0, 256, size=(cfg.count, 20), dtype=np.uint8)
    addresses = np.empty((cfg.count, 20), dtype=np.uint8)
    for row in addresses:
        scalar = 0
        while not 1 <= scalar <= SECP256K1_ORDER - 1:
            # rejection keeps the scalar uniform over the group
            scalar = int.from_bytes(rng.integers(0, 256, size=32, dtype=np.uint8).tobytes(), "big")
        row[:] = np.frombuffer(crypto_derive(scalar), dtype=np.uint8)
    return addresses


def collision_probability(n: int) -> float:
    """Birthday bound 1 - exp(-n^2 / 2^161) for n random addresses.

    Evaluated with expm1 so sub-epsilon exponents survive.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    exponent = (n * n) / float(2 ** (ADDRESS_SPACE_BITS + 1))
    return -math.expm1(-exponent)
