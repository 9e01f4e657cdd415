import math
import os
import subprocess
import sys

import numpy as np
import pytest

import pathlab
from pathlab import addrgen
from pathlab.addrgen import (
    SECP256K1_ORDER,
    InvalidPrivateKeyError,
    collision_probability,
    crypto_derive,
    generate,
)
from pathlab.keccak import keccak256
from pathlab.keyspace import to_nibbles
from pathlab.stats import PathLengthHistogram, chi_square_counts


def first_nibble_uniformity_p(addresses):
    hist = PathLengthHistogram.from_depths(a[0] >> 4 for a in addresses)
    uniform = {k: 1 / 16 for k in range(16)}
    return chi_square_counts(hist, uniform).p_value


def test_generate_rejects_unknown_mode():
    with pytest.raises(ValueError, match="unknown generator mode 'bogus'"):
        generate(1, mode="bogus")


def test_generate_rejects_negative_count():
    with pytest.raises(ValueError, match="non-negative"):
        generate(-1)


def test_empty_batch():
    batch = generate(0)
    assert batch.shape == (0, 20)
    assert batch.dtype == np.uint8


def test_determinism():
    assert np.array_equal(generate(500, 123), generate(500, 123))


def test_crypto_determinism():
    assert np.array_equal(generate(5, 9, "crypto"), generate(5, 9, "crypto"))


def test_distinct_seeds_differ():
    a = generate(10, 1)
    b = generate(10, 2)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("mode, first, second", [
    ("uniform", "5f82c2d9cfeb0fa321d7d982f8bd1045b8e8cd4e",
     "a93d7d0a1df04213b6273b043b51de2c787a32d0"),
    ("crypto", "ca8cfeb204289fbb3bab6a6b4d11cdef70b84352",
     "248f51ca0935ab012bd4b0b6fabf2e5f4fc6dabd"),
])
def test_pinned_first_keys(mode, first, second):
    """The key streams are part of every report: a change to how a batch
    is drawn changes every published result."""
    batch = generate(2, 0, mode)
    assert [bytes(row).hex() for row in batch] == [first, second]


@pytest.mark.parametrize("seed", [0, 1, 12345, 2**63 + 5])
def test_uniform_keys_match_pcg64_uint8_stream(seed):
    """``uniform`` keys are read from PCG64's raw 64-bit words; they must be
    the bytes numpy's full-range ``uint8`` draw gives on the same stream,
    including counts whose bytes end inside a word."""
    for count in (0, 1, 2, 3, 7, 1_000, 1_000_000):
        reference = np.random.default_rng(np.random.PCG64(seed)).integers(
            0, 256, (count, 20), np.uint8
        )
        keys = generate(count, seed)
        assert keys.dtype == np.uint8 and keys.shape == (count, 20)
        assert np.array_equal(keys, reference), count


def test_nibble_position_frequencies_within_4_sigma():
    addresses = generate(10_000, 11)
    n = len(addresses)
    p = 1 / 16
    sigma = math.sqrt(p * (1 - p) / n)
    nibbles = np.array([list(to_nibbles(bytes(row))) for row in addresses])
    for pos in range(40):
        counts = np.bincount(nibbles[:, pos], minlength=16)
        for digit in range(16):
            freq = counts[digit] / n
            assert abs(freq - p) < 4 * sigma, (pos, digit, freq)


def test_first_nibble_chi_square_100k():
    addresses = generate(100_000, 5)
    assert first_nibble_uniformity_p(addresses) > 0.001


def test_crypto_mode_uniformity():
    # smaller batch than uniform mode: the full pipeline costs ~0.11 ms per key
    addresses = generate(8_000, 5, "crypto")
    assert first_nibble_uniformity_p(addresses) > 0.001


def test_keccak_vectors():
    assert (
        keccak256(b"").hex()
        == "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"
    )
    assert (
        keccak256(b"abc").hex()
        == "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"
    )


def test_crypto_derive_known_keys():
    # cross-checked against standard wallet tooling for scalars 1 and 2
    assert crypto_derive(1).hex() == "7e5f4552091a69125d5dfcb7b8c2659029395bdf"
    assert crypto_derive(2).hex() == "2b5ad5c4795c026514f8317c7a215e218dccd6cf"
    assert crypto_derive((1).to_bytes(32, "big")) == crypto_derive(1)


def test_crypto_derive_rejects_zero():
    with pytest.raises(InvalidPrivateKeyError):
        crypto_derive(0)


def test_crypto_derive_rejects_group_order():
    with pytest.raises(InvalidPrivateKeyError):
        crypto_derive(SECP256K1_ORDER)


@pytest.mark.parametrize("length", [0, 31, 33])
def test_crypto_derive_rejects_wrong_key_length(length):
    """Only a 32-byte scalar is a private key, even when a shorter or
    zero-padded longer one would read as a valid integer."""
    with pytest.raises(InvalidPrivateKeyError, match="32 bytes"):
        crypto_derive(b"\x00" * (length - 1) + b"\x01" if length else b"")


def _drawn_scalars(seed, count, order=SECP256K1_ORDER):
    """The scalar stream drawn one 32-byte row at a time, with rejection."""
    rng = np.random.default_rng(np.random.PCG64(seed))
    scalars = []
    while len(scalars) < count:
        scalar = int.from_bytes(rng.integers(0, 256, size=32, dtype=np.uint8).tobytes(), "big")
        if 1 <= scalar < order:
            scalars.append(scalar)
    return scalars


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_crypto_batch_matches_per_key_derivation(seed):
    batch = generate(12, seed, "crypto")
    assert [bytes(row) for row in batch] == [
        crypto_derive(k) for k in _drawn_scalars(seed, 12)
    ]


def test_crypto_batch_size_does_not_change_keys(monkeypatch):
    whole = generate(10, 4, "crypto")
    monkeypatch.setattr(addrgen, "CRYPTO_BATCH", 3)
    assert np.array_equal(generate(10, 4, "crypto"), whole)


@pytest.mark.parametrize("seed", [0, 1])
def test_block_draw_matches_row_by_row_rejection(monkeypatch, seed):
    """With an order of 2**255, about half the 32-byte rows are rejected, so
    every batch has to top up its block draw from the same stream."""
    drawn = []

    def recording_public_keys(scalars):
        drawn.extend(scalars)
        return np.zeros((len(scalars), 64), dtype=np.uint8)

    monkeypatch.setattr(addrgen, "SECP256K1_ORDER", 2**255)
    monkeypatch.setattr(addrgen, "CRYPTO_BATCH", 7)
    monkeypatch.setattr(addrgen, "public_keys", recording_public_keys)
    generate(40, seed, "crypto")
    assert drawn == _drawn_scalars(seed, 40, order=2**255)
    assert drawn != _drawn_scalars(seed, 40)  # rows were rejected


def test_crypto_mode_needs_no_cryptography_package():
    """The curve arithmetic is pathlab's own; ``cryptography`` is a test
    oracle only, and importing it costs every run memory."""
    script = """
import sys
import pathlab.cli
from pathlab import addrgen
addrgen.generate(3, 1, "crypto")
print(" ".join(m for m in sys.modules if m.split(".")[0] == "cryptography"))
"""
    src = os.path.dirname(os.path.dirname(pathlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    assert out.stdout.split() == []


def test_collision_probability_zero():
    assert collision_probability(0) == 0.0


def test_collision_probability_birthday_point():
    assert collision_probability(2**80) == pytest.approx(1 - math.exp(-0.5), rel=1e-12)


def test_collision_probability_billion():
    # oracle: exponent n^2 / 2^161 is tiny, so 1 - exp(-x) ~ x to ~1e-31
    exponent = 10**18 / float(2**161)
    assert collision_probability(10**9) == pytest.approx(exponent, rel=1e-9)
    assert collision_probability(10**9) == pytest.approx(3.42e-31, rel=1e-2)


def test_collision_probability_monotone_bounded():
    values = [collision_probability(n) for n in (0, 1, 10**6, 10**12, 2**80, 2**82)]
    assert values == sorted(values)
    assert all(0 <= v < 1 for v in values)


def test_collision_probability_negative():
    with pytest.raises(ValueError):
        collision_probability(-1)
