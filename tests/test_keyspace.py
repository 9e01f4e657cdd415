import numpy as np
import pytest

from pathlab.keyspace import AddressError, from_nibbles, longest_common_prefix, to_nibbles


def test_to_nibbles_zero():
    assert to_nibbles(b"\x00" * 20) == bytes(40)


def test_to_nibbles_leading_bytes(addr):
    assert to_nibbles(addr("742d"))[:4] == bytes([7, 4, 2, 13])


def test_nibble_roundtrip_random():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        a = rng.integers(0, 256, size=20, dtype=np.uint8).tobytes()
        assert from_nibbles(to_nibbles(a)) == a


def test_nibble_conversion_rejects_malformed_input():
    with pytest.raises(AddressError, match="20 bytes, got 19"):
        to_nibbles(bytes(19))
    with pytest.raises(AddressError, match="40 nibbles"):
        from_nibbles(bytes(39))
    with pytest.raises(AddressError, match="out of range"):
        from_nibbles(bytes(39) + b"\x10")


def test_lcp_identical():
    p = to_nibbles(b"\xab" * 20)
    assert longest_common_prefix(p, p) == 40


def test_lcp_first_nibble_differs(addr):
    assert longest_common_prefix(to_nibbles(addr("aa")), to_nibbles(addr("1a"))) == 0


def test_lcp_hand_case(addr):
    assert longest_common_prefix(to_nibbles(addr("aa")), to_nibbles(addr("ab"))) == 1


def test_lcp_symmetric():
    rng = np.random.default_rng(2)
    for _ in range(200):
        a = to_nibbles(rng.integers(0, 256, size=20, dtype=np.uint8).tobytes())
        b = to_nibbles(rng.integers(0, 256, size=20, dtype=np.uint8).tobytes())
        assert longest_common_prefix(a, b) == longest_common_prefix(b, a)
