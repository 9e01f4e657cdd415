"""Canonical address / nibble-path representation.

An address is 20 raw bytes (rendered as 40 lowercase hex characters); a
nibble path is a ``bytes`` object whose elements are 4-bit symbols in
``[0, 15]``. A full key corresponds to a path of exactly 40 nibbles, one
per hex digit, high nibble of each byte first.
"""

from __future__ import annotations

import string

ADDRESS_BYTES = 20
ADDRESS_NIBBLES = 40

_HEX_DIGITS = frozenset(string.hexdigits)


class AddressError(ValueError):
    """Raised when a hex string is not a valid 20-byte address."""


def parse_address(text: str) -> bytes:
    """Parse a 40-hex-char string (optional ``0x`` prefix, any case).

    Raises :class:`AddressError` naming the offending position for
    non-hex characters, or the actual length when it is wrong.
    """
    body = text[2:] if text[:2].lower() == "0x" else text
    if len(body) != ADDRESS_NIBBLES:
        raise AddressError(
            f"address must be {ADDRESS_NIBBLES} hex characters, got {len(body)}"
        )
    for pos, ch in enumerate(body):
        if ch not in _HEX_DIGITS:
            raise AddressError(f"invalid hex character {ch!r} at position {pos}")
    return bytes.fromhex(body)


def format_address(address: bytes) -> str:
    """Render an address in canonical lowercase form with ``0x`` prefix."""
    if len(address) != ADDRESS_BYTES:
        raise AddressError(f"address must be {ADDRESS_BYTES} bytes, got {len(address)}")
    return "0x" + address.hex()


# Hex digit <-> nibble value, as byte-translation tables.
_HEX_TO_NIBBLE = bytes.maketrans(b"0123456789abcdef", bytes(range(16)))
_NIBBLE_TO_HEX = bytes.maketrans(bytes(range(16)), b"0123456789abcdef")


def to_nibbles(address: bytes) -> bytes:
    """Expand a 20-byte address into its 40-nibble path."""
    if len(address) != ADDRESS_BYTES:
        raise AddressError(f"address must be {ADDRESS_BYTES} bytes, got {len(address)}")
    return address.hex().encode("ascii").translate(_HEX_TO_NIBBLE)


def from_nibbles(path: bytes) -> bytes:
    """Pack a 40-nibble path back into 20 bytes; inverse of :func:`to_nibbles`."""
    if len(path) != ADDRESS_NIBBLES:
        raise AddressError(f"full key path must be {ADDRESS_NIBBLES} nibbles")
    if max(path) > 15:
        raise AddressError("nibble out of range [0, 15]")
    return bytes.fromhex(bytes(path).translate(_NIBBLE_TO_HEX).decode("ascii"))


def longest_common_prefix(a: bytes, b: bytes) -> int:
    """Number of leading nibbles shared by two paths."""
    n = min(len(a), len(b))
    i = 0
    while i < n and a[i] == b[i]:
        i += 1
    return i
