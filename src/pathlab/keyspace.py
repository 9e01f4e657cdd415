"""Address widths and the address <-> nibble-path conversion.

An address is 20 raw bytes; a nibble path is a ``bytes`` object whose
elements are 4-bit symbols in ``[0, 15]``. A full key corresponds to a
path of exactly 40 nibbles, one per hex digit, high nibble of each byte
first. :func:`longest_common_prefix` counts the nibbles two paths share.
"""

from __future__ import annotations

ADDRESS_BYTES = 20
ADDRESS_NIBBLES = 40


class AddressError(ValueError):
    """Raised when an address or a nibble path has the wrong length or a
    nibble is out of range."""


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
