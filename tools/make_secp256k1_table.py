"""Write ``src/pathlab/secp256k1_table.bin``, the fixed-base window table
that ``pathlab.secp256k1.window_table`` reads, and print its length and
SHA-256, the two constants that module checks the file against.

    python tools/make_secp256k1_table.py [--out PATH]

The file holds ``d * 1024**i * G`` for the 26 windows ``i`` and the digits
``d`` in 1..512, window by window, each point as its affine ``x || y``
(32 bytes each, big-endian). It is built here in Python ints: 251 affine
doublings give each window's base ``B = 1024**i * G`` and ``2 * B``, then
510 rounds add ``B`` to every window's latest multiple at once, with one
shared inversion per round. ``d * B`` and ``B`` never share an x here:
that would need ``(d - 1) * 1024**i`` or ``(d + 1) * 1024**i`` to be a
multiple of the prime group order, and both factors are below it.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from pathlab.secp256k1 import G, HALF, P, TABLE_PATH, WINDOW_BITS, WINDOWS, _add_into  # noqa: E402


def table_bytes() -> bytes:
    """The table file's contents."""
    powers = [G]  # 2**j * G, by affine doubling, up to 2 * 1024**25 * G
    for _ in range(WINDOW_BITS * (WINDOWS - 1) + 1):
        x, y = powers[-1]
        slope = 3 * x * x * pow(2 * y, -1, P) % P
        x3 = (slope * slope - 2 * x) % P
        powers.append((x3, (slope * (x - x3) - y) % P))
    bases = powers[::WINDOW_BITS]  # 1024**i * G
    latest = powers[1::WINDOW_BITS]  # 2 * 1024**i * G
    rows = [[base, point] for base, point in zip(bases, latest)]
    for _ in range(HALF - 2):  # every window steps d * base -> (d + 1) * base at once
        _add_into(latest, range(WINDOWS), bases)
        for row, point in zip(rows, latest):
            row.append(point)
    return b"".join(x.to_bytes(32, "big") + y.to_bytes(32, "big")
                    for row in rows for x, y in row)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=TABLE_PATH,
                    help="where to write the table (default: the package's own)")
    args = ap.parse_args(argv)
    data = table_bytes()
    args.out.write_bytes(data)
    print(f"{args.out}: {len(data)} bytes, sha256 {hashlib.sha256(data).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
