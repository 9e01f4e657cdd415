"""Layer bench of the trial kernel: key generation and ``trie.sorted_shape``.

    python tools/bench_kernel.py --label NAME [--src SRC]

For each of ``SIZES``, a fresh process imports ``pathlab`` from ``SRC`` (a
``src`` directory of any checkout whose kernel has the steps below), draws
that many uniform keys and times, as the median of ``REPEATS`` calls each:

- ``generate_s``: ``addrgen.generate``
- ``sorted_shape_s``: the whole kernel
- ``prefix_sort_s``, ``lcp_s``, ``sweep_s``: the kernel's steps (sorting
  the 8-byte key prefixes, the adjacent LCPs, the lcp-interval sweep)

It also records ``kernel_peak_x_keys``, the kernel's tracemalloc peak over
the keys' bytes, and ``ru_maxrss_mb``, the process's peak RSS after all of
the above. The results go into ``BENCH_sorted_shape.json`` under
``runs[NAME]``, with the machine that measured them; other labels already
in the file are kept, so a parent and a change can share one file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_sorted_shape.json"
SIZES = (100_000, 1_000_000, 10_000_000)
REPEATS = 3


def _median_time(fn):
    times, result = [], None
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def _sorted_prefixes(trie, keys):
    prefixes = trie._prefixes(keys)
    prefixes.sort()
    return prefixes


def measure(size: int) -> dict:
    """Time one size in this process; ``pathlab`` must be importable."""
    import resource
    import tracemalloc

    from pathlab import addrgen, trie

    cfg = addrgen.GeneratorConfig(mode="uniform", seed=1, count=size)
    row = {}
    row["generate_s"], keys = _median_time(lambda: addrgen.generate(cfg))
    row["sorted_shape_s"], _ = _median_time(lambda: trie.sorted_shape(keys))
    row["prefix_sort_s"], ordered = _median_time(lambda: _sorted_prefixes(trie, keys))
    row["lcp_s"], lcp = _median_time(lambda: trie._adjacent_lcps(keys, ordered))
    del ordered
    row["sweep_s"], _ = _median_time(lambda: trie._shape_from_lcps(lcp))
    del lcp
    tracemalloc.start()
    try:
        trie.sorted_shape(keys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    row["kernel_peak_x_keys"] = round(peak / keys.nbytes, 3)
    row["ru_maxrss_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    return {k: round(v, 4) if isinstance(v, float) else v for k, v in row.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="src directory to import pathlab from")
    ap.add_argument("--label", required=True, help="name of this run in the output")
    ap.add_argument("--one", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.one is not None:
        sys.path.insert(0, args.src)
        print(json.dumps(measure(args.one)))
        return 0

    rows = {}
    for size in SIZES:
        out = subprocess.run(
            [sys.executable, __file__, "--src", args.src, "--label", args.label,
             "--one", str(size)],
            capture_output=True, text=True, check=True,
        )
        rows[str(size)] = json.loads(out.stdout.splitlines()[-1])
        print(args.label, size, rows[str(size)], file=sys.stderr)

    import numpy as np

    bench = json.loads(OUT.read_text()) if OUT.exists() else {"runs": {}}
    bench["description"] = (
        "tools/bench_kernel.py: per size, a fresh process times addrgen.generate, "
        "trie.sorted_shape and its steps on uniform keys (medians of `repeats` "
        "calls), the kernel's tracemalloc peak over the keys' bytes and ru_maxrss"
    )
    machine = {"cpus": os.cpu_count(), "python": platform.python_version(),
               "numpy": np.__version__, "platform": platform.platform()}
    bench["runs"][args.label] = {"machine": machine, "repeats": REPEATS, "sizes": rows}
    OUT.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
