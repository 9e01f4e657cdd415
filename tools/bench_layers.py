"""Layer benches of the trial kernel and of ``crypto`` key derivation.

    python tools/bench_layers.py {kernel,crypto} --label NAME [--src SRC]

For each of the bench's sizes, a fresh process imports ``pathlab`` from
``SRC`` (a ``src`` directory of any checkout with the steps below), times
each step as the median of the bench's ``repeats`` calls and records
``ru_maxrss_mb``, its peak RSS after all of them. The results go into the
bench's file under ``runs[NAME]``, with the machine that measured them;
other labels already in the file are kept, so a parent and a change can
share one file.

``kernel`` (1e5, 1e6 and 1e7 uniform keys, 3 calls each), into
``BENCH_sorted_shape.json``:

- ``generate_s``: ``addrgen.generate``
- ``sorted_shape_s``: the whole ``trie.sorted_shape`` kernel
- ``prefix_sort_s``, ``lcp_s``, ``sweep_s``: the kernel's steps (sorting
  the 8-byte key prefixes, the adjacent LCPs, the lcp-interval sweep)
- ``kernel_peak_x_keys``: the kernel's tracemalloc peak over the keys' bytes

``crypto`` (1,000 and 4,096 keys, 5 calls each), into ``BENCH_crypto.json``:

- ``window_table_s``: ``secp256k1.window_table`` built cold (cache cleared)
- ``draw_s``: ``addrgen.generate`` in ``crypto`` mode with the point and
  hash steps stubbed out, i.e. the scalar draw
- ``public_keys_s``: ``secp256k1.public_keys`` on the drawn scalars
- ``keccak256_rows_s``: ``keccak.keccak256_rows`` on the public keys
- ``generate_s``: the whole ``addrgen.generate`` call, table already built

``crypto`` then times one ``harness.run_experiment`` call on the
``crypto-jobs2`` benchmark config (``EXPERIMENT``: 4 trials of 1,000
``crypto`` keys), each in a fresh process, ``repeats`` times each way,
alternating: ``serial`` with the harness's CPU count forced to 1, and
``pooled`` as the program runs it. Each way gives the median ``run_s`` and
the largest ``parent_maxrss_mb`` (``RUSAGE_SELF``) and
``children_maxrss_mb`` (``RUSAGE_CHILDREN``: the largest pool worker, 0
when serial).
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
EXPERIMENT = {"sizes": (1_000,), "trials": 4, "master_seed": 1, "mode": "crypto"}


def _median_time(fn, repeats: int):
    times, result = [], None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def _finish_row(row: dict) -> dict:
    import resource

    # ru_maxrss is in KiB on Linux
    row["ru_maxrss_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    return {k: round(v, 4) if isinstance(v, float) else v for k, v in row.items()}


def _sorted_prefixes(trie, keys):
    prefixes = trie._prefixes(keys)
    prefixes.sort()
    return prefixes


def measure_kernel(size: int, repeats: int) -> dict:
    """Time one size in this process; ``pathlab`` must be importable."""
    import tracemalloc

    from pathlab import addrgen, trie

    row = {}
    row["generate_s"], keys = _median_time(lambda: addrgen.generate(size, 1), repeats)
    row["sorted_shape_s"], _ = _median_time(lambda: trie.sorted_shape(keys), repeats)
    row["prefix_sort_s"], ordered = _median_time(
        lambda: _sorted_prefixes(trie, keys), repeats)
    row["lcp_s"], lcp = _median_time(lambda: trie._adjacent_lcps(keys, ordered), repeats)
    del ordered
    row["sweep_s"], _ = _median_time(lambda: trie._shape_from_lcps(lcp), repeats)
    del lcp
    tracemalloc.start()
    try:
        trie.sorted_shape(keys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    row["kernel_peak_x_keys"] = round(peak / keys.nbytes, 3)
    return _finish_row(row)


def measure_crypto(size: int, repeats: int) -> dict:
    """Time one size in this process; ``pathlab`` must be importable."""
    import numpy as np

    from pathlab import addrgen, keccak, secp256k1

    def cold_table():
        secp256k1.window_table.cache_clear()
        return secp256k1.window_table()

    scalars = []

    def drawn_only(batch):
        scalars[:] = batch
        return np.zeros((len(batch), 64), dtype=np.uint8)

    row = {}
    row["window_table_s"], _ = _median_time(cold_table, repeats)
    derive = addrgen.public_keys, addrgen.keccak256_rows
    addrgen.public_keys = drawn_only
    addrgen.keccak256_rows = lambda keys: np.zeros((len(keys), 32), dtype=np.uint8)
    try:
        row["draw_s"], _ = _median_time(lambda: addrgen.generate(size, 1, "crypto"), repeats)
    finally:
        addrgen.public_keys, addrgen.keccak256_rows = derive
    row["public_keys_s"], keys = _median_time(lambda: secp256k1.public_keys(scalars), repeats)
    row["keccak256_rows_s"], _ = _median_time(lambda: keccak.keccak256_rows(keys), repeats)
    row["generate_s"], _ = _median_time(lambda: addrgen.generate(size, 1, "crypto"), repeats)
    return _finish_row(row)


def measure_experiment(way: str) -> dict:
    """One ``run_experiment`` call in this process, ``serial`` or ``pooled``."""
    import resource

    from pathlab import harness

    if way == "serial":
        harness._cpu_count = lambda: 1
    cfg = harness.ExperimentConfig(**EXPERIMENT)
    start = time.perf_counter()
    harness.run_experiment(cfg)
    run_s = time.perf_counter() - start
    return {"run_s": run_s,
            "parent_maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "children_maxrss_mb":
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024}


BENCHES = {
    "kernel": {
        "out": ROOT / "BENCH_sorted_shape.json",
        "sizes": (100_000, 1_000_000, 10_000_000),
        "repeats": 3,
        "measure": measure_kernel,
        "description": (
            "tools/bench_layers.py kernel: per size, a fresh process times "
            "addrgen.generate, trie.sorted_shape and its steps on uniform keys "
            "(medians of `repeats` calls), the kernel's tracemalloc peak over the "
            "keys' bytes and ru_maxrss"
        ),
    },
    "crypto": {
        "out": ROOT / "BENCH_crypto.json",
        "sizes": (1_000, 4_096),
        "repeats": 5,
        "measure": measure_crypto,
        "description": (
            "tools/bench_layers.py crypto: per batch size, a fresh process times "
            "the cold secp256k1 window table, the crypto scalar draw, "
            "secp256k1.public_keys, keccak.keccak256_rows and the whole "
            "addrgen.generate (medians of `repeats` calls), and ru_maxrss; "
            "`experiment`: one run_experiment call on the crypto-jobs2 config per "
            "fresh process, `repeats` times serial (CPU count forced to 1) and "
            "pooled, median run_s and the largest parent and children ru_maxrss"
        ),
    },
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("bench", choices=sorted(BENCHES))
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="src directory to import pathlab from")
    ap.add_argument("--label", required=True, help="name of this run in the output")
    ap.add_argument("--one", type=int, help=argparse.SUPPRESS)
    ap.add_argument("--experiment", choices=("serial", "pooled"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    bench = BENCHES[args.bench]

    if args.one is not None or args.experiment is not None:
        sys.path.insert(0, args.src)
        if args.one is not None:
            print(json.dumps(bench["measure"](args.one, bench["repeats"])))
        else:
            print(json.dumps(measure_experiment(args.experiment)))
        return 0

    def fresh(*extra) -> dict:
        out = subprocess.run(
            [sys.executable, __file__, args.bench, "--src", args.src,
             "--label", args.label, *extra],
            capture_output=True, text=True, check=True,
        )
        return json.loads(out.stdout.splitlines()[-1])

    run = {"repeats": bench["repeats"], "sizes": {}}
    for size in bench["sizes"]:
        run["sizes"][str(size)] = fresh("--one", str(size))
        print(args.label, size, run["sizes"][str(size)], file=sys.stderr)
    if args.bench == "crypto":
        calls = {"serial": [], "pooled": []}
        for _ in range(bench["repeats"]):
            for way, runs in calls.items():
                runs.append(fresh("--experiment", way))
                print(args.label, way, runs[-1], file=sys.stderr)
        run["experiment"] = {"config": EXPERIMENT}
        for way, runs in calls.items():
            run["experiment"][way] = {
                "run_s": round(statistics.median(r["run_s"] for r in runs), 4),
                "run_s_each": [round(r["run_s"], 4) for r in runs],
                **{key: round(max(r[key] for r in runs), 1)
                   for key in ("parent_maxrss_mb", "children_maxrss_mb")},
            }

    import numpy as np

    run["machine"] = {"cpus": os.cpu_count(), "python": platform.python_version(),
                      "numpy": np.__version__, "platform": platform.platform()}
    results = json.loads(bench["out"].read_text()) if bench["out"].exists() else {"runs": {}}
    results["description"] = bench["description"]
    results["runs"][args.label] = run
    bench["out"].write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
