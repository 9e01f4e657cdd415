"""Layer bench of ``crypto`` key derivation: scalars, EC points, Keccak.

    python tools/bench_crypto.py --label NAME [--src SRC]

For each of ``SIZES``, a fresh process imports ``pathlab`` from ``SRC`` (a
``src`` directory of any checkout with ``secp256k1.public_keys``) and
times, as the median of ``REPEATS`` calls each:

- ``window_table_s``: ``secp256k1.window_table`` built cold (cache cleared)
- ``draw_s``: ``addrgen.generate`` in ``crypto`` mode with the point and
  hash steps stubbed out, i.e. the scalar draw
- ``public_keys_s``: ``secp256k1.public_keys`` on the drawn scalars
- ``keccak256_rows_s``: ``keccak.keccak256_rows`` on the public keys
- ``generate_s``: the whole ``addrgen.generate`` call, table already built

It also records ``ru_maxrss_mb``, the process's peak RSS after all of the
above.

Then it times one ``harness.run_experiment`` call on the ``crypto-jobs2``
benchmark config (``EXPERIMENT``: 4 trials of 1,000 ``crypto`` keys), each
in a fresh process, ``REPEATS`` times each way, alternating: ``serial``
with the harness's CPU count forced to 1, and ``pooled`` as the program
runs it. Each way gives the median ``run_s`` and the largest
``parent_maxrss_mb`` (``RUSAGE_SELF``) and ``children_maxrss_mb``
(``RUSAGE_CHILDREN``: the largest pool worker, 0 when serial).

The results go into ``BENCH_crypto.json`` under ``runs[NAME]``, with
the machine that measured them; other labels already in the file are kept,
so a parent and a change can share one file.
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
OUT = ROOT / "BENCH_crypto.json"
SIZES = (1_000, 4_096)
REPEATS = 5
EXPERIMENT = {"sizes": (1_000,), "trials": 4, "master_seed": 1, "mode": "crypto"}


def _median_time(fn):
    times, result = [], None
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def measure(size: int) -> dict:
    """Time one size in this process; ``pathlab`` must be importable."""
    import resource

    import numpy as np

    from pathlab import addrgen, keccak, secp256k1

    def cold_table():
        secp256k1.window_table.cache_clear()
        return secp256k1.window_table()

    scalars = []

    def drawn_only(batch):
        scalars[:] = batch
        return np.zeros((len(batch), 64), dtype=np.uint8)

    cfg = addrgen.GeneratorConfig(mode="crypto", seed=1, count=size)
    row = {}
    row["window_table_s"], _ = _median_time(cold_table)
    derive = addrgen.public_keys, addrgen.keccak256_rows
    addrgen.public_keys = drawn_only
    addrgen.keccak256_rows = lambda keys: np.zeros((len(keys), 32), dtype=np.uint8)
    try:
        row["draw_s"], _ = _median_time(lambda: addrgen.generate(cfg))
    finally:
        addrgen.public_keys, addrgen.keccak256_rows = derive
    row["public_keys_s"], keys = _median_time(lambda: secp256k1.public_keys(scalars))
    row["keccak256_rows_s"], _ = _median_time(lambda: keccak.keccak256_rows(keys))
    row["generate_s"], _ = _median_time(lambda: addrgen.generate(cfg))
    row["ru_maxrss_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    return {k: round(v, 4) if isinstance(v, float) else v for k, v in row.items()}


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
    # ru_maxrss is in KiB on Linux
    return {"run_s": run_s,
            "parent_maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "children_maxrss_mb":
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024}


def _fresh(args, *extra) -> dict:
    out = subprocess.run(
        [sys.executable, __file__, "--src", args.src, "--label", args.label, *extra],
        capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="src directory to import pathlab from")
    ap.add_argument("--label", required=True, help="name of this run in the output")
    ap.add_argument("--one", type=int, help=argparse.SUPPRESS)
    ap.add_argument("--experiment", choices=("serial", "pooled"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.one is not None or args.experiment is not None:
        sys.path.insert(0, args.src)
        if args.one is not None:
            print(json.dumps(measure(args.one)))
        else:
            print(json.dumps(measure_experiment(args.experiment)))
        return 0

    rows = {}
    for size in SIZES:
        rows[str(size)] = _fresh(args, "--one", str(size))
        print(args.label, size, rows[str(size)], file=sys.stderr)

    calls = {"serial": [], "pooled": []}
    for _ in range(REPEATS):
        for way, runs in calls.items():
            runs.append(_fresh(args, "--experiment", way))
            print(args.label, way, runs[-1], file=sys.stderr)
    experiment = {"config": EXPERIMENT}
    for way, runs in calls.items():
        experiment[way] = {
            "run_s": round(statistics.median(r["run_s"] for r in runs), 4),
            "run_s_each": [round(r["run_s"], 4) for r in runs],
            **{key: round(max(r[key] for r in runs), 1)
               for key in ("parent_maxrss_mb", "children_maxrss_mb")},
        }

    import numpy as np

    bench = json.loads(OUT.read_text()) if OUT.exists() else {"runs": {}}
    bench["description"] = (
        "tools/bench_crypto.py: per batch size, a fresh process times the cold "
        "secp256k1 window table, the crypto scalar draw, secp256k1.public_keys, "
        "keccak.keccak256_rows and the whole addrgen.generate (medians of "
        "`repeats` calls), and ru_maxrss; `experiment`: one run_experiment call "
        "on the crypto-jobs2 config per fresh process, `repeats` times serial "
        "(CPU count forced to 1) and pooled, median run_s and the largest parent "
        "and children ru_maxrss"
    )
    machine = {"cpus": os.cpu_count(), "python": platform.python_version(),
               "numpy": np.__version__, "platform": platform.platform()}
    bench["runs"][args.label] = {"machine": machine, "repeats": REPEATS, "sizes": rows,
                                 "experiment": experiment}
    OUT.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
