"""Layer benches of the trial kernel, ``crypto`` key derivation and the
trial pool.

    python tools/bench_layers.py {kernel,crypto,pool} --label NAME [--src SRC]
        [--sizes N,N,...] [--validate-only]

For each size of the ``kernel`` and ``crypto`` benches, a fresh process
imports ``pathlab`` from ``SRC`` (a ``src`` directory of any checkout with
the steps below), times each step as the median of the bench's ``repeats``
calls and records ``ru_maxrss_mb``, its peak RSS after all of them. The
results of every bench go into the bench's file under ``runs[NAME]``, with
the machine that measured them; other labels already in the file are
kept, so a parent and a change can share one file. ``--sizes`` replaces the bench's sizes; the label's rows
at other sizes are kept, so two labels can be measured alternately, one
size at a time.

``kernel`` (1e5, 1e6 and 1e7 uniform keys, 3 calls each), into
``BENCH_sorted_shape.json``. The keys are a ``uniform`` trial's (seed 1),
read by the kernel a block at a time from ``addrgen.generate`` as the
harness gives them, so no step holds them whole:

- ``streamed_shape_s``: the whole ``trie.streamed_shape`` kernel, key
  generation included
- ``fill_s``, ``sort_s``, ``lcp_s``, ``sweep_s``: the kernel's steps, run in
  order: drawing the keys into the 8-byte prefix array
  (``trie._fill_prefixes``), sorting it in place, the adjacent LCPs
  (``trie._prefix_lcps``) and the lcp-interval sweep (``trie._sweep``)
- ``kernel_peak_bytes_per_key``: the whole kernel's tracemalloc peak over
  the key count
- ``validate_s``, ``validate_maxrss_mb``: a one-trial ``pathlab validate``
  of the size in its own fresh process, wall time and ``ru_maxrss``

``--validate-only`` measures only ``validate_*``, which any checkout's
command line gives, so a parent from before the streamed kernel can be
measured too.

``crypto`` (1,000 and 4,096 keys, 5 calls each), into ``BENCH_crypto.json``:

- ``window_table_s``: ``secp256k1.window_table`` built cold (cache cleared)
- ``draw_s``: ``addrgen.generate`` in ``crypto`` mode with the point and
  hash steps stubbed out, i.e. the scalar draw
- ``public_keys_s``: ``secp256k1.public_keys`` on the drawn scalars
- ``keccak256_rows_s``: ``keccak.keccak256_rows`` on the public keys
- ``generate_s``: the whole ``addrgen.generate`` call, table already built

``pool`` (the ``POOL_CONFIGS``, 10 calls each way), into ``BENCH_pool.json``:
one ``harness.run_experiment`` call per fresh process, alternating
``serial``, with the harness's CPU count forced to 1, and ``pooled``, with
``harness.POOL_FROM_KEYS`` set to 0 for every mode, so that a config below
the ``uniform`` threshold is forked too. The configs are the benchmark's
``validate-paper`` and ``crypto-jobs2``, which the program pools as they
are, and ``uniform`` configs around the threshold. Each way gives the
median ``run_s`` and the largest ``parent_maxrss_mb`` (``RUSAGE_SELF``)
and ``children_maxrss_mb`` (``RUSAGE_CHILDREN``: the largest worker, 0
when serial); each config gives ``pooled_over_serial``, the ratio of the
medians, and ``pooled_faster``, the pairs in which ``pooled`` was faster.
A checkout without the threshold pools only what it always pools.
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
POOL_CONFIGS = {
    "validate-paper": {"sizes": (100, 1_000, 10_000, 100_000), "trials": 10,
                       "master_seed": 1, "mode": "uniform"},
    "crypto-jobs2": {"sizes": (1_000,), "trials": 4, "master_seed": 1, "mode": "crypto"},
    "uniform-1e4x10": {"sizes": (10_000,), "trials": 10, "master_seed": 1, "mode": "uniform"},
    "uniform-1e5x2": {"sizes": (100_000,), "trials": 2, "master_seed": 1, "mode": "uniform"},
    "uniform-1e5x4": {"sizes": (100_000,), "trials": 4, "master_seed": 1, "mode": "uniform"},
    "uniform-1e6x2": {"sizes": (1_000_000,), "trials": 2, "master_seed": 1,
                      "mode": "uniform", "allow_large": True},
}


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


def measure_kernel(size: int, repeats: int) -> dict:
    """Time one size in this process; ``pathlab`` must be importable."""
    import tracemalloc

    from pathlab import addrgen, trie

    def read(lo, hi):
        return addrgen.generate(hi - lo, 1, "uniform", lo)

    row = {}
    row["streamed_shape_s"], _ = _median_time(
        lambda: trie.streamed_shape(read, size), repeats)
    steps = {"fill_s": [], "sort_s": [], "lcp_s": [], "sweep_s": []}
    for _ in range(repeats):
        t0 = time.perf_counter()
        ordered = trie._fill_prefixes(read, size)
        t1 = time.perf_counter()
        ordered.sort()
        t2 = time.perf_counter()
        # indexed, not unpacked: other checkouts return a different number
        padded = trie._prefix_lcps(ordered)[0]
        t3 = time.perf_counter()
        del ordered
        trie._sweep(padded)
        t4 = time.perf_counter()
        del padded
        for name, t in zip(steps, (t1 - t0, t2 - t1, t3 - t2, t4 - t3)):
            steps[name].append(t)
    row.update((name, statistics.median(times)) for name, times in steps.items())
    tracemalloc.start()
    try:
        trie.streamed_shape(read, size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    row["kernel_peak_bytes_per_key"] = round(peak / size, 3)
    return _finish_row(row)


def measure_validate(size: int, src: str) -> dict:
    """A one-trial ``validate`` of ``size`` keys in a fresh process."""
    import resource

    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "pathlab.cli", "validate", "--sizes", str(size),
         "--trials", "1", "--seed", "1", "--allow-large", "--format", "json",
         "--out", os.devnull],
        env=dict(os.environ, PYTHONPATH=src), check=True,
    )
    return {"validate_s": round(time.perf_counter() - start, 4),
            "validate_maxrss_mb": round(
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, 1)}


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


def measure_experiment(config: dict, way: str) -> dict:
    """One ``run_experiment`` call on ``config`` in this process, ``serial``
    or ``pooled``."""
    import resource

    from pathlab import harness

    if way == "serial":
        harness._cpu_count = lambda: 1
    else:
        harness.POOL_FROM_KEYS = dict.fromkeys(("uniform", "crypto"), 0)
    cfg = harness.ExperimentConfig(**config)
    start = time.perf_counter()
    harness.run_experiment(cfg)
    run_s = time.perf_counter() - start
    return {"run_s": run_s,
            "parent_maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "children_maxrss_mb":
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024}


def summarize_ways(calls: dict) -> dict:
    """Each way's median ``run_s`` and largest peaks, and how ``pooled``
    compares with ``serial`` over the alternated pairs."""
    out = {}
    for way, runs in calls.items():
        out[way] = {
            "run_s": round(statistics.median(r["run_s"] for r in runs), 4),
            "run_s_each": [round(r["run_s"], 4) for r in runs],
            **{key: round(max(r[key] for r in runs), 1)
               for key in ("parent_maxrss_mb", "children_maxrss_mb")},
        }
    out["pooled_over_serial"] = round(out["pooled"]["run_s"] / out["serial"]["run_s"], 3)
    out["pooled_faster"] = sum(
        p["run_s"] < s["run_s"] for s, p in zip(calls["serial"], calls["pooled"]))
    return out


BENCHES = {
    "kernel": {
        "out": ROOT / "BENCH_sorted_shape.json",
        "sizes": (100_000, 1_000_000, 10_000_000),
        "repeats": 3,
        "measure": measure_kernel,
        "description": (
            "tools/bench_layers.py kernel: per size, a fresh process times "
            "trie.streamed_shape and its steps (fill, sort, lcp, sweep) on a "
            "uniform trial's keys read a block at a time (medians of `repeats` "
            "calls), the kernel's tracemalloc peak over the key count and "
            "ru_maxrss; validate_*: a one-trial `pathlab validate` in its own "
            "fresh process, wall time and ru_maxrss (the only keys of a "
            "--validate-only run)"
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
            "`experiment` (earlier runs only; the pool bench measures it now): one "
            "run_experiment call on the crypto-jobs2 config per fresh process, "
            "`repeats` times serial (CPU count forced to 1) and pooled, median "
            "run_s and the largest parent and children ru_maxrss"
        ),
    },
    "pool": {
        "out": ROOT / "BENCH_pool.json",
        "repeats": 10,
        "description": (
            "tools/bench_layers.py pool: per config, one run_experiment call per "
            "fresh process, `repeats` times each way, alternating serial (CPU "
            "count forced to 1) and pooled (POOL_FROM_KEYS 0 for every mode); per "
            "way the median run_s, each run_s and the largest parent "
            "(RUSAGE_SELF) and children (RUSAGE_CHILDREN) ru_maxrss; "
            "pooled_over_serial, the ratio of the medians, and pooled_faster, "
            "the pairs in which pooled was faster"
        ),
    },
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("bench", choices=sorted(BENCHES))
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="src directory to import pathlab from")
    ap.add_argument("--label", required=True, help="name of this run in the output")
    ap.add_argument("--sizes", type=lambda text: [int(n) for n in text.split(",")],
                    help="comma-separated sizes in place of the bench's")
    ap.add_argument("--validate-only", action="store_true",
                    help="kernel: measure only the one-trial validate")
    ap.add_argument("--one", type=int, help=argparse.SUPPRESS)
    ap.add_argument("--validate", type=int, help=argparse.SUPPRESS)
    ap.add_argument("--experiment", choices=("serial", "pooled"), help=argparse.SUPPRESS)
    ap.add_argument("--config", choices=sorted(POOL_CONFIGS), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    bench = BENCHES[args.bench]
    if args.validate_only and args.bench != "kernel":
        ap.error("--validate-only applies to the kernel bench")
    if args.sizes and args.bench == "pool":
        ap.error("the pool bench measures its configs, not sizes")

    if args.validate is not None:
        print(json.dumps(measure_validate(args.validate, args.src)))
        return 0
    if args.one is not None or args.experiment is not None:
        sys.path.insert(0, args.src)
        if args.one is not None:
            print(json.dumps(bench["measure"](args.one, bench["repeats"])))
        else:
            print(json.dumps(measure_experiment(POOL_CONFIGS[args.config],
                                                args.experiment)))
        return 0

    def fresh(*extra) -> dict:
        out = subprocess.run(
            [sys.executable, __file__, args.bench, "--src", args.src,
             "--label", args.label, *extra],
            capture_output=True, text=True, check=True,
        )
        return json.loads(out.stdout.splitlines()[-1])

    run = {"repeats": bench["repeats"]}
    if args.bench == "pool":
        run["configs"] = {}
        for name in POOL_CONFIGS:
            calls = {"serial": [], "pooled": []}
            for _ in range(bench["repeats"]):
                for way, runs in calls.items():
                    runs.append(fresh("--experiment", way, "--config", name))
                    print(args.label, name, way, runs[-1], file=sys.stderr)
            run["configs"][name] = {"config": POOL_CONFIGS[name], **summarize_ways(calls)}
    else:
        run["sizes"] = {}
        for size in args.sizes or bench["sizes"]:
            row = {} if args.validate_only else fresh("--one", str(size))
            if args.bench == "kernel":
                # its own process: RUSAGE_CHILDREN would also count this one's
                # earlier children
                row.update(fresh("--validate", str(size)))
            run["sizes"][str(size)] = row
            print(args.label, size, row, file=sys.stderr)

    import numpy as np

    run["machine"] = {"cpus": os.cpu_count(), "python": platform.python_version(),
                      "numpy": np.__version__, "platform": platform.platform()}
    results = json.loads(bench["out"].read_text()) if bench["out"].exists() else {"runs": {}}
    results["description"] = bench["description"]
    if "sizes" in run:
        run["sizes"] = {**results["runs"].get(args.label, {}).get("sizes", {}),
                        **run["sizes"]}
    results["runs"][args.label] = run
    bench["out"].write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
