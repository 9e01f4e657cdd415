"""Layer benches of the trial kernel, ``crypto`` key derivation and the
trial pool.

    python tools/bench_layers.py {kernel,crypto,pool} --label NAME[=SRC] ...
        [--sizes N,N,...]

Each ``--label`` is a ``pathlab`` imported from ``SRC``, a ``src``
directory of any checkout with the steps below (this checkout's by
default). Each item (a size of ``kernel`` or ``crypto``, a pair of ``pool``
runs) is measured under every label, each in a fresh process, before the
next; every other item reverses the order of the labels and of a pair's
ways, so none always runs first. Each fresh process gets
``PYTHONPYCACHEPREFIX``, a new temporary directory, so that no label reads
a bytecode cache left in its checkout or writes one there. Each label's
results go into the bench's file under ``runs[NAME]`` with the machine that
measured them, keeping the other labels and, as ``--sizes`` replaces the
bench's sizes, the label's rows at other sizes.

``kernel`` (1e5, 1e6 and 1e7 keys, 3 calls each), into
``BENCH_sorted_shape.json``, on a ``uniform`` trial's keys (seed 1), read
a block at a time from ``addrgen.generate`` as the harness reads them:

- ``streamed_shape_s``: the whole ``kernel.streamed_shape``, keys drawn included
- ``fill_s``, ``lcp_s``, ``sweep_s``: in the same calls, its steps:
  drawing the keys into the 8-byte prefix array (``kernel._fill_prefixes``),
  the adjacent LCPs (``kernel._prefix_lcps``) and the lcp-interval sweep
  (``kernel._sweep``); ``sort_s``: the rest, the sort and any tie pass
- ``kernel_peak_bytes_per_key``: its tracemalloc peak over the key count
- ``validate_s``, ``validate_maxrss_mb``: a one-trial ``pathlab validate``
  of the size, run first in a child process, wall time and ``ru_maxrss``;
  ``validate_run_s``: the child's ``cli.main`` call alone, timed in it, as
  below 1e7 keys the process start is most of ``validate_s``

A time is the median of the bench's ``repeats`` calls; ``ru_maxrss_mb``
is the process's peak RSS after all of them.

``crypto`` (1,000 and 4,096 keys, 5 calls each), into ``BENCH_crypto.json``:

- ``window_table_s``: ``secp256k1.window_table`` cold (cache cleared): the
  load of the shipped table file, its digest check included; before the
  table shipped, its build
- ``draw_s``: ``addrgen._draw_scalars``, ``crypto``'s scalar draw, seed 1
- ``public_keys_s``: ``secp256k1.public_keys`` on the drawn scalars
- ``keccak256_rows_s``: ``keccak.keccak256_rows`` on the public keys
- ``generate_s``: the whole ``addrgen.generate`` call, table already built

``pool`` (the ``POOL_CONFIGS``, 10 pairs each), into ``BENCH_pool.json``:
one ``harness.run_experiment`` call per process, ``serial`` (the
harness's CPU count forced to 1) and ``pooled`` (the checkout's own rule
on this machine's CPUs), on the benchmark's ``validate-paper`` and
``crypto-jobs2`` and on ``uniform`` configs of 10,000 to 2,000,000 keys,
among them 1,000 keys × 10, where a fork costs more than it gains,
2,000 trials of 100 keys, where a trial's fixed cost shows, and one trial
of 200,000, 1e6 and 1e7 keys, which ``pooled`` measures in parts. Each way
gives each ``run_s``, their median and the largest ``parent_maxrss_mb``
(``RUSAGE_SELF``) and ``children_maxrss_mb`` (``RUSAGE_CHILDREN``: the
largest worker, 0 when serial); each config gives ``pooled_over_serial``,
the ratio of the medians, and ``pooled_faster``, the pairs in which
``pooled`` was faster.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
POOL_CONFIGS = {
    "validate-paper": {"sizes": (100, 1_000, 10_000, 100_000), "trials": 10,
                       "master_seed": 1, "mode": "uniform"},
    "crypto-jobs2": {"sizes": (1_000,), "trials": 4, "master_seed": 1, "mode": "crypto"},
    "uniform-1e3x10": {"sizes": (1_000,), "trials": 10, "master_seed": 1, "mode": "uniform"},
    "uniform-1e4x10": {"sizes": (10_000,), "trials": 10, "master_seed": 1, "mode": "uniform"},
    "uniform-1e5x2": {"sizes": (100_000,), "trials": 2, "master_seed": 1, "mode": "uniform"},
    "uniform-1e5x4": {"sizes": (100_000,), "trials": 4, "master_seed": 1, "mode": "uniform"},
    "uniform-1e6x2": {"sizes": (1_000_000,), "trials": 2, "master_seed": 1,
                      "mode": "uniform", "allow_large": True},
    # one pair each: measured in parts where CPUs are idle, sizes on either
    # side of the rule (LARGE_SIZE_THRESHOLD, 100,000 keys)
    "uniform-2e5x1": {"sizes": (200_000,), "trials": 1, "master_seed": 1,
                      "mode": "uniform", "allow_large": True},
    "uniform-1e6x1": {"sizes": (1_000_000,), "trials": 1, "master_seed": 1,
                      "mode": "uniform", "allow_large": True},
    "uniform-1e7x1": {"sizes": (10_000_000,), "trials": 1, "master_seed": 1,
                      "mode": "uniform", "allow_large": True},
    "uniform-100x2000": {"sizes": (100,), "trials": 2_000, "master_seed": 1, "mode": "uniform"},
}
WAYS = ("serial", "pooled")


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
    """Time one size in this process; ``pathlab`` must be importable. The
    steps are wrapped in ``kernel`` for the timed calls and put back after."""
    import tracemalloc

    from pathlab import addrgen, kernel

    def read(lo, hi):
        return addrgen.generate(hi - lo, 1, "uniform", lo)

    steps = {"fill_s": "_fill_prefixes", "lcp_s": "_prefix_lcps", "sweep_s": "_sweep"}
    originals = {key: getattr(kernel, name) for key, name in steps.items()}
    calls = []

    def timed(key):
        def call(*args):
            start = time.perf_counter()
            result = originals[key](*args)
            calls[-1][key] = time.perf_counter() - start
            return result
        return call

    try:
        for key, name in steps.items():
            setattr(kernel, name, timed(key))
        for _ in range(repeats):
            calls.append({})
            start = time.perf_counter()
            kernel.streamed_shape(read, size)
            total = calls[-1]["streamed_shape_s"] = time.perf_counter() - start
            calls[-1]["sort_s"] = total - sum(calls[-1][key] for key in steps)
    finally:
        for key, name in steps.items():
            setattr(kernel, name, originals[key])
    row = {key: statistics.median(call[key] for call in calls) for key in calls[0]}
    tracemalloc.start()
    try:
        kernel.streamed_shape(read, size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    row["kernel_peak_bytes_per_key"] = round(peak / size, 3)
    return _finish_row(row)


@contextlib.contextmanager
def _fresh_env(**env):
    """This process's environment with ``env`` and, for the bytecode cache,
    a new temporary directory, removed on exit."""
    with tempfile.TemporaryDirectory() as cache:
        yield dict(os.environ, PYTHONPYCACHEPREFIX=cache, **env)


# Times one ``cli.main`` call with the arguments given it and prints the time.
_TIMED_CLI = ("import sys, time\nfrom pathlab import cli\nstart = time.perf_counter()\n"
              "code = cli.main(sys.argv[1:])\nprint(time.perf_counter() - start)\n"
              "sys.exit(code)\n")


def measure_validate(size: int, src: str) -> dict:
    """A one-trial ``validate`` of ``size`` keys in a fresh process: its
    wall time, and that of its ``cli.main`` call alone, without the start."""
    import resource

    with _fresh_env(PYTHONPATH=src) as env:
        start = time.perf_counter()
        out = subprocess.run(
            [sys.executable, "-c", _TIMED_CLI, "validate", "--sizes", str(size),
             "--trials", "1", "--seed", "1", "--allow-large", "--format", "json",
             "--out", os.devnull],
            env=env, check=True, stdout=subprocess.PIPE, text=True,
        ).stdout
        validate_s = time.perf_counter() - start
    return {"validate_s": round(validate_s, 4),
            "validate_run_s": round(float(out), 4),
            "validate_maxrss_mb": round(
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, 1)}


def measure_crypto(size: int, repeats: int) -> dict:
    """Time one size in this process; ``pathlab`` must be importable."""
    import numpy as np

    from pathlab import addrgen, keccak, secp256k1

    def cold_table():
        secp256k1.window_table.cache_clear()
        return secp256k1.window_table()

    row = {}
    row["window_table_s"], _ = _median_time(cold_table, repeats)
    row["draw_s"], scalars = _median_time(
        lambda: addrgen._draw_scalars(np.random.default_rng(np.random.PCG64(1)), size),
        repeats)
    row["public_keys_s"], keys = _median_time(lambda: secp256k1.public_keys(scalars), repeats)
    row["keccak256_rows_s"], _ = _median_time(lambda: keccak.keccak256_rows(keys), repeats)
    row["generate_s"], _ = _median_time(lambda: addrgen.generate(size, 1, "crypto"), repeats)
    return _finish_row(row)


def measure_experiment(config: dict, way: str) -> dict:
    """One ``run_experiment`` call on ``config`` in this process, ``serial``
    (one CPU) or ``pooled`` (the harness's own rule)."""
    import resource

    from pathlab import harness

    if way == "serial":
        harness._cpu_count = lambda: 1
    cfg = harness.ExperimentConfig(**config)
    start = time.perf_counter()
    harness.run_experiment(cfg)
    return {"run_s": time.perf_counter() - start,
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
        "description": (
            "tools/bench_layers.py kernel: per size, labels alternated, a fresh process "
            "times kernel.streamed_shape and, in the same calls, its fill, lcp and sweep "
            "steps, sort_s the rest (medians of `repeats` calls), its tracemalloc peak "
            "per key, ru_maxrss, and a one-trial `pathlab validate` (validate_*)"
        ),
    },
    "crypto": {
        "out": ROOT / "BENCH_crypto.json",
        "sizes": (1_000, 4_096),
        "repeats": 5,
        "description": (
            "tools/bench_layers.py crypto: per batch size, labels alternated, a fresh "
            "process times the cold window table (its load, or its build before the "
            "table shipped), the scalar draw, public_keys, keccak256_rows and generate "
            "(medians of `repeats` calls), and ru_maxrss; `experiment` (earlier runs "
            "only; the pool bench measures it now): one run_experiment call on the "
            "crypto-jobs2 config per fresh process, `repeats` times serial (CPU count "
            "forced to 1) and pooled, median run_s and the largest parent and children "
            "ru_maxrss"
        ),
    },
    "pool": {
        "out": ROOT / "BENCH_pool.json",
        "repeats": 10,
        "description": (
            "tools/bench_layers.py pool: per config, labels and ways alternated, "
            "`repeats` pairs of fresh-process run_experiment calls, serial (one CPU) "
            "and pooled (the checkout's rule); per way each run_s, their median and "
            "the largest parent and children ru_maxrss; pooled_over_serial, the "
            "medians' ratio; pooled_faster, the pairs in which pooled was faster"
        ),
    },
}


def measure(bench: str, item: str, src: str) -> dict:
    """One item of ``bench`` in this process, with ``pathlab`` from ``src``:
    a size of ``kernel`` or ``crypto``, or a ``CONFIG:WAY`` run of ``pool``."""
    sys.path.insert(0, src)
    if bench == "pool":
        config, way = item.split(":")
        return measure_experiment(POOL_CONFIGS[config], way)
    size, repeats = int(item), BENCHES[bench]["repeats"]
    if bench == "crypto":
        return measure_crypto(size, repeats)
    # the validate first, so that RUSAGE_CHILDREN is the validate's alone
    return {**measure_validate(size, src), **measure_kernel(size, repeats)}


def fresh(bench: str, name: str, src: str, item: str) -> dict:
    """:func:`measure` in a fresh process of this tool."""
    with _fresh_env() as env:
        out = subprocess.run(
            [sys.executable, __file__, bench, "--label", f"{name}={src}", "--one", item],
            env=env, stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def alternate(bench: str, labels: dict, rounds: list) -> dict:
    """``{name: {item: [result, ...]}}``: each round's items measured under
    every label (``labels`` maps names to ``SRC``) before the next round,
    labels and items in reverse order every other round."""
    results = {name: {} for name in labels}
    for i, items in enumerate(rounds):
        order = slice(None, None, -1 if i % 2 else 1)
        for name in list(labels)[order]:
            for item in items[order]:
                result = fresh(bench, name, labels[name], item)
                results[name].setdefault(item, []).append(result)
                print(name, item, result, file=sys.stderr)
    return results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("bench", choices=sorted(BENCHES))
    ap.add_argument("--label", action="append", required=True, metavar="NAME[=SRC]",
                    help="a run's name in the output and the src directory of its "
                    "pathlab (default: this checkout's)")
    ap.add_argument("--sizes", type=lambda text: [int(n) for n in text.split(",")],
                    help="comma-separated sizes in place of the bench's")
    ap.add_argument("--one", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    bench = BENCHES[args.bench]
    labels = {name: str(Path(src or ROOT / "src").resolve())
              for name, _, src in (text.partition("=") for text in args.label)}
    if len(labels) < len(args.label):
        ap.error("each --label needs a name of its own")
    if args.sizes and args.bench == "pool":
        ap.error("the pool bench measures its configs, not sizes")

    if args.one is not None:
        [src] = labels.values()
        print(json.dumps(measure(args.bench, args.one, src)))
        return 0

    if args.bench == "pool":
        rounds = [[f"{config}:{way}" for way in WAYS]
                  for config in POOL_CONFIGS for _ in range(bench["repeats"])]
    else:
        rounds = [[str(size)] for size in args.sizes or bench["sizes"]]
    measured = alternate(args.bench, labels, rounds)

    import numpy as np

    machine = {"cpus": os.cpu_count(), "python": platform.python_version(),
               "numpy": np.__version__, "platform": platform.platform()}
    results = json.loads(bench["out"].read_text()) if bench["out"].exists() else {"runs": {}}
    results["description"] = bench["description"]
    for name, items in measured.items():
        run = {"repeats": bench["repeats"], "machine": machine}
        if args.bench == "pool":
            run["configs"] = {
                config: {"config": POOL_CONFIGS[config], **summarize_ways(
                    {way: items[f"{config}:{way}"] for way in WAYS})}
                for config in POOL_CONFIGS}
        else:
            run["sizes"] = {**results["runs"].get(name, {}).get("sizes", {}),
                            **{size: rows[0] for size, rows in items.items()}}
        results["runs"][name] = run
    bench["out"].write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
