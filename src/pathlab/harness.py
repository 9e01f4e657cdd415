"""Experiment runner: generate addresses, measure tries, aggregate metrics.

Each trial's keys are measured by the sorted-LCP kernel
:func:`pathlab.trie.streamed_shape`, which gives the depths, node counts
and level census the pointer :class:`pathlab.trie.Trie` would, without
building it, as the :class:`pathlab.trie.TrieShape` that is the trial's
result; the ``Trie`` stays as the paper's instrument and the oracle the
kernel is tested against. The kernel reads a ``uniform``
trial's keys a block at a time, each block drawn from its place in the
trial's stream, and keeps only their 8-byte prefixes, so no trial holds
its keys: its memory is about 8 bytes a key. A ``crypto`` trial derives
its keys once, into one array that :func:`pathlab.trie.sorted_shape`
reads, and holds their 20 bytes a key besides. Sizes above
``LARGE_SIZE_THRESHOLD`` need ``allow_large``, and ``MAX_SIZE``
(300,000,000 keys, about 2.3 GB) is the most one trial may have. A size
whose trial needs more bytes than the machine has physical memory, or
with too few pooled keys for two count chi-square bins, is refused when
:class:`ExperimentConfig` is built, before any trial runs or the command
line opens ``--out``.

Reports are a pure function of the configuration. Each (size, trial)
pair gets its own generator seed derived with splitmix64 from
(master_seed, size, trial), so adding sizes or trials never perturbs the
address streams of existing ones, and every pair is an independent pure
function of the configuration, which any process may compute. So the
pairs run on forked workers, one per CPU this process may use (at most
one per pair, and no more than physical memory holds trials of the
largest size, ``TRIAL_BYTES_PER_KEY``), in shares balanced by keys. Each
share the caller does not run goes to a child forked for it, which
pickles its results, or its exception, up a pipe; an error anywhere
kills and reaps every child left. A ``uniform`` caller runs one share
itself; a ``crypto`` caller only waits. Whether trials are pooled is a
cost rule, ``POOL_FROM_KEYS``: a ``crypto`` key costs about 0.11 ms, so
any two ``crypto`` trials are pooled, but ``uniform`` trials take
milliseconds and are pooled only from 300,000 keys in all. Pooled over
serial ``run_experiment`` time on 2 CPUs, each run a fresh process,
medians of 10 alternated pairs (``tools/bench_layers.py pool``,
``BENCH_pool.json``):

    ===================== ========= =============== =============
    config                keys      pooled / serial pooled faster
    ===================== ========= =============== =============
    10,000 x 10           100,000   1.119           0 of 10
    100,000 x 2           200,000   0.950           7 of 10
    100,000 x 4           400,000   1.002           5 of 10
    paper (100-100k x 10) 1,111,000 0.868           9 of 10
    1,000,000 x 2         2,000,000 0.587           10 of 10
    ``crypto`` 1,000 x 4  4,000     0.693           10 of 10
    ===================== ========= =============== =============

The same bench on the code before the ``uniform`` pool, whose
``uniform`` runs are serial both ways, read 0.95 to 1.09 on these
``uniform`` configs: up to 400,000 keys a fork gains about as much as
this machine's noise.

A single pair, a single CPU, a cap of one, a platform without ``fork`` or
a caller running other threads runs the trials serially, in this
process. Results come back in configuration order either way, so the
report is the same bytes.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import asdict, dataclass
from functools import reduce

from . import addrgen, model, stats
from .keyspace import ADDRESS_BYTES
from .trie import PREFIX_BYTES, TrieShape, sorted_shape, streamed_shape

SCHEMA_VERSION = 1

DEFAULT_SIZES = [100, 1_000, 10_000, 100_000]
DEFAULT_TRIALS = 10

# Sizes past the largest validated scale need an explicit opt-in.
LARGE_SIZE_THRESHOLD = 100_000
MAX_SIZE = 300_000_000
# Bytes a key that a trial of each mode holds at its peak: the kernel's
# sorted prefixes, and a ``crypto`` trial's keys beside them.
TRIAL_BYTES_PER_KEY = {"uniform": PREFIX_BYTES, "crypto": PREFIX_BYTES + ADDRESS_BYTES}
# Keys of all a config's trials from which they run on forked workers.
POOL_FROM_KEYS = {"uniform": 300_000, "crypto": 0}


class ConfigError(ValueError):
    pass


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where ``os.sysconf`` cannot tell."""
    try:
        pages = os.sysconf("SC_PHYS_PAGES")
        page = os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no sysconf, or not these names
        return None
    return pages * page if pages > 0 and page > 0 else None


@dataclass(frozen=True)
class ExperimentConfig:
    sizes: tuple[int, ...]
    trials: int = DEFAULT_TRIALS
    master_seed: int = 0
    mode: str = "uniform"
    allow_large: bool = False

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(self.sizes))
        if not self.sizes:
            raise ConfigError("at least one size is required")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.mode not in addrgen.MODES:
            raise ConfigError(f"unknown generator mode {self.mode!r}")
        memory = _physical_memory()
        for n in self.sizes:
            if n < 2:
                raise ConfigError(f"size {n} is below the minimum of 2")
            if n > MAX_SIZE:
                raise ConfigError(f"size {n} exceeds the supported maximum {MAX_SIZE}")
            per_key = TRIAL_BYTES_PER_KEY[self.mode]
            needed = (f"about {n * per_key:,} bytes for one {self.mode} trial "
                      f"({per_key} bytes a key)")
            if n > LARGE_SIZE_THRESHOLD and not self.allow_large:
                raise ConfigError(
                    f"size {n} exceeds {LARGE_SIZE_THRESHOLD}; set allow_large "
                    f"(--allow-large on the command line) to run it anyway; it needs {needed}"
                )
            if memory is not None and n * per_key > memory:
                raise ConfigError(
                    f"size {n} needs {needed}, more than the {memory:,} bytes "
                    "of physical memory here"
                )
            total = n * self.trials
            pmf = model.distribution(model.ModelParams(n=n)).probabilities
            try:
                stats.merge_plan({k: total * p for k, p in pmf.items()})
            except stats.InsufficientBinsError:
                raise ConfigError(
                    f"size {n} with trials {self.trials} pools {total} keys, too few "
                    "for the count chi-square to keep two bins expecting "
                    f">= {stats.MIN_EXPECTED:g} each; use more trials"
                ) from None


_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def trial_seed(master_seed: int, size: int, trial: int) -> int:
    """Mix (master_seed, size, trial) into an independent 64-bit seed."""
    h = _splitmix64(master_seed & _MASK64)
    h = _splitmix64(h ^ (size & _MASK64))
    h = _splitmix64(h ^ (trial & _MASK64))
    return h


@dataclass
class SizeResult:
    size: int
    histogram: stats.PathLengthHistogram          # pooled divergence depths
    node_count_histogram: stats.PathLengthHistogram
    trial_avg_divergence_depths: list[float]
    avg_divergence_depth: float
    avg_node_count: float
    model_distribution: model.ModelDistribution
    comparison_rows: list[stats.ComparisonRow]
    table_rows: list[stats.ComparisonRow]         # over the reference table's span
    chi_square_paper: stats.ChiSquareResult
    chi_square_counts: stats.ChiSquareResult
    level_census: dict[int, dict[str, int]]       # pooled across trials


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    results: list[SizeResult]


def run_trial(size: int, trial: int, cfg: ExperimentConfig) -> TrieShape:
    """Measure trial ``trial`` of ``size`` keys: the kernel's ``TrieShape``."""
    seed = trial_seed(cfg.master_seed, size, trial)
    if cfg.mode == "uniform":
        # ``generate`` is looked up on the module at each call, so that a
        # wrapper installed on it sees every block the kernel reads
        return streamed_shape(
            lambda lo, hi: addrgen.generate(hi - lo, seed, "uniform", lo), size)
    # derived once: the kernel's pass over tied prefixes reads them again
    return sorted_shape(addrgen.generate(size, seed, cfg.mode))


TABLE_ROWS = 6
TABLE_THRESHOLD = 1e-3


def table_span(probabilities: dict[int, float]) -> list[int]:
    """The ``TABLE_ROWS`` consecutive path lengths a reference-style table
    covers, from the first whose probability reaches ``TABLE_THRESHOLD``."""
    start = min(
        (k for k, p in sorted(probabilities.items()) if p >= TABLE_THRESHOLD),
        default=min(probabilities),
    )
    return [k for k in range(start, start + TABLE_ROWS) if k in probabilities]


def _aggregate(size: int, trials: list[TrieShape]) -> SizeResult:
    pooled = reduce(stats.merge, (t.divergence_histogram for t in trials))
    pooled_nodes = reduce(stats.merge, (t.node_count_histogram for t in trials))
    trial_means = [t.divergence_histogram.mean() for t in trials]
    census: dict[int, Counter] = {}
    for t in trials:
        for depth, kinds in t.level_census.items():
            census.setdefault(depth, Counter()).update(kinds)

    dist = model.distribution(model.ModelParams(n=size))
    rows = stats.compare(dist.probabilities, pooled)

    # Probability-basis statistic over the reference-style table span; the
    # full support would divide by underflowed tail probabilities.
    span = table_span(dist.probabilities)
    theo = {k: dist.probabilities[k] for k in span}
    obs = pooled.probabilities()
    table_rows = [stats.ComparisonRow(k, p, obs.get(k, 0.0)) for k, p in theo.items()]
    paper_stat = stats.chi_square_paper(obs, theo)
    paper_dof = len(span) - 1
    paper = stats.ChiSquareResult(
        paper_stat, paper_dof, stats.p_value(paper_stat, paper_dof),
        f"bins: {span[0]}-{span[-1]}",
    )
    counts = stats.chi_square_counts(pooled, dist.probabilities)

    return SizeResult(
        size=size,
        histogram=pooled,
        node_count_histogram=pooled_nodes,
        trial_avg_divergence_depths=trial_means,
        avg_divergence_depth=sum(trial_means) / len(trial_means),
        avg_node_count=pooled_nodes.mean(),
        model_distribution=dist,
        comparison_rows=rows,
        table_rows=table_rows,
        chi_square_paper=paper,
        chi_square_counts=counts,
        level_census={d: census[d] for d in sorted(census)},
    )


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _shares(pairs: list[tuple[int, int]], workers: int) -> list[list[int]]:
    """Indices into ``pairs`` in ``workers`` shares of about equal keys:
    each pair, largest first, goes to the share with the fewest keys yet."""
    shares: list[list[int]] = [[] for _ in range(workers)]
    keys = [0] * workers
    for i in sorted(range(len(pairs)), key=lambda i: -pairs[i][0]):
        least = keys.index(min(keys))
        shares[least].append(i)
        keys[least] += pairs[i][0]
    return shares


def _send_share(pairs: list[tuple[int, int]], cfg: ExperimentConfig, pipe_fd: int):
    """In a forked child: ``run_trial`` on ``pairs``, ``(ok, shapes or the
    exception)`` pickled into ``pipe_fd``, then ``os._exit``, which flushes
    none of the stdio buffers copied from the caller. Never returns; the
    exit status is 0 only once the result is written."""
    import pickle

    status = 1
    try:
        try:
            # ``run_trial`` is looked up when called, so a replacement
            # installed before the fork (a tracing wrapper, a test's patch)
            # runs here too
            result = True, [run_trial(size, trial, cfg) for size, trial in pairs]
        except BaseException as exc:  # sent to the caller, which raises it
            result = False, exc
        data = pickle.dumps(result)
        with open(pipe_fd, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


def _run_forked(pairs: list[tuple[int, int]], cfg: ExperimentConfig,
                workers: int) -> list[TrieShape]:
    """``run_trial`` on each pair, in ``workers`` shares: one forked child
    per share the caller does not run, each sending its results up a pipe."""
    import pickle
    import signal

    shares = _shares(pairs, workers)
    own: list[int] = []
    if cfg.mode == "uniform":
        # The caller runs a ``uniform`` share itself, with ``numpy.random``
        # loaded once before the fork rather than in every child. A
        # ``crypto`` share would load the window table and Keccak lanes
        # into the caller too and raise its peak memory, for no speed-up.
        import numpy.random  # noqa: F401

        own = shares.pop(0)
    results: dict[int, TrieShape] = {}
    children: dict[int, int] = {}  # pid -> read end of its pipe
    try:
        for share in shares:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                os.close(read_fd)
                _send_share([pairs[i] for i in share], cfg, write_fd)
            os.close(write_fd)
            children[pid] = read_fd
        results.update((i, run_trial(*pairs[i], cfg)) for i in own)
        for pid, share in zip(list(children), shares):
            with open(children[pid], "rb", closefd=False) as pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            os.close(children.pop(pid))
            if not data:
                raise RuntimeError(f"a trial worker exited with status "
                                   f"{os.waitstatus_to_exitcode(status)} without a result")
            ok, value = pickle.loads(data)  # bytes a child of this process wrote
            if not ok:
                raise value
            results.update(zip(share, value))
    finally:
        # only on an error: every child left is killed and reaped
        for pid, read_fd in children.items():
            os.close(read_fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return [results[i] for i in range(len(pairs))]


def _run_trials(pairs: list[tuple[int, int]], cfg: ExperimentConfig) -> list[TrieShape]:
    """``run_trial`` on each (size, trial) pair, results in ``pairs`` order."""
    workers = min(_cpu_count(), len(pairs))
    if sum(size for size, _ in pairs) < POOL_FROM_KEYS[cfg.mode]:
        workers = 1
    memory = _physical_memory()
    if memory is not None:
        # each worker holds one trial at a time, the largest at most
        trial_bytes = max(cfg.sizes) * TRIAL_BYTES_PER_KEY[cfg.mode]
        workers = min(workers, max(1, memory // trial_bytes))
    if workers > 1 and hasattr(os, "fork"):
        import threading

        # A forked child gets only the calling thread, so a lock another
        # thread holds at the fork would stay held in it forever.
        if threading.active_count() == 1:
            return _run_forked(pairs, cfg, workers)
    return [run_trial(size, trial, cfg) for size, trial in pairs]


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run the trials of every size and aggregate them per size.

    A size whose ``size * trials`` keys the count chi-square cannot split
    into two bins never gets here: ``ExperimentConfig`` refuses it.
    """
    trials = _run_trials([(size, t) for size in cfg.sizes for t in range(cfg.trials)], cfg)
    return ExperimentReport(config=cfg, results=[
        _aggregate(size, trials[i * cfg.trials:(i + 1) * cfg.trials])
        for i, size in enumerate(cfg.sizes)
    ])


# -- serialization --------------------------------------------------------


def report_to_dict(report: ExperimentReport) -> dict:
    cfg = report.config
    return {
        "schema_version": SCHEMA_VERSION,
        "config": {
            "sizes": list(cfg.sizes),
            "trials": cfg.trials,
            "master_seed": cfg.master_seed,
            "mode": cfg.mode,
            # Schema-v1 keys whose values no config can change.
            "k_max": model.MAX_PATH_LENGTH,
            "output_format": "json",
            "min_expected": stats.MIN_EXPECTED,
        },
        "results": [
            {
                "size": r.size,
                "histogram": {str(k): c for k, c in sorted(r.histogram.counts.items())},
                "node_count_histogram": {
                    str(k): c for k, c in sorted(r.node_count_histogram.counts.items())
                },
                "trial_avg_divergence_depths": r.trial_avg_divergence_depths,
                "avg_divergence_depth": r.avg_divergence_depth,
                "avg_node_count": r.avg_node_count,
                "model_pmf": {
                    str(k): p for k, p in sorted(r.model_distribution.probabilities.items())
                },
                "comparison_rows": [
                    dict(asdict(row), difference=row.difference)
                    for row in r.comparison_rows
                ],
                "chi_square_paper": asdict(r.chi_square_paper),
                "chi_square_counts": asdict(r.chi_square_counts),
                "level_census": {str(d): kinds for d, kinds in r.level_census.items()},
            }
            for r in report.results
        ],
    }


def report_to_json(report: ExperimentReport) -> str:
    """Canonical JSON rendering; byte-identical for identical configs."""
    return json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n"
