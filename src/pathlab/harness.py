"""Experiment runner: generate addresses, measure tries, aggregate metrics.

Each trial's keys are measured by the sorted-LCP kernel
:func:`pathlab.kernel.streamed_shape`, which gives the depths, node counts
and level census the pointer :class:`pathlab.trie.Trie` would, without
building it, as the :class:`pathlab.kernel.TrieShape` that is the trial's
result; the ``Trie`` stays as the paper's instrument and the oracle the
kernel is tested against, and no run imports it. The kernel reads a
trial's keys a block at a time, in either mode, each block drawn (and for
``crypto`` derived) from its place in the trial's stream, and keeps only
their 8-byte prefixes, so no trial holds its keys: its memory is about
8 bytes a key (``PREFIX_BYTES``). Sizes above ``LARGE_SIZE_THRESHOLD`` need
``allow_large``, and ``MAX_SIZE`` (300,000,000 keys, about 2.3 GB) is
the most one trial may have. A size whose trial needs more bytes than
the machine has physical memory, or with too few pooled keys for two
count chi-square bins, is refused when :class:`ExperimentConfig` is
built, before any trial runs or the command line opens ``--out``.

Reports are a pure function of the configuration. Each (size, trial)
pair gets its own generator seed derived with splitmix64 from
(master_seed, size, trial), so adding sizes or trials never perturbs the
address streams of existing ones, and every pair is an independent pure
function of the configuration, which any process may compute. So any two
or more pairs run on forked workers, one per CPU this process may use (at
most one per pair, and no more than physical memory holds trials of the
largest size), in shares balanced by keys. A share adds each trial's
``TrieShape`` into its size's sum and keeps only the trial's mean depth.
:func:`_fork_map` is the one runner: a child forked for a task pickles its
result, or its exception, up a pipe for the caller, and an error anywhere
kills and reaps every child left. A ``uniform`` caller runs one share
itself, with ``numpy.random`` loaded once before the fork; a ``crypto``
caller only waits, unless there is one share. Both alternatives measured
worse on 2 CPUs: a ``crypto`` caller running a share raised
``crypto-jobs2`` ``peak_rss_mb`` 29.8 → 39.7 MB; a ``uniform`` caller only
waiting raised ``validate-paper`` ``run_s`` 0.096 → 0.107 s in 6 of 6
pairs (its ``peak_rss_mb`` fell only as the workers' memory is not
counted).

CPUs the shares leave idle, when there are fewer pairs than CPUs (or
memory caps the workers), measure each trial of ``SPLIT_FROM_KEYS`` keys
or more, in either mode, in parts: ``CPUs // workers`` of them, through
the same runner (:func:`pathlab.kernel.split_shape`, every trial's one
measure). The parts share one buffer of 8 bytes a key, so a trial counts
once against physical memory however many parts measure it.

One pair of fewer than ``SPLIT_FROM_KEYS`` keys, one CPU, a platform
without ``fork`` or a caller running other threads makes one share, run
in the caller, in one part. Sums are the same in any order and the means
are read in trial order, so the report is the same bytes however many
shares and parts there are.
"""

from __future__ import annotations

import json
import operator
import os
import threading
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from . import addrgen, model, stats
from .kernel import EMPTY_SHAPE, PREFIX_BYTES, TrieShape, split_shape

SCHEMA_VERSION = 1

DEFAULT_SIZES = [100, 1_000, 10_000, 100_000]
DEFAULT_TRIALS = 10

# Sizes past the largest validated scale need an explicit opt-in.
LARGE_SIZE_THRESHOLD = 100_000
MAX_SIZE = 300_000_000
# Trials of at least this many keys are measured in parts where CPUs would
# idle: on 2 CPUs, one trial of 1e6 keys took 0.77-0.86 of its serial time
# in two parts, and one of 2e5 keys 1.02-1.12 (``BENCH_pool.json``).
SPLIT_FROM_KEYS = 1_000_000
# Master seeds are 64-bit: [0, 2**64).
_MASK64 = (1 << 64) - 1


class ConfigError(ValueError):
    pass


def _integer(field: str, value) -> int:
    try:
        return int(operator.index(value))
    except TypeError:
        raise ConfigError(f"{field} takes integers, not {value!r}") from None


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
        try:
            sizes = tuple(_integer("sizes", n) for n in self.sizes)
        except TypeError:
            raise ConfigError(f"sizes takes an iterable of integers, not {self.sizes!r}") from None
        object.__setattr__(self, "sizes", sizes)
        if not isinstance(self.allow_large, (bool, np.bool_)):
            raise ConfigError(f"allow_large takes a bool, not {self.allow_large!r}")
        object.__setattr__(self, "trials", _integer("trials", self.trials))
        object.__setattr__(self, "master_seed", _integer("master_seed", self.master_seed))
        if not self.sizes:
            raise ConfigError("at least one size is required")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if not 0 <= self.master_seed <= _MASK64:
            raise ConfigError(f"master seed {self.master_seed} is outside [0, 2**64)")
        if self.mode not in addrgen.MODES:
            raise ConfigError(f"unknown generator mode {self.mode!r}")
        memory = _physical_memory()
        for n in self.sizes:
            if n < 2:
                raise ConfigError(f"size {n} is below the minimum of 2")
            if n > MAX_SIZE:
                raise ConfigError(f"size {n} exceeds the supported maximum {MAX_SIZE}")
            needed = f"about {n * PREFIX_BYTES:,} bytes for one trial ({PREFIX_BYTES} bytes a key)"
            if n > LARGE_SIZE_THRESHOLD and not self.allow_large:
                raise ConfigError(
                    f"size {n} exceeds {LARGE_SIZE_THRESHOLD}; set allow_large "
                    f"(--allow-large on the command line) to run it anyway; it needs {needed}"
                )
            if memory is not None and n * PREFIX_BYTES > memory:
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


def run_trial(size: int, trial: int, cfg: ExperimentConfig, parts: int = 1) -> TrieShape:
    """Measure trial ``trial`` of ``size`` keys: the kernel's ``TrieShape``,
    in up to ``parts`` processes at once if ``size`` is at least
    ``SPLIT_FROM_KEYS``."""
    seed = trial_seed(cfg.master_seed, size, trial)

    def read(lo: int, hi: int) -> np.ndarray:
        # ``generate`` is looked up on the module at each call, so that a
        # wrapper installed on it sees every block the kernel reads
        return addrgen.generate(hi - lo, seed, cfg.mode, lo)

    return split_shape(read, size, parts if size >= SPLIT_FROM_KEYS else 1, _fork_map)


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


def _aggregate(size: int, total: TrieShape, trial_means: list[float]) -> SizeResult:
    """One size's result from its trials' summed shape, ``total``, and each
    trial's mean divergence depth, in trial order."""
    pooled, pooled_nodes = total.divergence_histogram, total.node_count_histogram
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
        level_census=total.level_census,
    )


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _shares(cfg: ExperimentConfig, workers: int) -> list[list[tuple[int, int]]]:
    """The (size index, trial) pairs of ``cfg`` in ``workers`` shares of about
    equal keys: each, largest first, goes to the share with the fewest keys yet."""
    shares: list[list[tuple[int, int]]] = [[] for _ in range(workers)]
    keys = [0] * workers
    for i in sorted(range(len(cfg.sizes)), key=lambda i: -cfg.sizes[i]):
        for t in range(cfg.trials):
            least = keys.index(min(keys))
            shares[least].append((i, t))
            keys[least] += cfg.sizes[i]
    return shares


def _run_share(pairs: list[tuple[int, int]], cfg: ExperimentConfig, parts: int):
    """``run_trial`` on each (size index, trial) pair, in up to ``parts``
    parts: ``(sums, means)``, per size index the sum of its trials' shapes
    and per pair its trial's mean divergence depth."""
    sums, means = [EMPTY_SHAPE] * len(cfg.sizes), {}
    for i, t in pairs:
        # looked up when called, so that a replacement installed before a
        # fork (a tracing wrapper, a test's patch) runs in the children too
        shape = run_trial(cfg.sizes[i], t, cfg, parts)
        sums[i] += shape
        means[i, t] = shape.divergence_histogram.mean()
    return sums, means


def _send(task, pipe_fd: int):
    """In a forked child: ``(ok, task()'s result or its exception)`` pickled
    into ``pipe_fd``, then ``os._exit``, which flushes none of the stdio
    buffers copied from the caller. Never returns; the exit status is 0
    only once the result is written."""
    import pickle

    status = 1
    try:
        try:
            result = True, task()
        except BaseException as exc:  # sent to the caller, which raises it
            result = False, exc
        with open(pipe_fd, "wb") as pipe:
            pipe.write(pickle.dumps(result))
        status = 0
    finally:
        os._exit(status)


def _fork_map(tasks: list, here: bool = True) -> list:
    """Each of ``tasks``, functions of no argument, called at once: the
    first in this process if ``here``, every other in a child forked for it
    that sends its result up a pipe. Returns the results in task order; a
    child's exception is raised here, and an error anywhere kills and reaps
    every child left. The one place pathlab forks."""
    import pickle
    import signal

    children: list[tuple[int, int]] = []  # (pid, read end of its pipe)
    try:
        for task in tasks[1:] if here else tasks:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                os.close(read_fd)
                _send(task, write_fd)
            os.close(write_fd)
            children.append((pid, read_fd))
        results = [tasks[0]()] if here else []
        while children:
            pid, read_fd = children[0]
            with open(read_fd, "rb", closefd=False) as pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            os.close(read_fd)
            children.pop(0)
            if not data:
                raise RuntimeError(f"a trial worker exited with status "
                                   f"{os.waitstatus_to_exitcode(status)} without a result")
            ok, value = pickle.loads(data)  # bytes a child of this process wrote
            if not ok:
                raise value
            results.append(value)
    finally:
        # only on an error: every child left is killed and reaped
        for pid, read_fd in children:
            os.close(read_fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return results


def _run_trials(cfg: ExperimentConfig):
    """``_run_share`` on all of ``cfg``, a share per worker: per size index
    the sum of its trials' shapes and per pair its trial's mean depth."""
    cpus = _cpu_count()
    # A forked child gets only the calling thread, so a lock another
    # thread holds at the fork would stay held in it forever.
    if not hasattr(os, "fork") or threading.active_count() > 1:
        cpus = 1
    workers = min(cpus, len(cfg.sizes) * cfg.trials)
    memory = _physical_memory()
    if memory is not None:
        # each worker holds one trial at a time, the largest at most, in
        # one buffer however many parts measure it
        workers = min(workers, max(1, memory // (max(cfg.sizes) * PREFIX_BYTES)))
    if cfg.mode == "uniform":
        import numpy.random  # noqa: F401
    # the CPUs the shares leave idle measure each large trial in parts
    parts = cpus // workers
    results = _fork_map([partial(_run_share, share, cfg, parts)
                         for share in _shares(cfg, workers)],
                        here=cfg.mode == "uniform" or workers == 1)
    sums, means = results[0]
    for other_sums, other_means in results[1:]:
        sums = [a + b for a, b in zip(sums, other_sums)]
        means.update(other_means)
    return sums, means


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run the trials of every size and aggregate them per size.

    A size whose ``size * trials`` keys the count chi-square cannot split
    into two bins never gets here: ``ExperimentConfig`` refuses it.
    """
    sums, means = _run_trials(cfg)
    return ExperimentReport(config=cfg, results=[
        _aggregate(size, sums[i], [means[i, t] for t in range(cfg.trials)])
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
