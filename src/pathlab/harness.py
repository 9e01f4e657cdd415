"""Experiment runner: generate addresses, measure tries, aggregate metrics.

Each trial's keys are measured by the sorted-LCP kernel
:func:`pathlab.trie.sorted_shape`, which gives the depths, node counts
and level census the pointer :class:`pathlab.trie.Trie` would, without
building it; the ``Trie`` stays as the paper's instrument and the
oracle the kernel is tested against. The kernel sorts 8-byte key
prefixes as integers, so a trial's memory is a small multiple of its
keys' 20 bytes each: sizes above ``LARGE_SIZE_THRESHOLD`` need
``allow_large``, and ``MAX_SIZE`` (10,000,000 keys) is the most one
trial may hold. A size with too few pooled keys for two count chi-square
bins is refused when :class:`ExperimentConfig` is built, before any
trial runs or the command line opens ``--out``.

Reports are a pure function of the configuration. Each (size, trial)
pair gets its own generator seed derived with splitmix64 from
(master_seed, size, trial), so adding sizes or trials never perturbs the
address streams of existing ones, and every pair is an independent pure
function of the configuration. ``uniform`` trials run serially, one
after another: they take milliseconds, about what starting a process
pool costs. ``crypto`` trials, about 0.11 ms per key, run on a pool of
forked processes, one per CPU this process may use (at most one per
pair), so up to that many trials are in memory at once; a single pair, a
single CPU, a platform without ``fork`` or a caller running other
threads runs them serially. Results come back in configuration order
either way, so the report is the same bytes.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import asdict, dataclass
from functools import reduce

from . import addrgen, model, stats
from .trie import sorted_shape

SCHEMA_VERSION = 1

DEFAULT_SIZES = [100, 1_000, 10_000, 100_000]
DEFAULT_TRIALS = 10

# Sizes past the largest validated scale need an explicit opt-in.
LARGE_SIZE_THRESHOLD = 100_000
MAX_SIZE = 10_000_000


class ConfigError(ValueError):
    pass


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
        for n in self.sizes:
            if n < 2:
                raise ConfigError(f"size {n} is below the minimum of 2")
            if n > MAX_SIZE:
                raise ConfigError(f"size {n} exceeds the supported maximum {MAX_SIZE}")
            if n > LARGE_SIZE_THRESHOLD and not self.allow_large:
                raise ConfigError(
                    f"size {n} exceeds {LARGE_SIZE_THRESHOLD}; set allow_large "
                    "(--allow-large on the command line) to run it anyway; peak "
                    "RSS is about 75 MB at 1,000,000 keys and 395 MB at 10,000,000"
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


@dataclass(frozen=True)
class TrialResult:
    divergence_histogram: stats.PathLengthHistogram
    node_count_histogram: stats.PathLengthHistogram
    level_census: dict[int, dict[str, int]]


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


def run_trial(size: int, trial: int, cfg: ExperimentConfig) -> TrialResult:
    seed = trial_seed(cfg.master_seed, size, trial)
    shape = sorted_shape(addrgen.generate(size, seed, cfg.mode))
    return TrialResult(
        divergence_histogram=stats.PathLengthHistogram(shape.depths),
        node_count_histogram=stats.PathLengthHistogram(shape.node_counts),
        level_census=shape.census,
    )


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


def _aggregate(size: int, trials: list[TrialResult]) -> SizeResult:
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


def _pool_trial(size: int, trial: int, cfg: ExperimentConfig) -> TrialResult:
    # The pool pickles the function it maps; this one looks ``run_trial``
    # up when called, so a replacement installed before the fork (a
    # tracing wrapper, a test's patch) runs in the workers too.
    return run_trial(size, trial, cfg)


def _run_trials(pairs: list[tuple[int, int]], cfg: ExperimentConfig) -> list[TrialResult]:
    """``run_trial`` on each (size, trial) pair, results in ``pairs`` order."""
    workers = min(_cpu_count(), len(pairs)) if cfg.mode == "crypto" else 1
    if workers > 1:
        import multiprocessing
        import threading

        # ``fork``, not ``spawn``: a worker starts with the parent's modules
        # loaded, where a spawned one would import numpy and pathlab again
        # (about 0.2 s, as long as a 1,000-key trial). A forked child gets
        # only the calling thread, so a lock another thread holds at the
        # fork would stay held in it forever.
        if ("fork" in multiprocessing.get_all_start_methods()
                and threading.active_count() == 1):
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("fork")
            ) as pool:
                return list(pool.map(
                    _pool_trial, *zip(*pairs), [cfg] * len(pairs)
                ))
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
