import hashlib
import json
import os
import re
import time

import pytest

from pathlab import harness, trie
from pathlab.harness import (
    ConfigError,
    ExperimentConfig,
    report_to_dict,
    report_to_json,
    run_experiment,
    run_trial,
    table_span,
    trial_seed,
)
from pathlab.model import ModelParams, distribution
from pathlab.trie import sorted_shape


def small_config(**overrides):
    base = dict(sizes=(100, 1_000), trials=3, master_seed=42)
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_rejects_empty_sizes():
    with pytest.raises(ConfigError):
        ExperimentConfig(sizes=())


def test_config_rejects_tiny_size():
    with pytest.raises(ConfigError):
        ExperimentConfig(sizes=(1,))


def test_config_rejects_zero_trials():
    with pytest.raises(ConfigError):
        ExperimentConfig(sizes=(100,), trials=0)


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 1])
def test_config_rejects_master_seed_outside_64_bits(seed):
    """Seeds are 64-bit: one outside [0, 2**64) would measure the seed it
    equals modulo 2**64 while the report names it."""
    with pytest.raises(ConfigError, match=re.escape(f"master seed {seed} is outside [0, 2**64)")):
        ExperimentConfig(sizes=(100,), master_seed=seed)
    for edge in (0, 2**64 - 1):
        assert ExperimentConfig(sizes=(100,), master_seed=edge).master_seed == edge


def test_config_rejects_unknown_mode():
    with pytest.raises(ConfigError, match="unknown generator mode 'bogus'"):
        ExperimentConfig(sizes=(100,), mode="bogus")


@pytest.mark.parametrize("size, trials", [(30, 1), (2, 10)])
def test_too_few_keys_for_two_bins_rejected_before_any_trial(monkeypatch, size, trials):
    def no_trial(*_args):
        raise AssertionError("a trial ran before the config was checked")

    monkeypatch.setattr(harness, "run_trial", no_trial)
    with pytest.raises(ConfigError, match=f"size {size} with trials {trials} "):
        ExperimentConfig(sizes=(100, size), trials=trials)


@pytest.mark.parametrize("size", [20, 50])
def test_enough_keys_for_two_bins_accepted(size):
    cfg = ExperimentConfig(sizes=(size,), trials=1)
    assert run_experiment(cfg).results[0].chi_square_counts.dof >= 1


def fake_sysconf(memory: int):
    """An ``os.sysconf`` for a machine with ``memory`` bytes in 4 KiB pages."""
    return lambda name: {"SC_PHYS_PAGES": memory // 4096, "SC_PAGE_SIZE": 4096}[name]


def test_config_large_sizes_need_opt_in(monkeypatch):
    monkeypatch.setattr(harness.os, "sysconf", fake_sysconf(1 << 40))
    with pytest.raises(ConfigError, match="allow_large"):
        ExperimentConfig(sizes=(500_000,))
    ExperimentConfig(sizes=(500_000,), allow_large=True)
    ExperimentConfig(sizes=(300_000_000,), allow_large=True)
    with pytest.raises(ConfigError, match="maximum"):
        ExperimentConfig(sizes=(300_000_001,), allow_large=True)


def test_config_large_size_refusal_gives_the_bytes_of_its_mode():
    """Both modes read their keys a block at a time: 8 bytes a key."""
    for mode in harness.addrgen.MODES:
        with pytest.raises(ConfigError, match=re.escape(
                "--allow-large on the command line) to run it anyway; it needs about "
                "1,600,000 bytes for one trial (8 bytes a key)")):
            ExperimentConfig(sizes=(200_000,), mode=mode)


@pytest.mark.parametrize("mode, fits", [
    ("uniform", 125_000_192),   # 8 bytes a key: exactly the memory
    ("crypto", 125_000_192),
])
def test_config_refuses_a_trial_larger_than_physical_memory(monkeypatch, mode, fits):
    monkeypatch.setattr(harness.os, "sysconf", fake_sysconf(1_000_001_536))
    ExperimentConfig(sizes=(fits,), trials=1, mode=mode, allow_large=True)
    refused = fits + 1
    needed = refused * 8
    with pytest.raises(ConfigError, match=f"size {refused} needs about {needed:,} "
                       "bytes .* than the 1,000,001,536 bytes of physical memory"):
        ExperimentConfig(sizes=(refused,), trials=1, mode=mode, allow_large=True)


def unknown_name(name):
    raise ValueError(f"unrecognized configuration name {name!r}")


@pytest.mark.parametrize("sysconf", [unknown_name, lambda name: -1])
def test_config_skips_the_memory_check_where_sysconf_cannot_tell(monkeypatch, sysconf):
    monkeypatch.setattr(harness.os, "sysconf", sysconf)
    ExperimentConfig(sizes=(300_000_000,), allow_large=True)
    monkeypatch.delattr(harness.os, "sysconf")
    ExperimentConfig(sizes=(300_000_000,), allow_large=True)


def test_trial_seed_is_stable_and_spread():
    assert trial_seed(0, 100, 0) == trial_seed(0, 100, 0)
    seeds = {trial_seed(0, s, t) for s in (100, 1_000) for t in range(50)}
    assert len(seeds) == 100
    # adding a new size must not perturb existing streams
    assert trial_seed(7, 100, 3) == trial_seed(7, 100, 3)
    assert trial_seed(7, 100, 3) != trial_seed(8, 100, 3)


def test_run_trial_determinism():
    cfg = small_config()
    a = run_trial(100, 0, cfg)
    b = run_trial(100, 0, cfg)
    assert a.divergence_histogram.counts == b.divergence_histogram.counts
    assert a.level_census == b.level_census


def test_crypto_trial_derives_each_key_once(monkeypatch):
    """A crypto trial derives each key once. Only when prefixes tie does the
    kernel's tie pass read the keys again, and so derive them again: in the
    second run every other address is given the same first 8 bytes, so
    most prefixes tie."""
    derived = []

    def counted_public_keys(scalars):
        derived.append(len(scalars))
        return public_keys(scalars)

    def tied_rows(points):
        digests = keccak256_rows(points)
        digests[::2, -20:-12] = 0xAB  # the address's first 8 bytes
        return digests

    public_keys, keccak256_rows = harness.addrgen.public_keys, harness.addrgen.keccak256_rows
    monkeypatch.setattr(harness.addrgen, "public_keys", counted_public_keys)
    cfg = ExperimentConfig(sizes=(40,), trials=1, master_seed=2, mode="crypto")
    run_trial(40, 0, cfg)
    assert sum(derived) == 40
    derived.clear()
    monkeypatch.setattr(harness.addrgen, "keccak256_rows", tied_rows)
    result = run_trial(40, 0, cfg)
    assert sum(derived) == 80
    keys = harness.addrgen.generate(40, trial_seed(2, 40, 0), "crypto")
    assert (keys[::2, :8] == 0xAB).all()
    assert result == sorted_shape(keys)
    # the 20 tied keys, and only they, sit below the 16 prefix nibbles
    assert sum(c for d, c in result.divergence_histogram.counts.items() if d > 16) == 20


def test_crypto_trial_reads_its_keys_a_block_at_a_time(monkeypatch):
    """With blocks of 256 keys a 1,000-key crypto trial is read in four
    ranges, each derived from its place in the trial's stream."""
    monkeypatch.setattr(trie, "_BLOCK", 2**8)
    cfg = ExperimentConfig(sizes=(1_000,), trials=1, master_seed=3, mode="crypto")
    keys = harness.addrgen.generate(1_000, trial_seed(3, 1_000, 0), "crypto")
    assert run_trial(1_000, 0, cfg) == sorted_shape(keys)


def test_table_span_rule():
    for n, start in [(100, 1), (1_000, 2), (10_000, 3), (100_000, 4)]:
        span = table_span(distribution(ModelParams(n=n)).probabilities)
        assert span == list(range(start, start + 6))


def test_mean_divergence_depth_small_trie():
    cfg = ExperimentConfig(sizes=(100,), trials=10, master_seed=99)
    report = run_experiment(cfg)
    assert 2.2 <= report.results[0].avg_divergence_depth <= 2.5


def test_pooled_totals():
    report = run_experiment(small_config())
    for result, size in zip(report.results, (100, 1_000)):
        assert result.histogram.total == size * 3
        assert len(result.trial_avg_divergence_depths) == 3


def test_repeated_size_pools_its_own_trials():
    report = run_experiment(ExperimentConfig(sizes=(100, 100), trials=2, master_seed=1))
    assert [r.histogram.total for r in report.results] == [200, 200]
    assert report.results[0].histogram.counts == report.results[1].histogram.counts


def test_report_determinism_two_runs():
    a = report_to_json(run_experiment(small_config()))
    b = report_to_json(run_experiment(small_config()))
    assert a == b


@pytest.mark.parametrize("cfg, sha256", [
    (ExperimentConfig(sizes=(100, 1_000), trials=3, master_seed=77),
     "a48aacf6b853fc746c5b71b2d5aa6a6bf342b9ee021b4350b415ec363ff3733b"),
    (ExperimentConfig(sizes=(50,), trials=1, master_seed=3, mode="crypto"),
     "30399011719064a9cdd13ffa7b564e1560a9e4e468552d38bd5c86292267df5f"),
    # the benchmark's validate-paper, crypto-jobs2 and large-1m configs
    (ExperimentConfig(sizes=(100, 1_000, 10_000, 100_000), trials=10, master_seed=1),
     "aa1db0b82b78a3d737e4910a601fe44ca5e6576b2cb7c5171ef2ee7e97b87392"),
    (ExperimentConfig(sizes=(1_000,), trials=4, master_seed=1, mode="crypto"),
     "4fcd051ed5b230e2e0981dd7189be1d1626d1691a11de0c15f66445325623e7a"),
    (ExperimentConfig(sizes=(1_000_000,), trials=1, master_seed=1, allow_large=True),
     "ed87d6ab80ecd940ca382c4f1db1014d390d0ddb418a86435dff67e01323dc26"),
])
def test_report_bytes_pinned(cfg, sha256):
    """Reports are byte-identical across versions of the program, not only
    across reruns of one version."""
    report = report_to_json(run_experiment(cfg)).encode()
    assert hashlib.sha256(report).hexdigest() == sha256


def test_report_json_roundtrip():
    report = run_experiment(small_config())
    parsed = json.loads(report_to_json(report))
    assert parsed == report_to_dict(report)
    assert parsed["schema_version"] == 1
    assert parsed["config"]["sizes"] == [100, 1_000]
    first = parsed["results"][0]
    for key in (
        "histogram",
        "avg_divergence_depth",
        "avg_node_count",
        "model_pmf",
        "comparison_rows",
        "chi_square_paper",
        "chi_square_counts",
        "level_census",
    ):
        assert key in first


def test_node_count_column_is_secondary_metric():
    report = run_experiment(ExperimentConfig(sizes=(100,), trials=2, master_seed=5))
    r = report.results[0]
    assert r.avg_node_count >= r.avg_divergence_depth
    assert r.node_count_histogram.total == r.histogram.total


def test_level_census_pooled_leaves():
    report = run_experiment(ExperimentConfig(sizes=(100,), trials=4, master_seed=5))
    census = report.results[0].level_census
    leaves = sum(level["leaves"] for level in census.values())
    assert leaves == 400


def test_crypto_mode_runs():
    cfg = ExperimentConfig(sizes=(50,), trials=1, master_seed=3, mode="crypto")
    # size 50 keeps the slow pipeline affordable in the suite
    report = run_experiment(cfg)
    assert report.results[0].histogram.total == 50


def crypto_pool_config():
    # two sizes and three trials: six pairs, more than one per CPU
    return ExperimentConfig(sizes=(30, 40), trials=3, master_seed=11, mode="crypto")


def test_crypto_pool_report_matches_serial_run(monkeypatch):
    monkeypatch.setattr(harness, "_cpu_count", lambda: 2)
    pooled = report_to_json(run_experiment(crypto_pool_config()))
    monkeypatch.setattr(harness, "_cpu_count", lambda: 1)
    assert report_to_json(run_experiment(crypto_pool_config())) == pooled


def test_crypto_pool_uses_one_worker_per_cpu(monkeypatch):
    """The pool is sized by the CPUs and capped at the number of pairs: a
    ``crypto`` caller forks one worker per share and waits, a ``uniform``
    caller forks one fewer and runs a share itself, however few keys its
    trials have. A single pair forks only for the parts of a trial of
    ``SPLIT_FROM_KEYS`` or more, and a caller with other threads never forks."""
    import threading

    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(os.getpid())
        return fork()

    def forks_of(cfg):
        before = len(forks)
        run_experiment(cfg)
        return len(forks) - before

    monkeypatch.setattr(harness.os, "fork", counted_fork)
    monkeypatch.setattr(harness, "_cpu_count", lambda: 4)
    assert forks_of(crypto_pool_config()) == 4
    assert forks_of(ExperimentConfig(sizes=(30,), trials=3, mode="crypto")) == 3
    assert forks_of(ExperimentConfig(sizes=(50,), trials=1, mode="crypto")) == 0
    assert forks_of(ExperimentConfig(sizes=(30, 40), trials=3)) == 3
    assert forks_of(ExperimentConfig(sizes=(100_000,), trials=4)) == 3
    # the benchmark's validate-paper, crypto-jobs2 and large-1m configs on
    # two CPUs, as on the machine that runs it
    monkeypatch.setattr(harness, "_cpu_count", lambda: 2)
    assert forks_of(ExperimentConfig(sizes=(100, 1_000, 10_000, 100_000), trials=10)) == 1
    assert forks_of(ExperimentConfig(sizes=(1_000,), trials=4, mode="crypto")) == 2
    assert forks_of(ExperimentConfig(sizes=(1_000_000,), trials=1, allow_large=True)) == 1
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60,))
    other.start()
    try:
        assert forks_of(crypto_pool_config()) == 0
    finally:
        release.set()
        other.join(timeout=60)
    assert not other.is_alive()
    assert set(forks) == {os.getpid()}


def test_crypto_pool_holds_no_more_trials_than_physical_memory(monkeypatch):
    """With memory for one trial of the largest size (40 crypto keys, 8
    bytes a key), two CPUs run the trials one after another in this
    process, not on two workers that would hold two trials at once."""
    pids = []

    def recorded(size, trial, cfg, *parts):
        pids.append(os.getpid())  # only this process's calls reach the list
        return run_trial(size, trial, cfg, *parts)

    monkeypatch.setattr(harness, "_cpu_count", lambda: 2)
    monkeypatch.setattr(harness, "_physical_memory", lambda: 2 * 40 * 8 - 1)
    monkeypatch.setattr(harness, "run_trial", recorded)
    run_experiment(crypto_pool_config())
    assert pids == [os.getpid()] * 6


def test_memory_for_one_trial_still_splits_it(monkeypatch):
    """Memory for one trial of 2,000 keys, 8 bytes a key, admits the config
    and, on two CPUs, the trial's two parts: they share its buffer."""
    monkeypatch.setattr(harness, "_physical_memory", lambda: 2_000 * 8 + 1)
    monkeypatch.setattr(harness, "_cpu_count", lambda: 2)
    monkeypatch.setattr(harness, "SPLIT_FROM_KEYS", 1_000)
    parts, measure = [], harness.split_shape
    monkeypatch.setattr(harness, "split_shape", lambda read, count, n, run:
                        parts.append(n) or measure(read, count, n, run))
    run_experiment(ExperimentConfig(sizes=(2_000,), trials=1))
    assert parts == [2]
    with pytest.raises(ConfigError, match="more than the 16,001 bytes"):
        ExperimentConfig(sizes=(2_001,), trials=1)


def test_crypto_pool_worker_error_reaches_caller(monkeypatch):
    def broken(_scalars):
        raise ValueError("no point for this scalar")

    # forked workers inherit the patched module
    monkeypatch.setattr(harness.addrgen, "public_keys", broken)
    monkeypatch.setattr(harness, "_cpu_count", lambda: 2)
    with pytest.raises(ValueError, match="no point for this scalar"):
        run_experiment(crypto_pool_config())


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus, sizes", [
    pytest.param(2, (100, 1_000, 100_000), id="2"),
    pytest.param(3, (100, 1_000, 100_000), id="3"),
    pytest.param(2, (100, 1_000), id="2-small"),
])
def test_uniform_pool_report_matches_serial_run(monkeypatch, cpus, sizes):
    """``uniform`` trials, of many keys or of few, run on forked workers,
    in shares of unequal pair counts, and the report is the same bytes as
    one CPU's."""
    cfg = ExperimentConfig(sizes=sizes, trials=3, master_seed=4)
    monkeypatch.setattr(harness, "_cpu_count", lambda: cpus)
    pooled = report_to_json(run_experiment(cfg))
    assert_no_child_left()
    monkeypatch.setattr(harness, "_cpu_count", lambda: 1)
    assert report_to_json(run_experiment(cfg)) == pooled


def test_platform_without_fork_runs_every_trial_in_the_caller(monkeypatch):
    """Where ``os.fork`` is missing, a config that two CPUs would pool is
    one share, run in this process, with the one-CPU run's report."""
    cfg = ExperimentConfig(sizes=(100, 1_000), trials=3, master_seed=8)
    monkeypatch.setattr(harness, "_cpu_count", lambda: 1)
    serial = report_to_json(run_experiment(cfg))
    pids = []

    def recorded(size, trial, cfg, *parts):
        pids.append(os.getpid())
        return run_trial(size, trial, cfg, *parts)

    monkeypatch.delattr(harness.os, "fork")
    monkeypatch.setattr(harness, "_cpu_count", lambda: 2)
    monkeypatch.setattr(harness, "run_trial", recorded)
    assert report_to_json(run_experiment(cfg)) == serial
    assert pids == [os.getpid()] * 6


def pool_every_trial(monkeypatch, run_trial_as):
    """Two CPUs, ``run_trial`` replaced in the caller and, as forked workers
    inherit it, in them."""
    monkeypatch.setattr(harness, "_cpu_count", lambda: 2)
    monkeypatch.setattr(harness, "run_trial", run_trial_as)


class UnpicklableError(Exception):
    def __init__(self):
        super().__init__("cannot be sent")
        self.callback = lambda: None  # a lambda does not pickle


def raise_key_error():
    raise KeyError("a trial failed in a worker")


def raise_unpicklable():
    raise UnpicklableError()


@pytest.mark.parametrize("in_worker, error, message", [
    (raise_key_error, KeyError, "a trial failed in a worker"),
    (lambda: os._exit(3), RuntimeError, "exited with status 3 without a result"),
    (raise_unpicklable, RuntimeError, "exited with status 1 without a result"),
])
def test_uniform_worker_failure_reaches_caller(monkeypatch, in_worker, error, message):
    """A worker's exception is raised in the caller with its type and
    message; a worker that sends no result, as it exited early or its
    exception does not pickle, is an error naming its exit status."""
    caller = os.getpid()

    def failing_in_workers(size, trial, cfg, *parts):
        if os.getpid() != caller:
            in_worker()
        return run_trial(size, trial, cfg, *parts)

    pool_every_trial(monkeypatch, failing_in_workers)
    with pytest.raises(error, match=message):
        run_experiment(ExperimentConfig(sizes=(100,), trials=4))
    assert_no_child_left()


def test_caller_error_kills_and_reaps_its_workers(monkeypatch):
    """An error in the caller's own share ends the workers still running
    theirs at once: the run does not wait out their minute."""
    caller = os.getpid()

    def stuck_or_broken(size, trial, cfg, *parts):
        if os.getpid() != caller:
            time.sleep(60)
        raise ValueError("the caller's share failed")

    pool_every_trial(monkeypatch, stuck_or_broken)
    start = time.monotonic()
    with pytest.raises(ValueError, match="the caller's share failed"):
        run_experiment(ExperimentConfig(sizes=(100,), trials=4))
    assert time.monotonic() - start < 30
    assert_no_child_left()


def test_config_stores_numpy_integers_as_ints():
    """numpy integers are taken as the ints they equal, and a numpy bool is
    taken as ``allow_large``: the seeds, and so the report, are those of the
    plain config."""
    import numpy as np

    cfg = ExperimentConfig(sizes=tuple(np.array([100, 1_000])), trials=np.int64(2),
                           master_seed=np.uint64(3), allow_large=np.bool_(False))
    assert all(type(v) is int for v in (*cfg.sizes, cfg.trials, cfg.master_seed))
    plain = ExperimentConfig(sizes=(100, 1_000), trials=2, master_seed=3)
    assert cfg == plain
    assert report_to_json(run_experiment(cfg)) == report_to_json(run_experiment(plain))


@pytest.mark.parametrize("field, value", [
    ("sizes", (100.0,)), ("sizes", ("100",)), ("trials", 2.0), ("master_seed", 1.5),
])
def test_config_rejects_non_integers_naming_the_field(field, value):
    with pytest.raises(ConfigError, match=f"^{field} takes integers, not "):
        ExperimentConfig(**{"sizes": (100,), field: value})


@pytest.mark.parametrize("field, value, message", [
    ("sizes", 100, "sizes takes an iterable of integers, not 100"),
    ("allow_large", "no", "allow_large takes a bool, not 'no'"),
    ("allow_large", 1, "allow_large takes a bool, not 1"),
])
def test_config_rejects_a_wrong_type_naming_the_field(field, value, message):
    """A non-bool ``allow_large``, which would open sizes above
    ``LARGE_SIZE_THRESHOLD`` by its truth, and a ``sizes`` that is no
    iterable are refused as configuration errors."""
    with pytest.raises(ConfigError, match=f"^{message}$"):
        ExperimentConfig(**{"sizes": (200_000,), field: value})


def test_serial_run_keeps_no_shape_per_trial(monkeypatch):
    """A run adds each trial's shape into its size's sum as it comes and
    keeps only the trial's mean depth: 2,000 trials of 100 keys peak below
    500 traced bytes a trial in the caller, serial on one CPU and pooled
    on two, where the caller also adds the worker's sums and means."""
    import tracemalloc

    cfg = ExperimentConfig(sizes=(100,), trials=2_000, master_seed=1)
    for cpus in (1, 2):
        monkeypatch.setattr(harness, "_cpu_count", lambda: cpus)
        run_experiment(ExperimentConfig(sizes=(100,), trials=2, master_seed=1))  # lazy imports
        tracemalloc.start()
        try:
            run_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 500 * cfg.trials, (cpus, peak / cfg.trials)
