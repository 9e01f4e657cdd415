import hashlib
import json

import pytest

from pathlab import harness
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


def test_config_large_sizes_need_opt_in():
    with pytest.raises(ConfigError, match="allow_large"):
        ExperimentConfig(sizes=(500_000,))
    ExperimentConfig(sizes=(500_000,), allow_large=True)
    ExperimentConfig(sizes=(10_000_000,), allow_large=True)
    with pytest.raises(ConfigError, match="maximum"):
        ExperimentConfig(sizes=(10_000_001,), allow_large=True)


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
    """The pool is sized by the CPUs and capped at the number of pairs;
    uniform trials, a single pair and a caller with other threads never
    start it."""
    import concurrent.futures
    import threading

    started = []

    class Pool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, workers, **kwargs):
            started.append(workers)
            super().__init__(workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(harness, "_cpu_count", lambda: 4)
    run_experiment(crypto_pool_config())
    run_experiment(ExperimentConfig(sizes=(30,), trials=3, mode="crypto"))
    run_experiment(ExperimentConfig(sizes=(50,), trials=1, mode="crypto"))
    run_experiment(ExperimentConfig(sizes=(30, 40), trials=3))
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60,))
    other.start()
    try:
        run_experiment(crypto_pool_config())
    finally:
        release.set()
        other.join(timeout=60)
    assert not other.is_alive()
    assert started == [4, 3]


def test_crypto_pool_worker_error_reaches_caller(monkeypatch):
    def broken(_scalars):
        raise ValueError("no point for this scalar")

    # forked workers inherit the patched module
    monkeypatch.setattr(harness.addrgen, "public_keys", broken)
    monkeypatch.setattr(harness, "_cpu_count", lambda: 2)
    with pytest.raises(ValueError, match="no point for this scalar"):
        run_experiment(crypto_pool_config())
