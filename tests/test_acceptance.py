"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 5's p-value clause is known-red: the analytic distribution is
the published formula, which differs from the exact per-leaf law
P(D <= k) = (1 - 16^-k)^(n-1) by the factor 15/16 and the exponent n.
At 100,000 keys its systematic error (about 0.02 in the modal bins) is
~14 sigma at that sample size, so a correctly implemented count-based
chi-square rejects it regardless of seed. The test asserts the stated
criterion anyway rather than papering over it; see the remedy test for
the part that does hold.
"""

import math
import time

import numpy as np
import pytest

from pathlab import refdata
from pathlab.harness import (
    ExperimentConfig,
    report_to_json,
    run_experiment,
    run_trial,
)
from pathlab.keyspace import longest_common_prefix, to_nibbles
from pathlab.model import MAX_PATH_LENGTH, ModelParams, cdf, distribution, expected_path_length, pmf
from pathlab.report import reproduce_tables
from pathlab.stats import chi_square_counts, chi_square_paper, p_value
from pathlab.trie import Trie, check_invariants

TABLE5_THEORETICAL = {100: 2.33, 1_000: 3.19, 10_000: 4.04, 100_000: 4.85}


def record(criterion: int, description: str, passed: bool) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"CRITERION {criterion}: {status} - {description}")
    assert passed, f"criterion {criterion} failed: {description}"


@pytest.fixture(scope="module")
def validation_report():
    cfg = ExperimentConfig(
        sizes=(100, 1_000, 10_000, 100_000), trials=10, master_seed=0
    )
    return run_experiment(cfg)


@pytest.fixture(scope="module")
def table_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("tables")
    reproduce_tables(out, master_seed=0, trials=10)
    return out


def test_criterion_1_analytic_golden_values():
    start = time.perf_counter()
    ok = True
    for n, values in refdata.REFERENCE_PMF.items():
        for k, expected in values.items():
            ok &= abs(pmf(k, n) - expected) <= 5e-7
    for n, expected in refdata.REFERENCE_EXPECTED.items():
        ok &= abs(expected_path_length(n) - expected) <= 5e-7
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    record(1, f"golden PMF/expected values within 5e-7 in {elapsed:.3f}s", ok)


def test_criterion_2_table_reproduction(table_dir):
    start = time.perf_counter()
    ok = True
    for idx, size in enumerate((100, 1_000, 10_000, 100_000), start=1):
        lines = (table_dir / f"table{idx}_path_lengths_{size}.csv").read_text().splitlines()
        printed = {
            int(line.split(",")[0]): line.split(",")[1] for line in lines[1:]
        }
        for k, theo, _ in refdata.REFERENCE_DISTRIBUTIONS[size]:
            ok &= printed.get(k) == f"{theo:.6f}"
    lines = (table_dir / "table5_average_path_lengths.csv").read_text().splitlines()
    printed_avgs = {int(l.split(",")[0]): l.split(",")[1] for l in lines[1:]}
    for size, theo in TABLE5_THEORETICAL.items():
        ok &= printed_avgs.get(size) == f"{theo:.2f}"
    analytic_elapsed = time.perf_counter() - start
    ok &= analytic_elapsed < 1.0
    record(2, "theoretical table columns digit-for-digit", ok)


def test_criterion_3_chi_square_fidelity():
    ok = True
    for size, expected in refdata.REFERENCE_CHI_SQUARE.items():
        rows = refdata.REFERENCE_DISTRIBUTIONS[size]
        stat = chi_square_paper(
            {k: obs for k, _, obs in rows}, {k: theo for k, theo, _ in rows}
        )
        ok &= abs(stat - expected) <= 1e-5
        ok &= p_value(stat, len(rows) - 1) >= 0.9999
    record(3, "probability-basis chi-square matches published statistics", ok)


def test_criterion_4_monte_carlo_validation(validation_report):
    ok = True
    for result in validation_report.results:
        theo_avg = TABLE5_THEORETICAL[result.size]
        ok &= abs(result.avg_divergence_depth - theo_avg) <= 0.05
        worst = max(r.difference for r in result.comparison_rows)
        ok &= worst <= 0.05
    record(4, "pooled averages within 0.05 and per-bin differences <= 0.05", ok)


def test_criterion_5_count_chi_square_terminates(validation_report):
    result = next(r for r in validation_report.results if r.size == 100_000)
    cs = result.chi_square_counts
    ok = math.isfinite(cs.statistic) and cs.dof >= 1 and 0.0 <= cs.p_value <= 1.0
    record(5, "count-based chi-square at 100,000 terminates with a valid p-value", ok)


def test_criterion_5_p_value_sanity_over_20_seeds():
    # Known-red: see module docstring. The assertion states the criterion
    # as written; the model's approximation error makes it unattainable.
    passing = 0
    model_probs = distribution(ModelParams(n=100_000)).probabilities
    for seed in range(20):
        cfg = ExperimentConfig(sizes=(100_000,), trials=1, master_seed=seed)
        trial = run_trial(100_000, 0, cfg)
        cs = chi_square_counts(trial.divergence_histogram, model_probs)
        if cs.p_value >= 0.01:
            passing += 1
    record(5, f"p >= 0.01 in at least 18/20 seeded runs (got {passing})", passing >= 18)


def test_criterion_6_model_self_consistency():
    ok = True
    for n in (1, 10, 100, 10**4, 10**6, 300_000_000, 10**9):
        ok &= all(pmf(k, n) >= 0.0 for k in range(1, MAX_PATH_LENGTH + 1))
    for n in (100, 10**4, 10**6, 300_000_000):
        ok &= abs(sum(pmf(k, n) for k in range(1, 42)) - 1.0) <= 1e-9
    for n in (100, 10**4, 10**6):
        running = 0.0
        for k in range(1, 42):
            running += pmf(k, n)
            ok &= abs(cdf(k, n) - running) <= 1e-12
    modes = [distribution(ModelParams(n=10**e)).mode for e in range(2, 10)]
    ok &= modes == sorted(modes)
    record(6, "PMF non-negativity, normalization, CDF telescoping, mode growth", ok)


def _random_key_batch(rng, count):
    """Random keys with a strong shared-prefix bias."""
    keys = set()
    while len(keys) < count:
        base = rng.integers(0, 256, size=20, dtype=np.uint8).tobytes()
        keys.add(base)
        shared = int(rng.integers(0, 10))
        mutated = base[:shared] + rng.integers(
            0, 256, size=20 - shared, dtype=np.uint8
        ).tobytes()
        keys.add(mutated)
    return list(keys)[:count]


def test_criterion_7_trie_property_suite():
    rng = np.random.default_rng(1234)
    cases = 0
    ok = True
    while cases < 10_000:
        count = int(rng.integers(1, 65))
        keys = _random_key_batch(rng, count)
        trie = Trie()
        for k in keys:
            trie.insert(k, b"v")
            check_invariants(trie)
        ok &= all(trie.lookup(k) == b"v" for k in keys)

        shuffled = list(keys)
        rng.shuffle(shuffled)
        other = Trie()
        for k in shuffled:
            other.insert(k, b"v")
        ok &= trie == other

        metrics = trie.leaf_metrics()
        for k in keys:
            brute = (
                1 + max(
                    longest_common_prefix(to_nibbles(k), to_nibbles(o))
                    for o in keys if o != k
                )
                if len(keys) > 1 else 0
            )
            m = metrics[k]
            ok &= m.divergence_depth == brute
            ok &= m.node_count <= m.divergence_depth + 1

        doomed = [k for k in keys if rng.random() < 0.5]
        for k in doomed:
            ok &= trie.delete(k)
            check_invariants(trie)
        fresh = Trie()
        for k in keys:
            if k not in set(doomed):
                fresh.insert(k, b"v")
        ok &= trie == fresh

        cases += len(keys)
        assert ok
    record(7, f"randomized trie property suite over {cases} keys", ok)


def test_criterion_8_determinism():
    cfg = ExperimentConfig(sizes=(100, 1_000), trials=3, master_seed=77)
    first = report_to_json(run_experiment(cfg))
    second = report_to_json(run_experiment(cfg))
    ok = first == second
    record(8, "byte-identical JSON across reruns", ok)
