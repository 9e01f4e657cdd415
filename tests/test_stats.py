import math

import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from pathlab import refdata
from pathlab.model import ModelParams, distribution
from pathlab.stats import (
    ChiSquareResult,
    InsufficientBinsError,
    PathLengthHistogram,
    StatsError,
    chi_square_counts,
    chi_square_paper,
    compare,
    merge,
    merge_plan,
    p_value,
)

histograms = st.dictionaries(
    st.integers(0, 41), st.integers(1, 10_000), max_size=20
).map(PathLengthHistogram)


def published_histogram(size: int, scale: int) -> PathLengthHistogram:
    """Reference observed columns converted back to integer counts."""
    rows = refdata.REFERENCE_DISTRIBUTIONS[size]
    counts = {k: round(obs * scale) for k, _, obs in rows if obs > 0}
    return PathLengthHistogram(counts)


def test_histogram_empty():
    h = PathLengthHistogram.from_depths([])
    assert h.total == 0
    assert h.probabilities() == {}


def test_histogram_counts():
    h = PathLengthHistogram.from_depths([2, 2, 3])
    assert h.counts == {2: 2, 3: 1}
    assert h.total == 3
    assert h.probabilities() == {2: 2 / 3, 3: 1 / 3}


def test_merge_identity():
    h = PathLengthHistogram.from_depths([1, 2, 2])
    assert merge(h, PathLengthHistogram({})).counts == h.counts


def test_merge_ten_trials():
    trials = [PathLengthHistogram({3: 600, 4: 400}) for _ in range(10)]
    pooled = PathLengthHistogram({})
    for t in trials:
        pooled = merge(pooled, t)
    assert pooled.total == 10_000


@settings(max_examples=200)
@given(histograms, histograms)
def test_merge_commutative(a, b):
    assert merge(a, b).counts == merge(b, a).counts


@settings(max_examples=200)
@given(histograms, histograms, histograms)
def test_merge_associative(a, b, c):
    assert merge(merge(a, b), c).counts == merge(a, merge(b, c)).counts


@pytest.mark.parametrize("size", [100, 1_000, 10_000])
def test_chi_square_paper_reference(size):
    rows = refdata.REFERENCE_DISTRIBUTIONS[size]
    theoretical = {k: theo for k, theo, _ in rows}
    observed = {k: obs for k, _, obs in rows}
    stat = chi_square_paper(observed, theoretical)
    assert stat == pytest.approx(refdata.REFERENCE_CHI_SQUARE[size], abs=1e-5)
    assert p_value(stat, len(rows) - 1) >= 0.9999


def test_chi_square_paper_identical_vectors():
    probs = {1: 0.25, 2: 0.5, 3: 0.25}
    assert chi_square_paper(probs, probs) == 0.0


def test_chi_square_paper_zero_theoretical():
    with pytest.raises(ZeroDivisionError):
        chi_square_paper({1: 0.5}, {1: 0.5, 2: 0.0})


def test_chi_square_counts_perfect_match():
    observed = PathLengthHistogram({1: 50, 2: 50})
    result = chi_square_counts(observed, {1: 0.5, 2: 0.5})
    assert result.statistic == 0.0
    assert result.p_value == 1.0


def test_chi_square_counts_two_bins_hand_computed():
    # O = (60, 40), E = (50, 50) -> 100/50 + 100/50 = 4.0
    observed = PathLengthHistogram({1: 60, 2: 40})
    result = chi_square_counts(observed, {1: 0.5, 2: 0.5})
    assert result.statistic == pytest.approx(4.0)
    assert result.dof == 1
    assert result.p_value == pytest.approx(scipy.stats.chi2.sf(4.0, 1), rel=1e-8)


def test_chi_square_counts_merges_thin_tails():
    model_probs = distribution(ModelParams(n=100)).probabilities
    observed = PathLengthHistogram({2: 70, 3: 27, 4: 3})
    result = chi_square_counts(observed, model_probs)
    assert math.isfinite(result.statistic)
    assert result.dof >= 1
    assert 0 <= result.p_value <= 1
    assert "bins" in result.merged_bins


def test_chi_square_counts_insufficient_bins():
    observed = PathLengthHistogram({1: 3})
    with pytest.raises(InsufficientBinsError):
        chi_square_counts(observed, {1: 0.9, 2: 0.1})


@pytest.mark.parametrize("expected, plan", [
    # a thin interior bin joins its smaller neighbour: the left one here...
    ({1: 2, 2: 3, 3: 4, 4: 100}, [[[1, 2, 3], 9], [[4], 100]]),
    # ...and the right one here
    ({1: 100, 2: 3, 3: 6}, [[[1], 100], [[2, 3], 9]]),
])
def test_merge_plan_merges_interior_bins(expected, plan):
    assert merge_plan(expected) == plan


def test_chi_square_counts_empty():
    with pytest.raises(StatsError):
        chi_square_counts(PathLengthHistogram({}), {1: 1.0})


def test_p_value_at_zero():
    for dof in (1, 2, 5, 40):
        assert p_value(0.0, dof) == 1.0


def test_p_value_dof2_closed_form():
    for x in (0.01, 0.5, 1.386294, 4.0, 20.0, 80.0):
        assert p_value(x, 2) == pytest.approx(math.exp(-x / 2), rel=1e-8)
    assert p_value(1.386294, 2) == pytest.approx(0.5, abs=1e-6)


def test_p_value_against_scipy():
    for dof in (1, 2, 3, 5, 10, 30, 100):
        for x in (1e-6, 0.1, 1.0, dof / 2, float(dof), 2.0 * dof, 10.0 * dof):
            expected = scipy.stats.chi2.sf(x, dof)
            if expected > 1e-300:
                assert p_value(x, dof) == pytest.approx(expected, rel=1e-8)


def test_p_value_monotone_in_statistic():
    values = [p_value(x, 5) for x in (0.0, 0.5, 1, 2, 5, 10, 30)]
    assert values == sorted(values, reverse=True)


def test_p_value_domain_errors():
    with pytest.raises(StatsError):
        p_value(-1.0, 2)
    with pytest.raises(StatsError):
        p_value(1.0, 0)


def test_compare_perfect_match():
    dist = distribution(ModelParams(n=100))
    scale = 10**6
    counts = {k: round(p * scale) for k, p in dist.probabilities.items() if p >= 5e-7}
    rows = compare(dist.probabilities, PathLengthHistogram(counts))
    assert all(r.difference < 1e-6 for r in rows)


def test_compare_against_published_100():
    rows = compare(
        distribution(ModelParams(n=100)).probabilities, published_histogram(100, 1000)
    )
    worst = max(rows, key=lambda r: r.difference)
    assert worst.path_length == 3
    assert worst.difference == pytest.approx(0.021521, abs=1e-5)


def test_compare_against_published_100000():
    rows = compare(
        distribution(ModelParams(n=100_000)).probabilities,
        published_histogram(100_000, 10**6),
    )
    worst = max(rows, key=lambda r: r.difference)
    assert worst.path_length == 5
    assert worst.difference == pytest.approx(0.037195, abs=1e-5)


def test_compare_rows_sorted_and_thresholded():
    dist = distribution(ModelParams(n=100))
    rows = compare(dist.probabilities, PathLengthHistogram({2: 7, 3: 3}))
    lengths = [r.path_length for r in rows]
    assert lengths == sorted(lengths)
    assert all(
        r.theoretical_prob >= 5e-7 or r.experimental_prob >= 5e-7 for r in rows
    )


def test_chi_square_result_fields():
    r = ChiSquareResult(1.0, 2, 0.6, "bins: 1-3")
    assert r.statistic == 1.0 and r.dof == 2
