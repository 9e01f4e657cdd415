import math

import pytest

from pathlab import refdata
from pathlab.model import (
    MAX_PATH_LENGTH,
    ModelDomainError,
    ModelParams,
    asymptotic_ratio,
    cdf,
    distribution,
    expected_path_length,
    pmf,
)

GOLDEN_TOL = 5e-7


@pytest.mark.parametrize("n,values", sorted(refdata.REFERENCE_PMF.items()))
def test_pmf_reference_values(n, values):
    for k, expected in values.items():
        assert pmf(k, n) == pytest.approx(expected, abs=GOLDEN_TOL)


@pytest.mark.parametrize("n,expected", sorted(refdata.REFERENCE_EXPECTED.items()))
def test_expected_path_length_reference(n, expected):
    assert expected_path_length(n) == pytest.approx(expected, abs=GOLDEN_TOL)


def test_expected_path_length_1000():
    assert expected_path_length(1_000) == pytest.approx(3.19, abs=5e-3)


def test_pmf_domain_errors():
    with pytest.raises(ModelDomainError):
        pmf(0, 100)
    with pytest.raises(ModelDomainError):
        pmf(2, 0)


def test_cdf_total_mass():
    assert cdf(41, 100) == pytest.approx(1.0, abs=1e-9)


def test_cdf_small_k():
    # sum of the reference k=1 and k=2 probabilities
    assert cdf(2, 100) == pytest.approx(0.002386 + 0.690504, abs=1e-5)


def test_cdf_telescopes():
    for k, n in [(3, 100), (7, 10_000), (12, 10**6), (20, 300_000_000)]:
        assert cdf(k, n) - cdf(k - 1, n) == pytest.approx(pmf(k, n), abs=1e-12)


def test_cdf_matches_cumulative_sum():
    for n in (100, 10_000, 10**6):
        running = 0.0
        for k in range(1, 42):
            running += pmf(k, n)
            assert abs(cdf(k, n) - running) <= 1e-12


def test_cdf_monotone():
    for n in (2, 100, 10**6):
        values = [cdf(k, n) for k in range(1, 42)]
        assert values == sorted(values)


def test_asymptotic_ratio_values():
    assert asymptotic_ratio(10**6) == pytest.approx(
        5.649078 / (math.log(10**6) / math.log(16)), abs=1e-6
    )
    assert asymptotic_ratio(10**6) == pytest.approx(1.1337, abs=1e-4)
    assert asymptotic_ratio(100) == pytest.approx(
        2.328879 / (math.log(100) / math.log(16)), abs=1e-6
    )
    assert asymptotic_ratio(100) == pytest.approx(1.402, abs=1e-3)


def test_asymptotic_ratio_decreasing_toward_limit():
    assert asymptotic_ratio(10**12) < asymptotic_ratio(10**6) < asymptotic_ratio(10**2)
    with pytest.raises(ModelDomainError):
        asymptotic_ratio(1)


@pytest.mark.parametrize(
    "n,mode", [(100, 2), (10_000, 4), (10**6, 6), (300_000_000, 8)]
)
def test_distribution_mode(n, mode):
    assert distribution(ModelParams(n=n)).mode == mode


def test_pmf_non_negative_grid():
    for n in (1, 2, 10, 100, 10**4, 10**6, 300_000_000, 10**9):
        for k in range(1, MAX_PATH_LENGTH + 1):
            assert pmf(k, n) >= 0.0


def test_normalization():
    for n in (100, 10**4, 10**6, 300_000_000):
        total = sum(pmf(k, n) for k in range(1, 42))
        assert 1 - 1e-9 <= total <= 1.0 + 1e-15


def test_mode_non_decreasing_across_decades():
    modes = [distribution(ModelParams(n=10**e)).mode for e in range(2, 10)]
    assert modes == sorted(modes)


def test_small_n_is_only_an_approximation():
    # exact first-nibble divergence probability for two keys is 15/16
    assert pmf(1, 2) == pytest.approx(0.8824, abs=5e-4)
    assert pmf(1, 2) != pytest.approx(15 / 16, abs=1e-3)


def test_params_validation():
    with pytest.raises(ModelDomainError):
        ModelParams(n=0)
