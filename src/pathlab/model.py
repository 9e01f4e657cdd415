"""Closed-form path-length distribution model for tries of random keys.

For a trie holding ``n`` uniform 40-nibble keys, the probability that a
key's path length equals ``k`` is

    pmf(k, n) = (1 - (1/16)^k * 15/16)^n - (1 - (1/16)^(k-1) * 15/16)^n

Powers of near-one bases are evaluated as ``exp(n * log1p(-x))``; naive
powering loses every significant digit once x drops toward 16^-41.

This is the published formula. The exact per-leaf law is
P(D <= k) = (1 - 16^-k)^(n-1), and the formula differs from it by the
factor 15/16 and the exponent n: the exact P(D = 1) for n = 2 is 15/16,
while pmf(1, 2) is about 0.8824.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

MAX_PATH_LENGTH = 41  # 40 nibbles + root
MAX_KEYS = 16**40  # distinct 40-nibble keys: 2**160


class ModelDomainError(ValueError):
    """Argument outside the model's domain."""


def _check_key_count(n: int) -> None:
    """Refuse a key count outside [1, 2**160]: there are no more distinct
    20-byte keys."""
    if n < 1:
        raise ModelDomainError("key count n must be >= 1")
    if n > MAX_KEYS:
        raise ModelDomainError("key count n must be <= 2**160, the number of distinct keys")


def _no_match_power(k: int, n: int) -> float:
    """(1 - (1/16)^k * 15/16)^n, stably."""
    x = (16.0 ** -k) * (15.0 / 16.0)
    return math.exp(n * math.log1p(-x))


def pmf(k: int, n: int) -> float:
    """Probability of path length exactly ``k`` among ``n`` keys."""
    if k < 1:
        raise ModelDomainError("path length k must be >= 1")
    _check_key_count(n)
    return _no_match_power(k, n) - _no_match_power(k - 1, n)


def cdf(k: int, n: int) -> float:
    """P(path length <= k): the telescoped partial sum of :func:`pmf`.

    Equals (1 - (1/16)^k * 15/16)^n - (1/16)^n and is monotone
    non-decreasing in k; the published CDF expression,
    1 - (1 - (1/16)^k * 15/16)^n, decreases in k and is not a CDF.
    """
    if k < 1:
        raise ModelDomainError("path length k must be >= 1")
    _check_key_count(n)
    return _no_match_power(k, n) - _no_match_power(0, n)


def expected_path_length(n: int) -> float:
    """Mean path length of ``n`` keys: :attr:`ModelDistribution.mean`."""
    return distribution(ModelParams(n=n)).mean


def asymptotic_ratio(n: int) -> float:
    """expected_path_length(n) / log16(n); tends to 1 from above."""
    if n < 2:
        raise ModelDomainError("asymptotic ratio needs n >= 2")
    return expected_path_length(n) / (math.log(n) / math.log(16))


@dataclass(frozen=True)
class ModelParams:
    n: int

    def __post_init__(self):
        _check_key_count(self.n)


@dataclass(frozen=True)
class ModelDistribution:
    probabilities: dict[int, float] = field(repr=False)  # k -> pmf(k, n)

    @property
    def mode(self) -> int:
        """Most probable path length."""
        return max(self.probabilities, key=self.probabilities.__getitem__)

    @property
    def mean(self) -> float:
        """Mean path length: sum of k * pmf(k, n) for k in [1, 41].

        Truncation at 41 discards less than n * 16^-41 of mass.
        """
        return sum(k * p for k, p in self.probabilities.items())


def distribution(params: ModelParams) -> ModelDistribution:
    """Evaluate the PMF over k in [1, MAX_PATH_LENGTH]."""
    probs = {k: pmf(k, params.n) for k in range(1, MAX_PATH_LENGTH + 1)}
    return ModelDistribution(probabilities=probs)
