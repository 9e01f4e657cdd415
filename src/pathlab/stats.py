"""Histograms of observed path lengths and goodness-of-fit machinery.

Two chi-square variants are provided on purpose:

* :func:`chi_square_paper` works directly on probability vectors,
  sum((p_obs - p_theo)^2 / p_theo). This is not the textbook test — the
  statistic does not scale with sample size — but it is the form that
  reproduces the published reference statistics, so it is kept for
  comparability and labelled accordingly.
* :func:`chi_square_counts` is the standard count-based test with
  tail-bin merging, which terminates cleanly even when far-tail expected
  frequencies underflow (the failure mode the probability-vector form
  hits at large n without merging).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping


class StatsError(ValueError):
    pass


class InsufficientBinsError(StatsError):
    """Fewer than two bins survive expected-count merging."""


@dataclass(frozen=True)
class PathLengthHistogram:
    """Counts of leaves per path length."""

    counts: Mapping[int, int]

    @classmethod
    def from_depths(cls, depths: Iterable[int]) -> "PathLengthHistogram":
        counts: dict[int, int] = {}
        for d in depths:
            counts[d] = counts.get(d, 0) + 1
        return cls(counts)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def probabilities(self) -> dict[int, float]:
        total = self.total
        if total == 0:
            return {}
        return {k: c / total for k, c in sorted(self.counts.items())}

    def mean(self) -> float:
        total = self.total
        if total == 0:
            raise StatsError("empty histogram has no mean")
        return sum(k * c for k, c in self.counts.items()) / total


def merge(a: PathLengthHistogram, b: PathLengthHistogram) -> PathLengthHistogram:
    """Bin-wise sum; associative and commutative, empty histogram is identity."""
    counts = dict(a.counts)
    for k, c in b.counts.items():
        counts[k] = counts.get(k, 0) + c
    return PathLengthHistogram(counts)


@dataclass(frozen=True)
class ComparisonRow:
    path_length: int
    theoretical_prob: float
    experimental_prob: float

    @property
    def difference(self) -> float:
        return abs(self.theoretical_prob - self.experimental_prob)


# Display threshold: anything below half a unit in the sixth decimal
# would render as 0.000000 anyway.
DISPLAY_THRESHOLD = 5e-7


def compare(
    theoretical_probs: Mapping[int, float], observed: PathLengthHistogram
) -> list[ComparisonRow]:
    """Side-by-side rows over every path length where either probability
    clears the six-decimal display threshold."""
    if observed.total == 0:
        raise StatsError("observed histogram is empty")
    obs = observed.probabilities()
    rows = [
        ComparisonRow(k, theoretical_probs.get(k, 0.0), obs.get(k, 0.0))
        for k in sorted(set(obs) | set(theoretical_probs))
    ]
    return [r for r in rows if max(r.theoretical_prob, r.experimental_prob) >= DISPLAY_THRESHOLD]


def chi_square_paper(
    observed_probs: Mapping[int, float], theoretical_probs: Mapping[int, float]
) -> float:
    """Probability-basis statistic sum((p_obs - p_theo)^2 / p_theo).

    The support is the theoretical vector's support; a zero theoretical
    entry raises rather than being silently dropped, mirroring the
    divide-by-zero failure the count-based variant exists to fix.
    """
    stat = 0.0
    for k in sorted(theoretical_probs):
        p_theo = theoretical_probs[k]
        if p_theo == 0.0:
            raise ZeroDivisionError(
                f"theoretical probability is zero at path length {k}"
            )
        p_obs = observed_probs.get(k, 0.0)
        stat += (p_obs - p_theo) ** 2 / p_theo
    return stat


@dataclass(frozen=True)
class ChiSquareResult:
    statistic: float
    dof: int
    p_value: float
    merged_bins: str


# Cochran's rule: every bin of a count chi-square should expect at least 5.
MIN_EXPECTED = 5.0


def merge_plan(expected: Mapping[int, float]) -> list[list]:
    """Merge the bins of ``expected`` (path length -> expected count) whose
    count falls below ``MIN_EXPECTED`` into a neighbour, from the extreme
    tails inward, and return ``[path lengths, expected count]`` per bin.
    Raises :class:`InsufficientBinsError` unless two or more bins remain.
    """
    bins = [[[k], expected[k]] for k in sorted(expected)]

    def merge_into(src: int, dst: int):
        bins[dst][0] = bins[min(src, dst)][0] + bins[max(src, dst)][0]
        bins[dst][1] += bins[src][1]
        del bins[src]

    while len(bins) > 1 and bins[0][1] < MIN_EXPECTED:
        merge_into(0, 1)
    while len(bins) > 1 and bins[-1][1] < MIN_EXPECTED:
        merge_into(len(bins) - 1, len(bins) - 2)
    # Both end bins now expect MIN_EXPECTED or more and only grow, so a thin
    # bin is interior: it joins whichever neighbour is smaller.
    while len(bins) > 2:
        idx = min(range(len(bins)), key=lambda i: bins[i][1])
        if bins[idx][1] >= MIN_EXPECTED:
            break
        left, right = idx - 1, idx + 1
        merge_into(idx, left if bins[left][1] <= bins[right][1] else right)

    if len(bins) < 2:
        raise InsufficientBinsError(
            "fewer than two valid bins remain after merging"
        )
    return bins


def chi_square_counts(
    observed: PathLengthHistogram, theoretical_probs: Mapping[int, float]
) -> ChiSquareResult:
    """Standard count-based goodness-of-fit test over the bins of
    :func:`merge_plan`, with expected count total * p per path length."""
    total = observed.total
    if total == 0:
        raise StatsError("observed histogram is empty")

    support = set(theoretical_probs) | set(observed.counts)
    plan = merge_plan({k: total * theoretical_probs.get(k, 0.0) for k in support})
    stat = sum(
        (sum(observed.counts.get(k, 0) for k in labels) - exp) ** 2 / exp
        for labels, exp in plan
    )
    dof = len(plan) - 1
    described = ", ".join(
        str(labels[0]) if len(labels) == 1 else f"{labels[0]}-{labels[-1]}"
        for labels, _ in plan
    )
    return ChiSquareResult(stat, dof, p_value(stat, dof), f"bins: {described}")


def p_value(statistic: float, dof: int) -> float:
    """Upper-tail chi-square probability Q(dof/2, statistic/2).

    Evaluated via the regularized incomplete gamma function, series for
    x < a + 1 and Lentz continued fraction otherwise; relative error
    below 1e-8 over the tested range.
    """
    if statistic < 0:
        raise StatsError("statistic must be non-negative")
    if dof < 1:
        raise StatsError("dof must be >= 1")
    return _gammq(dof / 2.0, statistic / 2.0)


_EPS = 1e-15
_MAX_ITER = 500


def _gammp_series(a: float, x: float) -> float:
    # P(a, x) by series expansion; converges fast for x < a + 1.
    if x == 0.0:
        return 0.0
    ap = a
    term = total = 1.0 / a
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))

def _gammq_cf(a: float, x: float) -> float:
    # Q(a, x) by modified Lentz continued fraction; for x >= a + 1.
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gammq(a: float, x: float) -> float:
    if x < a + 1.0:
        return min(1.0, max(0.0, 1.0 - _gammp_series(a, x)))
    return min(1.0, max(0.0, _gammq_cf(a, x)))
