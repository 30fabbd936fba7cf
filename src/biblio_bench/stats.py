"""Rank-sum cohort comparison and boxplot data export.

The one-sided Wilcoxon rank-sum test asks whether values drawn from one
cohort tend to exceed values drawn from the other. The normal approximation
with a 0.5 continuity correction and tie-corrected variance is used at all
sample sizes.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

from .indicators import INDICATOR_FIELDS, IndicatorVector, median, render_table


def wilcoxon_rank_sum(
    sample_a: Sequence[float], sample_b: Sequence[float]
) -> tuple[float, float]:
    """Continuity-corrected normal-approximation rank-sum test of a > b.

    Returns (W, p) where W is the rank sum of sample_a minus its minimum
    possible value and p is the one-sided p for sample_a tending to exceed
    sample_b. Ties get average ranks and the variance is reduced by the
    usual tie term. When every pooled value is tied the statistic carries
    no information and p is 0.5.
    """
    n_a, n_b = len(sample_a), len(sample_b)
    if n_a == 0 or n_b == 0:
        raise ValueError("both samples must be non-empty")

    # Each distinct value with t copies takes the mean rank below + (t + 1) / 2
    # for every copy. Each term is a half-integer far below 2**53, so the sum
    # is exact in any order. Values that compare equal, such as 0 and -0.0,
    # share one key and so one tie group.
    in_a = Counter(sample_a)
    rank_sum_a = 0.0
    tie_term = 0
    below = 0
    for value, t in sorted(Counter([*sample_a, *sample_b]).items()):
        rank_sum_a += (below + (t + 1) / 2) * in_a[value]
        tie_term += t**3 - t
        below += t
    w = rank_sum_a - n_a * (n_a + 1) / 2.0

    n = n_a + n_b
    # tie_term is an exact int, so tie_term / (n * (n - 1)) is correctly rounded.
    variance = (n_a * n_b / 12.0) * ((n + 1) - tie_term / (n * (n - 1)))
    if variance <= 0:
        return w, 0.5

    sigma = math.sqrt(variance)
    mean = n_a * n_b / 2.0
    # The normal upper tail at z = (W - mean - 0.5) / sigma; erfc lies in [0, 2].
    return w, 0.5 * math.erfc((w - mean - 0.5) / sigma / math.sqrt(2.0))


@dataclass(frozen=True)
class ComparisonRow:
    indicator: str
    median_stars: float
    median_control: float
    p: float
    rank: int


# perfbench/tracing.py::_compare reads ``result.rows``.
@dataclass(frozen=True)
class ComparisonTable:
    """Per-indicator cohort medians, one-sided p, and rank by ascending p."""

    rows: tuple[ComparisonRow, ...]


def compare_cohorts(
    stars: Sequence[IndicatorVector], control: Sequence[IndicatorVector]
) -> ComparisonTable:
    """Test, for each indicator, whether the stars' values run higher.

    One row per indicator in table order: cohort medians, the one-sided
    p for the stars-greater alternative, and the rank of that p among all
    indicators (ties keep indicator order).
    """
    if not stars or not control:
        raise ValueError("both cohorts must be non-empty")
    tests = []
    for name in INDICATOR_FIELDS:
        values_s = [float(getattr(v, name)) for v in stars]
        values_c = [float(getattr(v, name)) for v in control]
        _, p = wilcoxon_rank_sum(values_s, values_c)
        tests.append((name, median(values_s), median(values_c), p))
    by_p = sorted(range(len(tests)), key=lambda i: (tests[i][3], i))
    rank = {i: position for position, i in enumerate(by_p, start=1)}
    return ComparisonTable(
        tuple(ComparisonRow(*test, rank[i]) for i, test in enumerate(tests))
    )


def render_comparison_table(
    table: ComparisonTable, precision: int | None = None
) -> str:
    return render_table(ComparisonRow, table.rows, precision)


@dataclass(frozen=True)
class BoxplotSummary:
    """Five-number boxplot summary of log10(x + 1) transformed values.

    Whiskers sit at the most extreme transformed values within 1.5 IQR of
    the quartiles; values beyond are listed as outliers.
    """

    cohort: str
    indicator: str
    median: float
    q1: float
    q3: float
    whisker_low: float
    whisker_high: float
    outliers: tuple[float, ...]


def _percentile(ordered: Sequence[float], q: float) -> float:
    """numpy's default (linear) percentile of a sorted list, bit for bit."""
    index = q / 100 * (len(ordered) - 1)
    low = math.floor(index)
    if low == len(ordered) - 1:  # numpy returns the last value as it is
        return ordered[low]
    a, b, g = ordered[low], ordered[low + 1], index - low
    return a + (b - a) * g if g < 0.5 else b - (b - a) * (1 - g)


def _boxplot_of(values: Sequence[float]) -> tuple[
    float, float, float, float, float, tuple[float, ...]
]:
    ordered = sorted(values)
    q1, med, q3 = (_percentile(ordered, q) for q in (25.0, 50.0, 75.0))
    iqr = q3 - q1
    fence_low, fence_high = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    inside = [v for v in ordered if fence_low <= v <= fence_high]
    outliers = tuple(v for v in ordered if not fence_low <= v <= fence_high)
    # A whisker ends at the most extreme value within its fence, or at its
    # quartile when ties put that value inside the box, as matplotlib draws it.
    return med, q1, q3, min(inside[0], q1), max(inside[-1], q3), outliers


def boxplot_export(
    cohorts: Mapping[str, Sequence[IndicatorVector]], indicator: str
) -> list[BoxplotSummary]:
    """Boxplot summary of one indicator per cohort, on a log10(x+1) scale.

    Indicator distributions are heavily skewed and zero-valued for uncited
    authors, so values are transformed to log10(x + 1) before summarizing.
    """
    if indicator not in INDICATOR_FIELDS:
        raise ValueError(f"unknown indicator {indicator!r}")
    summaries = []
    for cohort_name, vectors in cohorts.items():
        if not vectors:
            raise ValueError(f"cohort {cohort_name!r} is empty")
        transformed = [
            math.log10(float(getattr(v, indicator)) + 1.0) for v in vectors
        ]
        summaries.append(
            BoxplotSummary(cohort_name, indicator, *_boxplot_of(transformed))
        )
    return summaries


def render_boxplot_table(
    summaries: Sequence[BoxplotSummary], precision: int | None = None
) -> str:
    return render_table(BoxplotSummary, summaries, precision)

