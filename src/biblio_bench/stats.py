"""Rank-sum cohort comparison and boxplot data export.

The one-sided Wilcoxon rank-sum test asks whether values drawn from one
cohort tend to exceed values drawn from the other. The normal approximation
with a 0.5 continuity correction and tie-corrected variance is used at all
sample sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .indicators import (
    INDICATOR_FIELDS, IndicatorVector, median, parse_table, render_table
)


def _average_ranks(values: Sequence[float]) -> tuple[list[float], int]:
    """Mean-position ranks from 1, and sum(t**3 - t) over groups of t ties."""
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    tie_term = 0
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        mean_rank = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = mean_rank
        t = j - i + 1
        tie_term += t**3 - t
        i = j + 1
    return ranks, tie_term


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

    pooled = list(sample_a) + list(sample_b)
    ranks, tie_term = _average_ranks(pooled)
    rank_sum_a = math.fsum(ranks[:n_a])
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


@dataclass(frozen=True)
class ComparisonTable:
    """Per-indicator cohort medians, one-sided p, and rank by ascending p."""

    rows: tuple[ComparisonRow, ...]

    def row(self, indicator: str) -> ComparisonRow:
        for row in self.rows:
            if row.indicator == indicator:
                return row
        raise KeyError(indicator)


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
    medians_s = []
    medians_c = []
    p_values = []
    for name in INDICATOR_FIELDS:
        values_s = [float(getattr(v, name)) for v in stars]
        values_c = [float(getattr(v, name)) for v in control]
        medians_s.append(median(values_s))
        medians_c.append(median(values_c))
        _, p = wilcoxon_rank_sum(values_s, values_c)
        p_values.append(p)

    order = sorted(range(len(INDICATOR_FIELDS)), key=lambda i: (p_values[i], i))
    ranks = [0] * len(INDICATOR_FIELDS)
    for position, index in enumerate(order, start=1):
        ranks[index] = position

    rows = tuple(
        ComparisonRow(
            indicator=name,
            median_stars=medians_s[i],
            median_control=medians_c[i],
            p=p_values[i],
            rank=ranks[i],
        )
        for i, name in enumerate(INDICATOR_FIELDS)
    )
    return ComparisonTable(rows=rows)


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


def parse_comparison_table(text: str) -> ComparisonTable:
    """Read a table written by render_comparison_table."""
    return ComparisonTable(rows=tuple(parse_table(ComparisonRow, text)))
