import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import mannwhitneyu

from biblio_bench.indicators import INDICATOR_FIELDS, indicator_vector
from biblio_bench.stats import (
    BoxplotSummary,
    ComparisonRow,
    ComparisonTable,
    _boxplot_of,
    boxplot_export,
    compare_cohorts,
    parse_comparison_table,
    render_boxplot_table,
    render_comparison_table,
    wilcoxon_rank_sum,
)
from oracles import (
    constant_model,
    exact_p_from_counts,
    exact_rank_sum_p,
    make_record,
    rank_sum_counts,
    rank_sum_statistic,
    samples_realizing_w,
)


def test_statistic_definition():
    # sample_a holding the lowest ranks gives W = 0
    w, _ = wilcoxon_rank_sum([1, 2, 3], [4, 5, 6])
    assert w == 0.0
    # and the highest ranks give the maximum W = n_a * n_b
    w, _ = wilcoxon_rank_sum([4, 5, 6], [1, 2, 3])
    assert w == 9.0


def test_worked_example():
    w, p = wilcoxon_rank_sum([4, 5, 6], [1, 2, 3])
    assert w == 9.0
    sigma = math.sqrt(3 * 3 * 7 / 12.0)
    expected = 0.5 * math.erfc(((9.0 - 4.5 - 0.5) / sigma) / math.sqrt(2.0))
    assert p == pytest.approx(expected, abs=1e-12)
    assert p == pytest.approx(0.0404278, abs=1e-6)


tied_samples = st.lists(st.integers(0, 6).map(float), min_size=1, max_size=30)


@given(tied_samples, tied_samples)
def test_alternatives_mirror_exactly(a, b):
    # Swapping the samples tests the other direction: W(a, b) + W(b, a) = n_a n_b.
    w_a, _ = wilcoxon_rank_sum(a, b)
    w_b, _ = wilcoxon_rank_sum(b, a)
    assert w_a + w_b == len(a) * len(b)


def test_tied_values_get_average_ranks():
    # pooled [1,1,2,1,2,2]: the 1s share rank 2, the 2s share rank 5
    w, _ = wilcoxon_rank_sum([1, 1, 2], [1, 2, 2])
    assert w == (2 + 2 + 5) - 6
    assert w == rank_sum_statistic([1, 1, 2], [1, 2, 2])


def test_all_values_tied_gives_uninformative_p():
    w, p = wilcoxon_rank_sum([3, 3], [3, 3, 3])
    assert p == 0.5
    _, p = wilcoxon_rank_sum([3, 3, 3], [3, 3])
    assert p == 0.5


def test_identical_samples_near_half():
    rng = np.random.default_rng(11)
    for _ in range(20):
        values = rng.normal(size=12).tolist()
        _, p = wilcoxon_rank_sum(values, list(values))
        assert 0.45 <= p <= 0.55


def test_input_validation():
    with pytest.raises(ValueError):
        wilcoxon_rank_sum([], [1])
    with pytest.raises(ValueError):
        wilcoxon_rank_sum([1], [])


def test_matches_scipy_asymptotic_with_ties():
    rng = np.random.default_rng(5)
    for _ in range(150):
        a = rng.integers(0, 8, rng.integers(2, 15)).tolist()
        b = rng.integers(0, 8, rng.integers(2, 15)).tolist()
        w, p = wilcoxon_rank_sum(a, b)
        ref = mannwhitneyu(
            a, b, alternative="greater", use_continuity=True, method="asymptotic"
        )
        assert w == pytest.approx(float(ref.statistic), abs=1e-9)
        assert p == pytest.approx(float(ref.pvalue), abs=1e-12)
        # scipy's "less" for (a, b) is the same test with the samples swapped
        _, p = wilcoxon_rank_sum(b, a)
        ref = mannwhitneyu(
            a, b, alternative="less", use_continuity=True, method="asymptotic"
        )
        assert p == pytest.approx(float(ref.pvalue), abs=1e-12)


def test_enumeration_and_counting_oracles_agree():
    # the two independent exact routes must match each other
    rng = np.random.default_rng(9)
    for _ in range(20):
        n_a, n_b = rng.integers(2, 7, 2)
        pool = rng.choice(np.arange(1000), size=n_a + n_b, replace=False)
        a = pool[:n_a].tolist()
        b = pool[n_a:].tolist()
        counts = rank_sum_counts(int(n_a), int(n_b))
        w = round(rank_sum_statistic(a, b))
        for alt in ("a_greater", "b_greater"):
            assert exact_rank_sum_p(a, b, alt) == pytest.approx(
                exact_p_from_counts(counts, w, alt), abs=1e-12
            )


def test_normal_approximation_error_bound_exhaustive():
    """Every statistic value for every size pair in 3..8 stays within 0.02."""
    worst = 0.0
    for n_a in range(3, 9):
        for n_b in range(3, 9):
            counts = rank_sum_counts(n_a, n_b)
            for w in range(n_a * n_b + 1):
                a, b = samples_realizing_w(n_a, n_b, w)
                stat, p = wilcoxon_rank_sum(a, b)
                assert stat == float(w)
                worst = max(worst, abs(p - exact_p_from_counts(counts, w, "a_greater")))
                # b greater: the same test with the samples swapped
                stat, p = wilcoxon_rank_sum(b, a)
                assert stat == float(n_a * n_b - w)
                worst = max(worst, abs(p - exact_p_from_counts(counts, w, "b_greater")))
    assert worst < 0.02


MODEL = constant_model(expected=2.5)


def vector_of(pairs):
    return indicator_vector(make_record(pairs), MODEL)


def cohort_from(seed, size, scale):
    rng = np.random.default_rng(seed)
    vectors = []
    for _ in range(size):
        n = int(rng.integers(2, 10))
        pairs = [
            (int(rng.poisson(5 * scale)), int(rng.integers(1, 5)))
            for _ in range(n)
        ]
        vectors.append(vector_of(pairs))
    return vectors


def test_compare_cohorts_row_order_and_ranks():
    stars = cohort_from(1, 20, 3.0)
    control = cohort_from(2, 30, 1.0)
    table = compare_cohorts(stars, control)
    assert [row.indicator for row in table.rows] == list(INDICATOR_FIELDS)
    assert sorted(row.rank for row in table.rows) == list(range(1, 18))
    by_p = sorted(table.rows, key=lambda r: (r.p, INDICATOR_FIELDS.index(r.indicator)))
    assert [r.rank for r in by_p] == list(range(1, 18))


def test_compare_cohorts_medians_and_p():
    stars = cohort_from(1, 20, 3.0)
    control = cohort_from(2, 30, 1.0)
    table = compare_cohorts(stars, control)
    row = table.row("citations")
    values_s = sorted(v.citations for v in stars)
    assert row.median_stars == (values_s[9] + values_s[10]) / 2
    _, p = wilcoxon_rank_sum(
        [float(v.citations) for v in stars],
        [float(v.citations) for v in control],
    )
    assert row.p == p
    with pytest.raises(KeyError):
        table.row("not_an_indicator")


def test_identical_cohorts_p_near_half():
    cohort = cohort_from(7, 25, 1.0)
    table = compare_cohorts(cohort, list(cohort))
    for row in table.rows:
        assert 0.45 <= row.p <= 0.55, row.indicator
        assert row.median_stars == row.median_control


def test_compare_rejects_empty():
    cohort = cohort_from(7, 5, 1.0)
    with pytest.raises(ValueError):
        compare_cohorts([], cohort)
    with pytest.raises(ValueError):
        compare_cohorts(cohort, [])


def test_comparison_table_round_trip():
    table = compare_cohorts(cohort_from(1, 10, 2.0), cohort_from(2, 10, 1.0))
    text = render_comparison_table(table)
    assert text.splitlines()[0] == "indicator\tmedian_stars\tmedian_control\tp\trank"
    again = parse_comparison_table(text)
    assert again == table
    rounded = render_comparison_table(table, precision=3)
    for cell in rounded.splitlines()[1].split("\t")[1:4]:
        assert len(cell.split(".")[1]) == 3


finite_floats = st.floats(allow_nan=False, allow_infinity=False)
comparison_rows = st.builds(
    ComparisonRow,
    indicator=st.text("ab_1", min_size=1, max_size=6),
    median_stars=finite_floats,
    median_control=finite_floats,
    p=finite_floats,
    rank=st.integers(),
)


@given(st.lists(comparison_rows))
def test_comparison_table_round_trip_property(rows):
    table = ComparisonTable(rows=tuple(rows))
    assert parse_comparison_table(render_comparison_table(table)) == table


@pytest.mark.parametrize(
    "cells, message",
    [
        (["h", "1.0", "2.0", "0.5"], r"line 3: row has 4 columns, not 5"),
        (["h", "1.0", "2.0", "abc", "1"], r"line 3: p is 'abc', not a finite number"),
        (["h", "1.0", "2.0", "nan", "1"], r"line 3: p is 'nan', not a finite number"),
    ],
)
def test_comparison_table_errors_name_the_line(cells, message):
    table = compare_cohorts(cohort_from(1, 6, 2.0), cohort_from(2, 6, 1.0))
    lines = render_comparison_table(table).splitlines()
    lines[2] = "\t".join(cells)
    with pytest.raises(ValueError, match=message):
        parse_comparison_table("\n".join(lines) + "\n")


def quartiles_by_hand(values):
    data = sorted(values)
    n = len(data)

    def at(q):
        pos = (n - 1) * q
        lo = math.floor(pos)
        hi = math.ceil(pos)
        return data[lo] + (pos - lo) * (data[hi] - data[lo])

    return at(0.25), at(0.5), at(0.75)


def test_boxplot_hand_example():
    base = vector_of([(1, 1)])
    values = [0.0, 1.0, 2.0, 3.0, 4.0, 100.0]
    cohort = [replace(base, max_fract_citations=v) for v in values]
    (summary,) = boxplot_export({"stars": cohort}, "max_fract_citations")
    transformed = [math.log10(v + 1.0) for v in values]
    q1, med, q3 = quartiles_by_hand(transformed)
    assert summary.median == pytest.approx(med, abs=1e-12)
    assert summary.q1 == pytest.approx(q1, abs=1e-12)
    assert summary.q3 == pytest.approx(q3, abs=1e-12)
    # log10(101) is far above the upper fence; the rest stay inside
    assert summary.outliers == (pytest.approx(math.log10(101.0)),)
    assert summary.whisker_low == 0.0
    assert summary.whisker_high == pytest.approx(math.log10(5.0))


def test_boxplot_random_matches_hand_quartiles():
    rng = np.random.default_rng(13)
    base = vector_of([(1, 1)])
    for _ in range(20):
        values = rng.exponential(20.0, size=int(rng.integers(5, 40)))
        cohort = [replace(base, citations=int(v)) for v in values]
        (summary,) = boxplot_export({"c": cohort}, "citations")
        transformed = [math.log10(int(v) + 1.0) for v in values]
        q1, med, q3 = quartiles_by_hand(transformed)
        assert summary.q1 == pytest.approx(q1, abs=1e-12)
        assert summary.median == pytest.approx(med, abs=1e-12)
        assert summary.q3 == pytest.approx(q3, abs=1e-12)
        iqr = q3 - q1
        inside = [
            t for t in transformed if q1 - 1.5 * iqr <= t <= q3 + 1.5 * iqr
        ]
        assert summary.whisker_low == min(inside)
        assert summary.whisker_high == max(inside)
        outside = sorted(t for t in transformed if t not in inside)
        assert list(summary.outliers) == outside


# Ties come from a few repeated log10(x + 1) values; the rest are arbitrary.
# `+ 0.0` turns -0.0 into 0.0: the two compare equal, so numpy's partition may
# order them either way, and boxplot_export's log10(x + 1) never yields -0.0.
boxplot_values = st.lists(
    st.sampled_from([0.0, math.log10(2.0), math.log10(3.0), 1.0])
    | st.floats(-1e6, 1e6).map(lambda x: x + 0.0),
    min_size=1,
    max_size=60,
)


@given(boxplot_values)
def test_boxplot_of_matches_numpy(values):
    med, q1, q3, low, high, outliers = _boxplot_of(values)
    expected = np.percentile(values, [25.0, 50.0, 75.0])
    assert [q.hex() for q in (q1, med, q3)] == [float(q).hex() for q in expected]
    # Whiskers and outliers as numpy masks give them, from the same quartiles.
    data = np.asarray(values, dtype=float)
    iqr = q3 - q1
    keep = (data >= q1 - 1.5 * iqr) & (data <= q3 + 1.5 * iqr)
    assert (low, high) == (float(data[keep].min()), float(data[keep].max()))
    assert outliers == tuple(sorted(data[~keep].tolist()))


def test_boxplot_constant_values():
    base = vector_of([(1, 1)])
    cohort = [replace(base, h=2) for _ in range(5)]
    (summary,) = boxplot_export({"c": cohort}, "h")
    expected = math.log10(3.0)
    assert summary.q1 == summary.q3 == summary.median == expected
    assert summary.whisker_low == summary.whisker_high == expected
    assert summary.outliers == ()


def test_boxplot_validation():
    base = vector_of([(1, 1)])
    with pytest.raises(ValueError, match="unknown indicator"):
        boxplot_export({"c": [base]}, "zindex")
    with pytest.raises(ValueError, match="empty"):
        boxplot_export({"c": []}, "h")


def test_boxplot_table_format():
    summaries = [
        BoxplotSummary(
            cohort="stars", indicator="h", median=0.5, q1=0.25, q3=0.75,
            whisker_low=0.0, whisker_high=1.0, outliers=(1.5, 2.0),
        ),
        BoxplotSummary(
            cohort="control", indicator="h", median=0.5, q1=0.25, q3=0.75,
            whisker_low=0.0, whisker_high=1.0, outliers=(),
        ),
    ]
    text = render_boxplot_table(summaries)
    lines = text.splitlines()
    assert lines[0] == (
        "cohort\tindicator\tmedian\tq1\tq3\twhisker_low\twhisker_high\toutliers"
    )
    assert lines[1] == "stars\th\t0.5\t0.25\t0.75\t0.0\t1.0\t1.5,2.0"
    assert lines[2].endswith("\t")
