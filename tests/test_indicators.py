import statistics
from dataclasses import replace
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from biblio_bench.corpus import AuthorRecord, Paper
from biblio_bench.expectation import ExpectationModel, WindowFit
from biblio_bench.indicators import (
    INDICATOR_FIELDS,
    IndicatorVector,
    format_decimal,
    indicator_vector,
    median,
    parse_vector_table,
    rank_indices,
    rank_papers,
    render_vector_table,
)
from oracles import (
    constant_model,
    make_record,
    oracle_g,
    oracle_g_f,
    oracle_g_m,
    oracle_h,
    oracle_h_m,
    oracle_sums,
)

MODEL = constant_model(expected=2.5)


def vector_of(pairs):
    return indicator_vector(make_record(pairs), MODEL)


def indices_of(pairs):
    return rank_indices(rank_papers(make_record(pairs), MODEL))


def oracle_indices(pairs):
    return (oracle_h(pairs), oracle_g(pairs), oracle_h_m(pairs),
            oracle_g_f(pairs), oracle_g_m(pairs))


def test_single_cited_solo_paper():
    v = vector_of([(25, 1)])
    assert v == IndicatorVector(
        n=1, f=1.0, citations=25, norm_citations=10.0, j_index=5.0,
        fract_citations=25.0, fract_norm_citations=10.0, mean_citations=25.0,
        mean_fract_citations=25.0, median_fract_citations=25.0,
        max_fract_citations=25.0, h=1, g=1, h_m=1.0, g_f=1, g_m=1.0,
        collab_coeff=0.0,
    )


def test_uncited_record_is_all_zero():
    v = vector_of([(0, 1), (0, 1)])
    assert v.n == 2 and v.f == 2.0
    for name in INDICATOR_FIELDS[2:]:
        assert getattr(v, name) == 0, name


def test_mixed_record_hand_values():
    v = vector_of([(100, 2), (25, 2), (25, 1), (0, 4)])
    assert v == IndicatorVector(
        n=4, f=2.25, citations=150, norm_citations=60.0, j_index=20.0,
        fract_citations=87.5, fract_norm_citations=35.0, mean_citations=37.5,
        mean_fract_citations=21.875, median_fract_citations=18.75,
        max_fract_citations=50.0, h=3, g=4, h_m=2.0, g_f=4, g_m=2.25,
        collab_coeff=0.4375,
    )


def test_ranking_breaks_ties_by_author_count_then_id():
    record = make_record([(5, 3), (5, 1), (7, 2), (5, 1)])
    ranked = rank_papers(record, MODEL)
    # p002 has 7 citations; the three 5-citation papers order by author
    # count, with the two solo papers ordered by paper id (p001 before p003)
    assert [p.paper_id for p, _, _ in ranked] == ["p002", "p001", "p003", "p000"]


def test_rank_papers_assigns_window_lengths():
    model = ExpectationModel(
        window_fits={
            w: WindowFit(slope=0.0, intercept=float(10 * w), n_points=2)
            for w in range(1, 6)
        },
        fit_year_range=(1990, 2010),
        floor=1.0,
    )
    record = AuthorRecord(
        author_id="a",
        first_year=1995,
        papers=(
            Paper("early", 1995, 1, {1995: 5, 1999: 4, 2000: 7}),
            Paper("late", 1999, 1, {1999: 8, 2003: 2}),
        ),
        window_years=5,
    )
    ranked = rank_papers(record, model)
    by_id = {p.paper_id: (c, e) for p, c, e in ranked}
    # first-year paper gets the 5-year window, last-year paper a 1-year
    # window; citations after 1999 are not counted
    assert by_id["early"] == (9, 50.0)
    assert by_id["late"] == (8, 10.0)


def test_effective_ranks():
    # L = lcm(2, 4, 1) = 4; r_eff = 1/2, 3/4, 7/4, and c = 9, 5, 2 reaches
    # each, so h_m = g_m = r_eff(3) = 7/4 exactly
    assert indices_of([(9, 2), (5, 4), (2, 1)]) == (2, 3, 1.75, 2, 1.75)
    # c = 0 at rank 3 stops h_m at r_eff(2) = 3/4
    assert indices_of([(9, 2), (5, 4), (0, 1)]) == (2, 3, 0.75, 2, 1.75)


def test_index_edge_cases_match_oracles():
    cases = [
        [(0, 1)],
        [(1, 1)],
        [(200, 10)],
        [(3, 3), (3, 3), (3, 3)],
        [(9, 1), (9, 1), (9, 1), (0, 2)],
        [(4, 2), (4, 2), (4, 2), (4, 2), (4, 2)],
        [(50, 5), (10, 1), (10, 2), (2, 2), (1, 9)],
    ]
    for pairs in cases:
        assert indices_of(pairs) == oracle_indices(pairs), pairs


# Author counts up to 40 make the scale L = lcm(a) as large as about 5e15.
@given(st.lists(st.tuples(st.integers(0, 500), st.integers(1, 40)),
                min_size=1, max_size=40))
def test_scaled_integer_indices_match_fraction_oracles(pairs):
    assert indices_of(pairs) == oracle_indices(pairs)


def test_exact_threshold_ties():
    # nine papers with a=3: r_eff(9) = 3 exactly, and the fractional sum
    # at rank 9 is exactly 9, so g_m sits right on its threshold
    pairs = [(3, 3)] * 9
    indices = indices_of(pairs)
    assert indices[4] == 3.0
    assert indices == oracle_indices(pairs)
    # fifths: 27 papers with a=5, c=5: fractional sum r, r_eff r/5
    pairs = [(5, 5)] * 27
    assert indices_of(pairs) == oracle_indices(pairs)


def test_norm_uses_sum_of_ratios():
    # two papers with different windows and expectations: the sum of
    # per-paper ratios differs from the ratio of sums
    model = ExpectationModel(
        window_fits={
            w: WindowFit(slope=0.0, intercept=float(w), n_points=2)
            for w in range(1, 6)
        },
        fit_year_range=(1990, 2010),
        floor=0.5,
    )
    record = AuthorRecord(
        author_id="a",
        first_year=1995,
        papers=(
            Paper("p", 1995, 1, {1995: 8}),
            Paper("q", 1998, 1, {1998: 4}),
        ),
        window_years=5,
    )
    v = indicator_vector(record, model)
    # windows: 5 for the 1995 paper (E=5), 2 for the 1998 paper (E=2)
    assert v.norm_citations == 8 / 5 + 4 / 2
    assert v.norm_citations != (8 + 4) / (5 + 2)


# E(c) moves with publication year and window. The w=1 line falls below the
# floor from 1995 on, so a record's last-year papers from then are clamped.
DRIFTING_MODEL = ExpectationModel(
    window_fits={
        w: WindowFit(
            slope=0.3 * w - 0.55,
            intercept=2.2 * w + 0.4 - (0.3 * w - 0.55) * 1990,
            n_points=2,
        )
        for w in range(1, 6)
    },
    fit_year_range=(1990, 2004),
    floor=1.5,
)


# A paper published `offset` years into the window is cited `k` years after
# publication, so an offset + k above 4 falls after the window's last year.
@given(
    st.integers(1990, 2000),
    st.lists(
        st.tuples(
            st.integers(0, 4),
            st.dictionaries(st.integers(0, 9), st.integers(0, 200), max_size=6),
            st.integers(1, 8),
        ),
        min_size=1,
        max_size=40,
    ),
)
def test_non_rank_indicators_match_exact_oracle(first_year, papers):
    record = AuthorRecord(
        author_id="a",
        first_year=first_year,
        papers=tuple(
            Paper(f"p{i:03d}", first_year + offset, a,
                  {first_year + offset + k: n for k, n in cited.items()})
            for i, (offset, cited, a) in enumerate(papers)
        ),
        window_years=5,
    )
    expected = oracle_sums(record, DRIFTING_MODEL)
    assert tuple(expected) == INDICATOR_FIELDS[:11]
    v = indicator_vector(record, DRIFTING_MODEL)
    assert {name: getattr(v, name) for name in expected} == expected
    pairs = [
        (sum(n for k, n in cited.items() if offset + k <= 4), a)
        for offset, cited, a in papers
    ]
    assert (v.h, v.g, v.h_m, v.g_f, v.g_m) == oracle_indices(pairs)


@given(st.lists(
    st.integers(-10**30, 10**30) | st.floats(allow_nan=False), min_size=1
))
def test_median_matches_statistics_median(values):
    ours, reference = median(values), statistics.median(values)
    # the same value and type: an odd count returns the element itself
    assert type(ours) is type(reference)
    assert ours == reference or (ours != ours and reference != reference)


def test_median_of_nothing_is_an_error():
    with pytest.raises(ValueError, match="^no median for empty data$"):
        median([])


def test_format_decimal():
    assert format_decimal(3) == "3"
    assert format_decimal(3, precision=2) == "3"
    assert format_decimal(0.1) == "0.1"
    assert format_decimal(1 / 3) == "0.3333333333333333"
    assert float(format_decimal(1 / 3)) == 1 / 3
    assert format_decimal(2.23606797749979, precision=3) == "2.236"
    assert format_decimal(2.0) == "2.0"
    assert format_decimal("a1", precision=3) == "a1"
    assert format_decimal((1.5, 2.0)) == "1.5,2.0"
    assert format_decimal(()) == ""


def test_vector_table_round_trip():
    rows = [
        ("a1", vector_of([(100, 2), (25, 2), (25, 1), (0, 4)])),
        ("a2", vector_of([(7, 3), (1, 1)])),
    ]
    text = render_vector_table(rows)
    parsed = parse_vector_table(text)
    assert parsed == rows
    assert render_vector_table(parsed) == text


finite_floats = st.floats(allow_nan=False, allow_infinity=False)
vectors = st.builds(
    IndicatorVector,
    **{
        name: st.integers() if kind is int else finite_floats
        for name, kind in get_type_hints(IndicatorVector).items()
    },
)


@given(st.lists(st.tuples(st.text("ab_1", min_size=1, max_size=6), vectors),
                unique_by=lambda row: row[0]))
def test_vector_table_round_trip_property(rows):
    assert parse_vector_table(render_vector_table(rows)) == rows


def test_vector_table_header_and_width_checks():
    with pytest.raises(ValueError, match="header"):
        parse_vector_table("author_id\tn\n")
    good = render_vector_table([("a1", vector_of([(1, 1)]))])
    truncated = good.splitlines()[0] + "\na1\t1\t1.0\n"
    with pytest.raises(ValueError, match="columns"):
        parse_vector_table(truncated)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "abc"])
def test_vector_table_rejects_non_finite_cells(cell):
    text = render_vector_table([
        ("a1", vector_of([(1, 1)])),
        ("a2", replace(vector_of([(2, 1)]), norm_citations=0.5)),
    ]).replace("\t0.5\t", f"\t{cell}\t")
    with pytest.raises(ValueError, match=rf"line 3: norm_citations is '{cell}'"):
        parse_vector_table(text)


def test_random_records_match_field_types():
    rng = np.random.default_rng(77)
    for _ in range(50):
        n = int(rng.integers(1, 12))
        pairs = [
            (int(rng.integers(0, 60)), int(rng.integers(1, 8)))
            for _ in range(n)
        ]
        v = vector_of(pairs)
        assert isinstance(v.n, int) and isinstance(v.citations, int)
        assert isinstance(v.h, int) and isinstance(v.g, int)
        assert isinstance(v.g_f, int)
        assert isinstance(v.h_m, float) and isinstance(v.g_m, float)
