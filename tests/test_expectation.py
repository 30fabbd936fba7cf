import json
import math
from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from biblio_bench.corpus import ingest_corpus
from biblio_bench.expectation import (
    ExpectationModel,
    InsufficientDataError,
    WindowFit,
    WindowPoints,
    collect_window_points,
    fit_expectation_model,
)
from biblio_bench.synth import SynthConfig
from oracles import ols_closed_form, per_paper_fit, window_columns

DATA = Path(__file__).parent / "data"


def test_window_fit_predict():
    fit = WindowFit(slope=2.0, intercept=-3988.0, n_points=10)
    assert fit.predict(1995) == 2.0
    assert fit.predict(2000) == 12.0


def make_model(slopes, intercepts, floor=1.0):
    fits = {
        w + 1: WindowFit(slope=s, intercept=b, n_points=5)
        for w, (s, b) in enumerate(zip(slopes, intercepts))
    }
    return ExpectationModel(window_fits=fits, fit_year_range=(1995, 2004), floor=floor)


def test_model_requires_contiguous_windows():
    fits = {
        1: WindowFit(slope=0.0, intercept=1.0, n_points=5),
        3: WindowFit(slope=0.0, intercept=1.0, n_points=5),
    }
    with pytest.raises(ValueError):
        ExpectationModel(window_fits=fits, fit_year_range=(1995, 2004), floor=1.0)
    with pytest.raises(ValueError):
        ExpectationModel(window_fits={}, fit_year_range=(1995, 2004), floor=1.0)


def test_model_floor_must_be_positive():
    fits = {1: WindowFit(slope=0.0, intercept=1.0, n_points=5)}
    with pytest.raises(ValueError):
        ExpectationModel(window_fits=fits, fit_year_range=(1995, 2004), floor=0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True])
def test_model_rejects_non_finite_numbers(bad):
    good = {1: WindowFit(slope=0.0, intercept=1.0, n_points=5)}
    for fits, floor in [
        ({1: WindowFit(slope=bad, intercept=1.0, n_points=5)}, 1.0),
        ({1: WindowFit(slope=0.0, intercept=bad, n_points=5)}, 1.0),
        (good, bad),
    ]:
        with pytest.raises(ValueError, match="finite"):
            ExpectationModel(window_fits=fits, fit_year_range=(1995, 2004),
                             floor=floor)


def test_load_rejects_nan_intercept(tmp_path):
    payload = json.loads((DATA / "constant_model.json").read_text())
    payload["window_fits"]["1"]["intercept"] = math.nan
    path = tmp_path / "nan_model.json"
    path.write_text(json.dumps(payload))
    assert "NaN" in path.read_text()
    with pytest.raises(ValueError) as excinfo:
        ExpectationModel.from_json(path.read_text())
    assert str(excinfo.value) == "window_fits['1'].intercept must be a finite number"


def positions(value, path=()):
    """The path to every value in a JSON document, the root included."""
    yield path
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, item in items:
            yield from positions(item, (*path, key))


def replaced(value, path, new):
    if not path:
        return new
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = replaced(value[path[0]], path[1:], new)
    return copy


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
)


@pytest.mark.parametrize(
    "reader, name",
    [
        (ExpectationModel.from_json, "constant_model.json"),
        (SynthConfig.from_json, "experiment_effect_config.json"),
    ],
)
@given(data=st.data())
def test_json_readers_reject_any_value_with_value_error(reader, name, data):
    # Any other exception (TypeError, KeyError, OverflowError, ...) fails the test.
    document = json.loads((DATA / name).read_text())
    path = data.draw(st.sampled_from(list(positions(document))))
    text = json.dumps(replaced(document, path, data.draw(json_values)))
    try:
        reader(text)
    except ValueError:
        pass


@pytest.mark.parametrize("key", ["01", " 1", "+1", "1_0", "1.0", "one"])
def test_model_window_keys_must_be_plain_integers(key):
    # int() reads all but the last two; "01" would overwrite window 1.
    payload = json.loads((DATA / "constant_model.json").read_text())
    payload["window_fits"][key] = payload["window_fits"]["1"]
    with pytest.raises(ValueError) as err:
        ExpectationModel.from_json(json.dumps(payload))
    assert str(err.value) == f"window_fits keys must be integers, got {key!r}"


@pytest.mark.parametrize("edit, message", [
    (lambda m: m["window_fits"]["2"].update(slop=0.1),
     "window_fits['2'] has unknown field: 'slop'"),
    (lambda m: m.update(floors=1.0), "model has unknown field: 'floors'"),
])
def test_model_rejects_unknown_field(edit, message):
    payload = json.loads((DATA / "constant_model.json").read_text())
    edit(payload)
    with pytest.raises(ValueError) as err:
        ExpectationModel.from_json(json.dumps(payload))
    assert str(err.value) == message


def test_expected_citations_applies_floor():
    model = make_model([0.5], [-996.0], floor=1.0)
    # line value at 1996: 0.5*1996 - 996 = 2.0
    assert model.expected_citations(1996, 1) == 2.0
    # line value at 1990 is -1.0, clamped to the floor
    assert model.expected_citations(1990, 1) == 1.0


def test_expected_citations_extrapolates_beyond_fit_years():
    model = make_model([1.0], [-1990.0])
    assert model.expected_citations(2030, 1) == 40.0


def test_expected_citations_rejects_unknown_window():
    model = make_model([0.0, 0.0], [2.0, 3.0])
    with pytest.raises(ValueError, match="window"):
        model.expected_citations(1996, 3)
    with pytest.raises(ValueError, match="window"):
        model.expected_citations(1996, 0)


def test_model_json_round_trip(tmp_path):
    model = make_model([0.1234567890123, -0.5], [3.0, 4.25], floor=0.75)
    again = ExpectationModel.from_json(model.to_json())
    assert again == model
    path = tmp_path / "model.json"
    path.write_text(model.to_json())
    assert ExpectationModel.from_json(path.read_text()) == model
    assert ExpectationModel.from_json(path.read_text()).to_json() == model.to_json()


def test_collect_window_points():
    corpus = ingest_corpus([
        '{"paper_id": "p1", "pub_year": 2000, "author_count": 2,'
        ' "citing_years": [2000, 2001, 2001, 2003, 2004, 2007]}',
        '{"paper_id": "p2", "pub_year": 2001, "author_count": 9,'
        ' "citing_years": [2002]}',
    ])
    points = collect_window_points(corpus, window_count=5)
    assert len(points) == 2
    # the columns are plain lists
    assert {type(column) for column in (points.pub_year, *points.windows)} == {list}
    by_year = dict(zip(points.pub_year, zip(*points.windows)))
    # cumulative counts for windows 1..5: pub year alone, then one more year each
    assert by_year[2000] == (1, 3, 3, 4, 5)
    assert by_year[2001] == (0, 1, 1, 1, 1)
    # with no windows each paper still has its year
    bare = collect_window_points(corpus, window_count=0)
    assert (list(bare.pub_year), bare.windows) == ([2000, 2001], ())


def years_points(year_to_counts, copies=1, extra=()):
    """Columns of `copies` papers per year with that year's counts, then `extra`."""
    papers = [
        (year, counts) for year, counts in year_to_counts.items() for _ in range(copies)
    ]
    return window_columns(papers + list(extra))


def test_fit_recovers_noiseless_lines_exactly():
    # counts grow linearly: window w count is w*(year-1994)
    data = {
        year: tuple(w * (year - 1994) for w in range(1, 6))
        for year in range(1995, 2005)
    }
    model = fit_expectation_model(
        years_points(data, copies=120), min_papers_per_year=100
    )
    assert model.fit_year_range == (1995, 2004)
    for w in range(1, 6):
        fit = model.window_fits[w]
        assert fit.slope == float(w)
        assert fit.intercept == float(-1994 * w)
        assert fit.n_points == 1200


def test_fit_matches_closed_form_on_noisy_data():
    rng = np.random.default_rng(20240117)
    for _ in range(25):
        years = rng.choice(np.arange(1990, 2010), size=8, replace=False)
        points = []
        for year in years:
            for _ in range(3):
                counts = tuple(int(c) for c in rng.integers(0, 400, size=2))
                points.append((int(year), counts))
        model = fit_expectation_model(
            window_columns(points), window_count=2, min_papers_per_year=1
        )
        xs = [year for year, _ in points]
        for w in (1, 2):
            ys = [counts[w - 1] for _, counts in points]
            slope, intercept = ols_closed_form(xs, ys)
            assert math.isclose(model.window_fits[w].slope, slope, rel_tol=1e-9)
            assert math.isclose(
                model.window_fits[w].intercept, intercept, rel_tol=1e-9
            )


def test_fit_min_papers_filters_years():
    data = {1995: (1, 2), 1996: (2, 3), 1997: (3, 4)}
    points = years_points(data, copies=10, extra=[(1998, (9, 9))])
    model = fit_expectation_model(points, window_count=2, min_papers_per_year=5)
    assert model.fit_year_range == (1995, 1997)
    # the lone 1998 paper stays out of the fit
    assert model.window_fits[1].n_points == 30


def test_fit_year_range_filters_years():
    data = {year: (year - 1990, 0) for year in range(1990, 2000)}
    model = fit_expectation_model(
        years_points(data, copies=5),
        window_count=2,
        min_papers_per_year=1,
        year_range=(1993, 1996),
    )
    assert model.fit_year_range == (1993, 1996)
    assert model.window_fits[1].n_points == 20


@pytest.mark.parametrize(
    "year_range, fitted",
    [((1993, None), (1993, 1999)), ((None, 1996), (1990, 1996)),
     ((None, None), (1990, 1999))],
)
def test_fit_year_range_open_ends(year_range, fitted):
    # None leaves that end of the range open
    data = {year: (year - 1990, 0) for year in range(1990, 2000)}
    model = fit_expectation_model(
        years_points(data, copies=5),
        window_count=2,
        min_papers_per_year=1,
        year_range=year_range,
    )
    assert model.fit_year_range == fitted
    assert model.window_fits[1].n_points == 5 * (fitted[1] - fitted[0] + 1)


def test_fit_insufficient_years_raises():
    points = years_points({1995: (1, 1)}, copies=200)
    with pytest.raises(InsufficientDataError, match="insufficient data"):
        fit_expectation_model(points, window_count=2, min_papers_per_year=100)
    spread = years_points({1995: (1, 1), 1996: (2, 2)}, copies=99)
    with pytest.raises(InsufficientDataError):
        fit_expectation_model(spread, window_count=2, min_papers_per_year=100)


def test_fit_rejects_short_count_tuples():
    # a window column shorter than pub_year, and too few window columns
    with pytest.raises(ValueError, match="window counts"):
        WindowPoints(array("q", [1995, 1996]), (array("q", [1, 1]), array("q", [2])))
    with pytest.raises(ValueError, match="window counts"):
        fit_expectation_model(years_points({1995: (1,), 1996: (1,)}), window_count=2,
                              min_papers_per_year=1)


@pytest.mark.parametrize("window_count", [0, -1])
def test_fit_rejects_window_count_below_one(window_count):
    with pytest.raises(ValueError, match=r"^window_count must be >= 1$"):
        fit_expectation_model(years_points({1995: (1,), 1996: (2,)}),
                              window_count=window_count, min_papers_per_year=1)


BEYOND_INT64 = 2**63


@st.composite
def fit_inputs(draw):
    """Drawn columns, each an int64 array or a list, plus the fit's arguments.

    A column with a value beyond int64 is always a list of exact ints. The
    years 2**63 and 2**63 + 1 differ but share one float.
    """
    n = draw(st.integers(0, 40))
    years = st.integers(1990, 1996)
    if draw(st.booleans()):
        years = st.integers(1990, 1992) | st.sampled_from(
            [BEYOND_INT64, BEYOND_INT64 + 1]
        )
    pub_year = draw(st.lists(years, min_size=n, max_size=n))
    windows = [
        draw(st.lists(st.integers(0, 500), min_size=n, max_size=n))
        for _ in range(draw(st.integers(1, 4)))
    ]
    if n and draw(st.booleans()):
        windows[0][draw(st.integers(0, n - 1))] = draw(st.integers(2**63, 2**70))
    columns = [
        array("q", c) if max(c, default=0) < 2**63 and draw(st.booleans()) else c
        for c in (pub_year, *windows)
    ]
    low = draw(st.none() | st.integers(1989, 1997))
    high = draw(st.none() | st.integers(1989, 1997) | st.just(BEYOND_INT64))
    return (
        WindowPoints(columns[0], tuple(columns[1:])),
        draw(st.integers(1, len(windows))),
        draw(st.integers(1, 3)),
        (low, high),
    )


@given(fit_inputs())
def test_column_fit_is_bit_equal_to_per_paper_fit(inputs):
    points, window_count, min_papers, year_range = inputs
    args = (window_count, min_papers, year_range)
    try:
        fitted_years, fits = per_paper_fit(
            list(zip(points.pub_year, zip(*points.windows))), *args
        )
    # ZeroDivisionError: every kept year converts to the same float, which
    # fit reports as too little data
    except (InsufficientDataError, ZeroDivisionError):
        with pytest.raises(InsufficientDataError):
            fit_expectation_model(points, *args)
        return
    model = fit_expectation_model(points, *args)
    assert model.fit_year_range == fitted_years
    for w, (slope, intercept, n_points) in fits.items():
        fit = model.window_fits[w]
        # float.hex tells every bit apart, the sign of a zero included
        assert (fit.slope.hex(), fit.intercept.hex(), fit.n_points) == (
            slope.hex(), intercept.hex(), n_points
        )

