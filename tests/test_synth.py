import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from biblio_bench.corpus import build_author_record, ingest_corpus, render_paper_line
from biblio_bench.indicators import indicator_vector
from biblio_bench.stats import compare_cohorts
from biblio_bench.synth import (
    CITATION_RAMP,
    SynthConfig,
    _coauthor_sampler,
    _draw_citations,
    citation_rate,
    generate_corpus,
)
from oracles import constant_model, corpus_text

DATA = Path(__file__).parent / "data"


def generated(config):
    """generate_corpus with its lines read into a Corpus."""
    lines, stars, controls = generate_corpus(config)
    return ingest_corpus(lines), stars, controls


def small_config(**overrides):
    settings = dict(
        seed=101,
        n_control=12,
        n_stars=4,
        start_year_range=(1994, 1998),
        papers_per_year_mean=1.4,
        coauthor_distribution={1: 0.25, 2: 0.25, 3: 0.3, 4: 0.2},
        base_expected_citations=6.0,
        annual_growth_factor=1.03,
        dispersion=1.5,
        star_effect_multiplier=1.5,
    )
    settings.update(overrides)
    return SynthConfig(**settings)


def test_ramp_is_a_distribution():
    assert len(CITATION_RAMP) == 5
    assert math.fsum(CITATION_RAMP) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "overrides",
    [
        {"n_control": -1},
        {"n_stars": -2},
        {"start_year_range": (2000, 1990)},
        {"papers_per_year_mean": -0.5},
        {"base_expected_citations": 0.0},
        {"annual_growth_factor": 0.0},
        {"dispersion": 0.0},
        {"star_effect_multiplier": 0.5},
        {"coauthor_distribution": {}},
        {"coauthor_distribution": {1: 0.5, 2: 0.4}},
        {"coauthor_distribution": {0: 0.5, 2: 0.5}},
        # math.fsum of these probabilities overflows
        {"coauthor_distribution": {1: 1e308, 2: 1e308}},
        # the rate fits a negative binomial draw, but growth**720 overflows
        {"base_expected_citations": 1e-300, "annual_growth_factor": math.e,
         "start_year_range": (1994, 2710)},
    ],
)
def test_config_validation(overrides):
    with pytest.raises(ValueError):
        small_config(**overrides)


@pytest.mark.parametrize("scale", [0.999, 1.001])
@pytest.mark.parametrize("dispersion", [0.3, 1.5])
def test_config_accepts_the_rates_numpy_can_draw(scale, dispersion):
    # The largest mean Generator.negative_binomial draws at this dispersion
    limit = (2**63 - 1 - 10 * math.sqrt(2**63 - 1)) / (1 + 10 / math.sqrt(dispersion))
    rate = scale * limit
    try:
        _draw_citations(np.random.default_rng(0), rate, dispersion)
        drawable = True
    except ValueError:
        drawable = False
    try:
        small_config(base_expected_citations=rate / 1.5, annual_growth_factor=1.0,
                     star_effect_multiplier=1.5, dispersion=dispersion)
        accepted = True
    except ValueError as exc:
        assert str(exc).startswith("start_year_range and annual_growth_factor ")
        accepted = False
    assert accepted == drawable == (scale < 1)


@pytest.mark.parametrize("scale", [0.999, 1.0, 1.001])
def test_config_accepts_the_paper_means_numpy_can_draw(scale):
    mean = scale * (2**63 - 1 - 10 * math.sqrt(2**63 - 1))
    try:
        np.random.default_rng(0).poisson(mean)
        drawable = True
    except ValueError:
        drawable = False
    try:
        small_config(papers_per_year_mean=mean)
        accepted = True
    except ValueError as exc:
        assert str(exc) == "papers_per_year_mean is too large to draw"
        accepted = False
    assert accepted == drawable == (scale <= 1)


@pytest.mark.parametrize("key", ["02", " 2", "+2", "2_0", "2.0", "two"])
def test_config_coauthor_keys_must_be_plain_integers(key):
    # int() reads all but the last two; "02" would overwrite the count 2.
    payload = json.loads(small_config().to_json())
    payload["coauthor_distribution"][key] = 0.0
    with pytest.raises(ValueError) as err:
        SynthConfig.from_json(json.dumps(payload))
    assert str(err.value) == f"coauthor_distribution keys must be integers, got {key!r}"


def test_config_json_round_trip():
    config = small_config()
    assert SynthConfig.from_json(config.to_json()) == config


@pytest.mark.parametrize("field", ["seed", "dispersion", "coauthor_distribution"])
def test_config_from_json_names_missing_field(field):
    payload = json.loads(small_config().to_json())
    del payload[field]
    with pytest.raises(ValueError, match=field):
        SynthConfig.from_json(json.dumps(payload))


@pytest.mark.parametrize(
    "field, value",
    [
        ("seed", True),
        ("seed", 5.9),
        ("n_control", "12"),
        ("dispersion", "1.5"),
        ("n_stars", False),
        ("start_year_range", [1980.7, "2000"]),
        ("coauthor_distribution", {"1": "1.0"}),
        ("coauthor_distribution", {"1": True}),
    ],
)
def test_config_from_json_rejects_loose_types(field, value):
    # int fields take JSON integers only; float fields and probabilities take
    # int or float, never a bool or a string
    payload = json.loads(small_config().to_json())
    payload[field] = value
    with pytest.raises(ValueError, match=field):
        SynthConfig.from_json(json.dumps(payload))


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"n_control": 2.5}, "n_control must be an integer, got 2.5"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"n_stars": True}, "n_stars must be an integer, got True"),
        ({"start_year_range": (1990.5, 1991)},
         "start_year_range[0] must be an integer, got 1990.5"),
        ({"coauthor_distribution": {True: 1.0}},
         "coauthor_distribution keys must be integers, got True"),
        ({"coauthor_distribution": {1: True}},
         "coauthor_distribution[1] must be a finite number"),
        ({"seed": -1}, "seed must be >= 0"),
        # A list read back from to_json() is a tuple, so it would not compare
        # equal; another length named no field.
        ({"start_year_range": [1994, 1998]},
         "start_year_range must be a 2-tuple, got [1994, 1998]"),
        ({"start_year_range": (1994,)},
         "start_year_range must be a 2-tuple, got (1994,)"),
        ({"start_year_range": (1994, 1996, 1998)},
         "start_year_range must be a 2-tuple, got (1994, 1996, 1998)"),
    ],
)
def test_config_rejects_values_of_another_type(overrides, message):
    # Built directly, not from JSON: each failed only at the draw, or gave
    # to_json() text that from_json rejects.
    with pytest.raises(ValueError) as err:
        small_config(**overrides)
    assert str(err.value) == message


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize(
    "field",
    [
        "papers_per_year_mean",
        "base_expected_citations",
        "annual_growth_factor",
        "dispersion",
        "star_effect_multiplier",
    ],
)
def test_config_rejects_non_finite_floats(field, value):
    # json.dumps writes NaN and Infinity, which json.loads accepts
    payload = json.loads((DATA / "experiment_effect_config.json").read_text())
    payload[field] = value
    with pytest.raises(ValueError, match=f"{field} must be a finite number"):
        SynthConfig.from_json(json.dumps(payload))


def test_config_from_json_rejects_unknown_field():
    payload = json.loads(small_config().to_json())
    payload["star_effect_multipler"] = 3.0
    with pytest.raises(ValueError) as err:
        SynthConfig.from_json(json.dumps(payload))
    assert str(err.value) == "config has unknown field: 'star_effect_multipler'"


def test_config_from_json_rejects_bad_json():
    with pytest.raises(ValueError, match="JSON"):
        SynthConfig.from_json("{nope")
    with pytest.raises(ValueError, match="object"):
        SynthConfig.from_json("[1, 2]")


def test_citation_rate_growth_and_multiplier():
    config = small_config(annual_growth_factor=1.1, star_effect_multiplier=2.0)
    base = config.base_expected_citations
    assert citation_rate(config, 1994, False) == base
    assert citation_rate(config, 1995, False) == pytest.approx(base * 1.1)
    assert citation_rate(config, 1994, True) == base * 2.0


def test_null_multiplier_equalizes_rates():
    config = small_config(star_effect_multiplier=1.0)
    for year in range(1994, 2000):
        assert citation_rate(config, year, True) == citation_rate(config, year, False)


def test_same_seed_same_bytes():
    config = small_config()
    corpus_a, stars_a, controls_a = generated(config)
    corpus_b, stars_b, controls_b = generated(config)
    assert corpus_text(corpus_a) == corpus_text(corpus_b)
    assert stars_a == stars_b and controls_a == controls_b
    other, _, _ = generated(small_config(seed=102))
    assert corpus_text(other) != corpus_text(corpus_a)


def test_null_config_corpus_bytes_are_pinned():
    # The seeded draw order is part of the output: any change to which draws
    # are made, or in what order, changes these bytes.
    config = SynthConfig.from_json((DATA / "experiment_null_config.json").read_text())
    text = "".join(f"{line}\n" for line in generate_corpus(config)[0])
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == (
        "e0a1a3c2d569322a7f5aee8d724239f2f429e941864079edce2d3ce1ab7b985b"
    )


@st.composite
def small_configs(draw):
    """Configs of at most 5 authors, from no citations to hundreds per paper."""
    lo = draw(st.integers(-20, 10_020))
    return small_config(
        seed=draw(st.integers(0, 2**64 - 1)),
        n_control=draw(st.integers(0, 3)),
        n_stars=draw(st.integers(0, 2)),
        start_year_range=(lo, lo + draw(st.integers(0, 3))),
        papers_per_year_mean=draw(st.floats(0.0, 2.0)),
        coauthor_distribution=draw(st.sampled_from(
            [{1: 1.0}, {2: 0.5, 7: 0.5}, {1: 0.25, 2: 0.25, 3: 0.3, 4: 0.2}]
        )),
        base_expected_citations=draw(st.floats(0.1, 300.0)),
        dispersion=draw(st.floats(0.3, 5.0)),
    )


@given(small_configs())
def test_generated_lines_are_read_back_and_written_again(config):
    lines = list(generate_corpus(config)[0])
    papers = ingest_corpus(lines).papers.values()
    assert list(map(render_paper_line, papers)) == lines


@given(
    seed=st.integers(0, 2**64 - 1),
    weights=st.dictionaries(
        st.integers(1, 60),
        st.one_of(st.just(0.0), st.floats(1e-3, 1.0)),
        min_size=1,
        max_size=8,
    ).filter(lambda w: any(w.values())),
)
def test_coauthor_draw_matches_generator_choice(seed, weights):
    total = math.fsum(weights.values())
    distribution = {k: w / total for k, w in weights.items()}
    counts = sorted(distribution)
    probs = [distribution[k] for k in counts]
    draw = _coauthor_sampler(distribution)
    ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(25):
        assert draw(ours) == numpys.choice(counts, p=probs)
    assert ours.bit_generator.state == numpys.bit_generator.state


def test_empty_config_gives_empty_corpus():
    corpus, stars, controls = generated(
        small_config(n_control=0, n_stars=0)
    )
    assert len(corpus) == 0
    assert stars == () and controls == ()


def test_generated_structure():
    config = small_config()
    corpus, stars, controls = generated(config)
    assert len(stars) == 4 and len(controls) == 12
    assert set(stars).isdisjoint(controls)
    year_lo, year_hi = config.start_year_range
    for paper in corpus.papers.values():
        assert paper.author_ids is not None
        assert paper.author_ids[0] in set(stars) | set(controls)
        assert len(paper.author_ids) == paper.author_count
        assert year_lo <= paper.pub_year <= year_hi + 4
        for year in paper.citing_years:
            assert paper.pub_year <= year <= paper.pub_year + 4
    # every author has at least one paper, anchored within the start range
    for author_id, papers in corpus.papers_by_author(stars + controls).items():
        record = build_author_record(author_id, papers)
        assert record.papers
        assert year_lo <= record.first_year <= year_hi


def test_author_counts_follow_distribution():
    config = small_config(
        seed=500, n_control=300, n_stars=0,
        coauthor_distribution={2: 0.5, 7: 0.5},
    )
    corpus, _, _ = generated(config)
    counts = [p.author_count for p in corpus.papers.values()]
    assert set(counts) <= {2, 7}
    share = counts.count(2) / len(counts)
    assert 0.45 < share < 0.55


def test_mean_citations_track_growth_factor():
    config = SynthConfig.from_json((DATA / "inflation_config.json").read_text())
    corpus, _, _ = generated(config)
    assert len(corpus) >= 2000
    by_year = {}
    for paper in corpus.papers.values():
        by_year.setdefault(paper.pub_year, []).append(len(paper.citing_years))
    years = sorted(y for y, papers in by_year.items() if len(papers) >= 100)
    means = [np.mean(by_year[y]) for y in years]
    slope, _ = np.polyfit(years, np.log(means), 1)
    assert slope == pytest.approx(
        math.log(config.annual_growth_factor), rel=0.15
    )


def test_null_effect_keeps_comparison_flat():
    config = small_config(
        seed=913, n_control=40, n_stars=40, star_effect_multiplier=1.0,
        start_year_range=(1995, 1995),
    )
    corpus, stars, controls = generated(config)
    model = constant_model(expected=5.0)
    vec_s, vec_c = (
        [
            indicator_vector(build_author_record(a, papers), model)
            for a, papers in corpus.papers_by_author(cohort).items()
        ]
        for cohort in (stars, controls)
    )
    table = compare_cohorts(vec_s, vec_c)
    below = [row.indicator for row in table.rows if row.p < 0.05]
    assert len(below) < 3, below
