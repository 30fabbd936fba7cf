import io
import json
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from biblio_bench.corpus import (
    AuthorRecord,
    Corpus,
    CorpusFormatError,
    FilterSpec,
    Paper,
    RecordPaper,
    UnknownAuthorError,
    build_author_record,
    filter_cohort,
    ingest_corpus,
    render_corpus,
    render_paper_line,
)

DATA = Path(__file__).parent / "data"
FIXTURE = DATA / "fixture_corpus.jsonl"


def line(**kwargs):
    return json.dumps(kwargs)


def test_ingest_fixture_counts():
    corpus = ingest_corpus(FIXTURE)
    assert len(corpus) == 9
    assert sorted(corpus.author_index) == [
        "alice", "bob", "carol", "dave", "erin", "frank",
    ]
    assert corpus.author_index["carol"] == ["pC1", "pC2", "pC3", "pC4"]


def test_ingest_accepts_stream_and_iterable():
    text = FIXTURE.read_text()
    from_stream = ingest_corpus(io.StringIO(text))
    from_iterable = ingest_corpus(text.splitlines())
    assert from_stream.papers == from_iterable.papers


def test_citing_years_sorted_and_truncation():
    corpus = ingest_corpus([
        line(paper_id="p1", pub_year=2000, author_count=1,
             citing_years=[2004, 2000, 2002, 2002]),
    ])
    paper = corpus.papers["p1"]
    assert paper.citing_years == (2000, 2002, 2002, 2004)
    assert paper.citations_through(2002) == 3
    assert paper.citations_through(1999) == 0
    assert paper.citations_through(2010) == 4


def test_render_round_trip():
    corpus = ingest_corpus(FIXTURE)
    rendered = render_corpus(corpus)
    again = ingest_corpus(rendered.splitlines())
    assert again.papers == corpus.papers
    assert render_corpus(again) == rendered


def test_render_paper_line_key_order():
    paper = Paper(
        paper_id="p1", pub_year=2000, author_count=2,
        citing_years=(2001,), author_ids=("x", "y"),
    )
    assert render_paper_line(paper) == (
        '{"paper_id": "p1", "pub_year": 2000, "author_ids": ["x", "y"], '
        '"citing_years": [2001]}'
    )
    bare = Paper(paper_id="p2", pub_year=2000, author_count=3, citing_years=())
    assert render_paper_line(bare) == (
        '{"paper_id": "p2", "pub_year": 2000, "author_count": 3, '
        '"citing_years": []}'
    )


@pytest.mark.parametrize(
    "bad, fragment",
    [
        ("not json", "line 1"),
        (line(pub_year=2000, author_count=1, citing_years=[]), "paper_id"),
        (line(paper_id="p", author_count=1, citing_years=[]), "pub_year"),
        (line(paper_id="p", pub_year=2000, citing_years=[]), "author"),
        (line(paper_id="p", pub_year=2000, author_count=0, citing_years=[]),
         "author_count"),
        (line(paper_id="p", pub_year=2000, author_count=1, citing_years=[1995]),
         "citing year"),
        (line(paper_id="p", pub_year=2000, author_ids=["a", "b"],
              author_count=3, citing_years=[]), "author_count"),
        (line(paper_id="p", pub_year="soon", author_count=1, citing_years=[]),
         "pub_year"),
        (line(paper_id="p", pub_year=2000, author_count=1, citing_years="2001"),
         "citing_years"),
        (line(paper_id="p", pub_year=True, author_count=1, citing_years=[]),
         "pub_year"),
        (line(paper_id="p", pub_year=2000, author_count=True, citing_years=[]),
         "author_count"),
        (line(paper_id="p", pub_year=2000, author_ids=["a"], author_count=True,
              citing_years=[]), "author_count"),
        (line(paper_id="p", pub_year=1, author_count=1, citing_years=[True, 1]),
         "citing_years"),
        (line(paper_id="p", pub_year=2000, author_count=1, citing_years=[2001.0]),
         "citing_years"),
        (line(paper_id="p", pub_year=2000, author_count=1, citing_years=[]) + " x",
         "line 1: invalid JSON (Extra data)"),
        ("{} {}", "line 1: invalid JSON (Extra data)"),
        ("\ufeff" + line(paper_id="p", pub_year=2000, author_count=1,
                          citing_years=[]), "line 1: invalid JSON"),
    ],
)
def test_parse_errors(bad, fragment):
    with pytest.raises(CorpusFormatError) as err:
        ingest_corpus([bad])
    assert fragment in str(err.value)


# A small alphabet: str.splitlines() also splits on U+2028 and U+0085,
# which json.dumps leaves unescaped.
IDS = st.text(alphabet="abz09_é", min_size=1, max_size=5)


@given(
    pub_year=st.integers(1950, 2000),
    offsets=st.lists(st.integers(0, 30), max_size=40),
    query=st.integers(1940, 2040),
)
def test_citations_through_matches_linear_count(pub_year, offsets, query):
    events = [pub_year + k for k in offsets]
    paper = Paper(paper_id="p", pub_year=pub_year, author_count=1,
                  citing_years=tuple(events))
    assert paper.citations_through(query) == sum(1 for y in events if y <= query)


def paper_with(events, pub_year=2000):
    return Paper(paper_id="p", pub_year=pub_year, author_count=1,
                 citing_years=events)


@given(st.lists(st.integers(2000, 2030), max_size=60))
def test_citing_years_read_back_sorted(events):
    paper = paper_with(events)
    assert paper.citing_years == tuple(sorted(events))
    # A {year: events} mapping builds the same paper as the events listed.
    assert paper_with(Counter(events)) == paper


@given(st.data())
def test_papers_equal_iff_event_multisets_equal(data):
    events = st.lists(st.integers(2000, 2006), max_size=12)
    a = data.draw(events)
    b = data.draw(st.permutations(a) | events)
    assert (paper_with(a) == paper_with(b)) == (Counter(a) == Counter(b))


def test_storage_grows_with_distinct_citing_years():
    paper = paper_with([1, 1 + 10**9], pub_year=1)
    assert (paper.years, paper.counts) == ((1, 1 + 10**9), (1, 2))
    assert paper.citations_through(10**9) == 1
    assert paper_with({1: 0, 3: 2, 5: 0}, pub_year=1).years == (3,)


def test_ingest_retains_less_than_a_byte_per_citation_event():
    # 100 papers x 2,000 events over 5 distinct years: 200,000 events.
    lines = [
        line(paper_id=f"p{i}", pub_year=2000, author_count=1,
             citing_years=[2000 + k % 5 for k in range(2000)])
        for i in range(100)
    ]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        corpus = ingest_corpus(lines)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert corpus.papers["p7"].citations_through(2001) == 800
    assert retained < 200_000


@st.composite
def corpora(draw):
    papers = []
    for paper_id in draw(st.lists(IDS, unique=True, max_size=8)):
        pub_year = draw(st.integers(1950, 2020))
        authors = draw(st.none() | st.lists(IDS, min_size=1, max_size=4))
        papers.append(Paper(
            paper_id=paper_id,
            pub_year=pub_year,
            author_count=len(authors) if authors else draw(st.integers(1, 6)),
            citing_years=tuple(draw(st.lists(st.integers(pub_year, pub_year + 12),
                                             max_size=20))),
            author_ids=tuple(authors) if authors else None,
        ))
    return Corpus.from_papers(papers)


@given(corpora())
def test_ingest_render_round_trip_property(corpus):
    assert ingest_corpus(render_corpus(corpus).splitlines()).papers == corpus.papers


def test_parse_error_reports_line_number():
    good = line(paper_id="p1", pub_year=2000, author_count=1, citing_years=[])
    with pytest.raises(CorpusFormatError, match="line 3"):
        ingest_corpus([good, "", "{broken"])


def test_duplicate_paper_id_rejected():
    entry = line(paper_id="p1", pub_year=2000, author_count=1, citing_years=[])
    with pytest.raises(CorpusFormatError, match="duplicate"):
        ingest_corpus([entry, entry])


def test_blank_lines_skipped():
    entry = line(paper_id="p1", pub_year=2000, author_count=1, citing_years=[])
    corpus = ingest_corpus(["", entry, "   ", ""])
    assert len(corpus) == 1


def test_build_author_record_windows_citations():
    corpus = ingest_corpus(FIXTURE)
    carol = build_author_record(corpus, "carol")
    assert carol.first_year == 1995
    assert [p.citations for p in carol.papers] == [100, 25, 25, 0]
    # dave shares carol's 1995 paper, so his window starts in 1995 and the
    # 2005 solo paper falls outside it
    dave = build_author_record(corpus, "dave")
    assert dave.first_year == 1995
    assert [p.paper_id for p in dave.papers] == ["pC1", "pC4"]


def test_build_author_record_window_length():
    corpus = ingest_corpus(FIXTURE)
    short = build_author_record(corpus, "carol", window_years=3)
    # window 1995-1997: pC4 (1999) drops out, citations cut at 1997
    assert [p.paper_id for p in short.papers] == ["pC1", "pC2", "pC3"]
    assert [p.citations for p in short.papers] == [75, 18, 9]
    with pytest.raises(ValueError):
        build_author_record(corpus, "carol", window_years=0)


def test_unknown_author():
    corpus = ingest_corpus(FIXTURE)
    with pytest.raises(UnknownAuthorError, match="nobody"):
        build_author_record(corpus, "nobody")


def test_author_record_validation():
    with pytest.raises(ValueError, match="no papers"):
        AuthorRecord(author_id="a", first_year=2000, papers=())
    outside = RecordPaper(paper_id="p", pub_year=2010, author_count=1, citations=0)
    with pytest.raises(ValueError, match="outside"):
        AuthorRecord(author_id="a", first_year=2000, papers=(outside,))


def make_record(author_counts, first_year=1995):
    papers = tuple(
        RecordPaper(paper_id=f"p{i}", pub_year=first_year, author_count=a, citations=0)
        for i, a in enumerate(author_counts)
    )
    return AuthorRecord(author_id="a", first_year=first_year, papers=papers)


def test_mean_coauthors():
    assert make_record([1, 1]).mean_coauthors == 0.0
    assert make_record([3, 5]).mean_coauthors == 3.0


def test_filter_bounds_are_strict():
    spec = FilterSpec(mean_coauthors_min=1.0, mean_coauthors_max=4.0)
    assert not spec.admits(make_record([2, 2]))      # mean exactly 1
    assert spec.admits(make_record([2, 3]))          # mean 1.5
    assert not spec.admits(make_record([5, 5]))      # mean exactly 4
    assert spec.admits(make_record([4, 5]))          # mean 3.5


def test_filter_start_year_inclusive():
    spec = FilterSpec(max_start_year=1998)
    assert spec.admits(make_record([2, 3], first_year=1998))
    assert not spec.admits(make_record([2, 3], first_year=1999))


def test_filter_hard_cap_strict():
    spec = FilterSpec(
        mean_coauthors_min=0.0, mean_coauthors_max=200.0, hard_mean_coauthor_cap=50.0
    )
    assert not spec.admits(make_record([51, 51]))    # mean exactly 50
    assert spec.admits(make_record([50, 50]))        # mean 49
    assert not spec.admits(make_record([60, 60]))


def test_filter_spec_validation():
    with pytest.raises(ValueError):
        FilterSpec(mean_coauthors_min=4.0, mean_coauthors_max=1.0)


def test_filter_cohort_preserves_order():
    records = [
        make_record([2, 3], first_year=1995),
        make_record([1, 1], first_year=1995),
        make_record([3, 3], first_year=1996),
    ]
    kept = filter_cohort(records, FilterSpec())
    assert kept == [records[0], records[2]]
