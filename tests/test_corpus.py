import hashlib
import io
import json
import tracemalloc
from collections import Counter
from dataclasses import FrozenInstanceError
from pathlib import Path
from types import MappingProxyType
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from biblio_bench import corpus as corpus_module
from biblio_bench.corpus import (
    AuthorRecord,
    Corpus,
    CorpusFormatError,
    FilterSpec,
    Paper,
    UnknownAuthorError,
    build_author_record,
    filter_cohort,
    ingest_corpus,
    open_text,
    render_corpus,
    render_paper_line,
)
from biblio_bench.expectation import ExpectationModel, WindowFit, collect_window_points
from biblio_bench.indicators import indicator_vector
from biblio_bench.synth import SynthConfig, generate_corpus
from oracles import constant_model, corpus_text

DATA = Path(__file__).parent / "data"
FIXTURE = DATA / "fixture_corpus.jsonl"


def line(**kwargs):
    return json.dumps(kwargs)


def test_ingest_fixture_counts():
    corpus = ingest_corpus(FIXTURE)
    assert len(corpus) == 9
    groups = corpus.papers_by_author()
    assert list(groups) == ["alice", "bob", "carol", "dave", "erin", "frank"]
    assert [p.paper_id for p in groups["carol"]] == ["pC1", "pC2", "pC3", "pC4"]


def test_ingest_accepts_stream_and_iterable():
    text = FIXTURE.read_text()
    from_stream = ingest_corpus(io.StringIO(text))
    from_iterable = ingest_corpus(text.splitlines())
    assert from_stream.papers == from_iterable.papers


# 400 lines of about 90 bytes: line 300 lies well past the first 8 KiB block
# a text reader decodes, so a decode error there shows the block position.
PARITY_LINES = [
    line(paper_id=f"p{i}", pub_year=2000, author_count=1 + i % 3,
         citing_years=[2000 + k % 4 for k in range(i % 7)])
    for i in range(400)
]
PARITY_FILES = {
    "crlf": "\r\n".join(PARITY_LINES).encode() + b"\r\n",
    "lone_cr": "\r".join(PARITY_LINES).encode() + b"\r",
    "invalid_utf8":
        "\n".join(PARITY_LINES).encode().replace(b'"p300"', b'"p3\xff0"'),
}


def outcome(read):
    """What `read` returns, or the type and text of the ValueError it raises."""
    try:
        return read()
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", sorted(PARITY_FILES))
def test_hashed_reading_matches_text_reading(tmp_path, name):
    data = PARITY_FILES[name]
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(data)
    with open(path, encoding="utf-8") as handle:
        expected = outcome(lambda: ingest_corpus(handle).papers)
    with open(path, encoding="utf-8") as handle:
        expected_text = outcome(handle.read)
    if name == "invalid_utf8":
        assert expected[0] is UnicodeDecodeError
    else:
        assert len(expected) == 400 and expected_text.count("\n") == 400

    digest = hashlib.sha256()
    assert outcome(lambda: ingest_corpus(path, digest).papers) == expected
    whole = hashlib.sha256()
    with open_text(path, digest=whole) as handle:
        assert outcome(handle.read) == expected_text
    if name != "invalid_utf8":
        assert digest.hexdigest() == whole.hexdigest() == hashlib.sha256(data).hexdigest()


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
    rendered = corpus_text(corpus)
    again = ingest_corpus(rendered.splitlines())
    assert again.papers == corpus.papers
    assert corpus_text(again) == rendered


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
        (line(paper_id="p1", pub_year=2000, author_ids=["a", "b", "a"],
              citing_years=[]), "line 1: paper p1: author id 'a' is listed twice"),
        # A bool and a value below 1 fail the same check, with one text.
        (line(paper_id="p", pub_year=2000, author_count=True, citing_years=[]),
         "line 1: paper p: author_count must be an integer >= 1"),
        (line(paper_id="p", pub_year=2000, author_count=0, citing_years=[]),
         "line 1: paper p: author_count must be an integer >= 1"),
    ],
)
def test_parse_errors(bad, fragment):
    with pytest.raises(CorpusFormatError) as err:
        ingest_corpus([bad])
    assert fragment in str(err.value)
    # No line names "nobody", so no window counts are read, and every check
    # still runs; the same holds when every line's window counts are read.
    with pytest.raises(CorpusFormatError) as unbuilt:
        ingest_corpus([bad], authors=["nobody"], window_count=5)
    assert str(unbuilt.value) == str(err.value)
    with pytest.raises(CorpusFormatError) as counted:
        ingest_corpus([bad], window_count=5)
    assert str(counted.value) == str(err.value)


@pytest.mark.parametrize(
    "authors, listed_first",
    [(["a"], True), (["a"], False), (["nobody"], True)],
)
def test_duplicate_paper_id_is_caught_across_built_and_unbuilt_lines(
    authors, listed_first
):
    by_a = line(paper_id="p", pub_year=2000, author_ids=["a"], citing_years=[])
    by_b = line(paper_id="p", pub_year=2001, author_ids=["b"], citing_years=[])
    lines = [by_a, by_b] if listed_first else [by_b, by_a]
    with pytest.raises(CorpusFormatError) as err:
        ingest_corpus(lines, authors=authors, window_count=5)
    assert str(err.value) == "line 2: duplicate paper_id 'p'"
    with pytest.raises(CorpusFormatError) as counted:
        ingest_corpus(lines, window_count=5)
    assert str(counted.value) == str(err.value)


def test_byte_order_mark_error_says_why(tmp_path):
    path = tmp_path / "corpus.jsonl"
    record = line(paper_id="p", pub_year=2000, author_count=1, citing_years=[])
    path.write_bytes(b"\xef\xbb\xbf" + record.encode() + b"\n")
    with pytest.raises(CorpusFormatError) as err:
        ingest_corpus(path)
    assert str(err.value) == (
        "line 1: invalid JSON (starts with a UTF-8 byte-order mark)"
    )


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


def test_negative_citation_count_is_rejected():
    with pytest.raises(ValueError) as err:
        Paper("p", 2000, 1, {2001: -3, 2002: 2})
    assert str(err.value) == "paper p: citing year 2001 has a negative count, -3"


@pytest.mark.parametrize("pub_year, author_count, message", [
    (True, 1, "paper p: pub_year must be an integer"),
    (2000.0, 1, "paper p: pub_year must be an integer"),
    (2000, True, "paper p: author_count must be an integer >= 1"),
    (2000, 0, "paper p: author_count must be an integer >= 1"),
])
def test_paper_takes_int_years_and_counts_only(pub_year, author_count, message):
    # A line writes both with int.__repr__, which writes True as 1.
    with pytest.raises(ValueError) as err:
        Paper("p", pub_year, author_count)
    assert str(err.value) == message


@pytest.mark.parametrize("citing_years, author_ids", [
    (iter([2003, 2001, 2001]), ["a", "b"]),
    ((year for year in (2001, 2003, 2001)), ("a", "b")),
    (MappingProxyType({2001: 2, 2003: 1, 2004: 0}), ("a", "b")),
    ([2001, 2003, 2001], "ab"),
])
def test_paper_reads_an_iterator_or_mapping_and_rejects_a_string(
    citing_years, author_ids
):
    # An iterator is read once, a mapping by its counts; a string is not a
    # sequence of ids, though iterating it gives strings.
    if isinstance(author_ids, str):
        with pytest.raises(ValueError) as err:
            Paper("p", 2000, 2, citing_years, author_ids)
        assert str(err.value) == "paper p: author_ids must not be a string"
    else:
        paper = Paper("p", 2000, 2, citing_years, author_ids)
        assert paper == Paper("p", 2000, 2, [2001, 2001, 2003], ("a", "b"))


@pytest.mark.parametrize("citing_years, author_ids, message", [
    (b"\x07\xd1", None, "paper p: citing_years must not be bytes"),
    (bytearray(b"\x07\xd1"), None, "paper p: citing_years must not be bytearray"),
    ([], {"a": 1}, "paper p: author_ids must not be a mapping"),
])
def test_paper_rejects_bytes_as_years_and_a_mapping_as_ids(
    citing_years, author_ids, message
):
    # Iterating bytes gives ints (years 7 and 209), a mapping its keys.
    with pytest.raises(ValueError) as err:
        Paper("p", 5, 1, citing_years, author_ids)
    assert str(err.value) == message


# Values of a kind, or beyond a range, that some field of a line may not hold.
ODD = st.sampled_from([True, False, 2001.0, 2001.5, 10**400, -(10**400), "", None])
YEARS_OR_ODD = st.integers(1985, 2015) | ODD
ODD_ARGUMENTS = {
    "paper_id": ODD | st.integers(),
    "pub_year": ODD | st.integers(),
    "author_count": ODD | st.integers(-2, 5),
    "citing_years": st.lists(YEARS_OR_ODD, max_size=6) | st.dictionaries(
        YEARS_OR_ODD, st.integers(-2, 5) | ODD, max_size=4
    ),
    "author_ids": st.lists(IDS | ODD, max_size=3),
}


@st.composite
def paper_arguments(draw):
    """Paper(...) keyword arguments for a valid paper, with at most one of
    them replaced by an odd value."""
    pub_year = draw(st.integers(1990, 2010))
    authors = draw(st.none() | st.lists(IDS, min_size=1, max_size=3, unique=True))
    events = st.integers(pub_year, pub_year + 9)
    arguments = {
        "paper_id": draw(IDS),
        "pub_year": pub_year,
        "author_count": len(authors) if authors else draw(st.integers(1, 3)),
        # Up to 80 events over 10 years: some lines take the per-year read.
        "citing_years": draw(st.lists(events, max_size=80)
                             | st.dictionaries(events, st.integers(0, 80))),
        "author_ids": authors,
    }
    odd = draw(st.sampled_from([None, *ODD_ARGUMENTS]))
    if odd is not None:
        arguments[odd] = draw(ODD_ARGUMENTS[odd])
    return arguments


@given(paper_arguments())
def test_paper_accepts_exactly_what_a_line_may_hold(arguments):
    try:
        paper = Paper(**arguments)
    except ValueError:
        return
    hash(paper)
    assert ingest_corpus([render_paper_line(paper)]).papers == {paper.paper_id: paper}


def test_repeated_author_id_is_rejected():
    with pytest.raises(ValueError) as err:
        Paper("p1", 2000, 2, {2001: 3}, ("a", "a"))
    assert str(err.value) == "paper p1: author id 'a' is listed twice"


def test_papers_are_slotted_and_frozen():
    paper = Paper("p", 2000, 2, [2003, 2001, 2001], ("a", "b"))
    assert not hasattr(paper, "__dict__")
    with pytest.raises(FrozenInstanceError):
        paper.pub_year = 1999
    assert paper == Paper("p", 2000, 2, {2001: 2, 2003: 1}, ("a", "b"))
    assert hash(paper) == hash(("p", 2000, 2, (2001, 2003), (2, 3), ("a", "b")))


def test_ingest_shares_one_int_per_distinct_year():
    # Years above 256, which CPython does not cache. Paper i has 8 * i events
    # over i + 1 years, so papers 8 and 9 take the per-year read.
    papers = [
        Paper(f"p{i}", 2000 + i % 3, 1,
              [2000 + i % 3 + k % (i + 1) for k in range(8 * i)])
        for i in range(12)
    ]
    lines = corpus_text(Corpus.from_papers(papers)).splitlines()
    assert [i for i, text in enumerate(lines)
            if corpus_module._split_rendered(text)] == [8, 9]
    ingested = ingest_corpus(lines).papers
    assert list(ingested.values()) == papers
    years = [y for p in ingested.values() for y in (p.pub_year, *p.years)]
    assert len({id(y) for y in years}) == len(set(years)) == 14
    counted = ingest_corpus(lines, window_count=5).pub_year
    assert len({id(y) for y in counted}) == len(set(counted)) == 3


def test_ingest_holds_under_700_bytes_per_paper():
    # A seeded corpus shaped like the paper's setup: 3,940 papers.
    config = SynthConfig.from_json((DATA / "experiment_fit_config.json").read_text())
    out = io.StringIO()
    render_corpus(generate_corpus(config)[0], out)
    lines = out.getvalue().splitlines()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        corpus = ingest_corpus(lines)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # CPython 3.11 measured 570 bytes per paper; a __dict__ per paper, an
    # author index and an int per year as decoded take it to 1,008.
    assert held / len(corpus) < 700, held / len(corpus)


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
def sparse_papers(draw, paper_id):
    """A paper with up to 20 events over 13 calendar years, perhaps none."""
    pub_year = draw(st.integers(1950, 2020))
    authors = draw(st.none() | st.lists(IDS, min_size=1, max_size=4, unique=True))
    return Paper(
        paper_id=paper_id,
        pub_year=pub_year,
        author_count=len(authors) if authors else draw(st.integers(1, 6)),
        citing_years=tuple(draw(st.lists(st.integers(pub_year, pub_year + 12),
                                         max_size=20))),
        author_ids=tuple(authors) if authors else None,
    )


def corpora(papers=sparse_papers, max_size=8):
    """Corpora of up to ``max_size`` papers, each drawn by ``papers(paper_id)``."""
    return st.lists(IDS, unique=True, max_size=max_size).flatmap(
        lambda ids: st.tuples(*map(papers, ids))).map(Corpus.from_papers)


@given(corpora())
def test_ingest_render_round_trip_property(corpus):
    assert ingest_corpus(corpus_text(corpus).splitlines()).papers == corpus.papers


# Publication years around the edges of the 4-digit range the per-year read
# handles, and inside it.
PUB_YEARS = st.sampled_from([990, 995, 999, 1000, 9990, 9995]) | st.integers(1950, 2020)


@st.composite
def dense_papers(draw, paper_id="p"):
    """A paper with at least 64 events over 1 to 12 calendar years."""
    pub_year = draw(PUB_YEARS)
    span = draw(st.integers(0, 11))
    authors = draw(st.none() | st.lists(IDS, min_size=1, max_size=4, unique=True))
    return Paper(
        paper_id=paper_id,
        pub_year=pub_year,
        author_count=len(authors) if authors else draw(st.integers(1, 6)),
        citing_years=draw(st.lists(st.integers(pub_year, pub_year + span),
                                   min_size=64, max_size=200)),
        author_ids=tuple(authors) if authors else None,
    )


@given(corpora(dense_papers, max_size=6))
def test_ingest_render_round_trip_property_dense(corpus):
    assert ingest_corpus(corpus_text(corpus).splitlines()).papers == corpus.papers


@given(corpora(lambda paper_id: sparse_papers(paper_id) | dense_papers(paper_id)),
       st.integers(1, 6))
def test_window_counts_read_from_lines_equal_counts_from_papers(corpus, window_count):
    # Event lists and per-year lines, events past the last window, papers
    # with no events, and lines with an author_count only, in one corpus.
    lines = corpus_text(corpus).splitlines()
    counted = ingest_corpus(lines, window_count=window_count)
    expected = collect_window_points(ingest_corpus(lines), window_count)
    assert counted.pub_year == expected.pub_year
    assert len(counted.windows) == window_count
    for column, expected_column in zip(counted.windows, expected.windows):
        assert column == expected_column


@pytest.mark.parametrize("arguments, message", [
    ({"window_count": 0}, "window_count must be >= 1"),
    ({"window_count": -1}, "window_count must be >= 1"),
    ({"authors": ["a"]}, "authors needs a window_count"),
])
def test_window_count_is_checked_before_the_file_is_opened(
    tmp_path, arguments, message
):
    with pytest.raises(ValueError) as err:
        ingest_corpus(tmp_path / "missing.jsonl", **arguments)
    assert str(err.value) == message


def window_reads(paper, window_count):
    """What a record reads of a paper: its id, year, author count, and its
    citations through each year of its window and the year before it."""
    last_years = range(paper.pub_year - 1, paper.pub_year + window_count)
    counts = [paper.citations_through(year) for year in last_years]
    return paper.paper_id, paper.pub_year, paper.author_count, counts


# E(c) that moves with the year and the window, and meets the floor in
# window 1 for the years near 1,000 that the corpora draw, so a paper priced
# with another year or window gives another vector.
SLOPED_MODEL = ExpectationModel(
    window_fits={
        w: WindowFit(slope=0.01 * w, intercept=w - 15.0, n_points=2)
        for w in range(1, 7)
    },
    fit_year_range=(1950, 2020),
    floor=0.5,
)


@given(
    corpora(lambda paper_id: sparse_papers(paper_id) | dense_papers(paper_id)),
    st.integers(1, 6),
    st.data(),
)
def test_ingest_for_listed_authors_equals_filtered_full_ingest(
    corpus, window_count, data
):
    # Event lists and per-year lines, events past the last window, papers
    # with no events, and lines with an author_count only, in one corpus.
    # The reference is the Corpus path: papers_by_author, then records.
    named = sorted({a for p in corpus.papers.values() for a in p.author_ids or ()})
    authors = data.draw(st.lists(st.sampled_from(named), unique=True)
                        if named else st.just([]))
    authors += data.draw(st.lists(IDS, max_size=2))
    lines = corpus_text(corpus).splitlines()
    full = ingest_corpus(lines)
    expected = full.papers_by_author(authors)
    listed = ingest_corpus(lines, authors=authors, window_count=window_count)
    assert list(listed.groups) == list(expected)
    for author_id, papers in listed.groups.items():
        assert [window_reads(p, window_count) for p in papers] == [
            window_reads(p, window_count) for p in expected[author_id]
        ]
        if not papers:
            with pytest.raises(UnknownAuthorError):
                build_author_record(author_id, papers, window_count)
            continue
        record = build_author_record(author_id, papers, window_count)
        reference = build_author_record(author_id, expected[author_id], window_count)
        assert indicator_vector(record, SLOPED_MODEL) == indicator_vector(
            reference, SLOPED_MODEL
        )
    assert len(listed) == sum(
        not set(authors).isdisjoint(p.author_ids or ()) for p in full.papers.values()
    )


def test_listed_papers_count_citations_through_their_window_only():
    listed = ingest_corpus(FIXTURE, authors=["carol", "ghost"], window_count=3)
    with pytest.raises(UnknownAuthorError, match="'ghost' not found"):
        build_author_record("ghost", listed.groups["ghost"], window_years=3)
    first = listed.groups["carol"][0]
    assert (first.paper_id, first.pub_year) == ("pC1", 1995)
    assert [first.citations_through(year) for year in range(1994, 1998)] == [
        0, 20, 50, 75
    ]
    with pytest.raises(ValueError, match="counted through 1997, not 1998"):
        first.citations_through(1998)
    # A record wider than the papers' windows cannot be priced.
    record = build_author_record("carol", listed.groups["carol"], window_years=5)
    with pytest.raises(ValueError, match="paper pC.: citations are counted through"):
        indicator_vector(record, constant_model())


def ingested(text, authors=None):
    """The papers one line ingests to, or the error message it raises; with
    ``authors``, the papers read for them, with their window counts."""
    try:
        if authors is None:
            return list(ingest_corpus([text]).papers.values())
        listed = ingest_corpus([text], authors=authors, window_count=5)
        return [paper for papers in listed.groups.values() for paper in papers]
    except CorpusFormatError as exc:
        return str(exc)


# Ways to take a rendered event list out of the form the per-year read
# accepts: a separator after slot i, an edit of slot i, or a named change.
SEPARATORS = (",", ",  ", ", \t")
SLOT_EDITS = {
    "leading zero": lambda y: "0" + y,
    "3 digits": lambda y: y[1:],
    "5 digits": lambda y: y + "0",
    "negative": lambda y: "-" + y,
    "float": lambda y: y + ".0",
    "true": lambda y: "true",
    "string": lambda y: f'"{y}"',
    "arabic-indic": lambda y: y.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")),
}
MUTATIONS = [
    "none", *SEPARATORS, *SLOT_EDITS, "non-contiguous run", "year before pub_year",
    "earlier duplicate key", "empty head", "escaped key decoy",
]


def mutated_line(paper, mutation, i):
    text = render_paper_line(paper)
    cut = text.rfind(corpus_module._EVENTS_KEY) + len(corpus_module._EVENTS_KEY)
    head, slots, tail = text[:cut], text[cut:-2].split(", "), "]}"
    if mutation in SEPARATORS:
        return head + ", ".join(slots[:i + 1]) + mutation + ", ".join(slots[i + 1:]) + tail
    if mutation in SLOT_EDITS:
        slots[i] = SLOT_EDITS[mutation](slots[i])
    elif mutation == "non-contiguous run":
        slots.append(slots.pop(i))
    elif mutation == "year before pub_year":
        slots[0] = str(paper.pub_year - 1)
    elif mutation == "earlier duplicate key":
        head = head.replace('"pub_year"', '"citing_years": ["x"], "pub_year"')
    elif mutation == "empty head":
        head = "{" + corpus_module._EVENTS_KEY
    elif mutation == "escaped key decoy":
        tail = '], "x\\"citing_years": [' + ", ".join([min(slots)] * 64) + "]}"
    return head + ", ".join(slots) + tail


@given(dense_papers(), st.sampled_from(MUTATIONS), st.data())
def test_per_year_read_matches_general_path(paper, mutation, data):
    i = data.draw(st.integers(0, len(paper.citing_years) - 2))
    text = mutated_line(paper, mutation, i)
    with mock.patch.object(corpus_module, "_split_rendered", lambda text: None):
        expected = ingested(text)
    assert ingested(text) == expected
    # Not read for "nobody", the line is still checked, through min(events).
    assert ingested(text, ["nobody"]) == ([] if type(expected) is list else expected)
    if mutation == "none":
        assert expected == [paper]
        span = paper.years[-1] - paper.years[0]
        in_range = 1000 <= paper.years[0] and paper.years[-1] <= 9999
        taken = corpus_module._split_rendered(text) is not None
        assert taken == (span < 10 and in_range)


def test_rendered_events_are_not_decoded(monkeypatch):
    # 100 papers x 2,000 events over 5 distinct years, as render writes them.
    lines = [
        render_paper_line(Paper(paper_id=f"p{i}", pub_year=2000, author_count=1,
                                citing_years={2000 + k: 400 for k in range(5)}))
        for i in range(100)
    ]
    decoded = []

    def recording_decode(text):
        decoded.append(text)
        return decode(text)

    decode = corpus_module._decode
    monkeypatch.setattr(corpus_module, "_decode", recording_decode)
    corpus = ingest_corpus(lines)
    assert corpus.papers["p7"].citations_through(2001) == 800
    assert len(decoded) == 100
    assert not any("citing_years" in text for text in decoded)


ANY_YEARS = st.sampled_from([-5000, -1, 0, 1, 999, 1000, 9999, 10000]) | st.integers(
    -10**6, 10**6
)


@given(
    paper_id=st.text(min_size=1, max_size=8),
    pub_year=ANY_YEARS,
    offsets=st.lists(st.integers(0, 30), max_size=80),
    far=st.booleans(),
    authors=st.none() | st.lists(
        st.text(min_size=1, max_size=5), min_size=1, max_size=4, unique=True
    ),
    count=st.integers(1, 6),
)
def test_render_paper_line_matches_json_dumps(paper_id, pub_year, offsets, far, authors, count):
    events = [pub_year + k for k in offsets] + ([1 + 10**9] if far else [])
    paper = Paper(
        paper_id=paper_id,
        pub_year=pub_year,
        author_count=len(authors) if authors else count,
        citing_years=events,
        author_ids=tuple(authors) if authors else None,
    )
    record = {"paper_id": paper.paper_id, "pub_year": paper.pub_year}
    if authors:
        record["author_ids"] = authors
    else:
        record["author_count"] = count
    record["citing_years"] = list(paper.citing_years)
    assert render_paper_line(paper) == json.dumps(record, ensure_ascii=False)


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


def fixture_record(author_id, window_years=5):
    papers = ingest_corpus(FIXTURE).papers_by_author([author_id])[author_id]
    return build_author_record(author_id, papers, window_years)


def test_build_author_record_windows_citations():
    carol = fixture_record("carol")
    assert (carol.first_year, carol.last_year) == (1995, 1999)
    assert [p.citations_through(carol.last_year) for p in carol.papers] == [
        100, 25, 25, 0
    ]
    # dave shares carol's 1995 paper, so his window starts in 1995 and the
    # 2005 solo paper falls outside it
    dave = fixture_record("dave")
    assert dave.first_year == 1995
    assert [p.paper_id for p in dave.papers] == ["pC1", "pC4"]


def test_build_author_record_window_length():
    short = fixture_record("carol", window_years=3)
    # window 1995-1997: pC4 (1999) drops out, citations cut at 1997
    assert short.last_year == 1997
    assert [p.paper_id for p in short.papers] == ["pC1", "pC2", "pC3"]
    assert [p.citations_through(short.last_year) for p in short.papers] == [75, 18, 9]
    with pytest.raises(ValueError):
        fixture_record("carol", window_years=0)


def test_unknown_author():
    with pytest.raises(UnknownAuthorError) as err:
        fixture_record("nobody")
    assert str(err.value) == "author 'nobody' not found in corpus"


def test_author_record_validation():
    with pytest.raises(ValueError, match="no papers"):
        AuthorRecord(author_id="a", first_year=2000, papers=())
    outside = Paper("p", 2005, 1)
    with pytest.raises(ValueError) as err:
        AuthorRecord(author_id="a", first_year=2000, papers=(outside,))
    assert str(err.value) == "author a: paper p published 2005, outside 2000..2004"
    assert AuthorRecord("a", 2000, (Paper("p", 2004, 1),)).last_year == 2004


def make_record(author_counts, first_year=1995):
    papers = tuple(Paper(f"p{i}", first_year, a) for i, a in enumerate(author_counts))
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
