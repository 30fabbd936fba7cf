import hashlib
import io
import json
import tracemalloc
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from biblio_bench import corpus as corpus_module
from biblio_bench.corpus import (
    EVERY_AUTHOR,
    AuthorRecord,
    CorpusFormatError,
    FilterSpec,
    PaperWindows,
    UnknownAuthorError,
    WindowPoints,
    build_author_record,
    filter_cohort,
    ingest_corpus,
    open_text,
    render_corpus,
)
from biblio_bench.expectation import ExpectationModel, WindowFit
from biblio_bench.indicators import indicator_vector
from biblio_bench.synth import SynthConfig, generate_corpus
from oracles import constant_model, oracle_sums, paper_windows, window_counts

DATA = Path(__file__).parent / "data"
FIXTURE = DATA / "fixture_corpus.jsonl"


def line(**kwargs):
    return json.dumps(kwargs)


def written(record):
    """The line _paper_line writes for a record, as json.loads reads one."""
    per_year = Counter(record["citing_years"])
    years = sorted(per_year)
    return corpus_module._paper_line(
        record["paper_id"], record["pub_year"], record.get("author_count"),
        record.get("author_ids"), years, map(per_year.__getitem__, years),
    )


def read_paper(pub_year, citing_years, window_count=5):
    """The paper one line of these fields reads as."""
    text = line(paper_id="p", pub_year=pub_year, author_ids=["a"],
                citing_years=citing_years)
    listed = ingest_corpus([text], authors=["a"], window_count=window_count)
    [paper] = listed.groups["a"]
    return paper


def oracle_points(records, window_count=5):
    """The fit points of records, counted by window_counts."""
    counts = [window_counts(r["pub_year"], r["citing_years"], window_count)
              for r in records]
    return WindowPoints([r["pub_year"] for r in records],
                        tuple([c[k] for c in counts] for k in range(window_count)))


def oracle_groups(records, authors, window_count=5):
    """Each author's papers in record order, counted by window_counts; with
    EVERY_AUTHOR, each author a record names, in id order."""
    papers = [
        (r.get("author_ids", ()), paper_windows(
            r["paper_id"], r["pub_year"], r.get("author_count") or len(r["author_ids"]),
            r["citing_years"], window_count,
        ))
        for r in records
    ]
    if authors is EVERY_AUTHOR:
        authors = sorted({a for names, _ in papers for a in names})
    return {a: [p for names, p in papers if a in names] for a in authors}


def test_ingest_fixture_counts():
    assert len(ingest_corpus(FIXTURE)) == 9
    listed = ingest_corpus(FIXTURE, authors=EVERY_AUTHOR)
    # pX1 names no author, so it is read for none.
    assert len(listed) == 8
    groups = listed.groups
    assert list(groups) == ["alice", "bob", "carol", "dave", "erin", "frank"]
    assert [p.paper_id for p in groups["carol"]] == ["pC1", "pC2", "pC3", "pC4"]


def test_ingest_accepts_stream_and_iterable():
    text = FIXTURE.read_text()
    for authors in (None, EVERY_AUTHOR):
        from_stream = ingest_corpus(io.StringIO(text), authors=authors)
        from_iterable = ingest_corpus(text.splitlines(), authors=authors)
        assert from_stream == from_iterable


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
        expected = outcome(lambda: ingest_corpus(handle))
    with open(path, encoding="utf-8") as handle:
        expected_text = outcome(handle.read)
    if name == "invalid_utf8":
        assert expected[0] is UnicodeDecodeError
    else:
        assert len(expected) == 400 and expected_text.count("\n") == 400

    digest = hashlib.sha256()
    assert outcome(lambda: ingest_corpus(path, digest)) == expected
    whole = hashlib.sha256()
    with open_text(path, digest=whole) as handle:
        assert outcome(handle.read) == expected_text
    if name != "invalid_utf8":
        assert digest.hexdigest() == whole.hexdigest() == hashlib.sha256(data).hexdigest()


def test_citing_years_sorted_and_truncation():
    paper = read_paper(2000, [2004, 2000, 2002, 2002], window_count=11)
    assert paper.counts == (1, 1, 3, 3, 4, 4, 4, 4, 4, 4, 4)


def test_a_long_event_list_is_counted():
    events = [2000 + i * 7 % 12 for i in range(10_000)]
    paper = read_paper(2000, events, window_count=12)
    assert paper.counts == window_counts(2000, events, 12)


def test_render_round_trip():
    text = FIXTURE.read_text()
    lines = [written(json.loads(entry)) for entry in text.splitlines()]
    assert lines == text.splitlines()
    out = io.StringIO()
    assert render_corpus(lines, out) == 9
    assert out.getvalue() == text


def test_render_paper_line_key_order():
    assert corpus_module._paper_line("p1", 2000, 2, ("x", "y"), [2001], [1]) == (
        '{"paper_id": "p1", "pub_year": 2000, "author_ids": ["x", "y"], '
        '"citing_years": [2001]}'
    )
    assert corpus_module._paper_line("p2", 2000, 3, None, [], []) == (
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
        # int() reads a zero-led year, which JSON rejects.
        ('{"paper_id": "p", "pub_year": 0999, "author_ids": ["a"], '
         '"citing_years": [1000, 1000]}', "line 1: invalid JSON"),
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
    # No line names "nobody", so no paper is read, and every check still
    # runs; the same holds when every author's papers are read.
    with pytest.raises(CorpusFormatError) as unbuilt:
        ingest_corpus([bad], authors=["nobody"])
    assert str(unbuilt.value) == str(err.value)
    with pytest.raises(CorpusFormatError) as grouped:
        ingest_corpus([bad], authors=EVERY_AUTHOR)
    assert str(grouped.value) == str(err.value)


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
        ingest_corpus(lines, authors=authors)
    assert str(err.value) == "line 2: duplicate paper_id 'p'"
    for every in (None, EVERY_AUTHOR):
        with pytest.raises(CorpusFormatError) as counted:
            ingest_corpus(lines, authors=every)
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
    window_count=st.integers(1, 40),
)
def test_window_counts_match_linear_count(pub_year, offsets, window_count):
    events = [pub_year + k for k in offsets]
    paper = read_paper(pub_year, events, window_count=window_count)
    assert len(paper.counts) == window_count
    for k, count in enumerate(paper.counts):
        assert count == sum(1 for y in events if y <= pub_year + k)


@given(st.lists(st.integers(2000, 2030), max_size=60))
def test_citing_years_read_back_sorted(events):
    paper = read_paper(2000, events, window_count=31)
    assert paper == read_paper(2000, sorted(events), window_count=31)
    assert paper.counts == window_counts(2000, events, 31)


@given(st.data())
def test_papers_equal_iff_event_multisets_equal(data):
    # Seven windows from 2000 end in each year an event may fall in.
    events = st.lists(st.integers(2000, 2006), max_size=12)
    a = data.draw(events)
    b = data.draw(st.permutations(a) | events)
    same = read_paper(2000, a, 7) == read_paper(2000, b, 7)
    assert same == (Counter(a) == Counter(b))


@pytest.mark.parametrize("pub_year, author_count, message", [
    (True, 1, "paper p: pub_year must be an integer"),
    (2000.0, 1, "paper p: pub_year must be an integer"),
    (2000, True, "paper p: author_count must be an integer >= 1"),
    (2000, 0, "paper p: author_count must be an integer >= 1"),
])
def test_paper_takes_int_years_and_counts_only(pub_year, author_count, message):
    # A line writes both with int.__repr__, which writes True as 1.
    with pytest.raises(CorpusFormatError) as err:
        ingest_corpus([line(paper_id="p", pub_year=pub_year,
                            author_count=author_count)])
    assert str(err.value) == f"line 1: {message}"


# Values of a kind, or beyond a range, that some field of a line may not hold.
ODD = st.sampled_from([True, False, 2001.0, 2001.5, 10**400, -(10**400), "", None])
YEARS_OR_ODD = st.integers(1985, 2015) | ODD
ODD_ARGUMENTS = {
    "paper_id": ODD | st.integers(),
    "pub_year": ODD | st.integers(),
    "author_count": ODD | st.integers(-2, 5),
    "citing_years": st.lists(YEARS_OR_ODD, max_size=6) | YEARS_OR_ODD,
    "author_ids": st.lists(IDS | ODD, max_size=3) | ODD,
}


@st.composite
def paper_arguments(draw):
    """The fields of a valid line, with at most one of them replaced by an
    odd value, and the name of that field, or None."""
    pub_year = draw(st.integers(1990, 2010))
    authors = draw(st.none() | st.lists(IDS, min_size=1, max_size=3, unique=True))
    events = st.lists(st.integers(pub_year, pub_year + 9), max_size=80)
    arguments = {
        "paper_id": draw(IDS),
        "pub_year": pub_year,
        "author_count": len(authors) if authors else draw(st.integers(1, 3)),
        # Up to 80 events over 10 years, sorted or not. json.dumps writes
        # author_count, so the recognizer declines every line: all decode.
        "citing_years": draw(events.map(sorted) | events),
        "author_ids": authors,
    }
    odd = draw(st.sampled_from([None, *ODD_ARGUMENTS]))
    if odd is not None:
        arguments[odd] = draw(ODD_ARGUMENTS[odd])
    return arguments, odd


@given(paper_arguments())
def test_paper_accepts_exactly_what_a_line_may_hold(drawn):
    # A valid line is read; with an odd field it is rejected by line, or
    # read as the valid values it holds are.
    arguments, odd = drawn
    text = json.dumps(arguments, ensure_ascii=False)
    try:
        points = ingest_corpus([text])
    except CorpusFormatError as exc:
        assert odd is not None and str(exc).startswith("line 1: ")
        return
    assert points == oracle_points([arguments])


def test_repeated_author_id_is_rejected():
    with pytest.raises(CorpusFormatError) as err:
        ingest_corpus([line(paper_id="p1", pub_year=2000, author_ids=["a", "a"],
                            citing_years=[2001, 2001, 2001])])
    assert str(err.value) == "line 1: paper p1: author id 'a' is listed twice"


def test_ingest_shares_one_int_per_distinct_year():
    # Years above 256, which CPython does not cache. Paper i has 8 * i events
    # over i + 1 years, so papers 10 and 11 span too many years to be
    # recognized and are decoded.
    lines = [
        line(paper_id=f"p{i}", pub_year=2000 + i % 3, author_ids=[f"a{i % 2}"],
             citing_years=sorted(2000 + i % 3 + k % (i + 1) for k in range(8 * i)))
        for i in range(12)
    ]
    assert [i for i, text in enumerate(lines)
            if corpus_module._recognized(text) is None] == [10, 11]
    listed = ingest_corpus(lines, authors=EVERY_AUTHOR)
    years = [p.pub_year for papers in listed.groups.values() for p in papers]
    assert len({id(y) for y in years}) == len(set(years)) == 3
    counted = ingest_corpus(lines).pub_year
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
        listed = ingest_corpus(lines, authors=EVERY_AUTHOR)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # CPython 3.11 measured 579 bytes per paper, most of it the groups of
    # its co-authors, each named by that paper alone.
    assert held / len(listed) < 700, held / len(listed)


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
        points = ingest_corpus(lines, window_count=5)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert points.windows[1][7] == 800
    assert retained < 200_000


def author_fields(draw):
    """A line's author_ids, or when it has none its author_count."""
    authors = draw(st.none() | st.lists(IDS, min_size=1, max_size=4, unique=True))
    if authors:
        return {"author_ids": authors}
    return {"author_count": draw(st.integers(1, 6))}


@st.composite
def sparse_papers(draw, paper_id):
    """A record with up to 20 events over 13 calendar years, perhaps none."""
    pub_year = draw(st.integers(1950, 2020))
    events = st.lists(st.integers(pub_year, pub_year + 12), max_size=20)
    return {"paper_id": paper_id, "pub_year": pub_year, **author_fields(draw),
            "citing_years": sorted(draw(events))}


def corpora(papers=sparse_papers, max_size=8):
    """Records of up to ``max_size`` papers, each drawn by ``papers(paper_id)``."""
    return st.lists(IDS, unique=True, max_size=max_size).flatmap(
        lambda ids: st.tuples(*map(papers, ids))).map(list)


def round_trip(records):
    """Records written as _paper_line writes them, read back every way."""
    lines = list(map(written, records))
    assert lines == [json.dumps(r, ensure_ascii=False) for r in records]
    out = io.StringIO()
    assert render_corpus(lines, out) == len(records)
    text = out.getvalue().splitlines()
    assert ingest_corpus(text) == oracle_points(records)
    everyone = ingest_corpus(text, authors=EVERY_AUTHOR).groups
    # Items, not dicts: the groups' order is compared too.
    assert list(everyone.items()) == list(oracle_groups(records, EVERY_AUTHOR).items())


@given(corpora())
def test_ingest_render_round_trip_property(records):
    round_trip(records)


# Publication years around the edges of the 4-digit range the recognizer
# reads, and inside it.
PUB_YEARS = st.sampled_from([990, 995, 999, 1000, 9990, 9995]) | st.integers(1950, 2020)


@st.composite
def dense_papers(draw, paper_id="p", min_events=64):
    """A record with at least ``min_events`` events over 1 to 12 calendar years."""
    pub_year = draw(PUB_YEARS)
    span = draw(st.integers(0, 11))
    events = st.lists(
        st.integers(pub_year, pub_year + span), min_size=min_events, max_size=200
    )
    return {"paper_id": paper_id, "pub_year": pub_year, **author_fields(draw),
            "citing_years": sorted(draw(events))}


@given(corpora(dense_papers, max_size=6))
def test_ingest_render_round_trip_property_dense(records):
    round_trip(records)


@given(corpora(lambda paper_id: sparse_papers(paper_id) | dense_papers(paper_id)),
       st.integers(1, 6))
def test_window_counts_read_from_lines_equal_counts_from_papers(records, window_count):
    # Recognized and decoded lines, events past the last window, papers
    # with no events, and lines with an author_count only, in one corpus.
    lines = list(map(written, records))
    counted = ingest_corpus(lines, window_count=window_count)
    assert counted == oracle_points(records, window_count)


@pytest.mark.parametrize("arguments, message", [
    ({"window_count": 0}, "window_count must be >= 1"),
    ({"window_count": -1}, "window_count must be >= 1"),
    ({"authors": EVERY_AUTHOR, "window_count": 0}, "window_count must be >= 1"),
])
def test_window_count_is_checked_before_the_file_is_opened(
    tmp_path, arguments, message
):
    with pytest.raises(ValueError) as err:
        ingest_corpus(tmp_path / "missing.jsonl", **arguments)
    assert str(err.value) == message


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
    records, window_count, data
):
    # Recognized and decoded lines, events past the last window, papers
    # with no events, and lines with an author_count only, in one corpus.
    # The references are every author's groups and the groups by definition.
    named = sorted({a for r in records for a in r.get("author_ids", ())})
    authors = data.draw(st.lists(st.sampled_from(named), unique=True)
                        if named else st.just([]))
    authors += data.draw(st.lists(IDS, max_size=2))
    lines = list(map(written, records))
    full = ingest_corpus(lines, authors=EVERY_AUTHOR, window_count=window_count)
    listed = ingest_corpus(lines, authors=authors, window_count=window_count)
    expected = oracle_groups(records, authors, window_count)
    assert list(listed.groups.items()) == list(expected.items())
    assert listed.groups == {a: full.groups.get(a, []) for a in authors}
    assert list(full.groups.items()) == list(
        oracle_groups(records, EVERY_AUTHOR, window_count).items()
    )
    for author_id, papers in listed.groups.items():
        if not papers:
            with pytest.raises(UnknownAuthorError):
                build_author_record(author_id, papers)
            continue
        record = build_author_record(author_id, papers)
        assert record.last_year == record.first_year + window_count - 1
        vector = indicator_vector(record, SLOPED_MODEL)
        sums = oracle_sums(record, SLOPED_MODEL)
        assert {name: getattr(vector, name) for name in sums} == sums
    assert len(listed) == sum(
        not set(authors).isdisjoint(r.get("author_ids", ())) for r in records
    )


def test_listed_papers_count_citations_through_their_window_only():
    listed = ingest_corpus(FIXTURE, authors=["carol", "ghost"], window_count=3)
    with pytest.raises(UnknownAuthorError, match="'ghost' not found"):
        build_author_record("ghost", listed.groups["ghost"])
    first = listed.groups["carol"][0]
    assert (first.paper_id, first.pub_year) == ("pC1", 1995)
    # 1995, 1995..1996 and 1995..1997; later citations are not read
    assert first.counts == (20, 50, 75)
    # The record spans the 3 years its papers count, and is priced within them.
    record = build_author_record("carol", listed.groups["carol"])
    assert (record.first_year, record.last_year) == (1995, 1997)
    assert indicator_vector(record, constant_model()).citations == 75 + 18 + 9


def ingested(text, authors=None):
    """The window points one line ingests to, or the error message it
    raises; with ``authors``, the papers read for them."""
    try:
        if authors is None:
            return ingest_corpus([text])
        listed = ingest_corpus([text], authors=authors)
        return [paper for papers in listed.groups.values() for paper in papers]
    except CorpusFormatError as exc:
        return str(exc)


# Ways to take a line out of the form the recognizer reads: a separator
# after event slot i, an edit of slot i, a head written in its place, or a
# named change.
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
# Defects in the record's other fields, written after them, so each overrides
# an earlier key: the line must fail as the general path fails it.
HEAD_EDITS = {
    "pub_year true": '"pub_year": true',
    "author_count mismatch": '"author_count": 2, "author_ids": ["a"]',
    "tab in an id": '"author_ids": ["a\\tb"]',
    "repeated id": '"author_count": 2, "author_ids": ["a", "a"]',
    "empty paper_id": '"paper_id": ""',
}


def head_text(pub_year, paper_id='"p"', author_ids='"a", "b"'):
    """A line up to its citing_years key, from these fields' JSON text."""
    return f'{{"paper_id": {paper_id}, "pub_year": {pub_year}, "author_ids": [{author_ids}]'


# Heads just outside the form _paper_line writes with author_ids, or with an
# id _read_record rejects, each written for the paper's pub_year y in place
# of the line's head. The recognizer must decline every one.
HEADS = {
    "escaped id": lambda y: head_text(y, author_ids='"a\\u0062"'),
    "escaped quote in an id": lambda y: head_text(y, author_ids='"a\\"b"'),
    "escaped paper_id": lambda y: head_text(y, paper_id='"p\\u0071"'),
    "leading space in an id": lambda y: head_text(y, author_ids='" a", "b"'),
    "trailing space in an id": lambda y: head_text(y, author_ids='"a", "b "'),
    "trailing NBSP in an id": lambda y: head_text(y, author_ids='"a\u00a0"'),
    "raw tab in an id": lambda y: head_text(y, author_ids='"a\tb"'),
    "raw newline in paper_id": lambda y: head_text(y, paper_id='"p\nq"'),
    "id starting with #": lambda y: head_text(y, author_ids='"a", "#b"'),
    "repeated id in place": lambda y: head_text(y, author_ids='"a", "b", "a"'),
    "3-digit pub_year": lambda y: head_text(100 + y % 900),
    "5-digit pub_year": lambda y: head_text(10000 + y),
    "zero-led pub_year": lambda y: head_text(f"0{y}"),
    "keys in another order":
        lambda y: f'{{"pub_year": {y}, "paper_id": "p", "author_ids": ["a"]',
    "author_count form": lambda y: f'{{"paper_id": "p", "pub_year": {y}, "author_count": 1',
}
MUTATIONS = [
    "none", *SEPARATORS, *SLOT_EDITS, *HEAD_EDITS, *HEADS, "non-contiguous run",
    "year before pub_year", "earlier duplicate key", "empty head", "escaped key decoy",
    "closed out of order",
]


def mutated_line(paper, mutation, i):
    text = written(paper)
    cut = text.rfind(corpus_module._EVENTS_KEY) + len(corpus_module._EVENTS_KEY)
    head, slots, tail = text[:cut], text[cut:-2].split(", "), "]}"
    if mutation in SEPARATORS:
        return head + ", ".join(slots[:i + 1]) + mutation + ", ".join(slots[i + 1:]) + tail
    if mutation in SLOT_EDITS:
        slots[i] = SLOT_EDITS[mutation](slots[i])
    elif mutation in HEAD_EDITS:
        key = corpus_module._EVENTS_KEY
        head = head[: -len(key)] + ", " + HEAD_EDITS[mutation] + key
    elif mutation in HEADS:
        head = HEADS[mutation](paper["pub_year"]) + corpus_module._EVENTS_KEY
    elif mutation == "non-contiguous run":
        slots.append(slots.pop(i))
    elif mutation == "year before pub_year":
        slots[0] = str(paper["pub_year"] - 1)
    elif mutation == "earlier duplicate key":
        head = head.replace('"pub_year"', '"citing_years": ["x"], "pub_year"')
    elif mutation == "empty head":
        head = "{" + corpus_module._EVENTS_KEY
    elif mutation == "escaped key decoy":
        tail = '], "x\\"citing_years": [' + ", ".join([min(slots)] * 64) + "]}"
    elif mutation == "closed out of order":
        tail = "}]"
    return head + ", ".join(slots) + tail


def declined(text):
    return None


@given(dense_papers(min_events=2), st.sampled_from(MUTATIONS), st.data())
def test_per_year_read_matches_general_path(paper, mutation, data):
    events = paper["citing_years"]
    i = data.draw(st.integers(0, len(events) - 2))
    text = mutated_line(paper, mutation, i)
    with mock.patch.object(corpus_module, "_recognized", declined):
        expected = ingested(text)
        grouped = ingested(text, EVERY_AUTHOR)
    assert ingested(text) == expected
    assert ingested(text, EVERY_AUTHOR) == grouped
    # Not read for "nobody", the line is still checked, through min(events).
    assert ingested(text, ["nobody"]) == (expected if type(expected) is str else [])
    if mutation == "none":
        assert expected == oracle_points([paper])
        pub_year = paper["pub_year"]
        in_form = "author_ids" in paper and 1000 <= pub_year
        taken = corpus_module._recognized(text) is not None
        assert taken == (in_form and events[-1] < min(pub_year + 10, 10000))


@pytest.mark.parametrize("mutation", MUTATIONS[1:])
def test_recognizer_declines_every_mutation(mutation):
    paper = {"paper_id": "p", "pub_year": 1999, "author_ids": ["a"],
             "citing_years": [1999, 2000, 2000]}
    assert corpus_module._recognized(mutated_line(paper, "none", 0)) is not None
    assert corpus_module._recognized(mutated_line(paper, mutation, 0)) is None


def test_per_year_line_citing_before_its_publication_is_rejected():
    # The re-render of its per-year counts, which start at pub_year, differs
    # from the line, so the line is decoded, and its error is the general one.
    text = written({"paper_id": "p", "pub_year": 2001, "author_ids": ["a"],
                    "citing_years": [2000] * 40 + [2001] * 40})
    assert corpus_module._recognized(text) is None
    assert ingested(text) == ingested(text, EVERY_AUTHOR) == (
        "line 1: paper p: citing year 2000 precedes publication year 2001"
    )


def test_rendered_events_are_not_decoded():
    # Every line generate writes, and lists of 0 to 63 events and of 2,000
    # over the 10 years from pub_year, as _paper_line writes them.
    config = SynthConfig.from_json((DATA / "experiment_fit_config.json").read_text())
    lines = list(generate_corpus(config)[0]) + [
        line(paper_id=f"q{n}", pub_year=2000, author_ids=["a", f"q{n}_b"],
             citing_years=sorted(2000 + k % 10 for k in range(n)))
        for n in [*range(64), 2000]
    ]
    decoded = []
    decode = corpus_module._decode

    def recording_decode(text):
        decoded.append(text)
        return decode(text)

    # Windows past the 10 years counted per year count every event.
    for window_count in range(1, 13):
        def read():
            return [ingest_corpus(lines, window_count=window_count),
                    ingest_corpus(lines, authors=["a"], window_count=window_count)]

        with mock.patch.object(corpus_module, "_recognized", declined):
            expected = read()
        with mock.patch.object(corpus_module, "_decode", recording_decode):
            assert read() == expected
    assert decoded == []
    assert expected[1].groups["a"][-1].counts == (*range(200, 2001, 200), 2000, 2000)


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
    events = sorted([pub_year + k for k in offsets] + ([1 + 10**9] if far else []))
    record = {"paper_id": paper_id, "pub_year": pub_year}
    if authors:
        record["author_ids"] = authors
    else:
        record["author_count"] = count
    record["citing_years"] = events
    assert written(record) == json.dumps(record, ensure_ascii=False)


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
    points = ingest_corpus(["", entry, "   ", ""])
    assert len(points) == 1


def fixture_record(author_id, window_count=5):
    listed = ingest_corpus(FIXTURE, authors=[author_id], window_count=window_count)
    return build_author_record(author_id, listed.groups[author_id])


def test_build_author_record_windows_citations():
    carol = fixture_record("carol")
    assert (carol.first_year, carol.last_year) == (1995, 1999)
    assert [p.counts[carol.last_year - p.pub_year] for p in carol.papers] == [
        100, 25, 25, 0
    ]
    # dave shares carol's 1995 paper, so his window starts in 1995 and the
    # 2005 solo paper falls outside it
    dave = fixture_record("dave")
    assert dave.first_year == 1995
    assert [p.paper_id for p in dave.papers] == ["pC1", "pC4"]


def test_build_author_record_window_length():
    short = fixture_record("carol", window_count=3)
    # window 1995-1997, the 3 years the rows count: pC4 (1999) drops out,
    # citations cut at 1997
    assert (short.first_year, short.last_year) == (1995, 1997)
    assert [p.paper_id for p in short.papers] == ["pC1", "pC2", "pC3"]
    assert [p.counts[short.last_year - p.pub_year] for p in short.papers] == [
        75, 18, 9
    ]


def test_unknown_author():
    with pytest.raises(UnknownAuthorError) as err:
        fixture_record("nobody")
    assert str(err.value) == "author 'nobody' not found in corpus"


def test_author_record_validation():
    with pytest.raises(ValueError, match="no papers"):
        AuthorRecord(author_id="a", first_year=2000, papers=())
    outside = paper_windows("p", 2005, 1)
    with pytest.raises(ValueError) as err:
        AuthorRecord(author_id="a", first_year=2000, papers=(outside,))
    assert str(err.value) == "author a: paper p published 2005, outside 2000..2004"
    assert AuthorRecord("a", 2000, (paper_windows("p", 2004, 1),)).last_year == 2004


def test_author_record_papers_count_one_window():
    papers = (paper_windows("p5", 2000, 1), paper_windows("p3", 2001, 1, (), 3))
    with pytest.raises(ValueError) as err:
        AuthorRecord("a", 2000, papers)
    assert str(err.value) == "author a: paper p3 counts 3 years, not 5"


def test_build_author_record_takes_the_window_of_its_first_paper():
    # The earliest paper sets the window, wherever it stands in the group, so
    # it is always kept: "late" falls within its 10 years but counts 5, and
    # the record, which also takes its W from its earliest paper, names that.
    papers = [PaperWindows("late", 2006, 1, (1,) * 5),
              PaperWindows("early", 2000, 1, (1,) * 10)]
    with pytest.raises(ValueError) as err:
        build_author_record("x", papers)
    assert str(err.value) == "author x: paper late counts 5 years, not 10"


def make_record(author_counts, first_year=1995):
    papers = tuple(
        paper_windows(f"p{i}", first_year, a) for i, a in enumerate(author_counts)
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
