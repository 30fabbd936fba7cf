"""Publication corpus: JSONL ingestion, per-author records, cohort filters.

A corpus is a set of papers, each carrying its publication year, its author
list (or just an author count), and the years of its citation events. A
paper is read as its citations within each of its first W years, W set by
``ingest_corpus(window_count=W)``; author records keep a researcher's papers
from the first W calendar years of their publishing career.
"""

from __future__ import annotations

import io
import json
import re
import sys
from bisect import bisect_right
from collections import abc
from dataclasses import dataclass, fields, is_dataclass
from functools import lru_cache
from itertools import accumulate, islice
from operator import attrgetter, mul
from pathlib import Path
from typing import (
    IO,
    TYPE_CHECKING,
    Any,
    Iterable,
    Sequence,
    get_args,
    get_origin,
    get_type_hints,
)

if TYPE_CHECKING:
    from hashlib import _Hash


class CorpusFormatError(ValueError):
    """Raised for malformed or inconsistent corpus input lines."""


class UnknownAuthorError(LookupError):
    """Raised when an author id is not present in the corpus."""


# float() of a number within +-_FLOAT_MAX cannot overflow.
_FLOAT_MAX = sys.float_info.max


def _finite(value: object) -> bool:
    """An int or float, not a bool, within float range: float() cannot overflow."""
    # A comparison, unlike math.isfinite, cannot overflow on a huge int.
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and -_FLOAT_MAX <= value <= _FLOAT_MAX
    )


def decode_typed(kind: type, text: str, what: str) -> Any:
    """A ``kind`` dataclass from JSON text, each value typed by its field's hint.

    Errors name the field, as in ``window_fits['1'].slope must be a finite
    number``, or the document, ``what``, when it is not a JSON object. A key
    that names no field is an error too, at every level.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError(f"{what} must be a JSON object")
    return _typed_fields(kind, payload, what, "")


def _typed_fields(kind: type, payload: dict, owner: str, prefix: str) -> Any:
    types = get_type_hints(kind)
    values = {}
    for f in fields(kind):
        if f.name not in payload:
            raise ValueError(f"{owner} is missing required field: {f.name}")
        values[f.name] = _typed(prefix + f.name, types[f.name], payload[f.name])
    if len(values) < len(payload):
        unknown = next(key for key in payload if key not in values)
        raise ValueError(f"{owner} has unknown field: {unknown!r}")
    return kind(**values)


def _typed(name: str, kind: object, value: object) -> object:
    """A JSON value as the type `kind`; ints pass as floats, bools never."""
    args = get_args(kind)
    if get_origin(kind) is tuple:
        if not isinstance(value, list) or len(value) != len(args):
            raise ValueError(f"{name} must be a {len(args)}-element list")
        return tuple(
            _typed(f"{name}[{i}]", k, v) for i, (k, v) in enumerate(zip(args, value))
        )
    if is_dataclass(kind) or get_origin(kind) in (dict, abc.Mapping):
        if not isinstance(value, dict):
            raise ValueError(f"{name} must be an object")
        if is_dataclass(kind):
            return _typed_fields(kind, value, name, f"{name}.")
        typed = {}
        for raw, v in value.items():
            try:
                key = int(raw)
            except ValueError:
                key = None
            # One spelling per integer: int() also reads "01", " 1", "+1" and
            # "1_0", which would silently collide with "1".
            if key is None or str(key) != raw:
                raise ValueError(f"{name} keys must be integers, got {raw!r}")
            typed[key] = _typed(f"{name}[{raw!r}]", args[1], v)
        return typed
    # The finite check comes first: float() of a huge int overflows.
    if type(value) is int or (kind is float and type(value) is float):
        if kind is float and not _finite(value):
            raise ValueError(f"{name} must be a finite number")
        return kind(value)
    noun = "a number" if kind is float else "an integer"
    raise ValueError(f"{name} must be {noun}, got {value!r}")


class _HashingFile(io.RawIOBase):
    """An unbuffered binary file that feeds every block read or written to a hash."""

    def __init__(self, file: io.RawIOBase, digest: _Hash) -> None:
        self._file = file
        self._digest = digest

    def readable(self) -> bool:
        return self._file.readable()

    def writable(self) -> bool:
        return self._file.writable()

    def readinto(self, buffer: memoryview) -> int:
        n = self._file.readinto(buffer)
        self._digest.update(buffer[:n])
        return n

    def write(self, data: memoryview) -> int:
        n = self._file.write(data)
        self._digest.update(data[:n])
        return n

    def close(self) -> None:
        self._file.close()
        super().close()


def open_text(
    path: str | Path, mode: str = "r", digest: _Hash | None = None
) -> IO[str]:
    """``path`` as UTF-8 text, read ("r") or written ("w") in one pass.

    Reading decodes as open(path, encoding="utf-8") does, universal newlines
    and errors included; writing translates no newline. With a ``digest``
    (a hashlib object), each block of bytes read or written also updates
    it, so a file read to its end or closed after writing is hashed whole.
    """
    newline = "" if mode == "w" else None
    if digest is None:
        return open(path, mode, encoding="utf-8", newline=newline)
    raw = _HashingFile(open(path, mode + "b", buffering=0), digest)
    buffered = io.BufferedWriter(raw) if mode == "w" else io.BufferedReader(raw)
    return io.TextIOWrapper(buffered, encoding="utf-8", newline=newline)


# The characters that split a table row: no author id may hold one.
_BREAKS = frozenset("\t\r\n")


@dataclass(frozen=True)
class AuthorRecord:
    """An author's papers from their first W publishing years, W = len(counts)."""

    author_id: str
    first_year: int
    papers: tuple[PaperWindows, ...]

    def __post_init__(self) -> None:
        if not self.papers:
            raise ValueError(f"author {self.author_id}: record has no papers")
        window = len(min(self.papers, key=attrgetter("pub_year")).counts)
        last_year = self.first_year + window - 1
        for p in self.papers:
            if len(p.counts) != window:
                raise ValueError(
                    f"author {self.author_id}: paper {p.paper_id} counts "
                    f"{len(p.counts)} years, not {window}"
                )
            if not self.first_year <= p.pub_year <= last_year:
                raise ValueError(
                    f"author {self.author_id}: paper {p.paper_id} published "
                    f"{p.pub_year}, outside {self.first_year}..{last_year}"
                )

    @property
    def last_year(self) -> int:
        """The last calendar year of the window, inclusive."""
        return self.first_year + len(self.papers[0].counts) - 1

    @property
    def mean_coauthors(self) -> float:
        """Mean number of co-authors per paper, mean(a_i - 1)."""
        return sum(p.author_count - 1 for p in self.papers) / len(self.papers)


@dataclass(frozen=True)
class FilterSpec:
    """Cohort eligibility bounds. Co-author bounds are strict inequalities."""

    mean_coauthors_min: float = 1.0
    mean_coauthors_max: float = 4.0
    max_start_year: int | None = None
    hard_mean_coauthor_cap: float | None = None

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None and not _finite(value):
                raise ValueError(f"{f.name} must be a finite number")
        if self.mean_coauthors_min >= self.mean_coauthors_max:
            raise ValueError(
                "mean_coauthors_min must be less than mean_coauthors_max"
            )

    def admits(self, record: AuthorRecord) -> bool:
        mean = record.mean_coauthors
        if not self.mean_coauthors_min < mean < self.mean_coauthors_max:
            return False
        if self.max_start_year is not None and record.first_year > self.max_start_year:
            return False
        if self.hard_mean_coauthor_cap is not None and mean >= self.hard_mean_coauthor_cap:
            return False
        return True


@dataclass(frozen=True)
class WindowPoints:
    """Fit points column-wise: ``pub_year[i]`` is paper i's publication year
    and ``windows[w - 1][i]`` its citations within its first w years, the
    publication year counted as year one.

    ``ingest_corpus(source, window_count=W)`` reads them from the corpus
    lines. Columns are lists of ints; a year is one shared int per distinct
    year. ``len()`` counts papers.
    """

    pub_year: Sequence[int]
    windows: tuple[Sequence[int], ...]

    def __post_init__(self) -> None:
        if not self.windows:
            raise ValueError("points need window counts for at least w=1")
        if any(len(column) != len(self.pub_year) for column in self.windows):
            raise ValueError("window counts must number one per paper in every window")

    def __len__(self) -> int:
        return len(self.pub_year)


# Not frozen: a frozen dataclass's __init__ sets each field through
# object.__setattr__, about three times the cost, once per listed line.
@dataclass(slots=True)
class PaperWindows:
    """A paper as ``indicators`` reads it from its corpus line: ``counts[k]``
    of its citations fall within its first k + 1 years, the publication year
    counted as year one.

    An AuthorRecord's papers all count its W years: a paper's citations
    through the record's last year are ``counts[last_year - pub_year]``.
    """

    paper_id: str
    pub_year: int
    author_count: int
    counts: tuple[int, ...]


@dataclass(frozen=True)
class ListedPapers:
    """Authors' papers, read from corpus lines: ``groups`` maps each author
    to the papers whose author_ids name them, in line order. Listed authors
    are grouped in listed order, one that no line names with an empty list;
    with EVERY_AUTHOR, each author some line names is grouped, in id order.
    ``len()`` counts distinct papers, each held once however many grouped
    authors share it.
    """

    groups: dict[str, list[PaperWindows]]
    paper_count: int

    def __len__(self) -> int:
        return self.paper_count


# Built once: json.loads re-scans whitespace a stripped line does not have.
_decode = json.JSONDecoder().raw_decode
# A JSON string literal, non-ASCII characters kept, as ensure_ascii=False writes.
_quote = json.encoder.encode_basestring

# _paper_line writes the event list last, after this key.
_EVENTS_KEY = ', "citing_years": ['
# A line as _paper_line writes it with author_ids, up to its event list. Each
# capture is its field's JSON value: strings hold no escape and no control
# character (JSON rejects one unescaped), the year has four digits, and each
# id, as _read_record requires, has no whitespace at either end (\s matches
# what str.strip() removes) and no leading '#'.
_ID = r'"(?![\s#])[^"\\\x00-\x1f]+(?<!\s)"'
_HEAD = re.compile(
    rf'\{{"paper_id": ("[^"\\\x00-\x1f]+"), "pub_year": ([1-9][0-9]{{3}}), '
    rf'"author_ids": \[({_ID}(?:, {_ID})*)\]{re.escape(_EVENTS_KEY)}'
)


@lru_cache(maxsize=256)
def _span(year: str) -> tuple[int, tuple[str, ...], str]:
    """A four-digit pub_year's int, then the slots of the 10 years from it,
    each its text and ", ", and their last digits. In 10 years a digit names
    each year; generate cites within 5, so its lines are recognized for any
    --windows. A corpus spans a few dozen years: the cache stays small."""
    pub_year = int(year)
    slots = tuple(map("{}, ".format, range(pub_year, pub_year + 10)))
    return pub_year, slots, "".join(slots)[3::6]


def _event_list(slots: Iterable[str], per_year: Iterable[int]) -> str:
    """Each year's slot repeated by its event count, less the last ", "."""
    return "".join(map(mul, slots, per_year))[:-2]


def _recognized(text: str) -> tuple[str, int, list[str], list[int]] | None:
    """paper_id, pub_year, author_ids and the events in each year from
    pub_year through the last event's, if _paper_line wrote the line with
    author_ids that _read_record accepts and every event within 10 years of
    pub_year; else None. It never raises: _read_record reads what it declines.

    A year's slot ends in its last digit and ", ", so one count per digit
    gives counts that must write back as the line's event list: that proves
    them, and that no event precedes pub_year.
    """
    head = _HEAD.match(text)
    if head is None or not text.endswith("]}"):
        return None
    paper_id, year, ids = head.groups()
    author_ids = ids[1:-1].split('", "')
    if len(set(author_ids)) < len(author_ids):
        return None
    pub_year, slots, digits = _span(year)
    events = text[head.end() : -2]
    through = digits.find(events[-1:]) + 1
    per_year = list(map(events[3::6].count, digits[:through]))
    if _event_list(slots, per_year) != events:
        return None
    return paper_id[1:-1], pub_year, author_ids, per_year


def _read_line(
    text: str, window_count: int
) -> tuple[str, int, int, list[str] | None, list[int]]:
    """A checked corpus line: paper_id, pub_year, author_count, author_ids
    or None, and ``counts``: ``counts[k]`` of its citations fall within its
    first k + 1 years, for k < window_count. A line _recognized reads is
    counted per year; any other is decoded and checked by _read_record.
    """
    recognized = _recognized(text)
    if recognized is None:
        paper_id, pub_year, author_count, author_ids, years = _read_record(text)
        counts = [bisect_right(years, pub_year + k) for k in range(window_count)]
        return paper_id, pub_year, author_count, author_ids, counts
    paper_id, pub_year, author_ids, per_year = recognized
    counts = list(accumulate(per_year[:window_count]))
    # No event falls after the years counted: later windows count them all.
    counts += counts[-1:] * (window_count - len(counts))
    return paper_id, pub_year, len(author_ids), author_ids, counts


def _read_record(text: str) -> tuple[str, int, int, list[str] | None, list[int]]:
    """_read_line's fields from a JSON record, checked: its shape, then each
    field, with its events, sorted, in place of counts. author_count
    defaults to the number of author_ids.

    A line writes ids as JSON strings and numbers with int.__repr__, which
    writes a bool as 0 or 1, so each must be of exactly that type. The bound
    keeps float(pub_year), as in fit and E(c), from overflowing. An author
    id is listed one per line by --authors, which strips each line and skips
    '#' lines, and heads a table row, split at tabs and line breaks: it may
    hold no tab, CR or LF, no whitespace at either end, and no leading '#'.
    """
    try:
        record, end = _decode(text)
    except json.JSONDecodeError as exc:
        # U+FEFF is not whitespace, so strip() leaves a byte-order mark.
        reason = exc.msg
        if text.startswith("\ufeff"):
            reason = "starts with a UTF-8 byte-order mark"
        raise ValueError(f"invalid JSON ({reason})") from exc
    if end != len(text):
        raise ValueError("invalid JSON (Extra data)")
    if not isinstance(record, dict):
        raise ValueError("record is not an object")
    for key in ("paper_id", "pub_year"):
        if key not in record:
            raise ValueError(f"missing field {key!r}")
    author_ids = record.get("author_ids")
    author_count = record.get("author_count")
    if author_ids is None and author_count is None:
        raise ValueError("one of author_ids or author_count is required")
    if author_ids is not None:
        if type(author_ids) is not list:
            raise ValueError("author_ids must be a list")
        if author_count is None:
            author_count = len(author_ids)
    citing = record.get("citing_years", [])
    if type(citing) is not list:
        raise ValueError("citing_years must be a list")
    paper_id, pub_year = record["paper_id"], record["pub_year"]
    if type(paper_id) is not str or not paper_id:
        raise ValueError("paper_id must be a non-empty string")
    if type(pub_year) is not int:
        raise ValueError(f"paper {paper_id}: pub_year must be an integer")
    if not -_FLOAT_MAX <= pub_year <= _FLOAT_MAX:
        raise ValueError(f"paper {paper_id}: pub_year is beyond float range")
    if type(author_count) is not int or author_count < 1:
        raise ValueError(f"paper {paper_id}: author_count must be an integer >= 1")
    if author_ids is not None:
        if not {str}.issuperset(map(type, author_ids)) or "" in author_ids:
            raise ValueError(f"paper {paper_id}: author_ids must be non-empty strings")
        joined = "".join(author_ids)
        if (
            "\t" in joined or "\r" in joined or "\n" in joined
            or list(map(str.strip, author_ids)) != author_ids
        ):
            bad = next(
                a for a in author_ids if a.strip() != a or not _BREAKS.isdisjoint(a)
            )
            raise ValueError(
                f"paper {paper_id}: author id {bad!r} holds a tab or line "
                "break, or starts or ends with whitespace"
            )
        bad = "#" in joined and next((a for a in author_ids if a[0] == "#"), "")
        if bad:
            raise ValueError(
                f"paper {paper_id}: author id {bad!r} starts with '#', which "
                "an --authors list reads as a comment"
            )
        if len(author_ids) != author_count:
            raise ValueError(
                f"paper {paper_id}: author_count {author_count} does not "
                f"match {len(author_ids)} author ids"
            )
        if len(set(author_ids)) < author_count:
            repeated = next(a for i, a in enumerate(author_ids) if a in author_ids[:i])
            raise ValueError(
                f"paper {paper_id}: author id {repeated!r} is listed twice"
            )
    if not {int}.issuperset(map(type, citing)):
        raise ValueError(f"paper {paper_id}: citing_years must be integers")
    years = sorted(citing)
    if years and years[0] < pub_year:
        raise ValueError(
            f"paper {paper_id}: citing year {years[0]} precedes "
            f"publication year {pub_year}"
        )
    return paper_id, pub_year, author_count, author_ids, years


class _EveryAuthor:
    """The type of EVERY_AUTHOR."""

    def __repr__(self) -> str:
        return "EVERY_AUTHOR"


# ``ingest_corpus(source, authors=EVERY_AUTHOR)`` groups every author a line names.
EVERY_AUTHOR = _EveryAuthor()


def ingest_corpus(
    source: str | Path | Iterable[str],
    digest: _Hash | None = None,
    authors: Iterable[str] | _EveryAuthor | None = None,
    window_count: int = 5,
) -> WindowPoints | ListedPapers:
    """Parse line-delimited JSON paper records into their WindowPoints, or
    the ListedPapers of some authors or of all.

    Each non-empty line is one record with paper_id, pub_year, citing_years,
    and at least one of author_ids / author_count (when both, they must
    agree). Errors report the 1-based line number. A file ``source`` is read
    once; ``digest``, if given, is updated with its bytes as they are read.
    Each line gives the citations within each of the first ``window_count``
    years of its paper, counted per year if _paper_line wrote it as
    _read_line recognizes, else decoded. Without ``authors`` that is the
    WindowPoints of every line, in line order. With ``authors``, it is the
    ListedPapers of those authors, or with EVERY_AUTHOR of each author a
    line names: a PaperWindows of those counts for each line whose
    author_ids name one of them. Every line is still checked in full, and
    paper_ids must still differ across all lines.
    """
    if window_count < 1:
        raise ValueError("window_count must be >= 1")
    if isinstance(source, (str, Path)):
        with open_text(source, digest=digest) as handle:
            return ingest_corpus(handle, authors=authors, window_count=window_count)
    every = authors is EVERY_AUTHOR
    groups = None if authors is None else {} if every else {a: [] for a in authors}
    paper_count = 0
    seen: set[str] = set()
    # Each pub_year of a window point or a PaperWindows becomes the equal int
    # object already in ``ints``, or is added to it, so they share one int
    # per year.
    ints: dict[int, int] = {}
    pub_years: list[int] = []
    # Every line's window counts, one line after the other.
    window_counts: list[int] = []
    for lineno, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            paper_id, pub_year, author_count, author_ids, counts = _read_line(
                line, window_count
            )
            if paper_id in seen:
                raise ValueError(f"duplicate paper_id {paper_id!r}")
        except ValueError as exc:
            raise CorpusFormatError(f"line {lineno}: {exc}") from exc
        seen.add(paper_id)
        if groups is None:
            pub_years.append(ints.setdefault(pub_year, pub_year))
            window_counts += counts
            continue
        if author_ids is None or not every and groups.keys().isdisjoint(author_ids):
            continue
        pub_year = ints.setdefault(pub_year, pub_year)
        paper = PaperWindows(paper_id, pub_year, author_count, tuple(counts))
        paper_count += 1
        for author_id in author_ids:
            group = groups.get(author_id)
            if group is not None:
                group.append(paper)
            elif every:
                groups[author_id] = [paper]
    if groups is None:
        windows = tuple(window_counts[k :: window_count] for k in range(window_count))
        return WindowPoints(pub_years, windows)
    return ListedPapers(dict(sorted(groups.items())) if every else groups, paper_count)


def _paper_line(
    paper_id: str,
    pub_year: int,
    author_count: int,
    author_ids: Sequence[str] | None,
    years: Iterable[int],
    per_year: Iterable[int],
) -> str:
    """One paper's line in the ingestion format: ``per_year[i]`` citation
    events fall in ``years[i]``, and a year with none is left out. The
    fields are written as given; whoever reads the line checks them.

    The line is json.dumps(record, ensure_ascii=False) of the fields, written
    with the functions that JSON encoder applies to strings and ints, events
    last.
    """
    if author_ids is None:
        authors = f'"author_count": {int.__repr__(author_count)}'
    else:
        authors = f'"author_ids": [{", ".join(map(_quote, author_ids))}]'
    return (
        f'{{"paper_id": {_quote(paper_id)}, '
        f'"pub_year": {int.__repr__(pub_year)}, '
        f"{authors}{_EVENTS_KEY}{_event_list(map('{}, '.format, years), per_year)}]}}"
    )


# Lines written per write: a few hundred KB of text on citation-dense corpora.
_RENDER_BATCH = 256


def render_corpus(lines: Iterable[str], out: IO[str]) -> int:
    """Write corpus lines to ``out``, each ended by a newline; return how
    many were written.

    Lines are written in batches, as they are drawn from ``lines``, so
    neither the whole text nor, from an iterator, every line is held at once.
    """
    lines = iter(lines)
    written = 0
    while batch := list(islice(lines, _RENDER_BATCH)):
        out.write("\n".join(batch) + "\n")
        written += len(batch)
    return written


def build_author_record(author_id: str, papers: Sequence[PaperWindows]) -> AuthorRecord:
    """Restrict an author's papers and citations to their first window.

    ``papers`` are the author's papers, as ListedPapers groups them; the
    record keeps the papers published within the window, in their order.
    The window starts with the calendar year of the author's first paper and
    spans W = len(counts) years inclusive, as ingest_corpus counted them.
    """
    if not papers:
        raise UnknownAuthorError(f"author {author_id!r} not found in corpus")
    first = min(papers, key=attrgetter("pub_year"))
    last_year = first.pub_year + len(first.counts) - 1
    kept = tuple(p for p in papers if p.pub_year <= last_year)
    return AuthorRecord(author_id, first.pub_year, kept)


def filter_cohort(
    records: Iterable[AuthorRecord], spec: FilterSpec
) -> list[AuthorRecord]:
    """Keep records admitted by the filter spec, preserving order."""
    return [r for r in records if spec.admits(r)]
