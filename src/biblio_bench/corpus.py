"""Publication corpus: JSONL ingestion, per-author records, cohort filters.

A corpus is a set of papers, each carrying its publication year, its author
list (or just an author count), and its citation events counted per citing
year.
Author records restrict a researcher's papers and citations to the first
``window_years`` calendar years of their publishing career.
"""

from __future__ import annotations

import io
import json
import sys
from bisect import bisect_right
from collections import abc
from dataclasses import dataclass, field, fields, is_dataclass
from itertools import accumulate, chain, compress, islice, repeat
from operator import mul, sub
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


def _per_year(citing_years: list[int] | dict[int, int]) -> tuple[list[int], list[int]]:
    """Distinct citing years, ascending, and the events through each, from
    citing years as _check_paper returns them."""
    if isinstance(citing_years, dict):
        years = sorted(compress(citing_years, citing_years.values()))
        return years, list(accumulate(map(citing_years.__getitem__, years)))
    years, counts, end = [], [], 0
    while end < len(citing_years):  # one step per distinct year, not per event
        years.append(citing_years[end])
        end = bisect_right(citing_years, citing_years[end], end)
        counts.append(end)
    return years, counts


def _check_paper(
    paper_id: str,
    pub_year: int,
    author_count: int,
    author_ids: Sequence[str] | None,
    citing_years: Sequence[int] | dict[int, int],
) -> list[int] | dict[int, int]:
    """Check every field of a paper, for Paper(...) and each corpus line
    alike; return its citing years for _per_year: the events sorted, or the
    {year: events} given.

    A line writes ids as JSON strings and numbers with int.__repr__, which
    writes a bool as 0 or 1, so each must be of exactly that type. The bound
    keeps float(pub_year), as in fit and E(c), from overflowing.
    """
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
    if isinstance(citing_years, dict):
        counts = citing_years.values()
        if not {int}.issuperset(map(type, chain(citing_years, counts))):
            raise ValueError(
                f"paper {paper_id}: citing years and counts must be integers"
            )
        if citing_years and min(counts) < 0:
            year, n = next((y, n) for y, n in citing_years.items() if n < 0)
            raise ValueError(
                f"paper {paper_id}: citing year {year} has a negative count, {n}"
            )
        # A year with a zero count is checked too, though it is dropped.
        first = min(citing_years) if citing_years else pub_year
    else:
        if not {int}.issuperset(map(type, citing_years)):
            raise ValueError(f"paper {paper_id}: citing_years must be integers")
        citing_years = sorted(citing_years)
        first = citing_years[0] if citing_years else pub_year
    if first < pub_year:
        raise ValueError(
            f"paper {paper_id}: citing year {first} precedes "
            f"publication year {pub_year}"
        )
    return citing_years


@dataclass(frozen=True, slots=True, init=False)
class Paper:
    """One publication; ``counts[i]`` of its citations fall in ``years[i]`` or before.

    ``years`` are the distinct citing years, ascending, so storage grows with
    distinct years, not with events, and equal event multisets compare equal.
    """

    paper_id: str
    pub_year: int
    author_count: int
    years: tuple[int, ...]
    counts: tuple[int, ...]
    author_ids: tuple[str, ...] | None

    def __init__(
        self,
        paper_id: str,
        pub_year: int,
        author_count: int,
        citing_years: Sequence[int] | dict[int, int] = (),
        author_ids: Sequence[str] | None = None,
    ) -> None:
        """``citing_years``: each event's year, or {year: events} as in a
        Counter, where a zero count is dropped and a negative one rejected;
        any other iterable or mapping is read as these are, but bytes are not
        years. ``author_ids`` are kept as a tuple; a string or a mapping is
        not a sequence of ids, though iterating it gives strings."""
        if author_ids is not None:
            # A list or tuple skips the isinstance test, slow against an ABC.
            if type(author_ids) not in (list, tuple) and isinstance(
                author_ids, (str, abc.Mapping)
            ):
                kind = "a string" if isinstance(author_ids, str) else "a mapping"
                raise ValueError(f"paper {paper_id}: author_ids must not be {kind}")
            author_ids = tuple(author_ids)
        if not isinstance(citing_years, dict):  # the checks read it twice
            if isinstance(citing_years, (bytes, bytearray, memoryview)):
                raise ValueError(
                    f"paper {paper_id}: citing_years must not be "
                    f"{type(citing_years).__name__}"
                )
            kind = dict if isinstance(citing_years, abc.Mapping) else list
            citing_years = kind(citing_years)
        events = _check_paper(
            paper_id, pub_year, author_count, author_ids, citing_years
        )
        self._fill(paper_id, pub_year, author_count, *_per_year(events), author_ids)

    def _fill(
        self,
        paper_id: str,
        pub_year: int,
        author_count: int,
        years: list[int],
        counts: list[int],
        author_ids: tuple[str, ...] | None,
    ) -> None:
        """Set every field, as _check_paper and _per_year return them."""
        set_id, set_year, set_count, set_years, set_counts, set_ids = _PAPER_SETTERS
        set_id(self, paper_id)
        set_year(self, pub_year)
        set_count(self, author_count)
        set_years(self, tuple(years))
        set_counts(self, tuple(counts))
        set_ids(self, author_ids)

    @property
    def citing_years(self) -> tuple[int, ...]:
        """Every event's citing year, ascending, rebuilt from the counts."""
        per_year = map(sub, self.counts, (0, *self.counts))
        return tuple(chain.from_iterable(map(repeat, self.years, per_year)))

    def citations_through(self, last_year: int) -> int:
        """Number of citation events with citing year <= last_year."""
        index = bisect_right(self.years, last_year)
        return self.counts[index - 1] if index else 0


# Each field's slot setter, in field order: it sets a frozen field without
# the attribute lookup object.__setattr__ makes.
_PAPER_SETTERS = tuple(Paper.__dict__[f.name].__set__ for f in fields(Paper))


@dataclass(frozen=True)
class AuthorRecord:
    """An author's papers published within their first publishing years:
    Papers from a Corpus, or PaperWindows read from corpus lines."""

    author_id: str
    first_year: int
    papers: tuple[Paper | PaperWindows, ...]
    window_years: int = 5

    def __post_init__(self) -> None:
        if not self.papers:
            raise ValueError(f"author {self.author_id}: record has no papers")
        for p in self.papers:
            if not self.first_year <= p.pub_year <= self.last_year:
                raise ValueError(
                    f"author {self.author_id}: paper {p.paper_id} published "
                    f"{p.pub_year}, outside {self.first_year}..{self.last_year}"
                )

    @property
    def last_year(self) -> int:
        """The last calendar year of the window, inclusive."""
        return self.first_year + self.window_years - 1

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


@dataclass
class Corpus:
    """All papers, by paper id, in the order they were added."""

    papers: dict[str, Paper] = field(default_factory=dict)

    @classmethod
    def from_papers(cls, papers: Iterable[Paper]) -> Corpus:
        corpus = cls()
        for paper in papers:
            if paper.paper_id in corpus.papers:
                raise CorpusFormatError(f"duplicate paper_id {paper.paper_id!r}")
            corpus.papers[paper.paper_id] = paper
        return corpus

    def __len__(self) -> int:
        return len(self.papers)

    def papers_by_author(
        self, author_ids: Iterable[str] | None = None
    ) -> dict[str, list[Paper]]:
        """Each author's papers in corpus order, grouped in one pass.

        Only the listed ``author_ids`` are grouped, in their order; one that
        no paper names gets an empty list. Without them, every author some
        paper names is grouped, in sorted order.
        """
        everyone = author_ids is None
        groups: dict[str, list[Paper]] = (
            {} if everyone else {author_id: [] for author_id in author_ids}
        )
        for paper in self.papers.values():
            for author_id in paper.author_ids or ():
                papers = groups.get(author_id)
                if papers is not None:
                    papers.append(paper)
                elif everyone:
                    groups[author_id] = [paper]
        return dict(sorted(groups.items())) if everyone else groups


@dataclass(frozen=True)
class WindowPoints:
    """Fit points column-wise: ``pub_year[i]`` is paper i's publication year
    and ``windows[w - 1][i]`` its citations within its first w years, the
    publication year counted as year one.

    ``ingest_corpus(source, window_count=W)`` reads them straight from the
    corpus lines, and ``collect_window_points`` from a Corpus. Columns are
    lists of ints; a year is one shared int per distinct year. ``len()``
    counts papers.
    """

    pub_year: Sequence[int]
    windows: tuple[Sequence[int], ...]

    def __post_init__(self) -> None:
        if any(len(column) != len(self.pub_year) for column in self.windows):
            raise ValueError("window counts must number one per paper in every window")

    def __len__(self) -> int:
        return len(self.pub_year)


# Not frozen: a frozen dataclass's __init__ sets each field through
# object.__setattr__, about three times the cost, once per listed line.
@dataclass(slots=True)
class PaperWindows:
    """A paper as ``indicators --authors`` reads it from its corpus line:
    ``counts[k]`` of its citations fall within its first k + 1 years, the
    publication year counted as year one.

    An AuthorRecord reads it as it reads a Paper, through ``paper_id``,
    ``pub_year``, ``author_count`` and ``citations_through``, for a record
    whose window is no longer than ``len(counts)`` years.
    """

    paper_id: str
    pub_year: int
    author_count: int
    counts: tuple[int, ...]

    def citations_through(self, last_year: int) -> int:
        """Number of citation events with citing year <= last_year, which
        may not lie past the paper's last window year."""
        k = last_year - self.pub_year
        if k >= len(self.counts):
            raise ValueError(
                f"paper {self.paper_id}: citations are counted through "
                f"{self.pub_year + len(self.counts) - 1}, not {last_year}"
            )
        return self.counts[k] if k >= 0 else 0


@dataclass(frozen=True)
class ListedPapers:
    """Listed authors' papers, read from corpus lines: ``groups`` maps each
    author, in listed order, to the papers whose author_ids name them, in
    line order, and an author no line names to an empty list. ``len()``
    counts distinct papers, each held once however many listed authors
    share it.
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
# On a 2-vCPU VM (CPython 3.11) a JSON int costs about 0.15 us to decode and
# check. Reading a list per year costs about 9 us per line over a line with no
# events, plus 0.5 us per year spanned, and nothing per event above noise. So
# it takes lists of >= 64 events (4 digits each, ", " between) over <= 10 years.
_DENSE_MIN_CHARS = 64 * 6 - 2
_DENSE_MAX_YEARS = 10
_DIGITS = "0123456789" * 2


def _event_list(years: Iterable[int], per_year: Iterable[int]) -> str:
    """Each year's text repeated by its event count, joined by ", "."""
    return "".join(map(mul, map("{}, ".format, years), per_year))[:-2]


def _split_rendered(text: str) -> tuple[str, dict[int, int]] | None:
    """The record text without its events, and {year: events}, if the line
    ends in an event list exactly as _event_list writes it; else None.

    Within 10 years a year is named by its last digit, the fourth character
    of its slot, so one count per year gives counts that must write back.
    """
    if not text.endswith("]}"):
        return None
    cut = text.rfind(_EVENTS_KEY)
    events = text[cut + len(_EVENTS_KEY) : -2]
    if cut <= 0 or len(events) < _DENSE_MIN_CHARS:
        return None
    try:
        first, last = int(events[:4]), int(events[-4:])
    except ValueError:
        return None
    if not 1000 <= first <= last < min(first + _DENSE_MAX_YEARS, 10000):
        return None
    years = range(first, last + 1)
    counts = list(map(events[3::6].count, _DIGITS[first % 10 :][: len(years)]))
    if _event_list(years, counts) != events:
        return None
    return text[:cut] + "}", dict(zip(years, counts))


def _parse_line(text: str) -> tuple[Any, Any, Any, Any, Any]:
    """One record's fields, decoded but not checked: paper_id, pub_year,
    author_count, author_ids or None, and the citing years.

    A line ending in an event list as _paper_line writes it is read
    per year: its record without the list, plus {year: events} from the
    list's counts. If that fails, the whole line is decoded, with the
    general path's results.
    """
    rendered = len(text) > _DENSE_MIN_CHARS and _split_rendered(text)
    if rendered:
        try:
            paper_id, pub_year, author_count, author_ids, _ = _parse_record(rendered[0])
            return paper_id, pub_year, author_count, author_ids, rendered[1]
        except ValueError:
            pass
    return _parse_record(text)


def _parse_record(text: str) -> tuple[Any, Any, Any, Any, Any]:
    """_parse_line's fields from a JSON record: its shape is checked, its
    values are not. author_count defaults to the number of author_ids."""
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
    return record["paper_id"], record["pub_year"], author_count, author_ids, citing


def ingest_corpus(
    source: str | Path | Iterable[str],
    digest: _Hash | None = None,
    authors: Iterable[str] | None = None,
    window_count: int | None = None,
) -> Corpus | WindowPoints | ListedPapers:
    """Parse line-delimited JSON paper records into a Corpus, their
    WindowPoints, or the ListedPapers of some authors.

    Each non-empty line is one record with paper_id, pub_year, citing_years,
    and exactly one of author_ids / author_count (when both, they must
    agree). Errors report the 1-based line number. A file ``source`` is read
    once; ``digest``, if given, is updated with its bytes as they are read.
    With ``window_count`` W no Paper is built. Alone, it gives the
    WindowPoints of every line, in line order, with the citations within
    each of the first W years of the paper. With ``authors`` too, it gives
    the ListedPapers of those authors: a PaperWindows of those W counts for
    each line whose author_ids name one of them. Every line is still checked
    in full, and paper_ids must still differ across all lines.
    """
    if window_count is not None and window_count < 1:
        raise ValueError("window_count must be >= 1")
    if authors is not None and window_count is None:
        raise ValueError("authors needs a window_count")
    if isinstance(source, (str, Path)):
        with open_text(source, digest=digest) as handle:
            return ingest_corpus(handle, authors=authors, window_count=window_count)
    groups = None if authors is None else {author_id: [] for author_id in authors}
    paper_count = 0
    papers: dict[str, Paper] = {}
    unbuilt: set[str] = set()
    # Each year of a built Paper, a window point or a PaperWindows becomes
    # the equal int object already in ``ints``, or is added to it, so they
    # share one int per year.
    ints: dict[int, int] = {}
    pub_years: list[int] = []
    # Every line's W window counts, one line after the other.
    window_counts: list[int] = []
    offsets = range(window_count or 0)
    for lineno, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            paper_id, pub_year, author_count, author_ids, citing = _parse_line(line)
            events = _check_paper(paper_id, pub_year, author_count, author_ids, citing)
            if paper_id in papers or paper_id in unbuilt:
                raise ValueError(f"duplicate paper_id {paper_id!r}")
        except ValueError as exc:
            raise CorpusFormatError(f"line {lineno}: {exc}") from exc
        if offsets:
            unbuilt.add(paper_id)
            if groups is None:
                pub_years.append(ints.setdefault(pub_year, pub_year))
                counted = window_counts
            elif author_ids is None or groups.keys().isdisjoint(author_ids):
                continue
            else:
                counted = []
            # Window w ends with the year pub_year + w - 1. No event precedes
            # pub_year, so a per-year line sums its counts from pub_year on.
            if type(events) is dict:
                total = 0
                for k in offsets:
                    total += events.get(pub_year + k, 0)
                    counted.append(total)
            else:
                for k in offsets:
                    counted.append(bisect_right(events, pub_year + k))
            if groups is not None:
                paper = PaperWindows(
                    paper_id, ints.setdefault(pub_year, pub_year), author_count,
                    tuple(counted),
                )
                paper_count += 1
                for author_id in author_ids:
                    group = groups.get(author_id)
                    if group is not None:
                        group.append(paper)
            continue
        years, counts = _per_year(events)
        paper = Paper.__new__(Paper)
        paper._fill(
            paper_id,
            ints.setdefault(pub_year, pub_year),
            author_count,
            list(map(ints.setdefault, years, years)),
            counts,
            None if author_ids is None else tuple(author_ids),
        )
        papers[paper_id] = paper
    if groups is not None:
        return ListedPapers(groups, paper_count)
    if offsets:
        windows = tuple(window_counts[k :: len(offsets)] for k in offsets)
        return WindowPoints(pub_years, windows)
    return Corpus(papers)


def _paper_line(
    paper_id: str,
    pub_year: int,
    author_count: int,
    author_ids: Sequence[str] | None,
    years: Iterable[int],
    per_year: Iterable[int],
) -> str:
    """One paper's line in the ingestion format, from fields as _check_paper
    accepts them: ``per_year[i]`` citation events fall in ``years[i]``, and a
    year with none is left out.

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
        f"{authors}{_EVENTS_KEY}{_event_list(years, per_year)}]}}"
    )


def render_paper_line(paper: Paper) -> str:
    """Serialize one paper in the ingestion line format, as _paper_line does."""
    per_year = map(sub, paper.counts, (0, *paper.counts))
    return _paper_line(
        paper.paper_id, paper.pub_year, paper.author_count, paper.author_ids,
        paper.years, per_year,
    )


# Lines written per write: a few hundred KB of text on citation-dense corpora.
_RENDER_BATCH = 256


def render_corpus(lines: Iterable[str], out: IO[str]) -> int:
    """Write corpus lines to ``out``, each ended by a newline; return how
    many were written.

    Lines are written in batches, as they are drawn from ``lines``, so
    neither the whole text nor, from an iterator, every line is held at once.
    Papers held in memory are written as ``map(render_paper_line, papers)``.
    """
    lines = iter(lines)
    written = 0
    while batch := list(islice(lines, _RENDER_BATCH)):
        out.write("\n".join(batch) + "\n")
        written += len(batch)
    return written


def build_author_record(
    author_id: str, papers: Sequence[Paper | PaperWindows], window_years: int = 5
) -> AuthorRecord:
    """Restrict an author's papers and citations to their first window.

    ``papers`` are the author's papers, as Corpus.papers_by_author or
    ListedPapers groups them; the record keeps the papers published within
    the window, in their order. The window starts with the calendar year of
    the author's first paper and spans window_years years inclusive.
    """
    if window_years < 1:
        raise ValueError("window_years must be >= 1")
    if not papers:
        raise UnknownAuthorError(f"author {author_id!r} not found in corpus")
    first_year = min(p.pub_year for p in papers)
    last_year = first_year + window_years - 1
    kept = tuple(p for p in papers if p.pub_year <= last_year)
    return AuthorRecord(author_id, first_year, kept, window_years)


def filter_cohort(
    records: Iterable[AuthorRecord], spec: FilterSpec
) -> list[AuthorRecord]:
    """Keep records admitted by the filter spec, preserving order."""
    return [r for r in records if spec.admits(r)]
