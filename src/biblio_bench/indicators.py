"""Author-level indicators over a windowed publication record.

Seventeen indicators per author: paper counts (plain and fractional),
citation totals (raw, normalized by expected citations, square-rooted,
fractional, fractional-normalized), typical-influence summaries of c/a,
the h and g indices with their fractional variants, and the collaborative
coefficient. Fractional counting divides a paper or its citations equally
among its a authors; normalization divides each paper's citations by its
expected count (sum of ratios, not ratio of sums).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import accumulate
from operator import attrgetter
from typing import Any, Iterable, get_type_hints

from .corpus import AuthorRecord, RecordPaper, _finite
from .expectation import ExpectationModel


@dataclass(frozen=True)
class RankedPapers:
    """Papers ordered by descending citations, with E(c) and scaled ranks.

    expected[i] is the expected citation count E(c) of entries[i]. The
    effective rank r_eff(r) is the sum of 1/a over the top r papers.
    With scale L, the lcm of the author counts, scaled_ranks[r-1] is the
    integer r_eff(r)*L, so rank thresholds compare exactly in integers.
    Ties in citations break by ascending author count, then paper id.
    """

    entries: tuple[RecordPaper, ...]
    expected: tuple[float, ...]
    scale: int
    scaled_ranks: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class IndicatorVector:
    """The 17 indicator values for one author, in table row order."""

    n: int
    f: float
    citations: int
    norm_citations: float
    j_index: float
    fract_citations: float
    fract_norm_citations: float
    mean_citations: float
    mean_fract_citations: float
    median_fract_citations: float
    max_fract_citations: float
    h: int
    g: int
    h_m: float
    g_f: int
    g_m: float
    collab_coeff: float  # 1 - f/n: 0 for all-solo work, toward 1 for big teams


INDICATOR_FIELDS = tuple(f.name for f in fields(IndicatorVector))


def rank_papers(record: AuthorRecord, model: ExpectationModel) -> RankedPapers:
    """Order a record's papers by descending citations and attach E(c).

    A paper's window length is the number of calendar years from its
    publication through the end of the author's window, so a paper from the
    record's first year gets the full window and one from the last year
    gets a single year.
    """
    window_end = record.first_year + record.window_years
    entries = tuple(
        sorted(record.papers, key=lambda p: (-p.citations, p.author_count, p.paper_id))
    )
    scale = math.lcm(*(p.author_count for p in entries))
    return RankedPapers(
        entries=entries,
        expected=tuple(
            model.expected_citations(p.pub_year, window_end - p.pub_year)
            for p in entries
        ),
        scale=scale,
        scaled_ranks=tuple(accumulate(scale // p.author_count for p in entries)),
    )


def h_index(ranked: RankedPapers) -> int:
    """Largest rank r with c_r >= r."""
    h = 0
    for r, entry in enumerate(ranked.entries, start=1):
        if entry.citations >= r:
            h = r
    return h


def g_index(ranked: RankedPapers) -> int:
    """Largest rank r (capped at n) whose top-r citation sum reaches r^2."""
    g = 0
    total = 0
    for r, entry in enumerate(ranked.entries, start=1):
        total += entry.citations
        if total >= r * r:
            g = r
    return g


def h_m_index(ranked: RankedPapers) -> float:
    """Effective rank r_eff(r*) at the largest r with c_r >= r_eff(r)."""
    scale = ranked.scale
    best = 0
    for entry, rank in zip(ranked.entries, ranked.scaled_ranks):
        if entry.citations * scale >= rank:
            best = rank
    # int / int is correctly rounded: the float nearest to the exact ratio.
    return best / scale


def g_f_index(ranked: RankedPapers) -> int:
    """Largest rank r whose top-r fractional citation sum reaches r^2."""
    scale = ranked.scale
    g_f = 0
    total = 0  # scale times the fractional sum of c/a
    for r, entry in enumerate(ranked.entries, start=1):
        total += entry.citations * (scale // entry.author_count)
        if total >= r * r * scale:
            g_f = r
    return g_f


def g_m_index(ranked: RankedPapers) -> float:
    """r_eff(r*) at the largest r whose fractional sum reaches r_eff(r)^2."""
    scale = ranked.scale
    best = 0
    total = 0  # scale times the fractional sum of c/a
    for entry, rank in zip(ranked.entries, ranked.scaled_ranks):
        total += entry.citations * (scale // entry.author_count)
        if total * scale >= rank * rank:
            best = rank
    return best / scale


def median(values: Iterable[float]) -> float:
    """The middle value, or the mean of the middle two, as statistics.median
    gives it: with an odd count, the element itself, so an int stays an int.

    Written here because the statistics module costs every command its
    fractions and decimal imports.
    """
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        raise ValueError("no median for empty data")
    if n % 2:
        return ordered[n // 2]
    return (ordered[n // 2 - 1] + ordered[n // 2]) / 2


def indicator_vector(
    record: AuthorRecord, model: ExpectationModel
) -> IndicatorVector:
    """Compute all 17 indicators for one author record."""
    ranked = rank_papers(record, model)
    papers = ranked.entries
    n = len(papers)
    f = math.fsum(1.0 / p.author_count for p in papers)
    citations = sum(p.citations for p in papers)
    fractional = [p.citations / p.author_count for p in papers]
    fract_citations = math.fsum(fractional)
    pairs = tuple(zip(papers, ranked.expected))
    return IndicatorVector(
        n=n,
        f=f,
        citations=citations,
        norm_citations=math.fsum(p.citations / e for p, e in pairs),
        j_index=math.fsum(math.sqrt(p.citations) for p in papers),
        fract_citations=fract_citations,
        # c / (E(c) a), not (c / a) / E(c): the two round differently.
        fract_norm_citations=math.fsum(
            p.citations / (e * p.author_count) for p, e in pairs
        ),
        mean_citations=citations / n,
        mean_fract_citations=fract_citations / n,
        median_fract_citations=median(fractional),
        max_fract_citations=max(fractional),
        h=h_index(ranked),
        g=g_index(ranked),
        h_m=h_m_index(ranked),
        g_f=g_f_index(ranked),
        g_m=g_m_index(ranked),
        collab_coeff=1.0 - f / n,
    )


def format_decimal(value: Any, precision: int | None = None) -> str:
    """Table cell text for a value; fixed decimals for floats when asked.

    Floats print with repr, which round-trips exactly through float().
    Integers print without a decimal point, strings as they are, and a
    tuple as its items' cells joined by commas.
    """
    if isinstance(value, float):
        return repr(float(value)) if precision is None else f"{value:.{precision}f}"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return value
    return ",".join([format_decimal(v, precision) for v in value])


def render_table(
    kind: type,
    rows: Iterable[Any],
    precision: int | None = None,
    key: str | None = None,
) -> str:
    """Tab-separated table of `kind` dataclass rows, one line per row.

    The header is the field names of `kind`. With a `key` column name, each
    row is a (key, row) pair and the key is the first column. Every cell is
    written by format_decimal.
    """
    names = tuple(f.name for f in fields(kind))
    values = attrgetter(*names)
    if key is None:
        cells = map(values, rows)
    else:
        names = (key,) + names
        cells = ((k, *values(row)) for k, row in rows)
    lines = ["\t".join(names)]
    for row in cells:
        lines.append("\t".join([format_decimal(v, precision) for v in row]))
    return "\n".join(lines) + "\n"


def parse_table(kind: type, text: str, key: str | None = None) -> list[Any]:
    """Read a table written by render_table with the same `kind` and `key`.

    Each cell is decoded by its field's type hint, str, int or float. A
    wrong header, a row of the wrong width, a repeated `key` and a number
    cell that is not a finite number are rejected with their line number.
    """
    types = get_type_hints(kind)
    columns = [(f.name, types[f.name]) for f in fields(kind)]
    if key is not None:
        columns.insert(0, (key, str))
    lines = [(n, line) for n, line in enumerate(text.splitlines(), 1) if line.strip()]
    if not lines:
        raise ValueError(f"{kind.__name__} table has no header row")
    header_lineno, header = lines[0]
    if header.split("\t") != [name for name, _ in columns]:
        raise ValueError(
            f"line {header_lineno}: unexpected {kind.__name__} table header: {header!r}"
        )
    rows = []
    key_lines: dict[str, int] = {}
    for lineno, line in lines[1:]:
        cells = line.split("\t")
        if len(cells) != len(columns):
            raise ValueError(
                f"line {lineno}: row has {len(cells)} columns, not {len(columns)}: "
                f"{line!r}"
            )
        if key is not None:
            first = key_lines.setdefault(cells[0], lineno)
            if first != lineno:
                raise ValueError(
                    f"line {lineno}: {key} {cells[0]!r} repeats line {first}"
                )
        values = []
        for (name, cast), cell in zip(columns, cells):
            try:
                value = cast(cell)
            except ValueError:
                value = math.nan  # not a number: rejected below with nan and inf
            if cast is not str and not _finite(value):
                raise ValueError(
                    f"line {lineno}: {name} is {cell!r}, not a finite number"
                )
            values.append(value)
        rows.append(kind(*values) if key is None else (values[0], kind(*values[1:])))
    return rows


def render_vector_table(
    rows: Iterable[tuple[str, IndicatorVector]], precision: int | None = None
) -> str:
    """Tab-separated indicator table: author_id plus the 17 fields."""
    return render_table(IndicatorVector, rows, precision, key="author_id")


def parse_vector_table(text: str) -> list[tuple[str, IndicatorVector]]:
    """Read a table written by render_vector_table."""
    return parse_table(IndicatorVector, text, key="author_id")
