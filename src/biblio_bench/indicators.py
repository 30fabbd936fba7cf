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
from operator import attrgetter
from typing import Any, Iterable, get_type_hints

from .corpus import AuthorRecord, Paper, _finite
from .expectation import ExpectationModel


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

Ranked = tuple[tuple[Paper, int, float], ...]


def rank_papers(record: AuthorRecord, model: ExpectationModel) -> Ranked:
    """A record's papers as (paper, c, E(c)), by descending c.

    c counts the paper's citations through the record's last year. Ties in c
    break by ascending author count, then paper id. A paper's window runs
    from its publication year through the record's last year: the full
    window for a first-year paper, one year for a last-year one.
    """
    last_year = record.last_year
    expected = model.expected_citations
    counted = [(p, p.citations_through(last_year)) for p in record.papers]
    counted.sort(key=lambda pc: (-pc[1], pc[0].author_count, pc[0].paper_id))
    return tuple(
        (p, c, expected(p.pub_year, last_year + 1 - p.pub_year)) for p, c in counted
    )


def rank_indices(ranked: Ranked) -> tuple[int, int, float, int, float]:
    """(h, g, h_m, g_f, g_m) of papers in rank order, from one pass.

    With c and a the citations and author count of the paper at rank r, and
    the effective rank r_eff(r) the sum of 1/a over the top r papers:
    - h: the largest r with c >= r.
    - g: the largest r (so at most n) whose top-r citation sum reaches r^2.
    - h_m: r_eff(r) at the largest r with c >= r_eff(r).
    - g_f: the largest r whose top-r fractional sum of c/a reaches r^2.
    - g_m: r_eff(r) at the largest r whose fractional sum reaches r_eff(r)^2.
    Fractional sums and effective ranks are kept times L, the lcm of the
    author counts, so every threshold compares exactly in integers.
    """
    scale = math.lcm(*(p.author_count for p, _, _ in ranked))
    h = g = h_m = g_f = g_m = 0
    total = fractional = rank = 0  # fractional and rank times scale
    for r, (p, c, _) in enumerate(ranked, start=1):
        share = scale // p.author_count
        total += c
        fractional += c * share
        rank += share
        if c >= r:
            h = r
        if total >= r * r:
            g = r
        if c * scale >= rank:
            h_m = rank
        if fractional >= r * r * scale:
            g_f = r
        if fractional * scale >= rank * rank:
            g_m = rank
    # int / int is correctly rounded: the float nearest to the exact ratio.
    return h, g, h_m / scale, g_f, g_m / scale


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
    n = len(ranked)
    f = math.fsum(1.0 / p.author_count for p, _, _ in ranked)
    citations = sum(c for _, c, _ in ranked)
    fractional = [c / p.author_count for p, c, _ in ranked]
    fract_citations = math.fsum(fractional)
    h, g, h_m, g_f, g_m = rank_indices(ranked)
    return IndicatorVector(
        n=n,
        f=f,
        citations=citations,
        norm_citations=math.fsum(c / e for _, c, e in ranked),
        j_index=math.fsum(math.sqrt(c) for _, c, _ in ranked),
        fract_citations=fract_citations,
        # c / (E(c) a), not (c / a) / E(c): the two round differently.
        fract_norm_citations=math.fsum(
            c / (e * p.author_count) for p, c, e in ranked
        ),
        mean_citations=citations / n,
        mean_fract_citations=fract_citations / n,
        median_fract_citations=median(fractional),
        max_fract_citations=max(fractional),
        h=h,
        g=g,
        h_m=h_m,
        g_f=g_f,
        g_m=g_m,
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
    lines = [(n, line) for n, line in enumerate(text.split("\n"), 1) if line.strip()]
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
