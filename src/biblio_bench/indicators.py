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
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from statistics import median
from typing import IO, Iterable

from .corpus import AuthorRecord
from .expectation import ExpectationModel

INDICATOR_FIELDS = (
    "n",
    "f",
    "citations",
    "norm_citations",
    "j_index",
    "fract_citations",
    "fract_norm_citations",
    "mean_citations",
    "mean_fract_citations",
    "median_fract_citations",
    "max_fract_citations",
    "h",
    "g",
    "h_m",
    "g_f",
    "g_m",
    "collab_coeff",
)

_INT_FIELDS = frozenset({"n", "citations", "h", "g", "g_f"})


@dataclass(frozen=True)
class RankedPaper:
    paper_id: str
    citations: int
    author_count: int
    expected: float


@dataclass(frozen=True)
class RankedPapers:
    """Papers ordered by descending citations, with scaled effective ranks.

    The effective rank r_eff(r) is the sum of 1/a over the top r papers.
    With scale L, the lcm of the author counts, scaled_ranks[r-1] is the
    integer r_eff(r)*L, so rank thresholds compare exactly in integers.
    Ties in citations break by ascending author count, then paper id.
    """

    entries: tuple[RankedPaper, ...]
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


def rank_papers(record: AuthorRecord, model: ExpectationModel) -> RankedPapers:
    """Order a record's papers by descending citations and attach E(c).

    A paper's window length is the number of calendar years from its
    publication through the end of the author's window, so a paper from the
    record's first year gets the full window and one from the last year
    gets a single year.
    """
    window_end = record.first_year + record.window_years
    entries = []
    for paper in record.papers:
        w = window_end - paper.pub_year
        entries.append(
            RankedPaper(
                paper_id=paper.paper_id,
                citations=paper.citations,
                author_count=paper.author_count,
                expected=model.expected_citations(paper.pub_year, w),
            )
        )
    entries.sort(key=lambda e: (-e.citations, e.author_count, e.paper_id))
    scale = math.lcm(*(e.author_count for e in entries))
    return RankedPapers(
        entries=tuple(entries),
        scale=scale,
        scaled_ranks=tuple(accumulate(scale // e.author_count for e in entries)),
    )


def productivity(record: AuthorRecord) -> tuple[int, float]:
    """Paper count n and fractional score f = sum 1/a."""
    n = len(record.papers)
    f = math.fsum(1.0 / p.author_count for p in record.papers)
    return n, f


def total_influence(
    ranked: RankedPapers,
) -> tuple[int, float, float, float, float]:
    """Total-influence sums over all papers.

    Returns (sum c, sum c/E(c), sum sqrt(c), sum c/a, sum c/(E(c) a)).
    """
    for e in ranked.entries:
        if e.expected <= 0:
            raise ValueError(
                f"paper {e.paper_id}: expected citations must be positive"
            )
    citations = sum(e.citations for e in ranked.entries)
    norm = math.fsum(e.citations / e.expected for e in ranked.entries)
    j = math.fsum(math.sqrt(e.citations) for e in ranked.entries)
    fract = math.fsum(e.citations / e.author_count for e in ranked.entries)
    fract_norm = math.fsum(
        e.citations / (e.expected * e.author_count) for e in ranked.entries
    )
    return citations, norm, j, fract, fract_norm


def typical_influence(ranked: RankedPapers) -> tuple[float, float, float, float]:
    """Mean c, mean c/a, median of c/a, and max of c/a."""
    n = len(ranked.entries)
    fractional = [e.citations / e.author_count for e in ranked.entries]
    mean_citations = sum(e.citations for e in ranked.entries) / n
    mean_fract = math.fsum(fractional) / n
    return mean_citations, mean_fract, median(fractional), max(fractional)


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


def indicator_vector(
    record: AuthorRecord, model: ExpectationModel
) -> IndicatorVector:
    """Compute all 17 indicators for one author record."""
    ranked = rank_papers(record, model)
    n, f = productivity(record)
    citations, norm, j, fract, fract_norm = total_influence(ranked)
    mean_c, mean_fract, median_fract, max_fract = typical_influence(ranked)
    return IndicatorVector(
        n=n,
        f=f,
        citations=citations,
        norm_citations=norm,
        j_index=j,
        fract_citations=fract,
        fract_norm_citations=fract_norm,
        mean_citations=mean_c,
        mean_fract_citations=mean_fract,
        median_fract_citations=median_fract,
        max_fract_citations=max_fract,
        h=h_index(ranked),
        g=g_index(ranked),
        h_m=h_m_index(ranked),
        g_f=g_f_index(ranked),
        g_m=g_m_index(ranked),
        collab_coeff=1.0 - f / n,
    )


def format_decimal(value: float, precision: int | None = None) -> str:
    """Full-precision decimal text for a number; fixed decimals when asked.

    Integers print without a decimal point; floats print with repr, which
    round-trips exactly through float().
    """
    if precision is not None:
        if isinstance(value, int):
            return str(value)
        return f"{value:.{precision}f}"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def render_vector_table(
    rows: Iterable[tuple[str, IndicatorVector]], precision: int | None = None
) -> str:
    """Tab-separated indicator table: author_id plus the 17 fields."""
    lines = ["\t".join(("author_id",) + INDICATOR_FIELDS)]
    for author_id, vector in rows:
        values = [
            format_decimal(getattr(vector, name), precision)
            for name in INDICATOR_FIELDS
        ]
        lines.append("\t".join([author_id] + values))
    return "\n".join(lines) + "\n"


def parse_vector_table(
    source: str | Path | IO[str],
) -> list[tuple[str, IndicatorVector]]:
    """Read a table written by render_vector_table."""
    if isinstance(source, (str, Path)):
        text = Path(source).read_text(encoding="utf-8")
    else:
        text = source.read()
    lines = [(n, line) for n, line in enumerate(text.splitlines(), 1) if line.strip()]
    if not lines:
        raise ValueError("vector table has no header row")
    header = tuple(lines[0][1].split("\t"))
    expected = ("author_id",) + INDICATOR_FIELDS
    if header != expected:
        raise ValueError(f"unexpected vector table header: {lines[0][1]!r}")
    rows = []
    for lineno, line in lines[1:]:
        cells = line.split("\t")
        if len(cells) != len(expected):
            raise ValueError(
                f"line {lineno}: vector row has {len(cells)} columns: {line!r}"
            )
        values = {}
        for name, cell in zip(INDICATOR_FIELDS, cells[1:]):
            try:
                value = int(cell) if name in _INT_FIELDS else float(cell)
            except ValueError:
                value = math.nan  # not a number: rejected below with nan and inf
            # A comparison, unlike math.isfinite, cannot overflow on a huge int.
            if not -math.inf < value < math.inf:
                raise ValueError(
                    f"line {lineno}: {name} is {cell!r}, not a finite number"
                )
            values[name] = value
        rows.append((cells[0], IndicatorVector(**values)))
    return rows
