"""Independent reference computations used by the test suite.

Everything here recomputes results from definitions, with exact rational
arithmetic where the quantity is rational, so the library can be checked
against a second route rather than against itself.
"""

from __future__ import annotations

import io
import math
from fractions import Fraction
from itertools import combinations

import numpy as np

from biblio_bench.corpus import (
    AuthorRecord,
    Corpus,
    Paper,
    render_corpus,
    render_paper_line,
)
from biblio_bench.expectation import (
    ExpectationModel,
    InsufficientDataError,
    WindowFit,
    WindowPoints,
)


def make_record(
    pairs: list[tuple[int, int]], author_id: str = "a", first_year: int = 1995
) -> AuthorRecord:
    """Record with papers[(citations, author_count), ...] all in one year."""
    papers = tuple(
        Paper(f"p{i:03d}", first_year, a, {first_year: c})
        for i, (c, a) in enumerate(pairs)
    )
    return AuthorRecord(
        author_id=author_id, first_year=first_year, papers=papers, window_years=5
    )


def corpus_text(corpus: Corpus) -> str:
    """The text render_corpus writes for `corpus`."""
    out = io.StringIO()
    render_corpus(map(render_paper_line, corpus.papers.values()), out)
    return out.getvalue()


def constant_model(expected: float = 2.5, windows: int = 5) -> ExpectationModel:
    """Model predicting the same expected count for every year and window."""
    fits = {
        w: WindowFit(slope=0.0, intercept=expected, n_points=2)
        for w in range(1, windows + 1)
    }
    return ExpectationModel(
        window_fits=fits, fit_year_range=(1990, 2010), floor=min(expected, 1.0)
    )


def oracle_sums(
    record: AuthorRecord, model: ExpectationModel
) -> dict[str, int | float]:
    """The 11 non-rank indicators, each sum taken exactly and rounded once.

    Each per-paper term is the float its definition gives: 1/a, c/E(c),
    sqrt(c), c/a and c/(E(c)*a), where c counts the paper's citing years up to
    the window's end and E(c) is the paper's window line at its publication
    year, clamped from below at the model's floor. The terms of each
    indicator are summed as Fractions; each mean is its rounded sum / n.
    """
    window_end = record.first_year + record.window_years
    terms: dict[str, list[float]] = {
        "f": [], "norm_citations": [], "j_index": [],
        "fract_citations": [], "fract_norm_citations": [],
    }
    cited: list[int] = []
    for p in record.papers:
        fit = model.window_fits[window_end - p.pub_year]
        e = max(fit.slope * p.pub_year + fit.intercept, model.floor)
        c = sum(1 for year in p.citing_years if year < window_end)
        a = p.author_count
        cited.append(c)
        terms["f"].append(1 / a)
        terms["norm_citations"].append(c / e)
        terms["j_index"].append(math.sqrt(c))
        terms["fract_citations"].append(c / a)
        terms["fract_norm_citations"].append(c / (e * a))
    sums = {name: float(sum(map(Fraction, t))) for name, t in terms.items()}
    n = len(record.papers)
    citations = sum(cited)
    fractional = sorted(terms["fract_citations"])
    middle = fractional[(n - 1) // 2 : n // 2 + 1]
    return {
        "n": n,
        "f": sums["f"],
        "citations": citations,
        "norm_citations": sums["norm_citations"],
        "j_index": sums["j_index"],
        "fract_citations": sums["fract_citations"],
        "fract_norm_citations": sums["fract_norm_citations"],
        "mean_citations": citations / n,
        "mean_fract_citations": sums["fract_citations"] / n,
        "median_fract_citations": float(sum(map(Fraction, middle)) / len(middle)),
        "max_fract_citations": fractional[-1],
    }


def _ordered(pairs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    indexed = sorted(enumerate(pairs), key=lambda t: (-t[1][0], t[1][1], t[0]))
    return [pair for _, pair in indexed]


def _effective_rank(ordered: list[tuple[int, int]], r: int) -> Fraction:
    return sum(Fraction(1, a) for _, a in ordered[:r])


def oracle_h(pairs: list[tuple[int, int]]) -> int:
    ordered = _ordered(pairs)
    candidates = [r for r in range(1, len(ordered) + 1) if ordered[r - 1][0] >= r]
    return max(candidates, default=0)


def oracle_g(pairs: list[tuple[int, int]]) -> int:
    ordered = _ordered(pairs)
    candidates = [
        r
        for r in range(1, len(ordered) + 1)
        if sum(c for c, _ in ordered[:r]) >= r * r
    ]
    return max(candidates, default=0)


def oracle_h_m(pairs: list[tuple[int, int]]) -> float:
    ordered = _ordered(pairs)
    best = Fraction(0)
    for r in range(1, len(ordered) + 1):
        r_eff = _effective_rank(ordered, r)
        if ordered[r - 1][0] >= r_eff:
            best = r_eff
    return float(best)


def oracle_g_f(pairs: list[tuple[int, int]]) -> int:
    ordered = _ordered(pairs)
    candidates = [
        r
        for r in range(1, len(ordered) + 1)
        if sum(Fraction(c, a) for c, a in ordered[:r]) >= r * r
    ]
    return max(candidates, default=0)


def oracle_g_m(pairs: list[tuple[int, int]]) -> float:
    ordered = _ordered(pairs)
    best = Fraction(0)
    for r in range(1, len(ordered) + 1):
        r_eff = _effective_rank(ordered, r)
        if sum(Fraction(c, a) for c, a in ordered[:r]) >= r_eff * r_eff:
            best = r_eff
    return float(best)


def average_ranks_oracle(values: list[float]) -> list[float]:
    ranks = []
    for v in values:
        below = sum(1 for u in values if u < v)
        equal = sum(1 for u in values if u == v)
        ranks.append(below + (equal + 1) / 2.0)
    return ranks


def rank_sum_statistic(sample_a: list[float], sample_b: list[float]) -> float:
    pooled = list(sample_a) + list(sample_b)
    ranks = average_ranks_oracle(pooled)
    n_a = len(sample_a)
    return sum(ranks[:n_a]) - n_a * (n_a + 1) / 2.0


def exact_rank_sum_p(
    sample_a: list[float], sample_b: list[float], alternative: str
) -> float:
    """Exact permutation p by enumerating every split of the pooled values."""
    pooled = list(sample_a) + list(sample_b)
    ranks = average_ranks_oracle(pooled)
    n_a = len(sample_a)
    observed = sum(ranks[:n_a]) - n_a * (n_a + 1) / 2.0
    total = 0
    hits = 0
    eps = 1e-9
    for combo in combinations(range(len(pooled)), n_a):
        w = sum(ranks[i] for i in combo) - n_a * (n_a + 1) / 2.0
        total += 1
        if alternative == "a_greater":
            hits += w >= observed - eps
        elif alternative == "b_greater":
            hits += w <= observed + eps
        else:
            raise ValueError("exact enumeration supports one-sided alternatives")
    return hits / total


def rank_sum_counts(n_a: int, n_b: int) -> dict[int, int]:
    """Null distribution of W for tie-free samples, by dynamic programming.

    Returns {w: number of rank subsets}, w in 0..n_a*n_b.
    """
    n = n_a + n_b
    # ways[m][s]: subsets of size m from the ranks seen so far with rank sum s
    ways = [dict() for _ in range(n_a + 1)]
    ways[0][0] = 1
    for rank in range(1, n + 1):
        for m in range(min(rank, n_a), 0, -1):
            for s, count in list(ways[m - 1].items()):
                key = s + rank
                ways[m][key] = ways[m].get(key, 0) + count
    minimum = n_a * (n_a + 1) // 2
    return {s - minimum: count for s, count in ways[n_a].items()}


def exact_p_from_counts(counts: dict[int, int], w: int, alternative: str) -> float:
    total = sum(counts.values())
    if alternative == "a_greater":
        hits = sum(c for v, c in counts.items() if v >= w)
    elif alternative == "b_greater":
        hits = sum(c for v, c in counts.items() if v <= w)
    else:
        raise ValueError("counts support one-sided alternatives")
    return hits / total


def samples_realizing_w(n_a: int, n_b: int, w: int) -> tuple[list[int], list[int]]:
    """Tie-free integer samples whose rank-sum statistic equals w."""
    if not 0 <= w <= n_a * n_b:
        raise ValueError("w out of range")
    ranks = list(range(1, n_a + 1))
    extra = w
    for i in range(n_a - 1, -1, -1):
        max_rank = n_a + n_b - (n_a - 1 - i)
        lift = min(extra, max_rank - ranks[i])
        ranks[i] += lift
        extra -= lift
    assert extra == 0
    rank_set = set(ranks)
    sample_a = [10 * r for r in ranks]
    sample_b = [10 * r for r in range(1, n_a + n_b + 1) if r not in rank_set]
    return sample_a, sample_b


def ols_closed_form(
    xs: list[float], ys: list[float]
) -> tuple[float, float]:
    """Least squares by the normal equations in exact rational arithmetic."""
    n = len(xs)
    fx = [Fraction(x) for x in xs]
    fy = [Fraction(y) for y in ys]
    sum_x = sum(fx)
    sum_y = sum(fy)
    sum_xx = sum(v * v for v in fx)
    sum_xy = sum(a * b for a, b in zip(fx, fy))
    denom = n * sum_xx - sum_x * sum_x
    slope = (n * sum_xy - sum_x * sum_y) / denom
    intercept = (sum_y - slope * sum_x) / n
    return float(slope), float(intercept)


def window_columns(papers: list[tuple[int, tuple[int, ...]]]) -> WindowPoints:
    """The fit points of per-paper (pub_year, counts for w=1..W) pairs."""
    counts = [c for _, c in papers]
    return WindowPoints([year for year, _ in papers], tuple(map(list, zip(*counts))))


def per_paper_fit(
    papers: list[tuple[int, tuple[int, ...]]],
    window_count: int,
    min_papers_per_year: int,
    year_range: tuple[int | None, int | None],
) -> tuple[tuple[int, int], dict[int, tuple[float, float, int]]]:
    """The expectation fit as it ran on one tuple per paper, as a reference.

    Papers of qualifying years are kept in a list, each column becomes
    ``np.array(..., dtype=float)``, and the line comes from the same centred
    dot products as ``expectation._ols_line``. Returns the fitted year range
    and {w: (slope, intercept, n_points)}; raises InsufficientDataError with
    under two qualifying years.
    """
    year_counts: dict[int, int] = {}
    for year, _ in papers:
        year_counts[year] = year_counts.get(year, 0) + 1
    low, high = year_range
    qualifying = {
        year
        for year, count in year_counts.items()
        if count >= min_papers_per_year
        and (low is None or low <= year)
        and (high is None or year <= high)
    }
    if len(qualifying) < 2:
        raise InsufficientDataError(f"{len(qualifying)} qualifying years")
    kept = [(year, counts) for year, counts in papers if year in qualifying]
    x = np.array([year for year, _ in kept], dtype=float)
    fits = {}
    for w in range(1, window_count + 1):
        y = np.array([counts[w - 1] for _, counts in kept], dtype=float)
        x_centered = x - x.mean()
        denom = float(x_centered @ x_centered)
        slope = float(x_centered @ (y - y.mean())) / denom
        intercept = float(y.mean()) - slope * float(x.mean())
        fits[w] = (slope, intercept, len(kept))
    return (min(qualifying), max(qualifying)), fits
