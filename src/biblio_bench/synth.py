"""Synthetic corpus generation with controllable citation behavior.

Citation counts are drawn from a negative binomial so the generated
distributions carry the heavy right skew seen in real citation data. Mean
citation rates grow exponentially with publication year, and a designated
"star" subset of authors gets its rates scaled by a configurable multiplier.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, fields
from itertools import accumulate
from typing import TYPE_CHECKING, Callable, Iterator, Mapping, get_type_hints

from .corpus import _FLOAT_MAX, _check_paper, _finite, _paper_line, decode_typed

# numpy is imported where used, so `--version` and `indicators` never load it.
if TYPE_CHECKING:
    import numpy as np

WINDOW_YEARS = 5

# Fraction of a paper's citations landing in each year of its own
# five-year window, starting with the publication year.
CITATION_RAMP = (0.15, 0.25, 0.25, 0.20, 0.15)

# Generator.poisson(lam) draws only for lam up to this. Generator.negative_binomial
# (n, p) with mean m draws only while the mean plus 10 standard deviations of its
# gamma mixing step, m * (1 + 10 / sqrt(n)), stays below it. (Its docstring's
# Notes write 10 * sqrt(n); the check uses 1 / sqrt(n).)
_DRAW_LIMIT = 2**63 - 1 - 10 * math.sqrt(2**63 - 1)
_LOG_DRAW_LIMIT = math.log(_DRAW_LIMIT)


@dataclass(frozen=True)
class SynthConfig:
    seed: int
    n_control: int
    n_stars: int
    start_year_range: tuple[int, int]
    papers_per_year_mean: float
    coauthor_distribution: Mapping[int, float]
    base_expected_citations: float
    annual_growth_factor: float
    dispersion: float
    star_effect_multiplier: float

    def __post_init__(self) -> None:
        # As decode_typed reads them: an int field takes an int, not a bool or
        # a float, which would fail at the draw or give to_json() text that
        # from_json rejects.
        types = get_type_hints(type(self))
        for f in fields(self):
            value = getattr(self, f.name)
            if types[f.name] is float and not _finite(value):
                raise ValueError(f"{f.name} must be a finite number")
            if types[f.name] is int and type(value) is not int:
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
        years = self.start_year_range
        if type(years) is not tuple or len(years) != 2:
            raise ValueError(f"start_year_range must be a 2-tuple, got {years!r}")
        for i, year in enumerate(years):
            if type(year) is not int:
                raise ValueError(
                    f"start_year_range[{i}] must be an integer, got {year!r}"
                )
        if self.seed < 0:  # numpy seeds from non-negative ints only
            raise ValueError("seed must be >= 0")
        if self.n_control < 0 or self.n_stars < 0:
            raise ValueError("author counts must be >= 0")
        lo, hi = self.start_year_range
        if lo > hi:
            raise ValueError("start_year_range must be (low, high) with low <= high")
        if lo < -(2**63) or hi >= 2**63:  # rng.integers(lo, hi + 1) draws int64
            raise ValueError("start_year_range must lie within the int64 range")
        if self.papers_per_year_mean < 0:
            raise ValueError("papers_per_year_mean must be >= 0")
        if self.papers_per_year_mean > _DRAW_LIMIT:
            raise ValueError("papers_per_year_mean is too large to draw")
        if self.base_expected_citations <= 0:
            raise ValueError("base_expected_citations must be > 0")
        if self.annual_growth_factor <= 0:
            raise ValueError("annual_growth_factor must be > 0")
        if self.dispersion <= 0:
            raise ValueError("dispersion must be > 0")
        if self.star_effect_multiplier < 1:
            raise ValueError("star_effect_multiplier must be >= 1")
        # citation_rate's largest value, in logs, so that no power overflows.
        log_growth = (hi + WINDOW_YEARS - 1 - lo) * math.log(self.annual_growth_factor)
        log_rate = math.log(self.base_expected_citations) + max(log_growth, 0.0)
        if self.n_stars:
            log_rate += math.log(self.star_effect_multiplier)
        spread = math.log1p(10 / math.sqrt(self.dispersion))
        if log_growth >= math.log(_FLOAT_MAX) or log_rate + spread >= _LOG_DRAW_LIMIT:
            raise ValueError(
                "start_year_range and annual_growth_factor give a mean "
                "citation rate too large to draw"
            )
        if not self.coauthor_distribution:
            raise ValueError("coauthor_distribution must be non-empty")
        for count, prob in self.coauthor_distribution.items():
            if type(count) is not int:
                raise ValueError(
                    f"coauthor_distribution keys must be integers, got {count!r}"
                )
            if count < 1:
                raise ValueError("coauthor counts must be integers >= 1")
            if not _finite(prob):
                raise ValueError(
                    f"coauthor_distribution[{count}] must be a finite number"
                )
            if prob < 0:
                raise ValueError("coauthor probabilities must be >= 0")
            if prob > 1:  # also keeps fsum below from overflowing
                raise ValueError("coauthor_distribution probabilities must sum to 1")
        total = math.fsum(self.coauthor_distribution.values())
        if not math.isclose(total, 1.0, rel_tol=0.0, abs_tol=1e-9):
            raise ValueError("coauthor_distribution probabilities must sum to 1")

    def to_json(self) -> str:
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload["coauthor_distribution"] = {
            str(k): v for k, v in sorted(self.coauthor_distribution.items())
        }
        return json.dumps(payload, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> SynthConfig:
        """A config from JSON text; an error names the field at fault."""
        return decode_typed(cls, text, "config")


def citation_rate(config: SynthConfig, pub_year: int, is_star: bool) -> float:
    """Mean five-year citation count for a paper published in pub_year."""
    rate = config.base_expected_citations * config.annual_growth_factor ** (
        pub_year - config.start_year_range[0]
    )
    if is_star:
        rate *= config.star_effect_multiplier
    return rate


def _draw_citations(
    rng: np.random.Generator, mean: float, dispersion: float
) -> int:
    # Negative binomial with mean `mean` and shape `dispersion`; smaller
    # dispersion means a heavier tail.
    p = dispersion / (dispersion + mean)
    return int(rng.negative_binomial(dispersion, p))


def _coauthor_sampler(
    distribution: Mapping[int, float],
) -> Callable[[np.random.Generator], int]:
    """An author-count draw from {count: probability}, built once per corpus."""
    counts = sorted(distribution)
    cdf = list(accumulate(float(distribution[k]) for k in counts))
    cdf = [c / cdf[-1] for c in cdf]
    # rng.choice(counts, p=probs) is counts[searchsorted(cdf, rng.random(), "right")].
    return lambda rng: counts[bisect_right(cdf, rng.random())]


def _generate_author(
    rng: np.random.Generator,
    draw_coauthors: Callable[[np.random.Generator], int],
    ramp: np.ndarray,
    config: SynthConfig,
    author_id: str,
    is_star: bool,
) -> Iterator[str]:
    """One author's corpus lines, each paper drawn and checked as it is
    taken; ``ramp`` is CITATION_RAMP as an array."""
    lo, hi = config.start_year_range
    start_year = int(rng.integers(lo, hi + 1))
    paper_counts = rng.poisson(config.papers_per_year_mean, WINDOW_YEARS)
    if paper_counts[0] == 0:
        # The career window is anchored at the first publication, so the
        # start year must carry at least one paper.
        paper_counts[0] = 1

    serial = 0
    for offset, count in enumerate(paper_counts):
        pub_year = start_year + offset
        for _ in range(int(count)):
            serial += 1
            paper_id = f"{author_id}_p{serial:03d}"
            n_authors = draw_coauthors(rng)
            author_ids = [author_id] + [
                f"{paper_id}_co{k}" for k in range(1, n_authors)
            ]
            total = _draw_citations(
                rng, citation_rate(config, pub_year, is_star), config.dispersion
            )
            spread = rng.multinomial(total, ramp).tolist()
            citing = dict(enumerate(spread, start=pub_year))
            _check_paper(paper_id, pub_year, n_authors, author_ids, citing)
            yield _paper_line(
                paper_id, pub_year, n_authors, author_ids, citing, spread
            )


def generate_corpus(
    config: SynthConfig,
) -> tuple[Iterator[str], tuple[str, ...], tuple[str, ...]]:
    """The lines of a synthetic corpus, plus the star and control author ids.

    Each paper is drawn, checked as a corpus line is, and written as its
    line when the lines are iterated, so the whole corpus is never held;
    ingest_corpus(lines) reads them into a Corpus. Deterministic for a fixed
    config: one generator seeded from config.seed drives every draw in a
    fixed order.
    """
    star_ids = tuple(f"star_{i:04d}" for i in range(1, config.n_stars + 1))
    control_ids = tuple(f"ctrl_{i:04d}" for i in range(1, config.n_control + 1))
    return _draw_papers(config, star_ids, control_ids), star_ids, control_ids


def _draw_papers(
    config: SynthConfig, star_ids: tuple[str, ...], control_ids: tuple[str, ...]
) -> Iterator[str]:
    import numpy as np

    rng = np.random.default_rng(config.seed)
    draw = _coauthor_sampler(config.coauthor_distribution)
    # multinomial converts its pvals to this array on every call otherwise.
    ramp = np.array(CITATION_RAMP, dtype=float)
    for author_id in star_ids:
        yield from _generate_author(rng, draw, ramp, config, author_id, is_star=True)
    for author_id in control_ids:
        yield from _generate_author(rng, draw, ramp, config, author_id, is_star=False)
