"""Expected citation counts by publication year and citation-window length.

Citation behaviour drifts over time, so a paper's raw citation count is not
comparable across publication years. The model here fits one ordinary
least-squares line per window length w: cumulative citations within the
first w calendar years of a paper (publication year counted as year one)
against the publication year, over individual papers. The fitted line,
clamped from below, serves as the expected citation count E(c) used to
normalize observed counts.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .corpus import WindowPoints, _finite, decode_typed

# numpy is imported where used, so `--version` and `indicators` never load it.
if TYPE_CHECKING:
    import numpy as np


class InsufficientDataError(ValueError):
    """Raised when a window series has too few qualifying years to fit."""


@dataclass(frozen=True)
class WindowFit:
    """Least-squares line for one citation-window length."""

    slope: float
    intercept: float
    n_points: int

    def predict(self, pub_year: int) -> float:
        return self.slope * pub_year + self.intercept


@dataclass(frozen=True)
class ExpectationModel:
    """Per-window linear fits giving expected citations by publication year.

    Evaluation outside fit_year_range extrapolates the fitted line; the
    result is never below ``floor``.
    """

    window_fits: dict[int, WindowFit]
    fit_year_range: tuple[int, int]
    floor: float = 1.0

    def __post_init__(self) -> None:
        # The one check for fitted and loaded models alike.
        if not (_finite(self.floor) and self.floor > 0):
            raise ValueError("floor must be a positive finite number")
        windows = sorted(self.window_fits)
        if not windows or windows != list(range(1, len(windows) + 1)):
            raise ValueError("window_fits must cover every w in 1..W")
        for w in windows:
            fit = self.window_fits[w]
            if not (_finite(fit.slope) and _finite(fit.intercept)):
                raise ValueError(
                    f"window {w}: slope and intercept must be finite numbers"
                )

    @property
    def window_count(self) -> int:
        return len(self.window_fits)

    def expected_citations(self, pub_year: int, window_w: int) -> float:
        """E(c) for a paper of the given publication year and window length."""
        fit = self.window_fits.get(window_w)
        if fit is None:
            raise ValueError(
                f"window {window_w} out of range 1..{self.window_count}"
            )
        return max(fit.predict(pub_year), self.floor)

    def to_json(self) -> str:
        payload = {
            "fit_year_range": list(self.fit_year_range),
            "floor": self.floor,
            "window_fits": {
                str(w): {
                    "slope": fit.slope,
                    "intercept": fit.intercept,
                    "n_points": fit.n_points,
                }
                for w, fit in sorted(self.window_fits.items())
            },
        }
        return json.dumps(payload, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> ExpectationModel:
        return decode_typed(cls, text, "model")


def collect_window_points(points: WindowPoints) -> WindowPoints:
    """Per-paper fit points, as ``ingest_corpus(path, window_count=W)`` returns
    them: pub_year and the citations within the first w years, for w=1..W,
    the publication year counted as year one. They are returned as they are.
    """
    return points


def _ols_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    x_centered = x - x.mean()
    denom = float(x_centered @ x_centered)
    if denom == 0.0:
        # Distinct years beyond 2**53 can share one float.
        raise InsufficientDataError(
            "insufficient data: the qualifying publication years all convert "
            "to one float"
        )
    slope = float(x_centered @ (y - y.mean())) / denom
    intercept = float(y.mean()) - slope * float(x.mean())
    return slope, intercept


def fit_expectation_model(
    points: WindowPoints,
    min_papers_per_year: int = 100,
    year_range: tuple[int | None, int | None] = (None, None),
) -> ExpectationModel:
    """Fit one least-squares line per window over individual papers.

    ``points`` holds each paper's pub_year and cumulative citation counts for
    w=1..W, column-wise, and each of its W columns gets a line. Publication
    years outside ``year_range`` (low, high; None leaves that end open) or
    with fewer than ``min_papers_per_year`` papers are left out of the fit;
    at least two distinct years must remain.
    """
    import numpy as np

    low, high = year_range
    qualifying = {
        year
        for year, count in Counter(points.pub_year).items()
        if count >= min_papers_per_year
        and (low is None or low <= year)
        and (high is None or year <= high)
    }
    if len(qualifying) < 2:
        raise InsufficientDataError(
            f"insufficient data: {len(qualifying)} qualifying publication "
            f"years (need at least 2 with >= {min_papers_per_year} papers)"
        )

    # Tested on the exact ints: distinct years beyond 2**53 can share a float.
    kept = np.fromiter(map(qualifying.__contains__, points.pub_year), bool, len(points))
    x = np.array(points.pub_year, dtype=float)[kept]
    fits = {}
    for w, column in enumerate(points.windows, start=1):
        y = np.array(column, dtype=float)[kept]
        slope, intercept = _ols_line(x, y)
        fits[w] = WindowFit(slope=slope, intercept=intercept, n_points=len(x))

    return ExpectationModel(
        window_fits=fits,
        fit_year_range=(min(qualifying), max(qualifying)),
    )
