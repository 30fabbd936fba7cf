"""Author-level citation indicators over early-career publication records.

The library ingests publication corpora, fits per-window expected citation
counts, computes a 17-indicator vector per author, and compares cohorts
with a one-sided rank-sum test. The `biblio-bench` command wires the same
steps into a file-based pipeline.
"""

from .corpus import (
    AuthorRecord,
    Corpus,
    CorpusFormatError,
    FilterSpec,
    Paper,
    UnknownAuthorError,
    build_author_record,
    filter_cohort,
    ingest_corpus,
    render_corpus,
    render_paper_line,
)
from .expectation import (
    ExpectationModel,
    InsufficientDataError,
    WindowFit,
    WindowPoints,
    collect_window_points,
    fit_expectation_model,
)
from .indicators import (
    INDICATOR_FIELDS,
    IndicatorVector,
    indicator_vector,
    parse_vector_table,
    render_vector_table,
)
from .stats import (
    BoxplotSummary,
    ComparisonRow,
    ComparisonTable,
    boxplot_export,
    compare_cohorts,
    render_boxplot_table,
    render_comparison_table,
    wilcoxon_rank_sum,
)
from .synth import SynthConfig, generate_corpus

__version__ = "0.1.0"

__all__ = [
    "AuthorRecord",
    "BoxplotSummary",
    "ComparisonRow",
    "ComparisonTable",
    "Corpus",
    "CorpusFormatError",
    "ExpectationModel",
    "FilterSpec",
    "INDICATOR_FIELDS",
    "IndicatorVector",
    "InsufficientDataError",
    "Paper",
    "SynthConfig",
    "UnknownAuthorError",
    "WindowFit",
    "WindowPoints",
    "boxplot_export",
    "build_author_record",
    "collect_window_points",
    "compare_cohorts",
    "filter_cohort",
    "fit_expectation_model",
    "generate_corpus",
    "indicator_vector",
    "ingest_corpus",
    "parse_vector_table",
    "render_boxplot_table",
    "render_comparison_table",
    "render_corpus",
    "render_paper_line",
    "render_vector_table",
    "wilcoxon_rank_sum",
]
