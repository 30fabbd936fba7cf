"""Author-level citation indicators over early-career publication records.

The library ingests publication corpora, fits per-window expected citation
counts, computes a 17-indicator vector per author, and compares cohorts
with a one-sided rank-sum test. The `biblio-bench` command wires the same
steps into a file-based pipeline.

Each public name is imported from its submodule when it is first used, so
`import biblio_bench` alone loads none of them.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_EXPORTS = {
    "AuthorRecord": "corpus",
    "CorpusFormatError": "corpus",
    "EVERY_AUTHOR": "corpus",
    "FilterSpec": "corpus",
    "UnknownAuthorError": "corpus",
    "build_author_record": "corpus",
    "filter_cohort": "corpus",
    "ingest_corpus": "corpus",
    "render_corpus": "corpus",
    "WindowPoints": "corpus",
    "ExpectationModel": "expectation",
    "InsufficientDataError": "expectation",
    "WindowFit": "expectation",
    "collect_window_points": "expectation",
    "fit_expectation_model": "expectation",
    "INDICATOR_FIELDS": "indicators",
    "IndicatorVector": "indicators",
    "indicator_vector": "indicators",
    "parse_vector_table": "indicators",
    "render_vector_table": "indicators",
    "BoxplotSummary": "stats",
    "ComparisonRow": "stats",
    "ComparisonTable": "stats",
    "boxplot_export": "stats",
    "compare_cohorts": "stats",
    "render_boxplot_table": "stats",
    "render_comparison_table": "stats",
    "wilcoxon_rank_sum": "stats",
    "SynthConfig": "synth",
    "generate_corpus": "synth",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> object:
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value
