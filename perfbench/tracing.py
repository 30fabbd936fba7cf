"""Span recorder for the traced in-process run.

The recorder wraps the library functions that ``biblio_bench.cli`` calls,
from outside the package, by swapping the names in the modules that look
them up. Each call becomes one span: (name, start, end, parent, command).
Spans are kept in memory; counts are taken at the same boundaries, after
the span has ended, so a count never adds to the span it describes.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


def _ingest(tracer, args, result):
    tracer.add("corpus.ingest_calls", 1)
    tracer.add("corpus.bytes_parsed", Path(args[0]).stat().st_size)
    if tracer.command_name == "indicators":
        tracer.add("corpus.papers_ingested_for_records", len(result))


def _record(tracer, args, result):
    tracer.add("corpus.records_built", 1)
    tracer.add("corpus.record_papers", len(result.papers))


def _filter(tracer, args, result):
    tracer.add("corpus.records_filtered", len(args[0]))
    tracer.add("corpus.records_kept", len(result))


def _points(tracer, args, result):
    tracer.add("expectation.window_points", len(result))


def _vector(tracer, args, result):
    tracer.add("indicators.vectors", 1)


def _ranked(tracer, args, result):
    tracer.add("indicators.papers_ranked", len(result))


def _table(tracer, args, result):
    tracer.add("indicators.table_bytes", len(result.encode("utf-8")))


def _compare(tracer, args, result):
    stars, control = args
    tracer.add("stats.values_ranked", len(result.rows) * (len(stars) + len(control)))


# (module, attribute, span name, counter). A function is swapped in every
# module listed for it: `cli` for the calls the commands make, `indicators`
# for rank_papers, which indicator_vector looks up in its own module.
WRAPPED = (
    ("cli", "generate_corpus", "synth.generate_corpus", None),
    ("cli", "render_corpus", "corpus.render_corpus", None),
    ("cli", "ingest_corpus", "corpus.ingest_corpus", _ingest),
    ("cli", "build_author_record", "corpus.build_author_record", _record),
    ("cli", "filter_cohort", "corpus.filter_cohort", _filter),
    ("cli", "collect_window_points", "expectation.collect_window_points", _points),
    ("cli", "fit_expectation_model", "expectation.fit_expectation_model", None),
    ("cli", "indicator_vector", "indicators.indicator_vector", _vector),
    ("indicators", "rank_papers", "indicators.rank_papers", _ranked),
    ("cli", "render_vector_table", "indicators.render_vector_table", _table),
    ("cli", "parse_vector_table", "indicators.parse_vector_table", None),
    ("cli", "compare_cohorts", "stats.compare_cohorts", _compare),
    ("cli", "boxplot_export", "stats.boxplot_export", None),
    ("cli", "render_comparison_table", "stats.render_comparison_table", None),
    ("cli", "render_boxplot_table", "stats.render_boxplot_table", None),
)


class Tracer:
    """In-memory spans and counts for one pipeline."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self.command_id = -1
        self.command_name = ""

    def add(self, name: str, amount: int) -> None:
        self.counts[name] += amount

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.command_id)

    @contextmanager
    def command(self, name: str):
        self.command_id += 1
        self.command_name = name
        with self.span(f"cli.{name}"):
            yield

    def wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                counter(self, args, result)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus time covered by direct children.

        Wrapped calls run one at a time, so a span's children never overlap
        and their durations can be subtracted as they are.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += (end - start) - child_time[index]
        return dict(totals)

    def inclusive_times(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for name, start, end, _, _ in self.spans:
            totals[name] += end - start
        return dict(totals)

    def check_nesting(self) -> list[str]:
        """Problems with the span tree; empty when children sum to parents.

        Every child must lie inside its parent, siblings must not overlap,
        so each command span equals its self time plus its children.
        """
        problems = []
        last_child_end: dict[int, float] = {}
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            if end < start:
                problems.append(f"span {index} {name} ends before it starts")
            if parent < 0:
                continue
            _, p_start, p_end, _, _ = self.spans[parent]
            if start < p_start or end > p_end:
                problems.append(f"span {index} {name} leaves its parent")
            if start < last_child_end.get(parent, p_start):
                problems.append(f"span {index} {name} overlaps a sibling")
            last_child_end[parent] = end
        return problems

    def write_json(self, path: Path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        payload = [
            {
                "name": name,
                "start": start - origin,
                "end": end - origin,
                "parent": parent,
                "command": command,
            }
            for name, start, end, parent, command in self.spans
        ]
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")


@contextmanager
def installed(tracer: Tracer, modules: dict):
    """Swap every wrapped function for its traced version, then restore."""
    saved = []
    try:
        for module_name, attr, span_name, counter in WRAPPED:
            module = modules[module_name]
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(span_name, original, counter))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
