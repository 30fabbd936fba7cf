"""End-to-end acceptance checks.

Each test prints one summary line, [acceptance] <name>: PASS/FAIL (detail),
before asserting, so a full run reads as a checklist. Tolerances are stated
inline; randomized checks use pinned seeds.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from biblio_bench.cli import main
from biblio_bench.corpus import build_author_record, ingest_corpus
from biblio_bench.expectation import collect_window_points, fit_expectation_model
from biblio_bench.indicators import indicator_vector, rank_indices, rank_papers
from biblio_bench.stats import compare_cohorts, wilcoxon_rank_sum
from biblio_bench.synth import SynthConfig, generate_corpus
from oracles import (
    constant_model,
    exact_p_from_counts,
    make_record,
    ols_closed_form,
    oracle_g,
    oracle_g_f,
    oracle_g_m,
    oracle_h,
    oracle_h_m,
    rank_sum_counts,
    window_columns,
)

DATA = Path(__file__).parent / "data"
MODEL = constant_model(expected=2.5)


def data_config(name):
    return SynthConfig.from_json((DATA / name).read_text())


def _report(name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {name}: {status} ({detail})")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def random_records():
    """1000 records with n <= 30 papers, c <= 200 citations, a <= 10 authors."""
    rng = np.random.default_rng(20240817)
    records = []
    for i in range(1000):
        n = int(rng.integers(1, 31))
        pairs = [
            (int(rng.integers(0, 201)), int(rng.integers(1, 11)))
            for _ in range(n)
        ]
        records.append((pairs, make_record(pairs, author_id=f"r{i:04d}")))
    return records


def test_index_oracle_equivalence(random_records):
    start = time.perf_counter()
    computed = [
        rank_indices(rank_papers(record, MODEL)) for _, record in random_records
    ]
    elapsed = time.perf_counter() - start

    mismatches = 0
    for (pairs, _), values in zip(random_records, computed):
        expected = (
            oracle_h(pairs),
            oracle_g(pairs),
            oracle_h_m(pairs),
            oracle_g_f(pairs),
            oracle_g_m(pairs),
        )
        if values != expected:
            mismatches += 1
    ok = mismatches == 0 and elapsed < 5.0
    _report(
        "index-oracle equivalence",
        ok,
        f"1000 records, {mismatches} mismatches, {elapsed:.2f} s",
    )


def test_inequality_suite(random_records):
    violations = 0
    checks = 0
    for _, record in random_records:
        v = indicator_vector(record, MODEL)
        conditions = (
            v.h <= v.g,
            v.h <= v.n,
            v.g <= v.n,
            v.h_m <= v.h,
            v.g_f <= v.g,
            v.f <= v.n,
            v.fract_citations <= v.citations,
            0.0 <= v.collab_coeff < 1.0,
        )
        checks += len(conditions)
        violations += sum(1 for c in conditions if not c)
    _report(
        "inequality suite",
        violations == 0,
        f"{checks} checks over 1000 records, {violations} violations",
    )


def test_solo_author_reduction():
    rng = np.random.default_rng(20240818)
    failures = 0
    for _ in range(100):
        n = int(rng.integers(1, 31))
        pairs = [(int(rng.integers(0, 201)), 1) for _ in range(n)]
        v = indicator_vector(make_record(pairs), MODEL)
        equalities = (
            v.f == v.n,
            v.fract_citations == v.citations,
            v.fract_norm_citations == v.norm_citations,
            v.mean_fract_citations == v.mean_citations,
            v.h_m == v.h,
            v.g_f == v.g,
            v.g_m == v.g,
            v.collab_coeff == 0.0,
        )
        if not all(equalities):
            failures += 1
    _report(
        "solo-author reduction",
        failures == 0,
        f"100 records, {failures} with any inexact reduction",
    )


def test_wilcoxon_oracle():
    rng = np.random.default_rng(20240819)
    counts_cache = {}
    worst = 0.0
    for _ in range(200):
        n_a = int(rng.integers(3, 9))
        n_b = int(rng.integers(3, 9))
        pooled = rng.choice(10**6, size=n_a + n_b, replace=False).astype(float)
        sample_a = pooled[:n_a].tolist()
        sample_b = pooled[n_a:].tolist()
        key = (n_a, n_b)
        if key not in counts_cache:
            counts_cache[key] = rank_sum_counts(n_a, n_b)
        w, p = wilcoxon_rank_sum(sample_a, sample_b)
        exact = exact_p_from_counts(counts_cache[key], int(round(w)), "a_greater")
        worst = max(worst, abs(p - exact))
        # b greater: the same test with the samples swapped, W(b, a) = n_a n_b - W(a, b)
        w, p = wilcoxon_rank_sum(sample_b, sample_a)
        w_ab = n_a * n_b - int(round(w))
        exact = exact_p_from_counts(counts_cache[key], w_ab, "b_greater")
        worst = max(worst, abs(p - exact))

    identical = []
    for n in range(5, 9):
        values = [float(v) for v in range(1, n + 1)]
        _, p = wilcoxon_rank_sum(values, list(values))
        identical.append(p)
    floats = rng.normal(size=12).tolist()
    _, p = wilcoxon_rank_sum(floats, list(floats))
    identical.append(p)

    ok = worst < 0.02 and all(0.45 <= p <= 0.55 for p in identical)
    _report(
        "wilcoxon oracle",
        ok,
        f"200 tie-free pairs, worst |p - exact| {worst:.4f}; "
        f"identical-sample p in [{min(identical):.3f}, {max(identical):.3f}]",
    )


def test_regression_oracle():
    rng = np.random.default_rng(20240820)
    worst = 0.0
    ok = True
    for _ in range(100):
        year_count = int(rng.integers(3, 13))
        years = rng.choice(np.arange(1980, 2011), size=year_count, replace=False)
        points = []
        for year in years:
            for _ in range(int(rng.integers(1, 31))):
                base = int(rng.integers(0, 80))
                increments = rng.integers(0, 40, size=4)
                counts = tuple(np.cumsum([base, *increments]).tolist())
                points.append((int(year), counts))
        model = fit_expectation_model(window_columns(points), min_papers_per_year=1)
        xs = [float(year) for year, _ in points]
        for w in range(1, 6):
            ys = [float(counts[w - 1]) for _, counts in points]
            slope, intercept = ols_closed_form(xs, ys)
            fit = model.window_fits[w]
            for got, want in ((fit.slope, slope), (fit.intercept, intercept)):
                error = abs(got - want) / max(1.0, abs(want))
                worst = max(worst, error)
                ok = ok and error <= 1e-9

    # noiseless line: window w counts of w per year above 1990 recover the
    # line bit for bit
    clean = [
        (year, tuple(w * (year - 1990) for w in range(1, 6)))
        for year in range(1996, 2004)
        for _ in range(3)
    ]
    clean_model = fit_expectation_model(window_columns(clean), min_papers_per_year=1)
    exact = all(
        clean_model.window_fits[w].slope == float(w)
        and clean_model.window_fits[w].intercept == float(-1990 * w)
        for w in range(1, 6)
    )
    ok = ok and exact
    _report(
        "regression oracle",
        ok,
        f"100 datasets, worst relative error {worst:.2e}; "
        f"noiseless recovery {'exact' if exact else 'inexact'}",
    )


def test_inflation_recovery():
    start = time.perf_counter()
    config = data_config("inflation_config.json")
    corpus = ingest_corpus(generate_corpus(config)[0])
    points = collect_window_points(corpus)
    model = fit_expectation_model(
        points, min_papers_per_year=50, year_range=(1980, 2000)
    )
    elapsed = time.perf_counter() - start
    ratios = [
        model.expected_citations(2000, w) / model.expected_citations(1980, w)
        for w in range(1, 6)
    ]
    ok = (
        len(corpus) >= 2000
        and all(1.8 <= r <= 2.2 for r in ratios)
        and elapsed < 30.0
    )
    _report(
        "inflation recovery",
        ok,
        f"{len(corpus)} papers, 20-year ratios "
        f"{min(ratios):.3f}..{max(ratios):.3f}, {elapsed:.1f} s",
    )


def _cohort_vectors(corpus, author_ids, model):
    return [
        indicator_vector(build_author_record(author_id, papers), model)
        for author_id, papers in corpus.papers_by_author(author_ids).items()
    ]


def test_cohort_experiment():
    fit_config = data_config("experiment_fit_config.json")
    fit_corpus = ingest_corpus(generate_corpus(fit_config)[0])
    model = fit_expectation_model(
        collect_window_points(fit_corpus),
        min_papers_per_year=50,
        year_range=(1980, 2000),
    )

    effect_config = data_config("experiment_effect_config.json")
    effect_lines, stars, controls = generate_corpus(effect_config)
    effect_corpus = ingest_corpus(effect_lines)
    table = compare_cohorts(
        _cohort_vectors(effect_corpus, stars, model),
        _cohort_vectors(effect_corpus, controls, model),
    )
    norm_rank = table.row("norm_citations").rank
    fract_norm_rank = table.row("fract_norm_citations").rank

    null_config = data_config("experiment_null_config.json")
    null_lines, null_stars, null_controls = generate_corpus(null_config)
    null_corpus = ingest_corpus(null_lines)
    null_table = compare_cohorts(
        _cohort_vectors(null_corpus, null_stars, model),
        _cohort_vectors(null_corpus, null_controls, model),
    )
    null_small = sum(1 for row in null_table.rows if row.p < 0.05)

    ok = norm_rank <= 4 and fract_norm_rank <= 4 and null_small < 3
    _report(
        "cohort experiment",
        ok,
        f"normalized indicator ranks {norm_rank} and {fract_norm_rank}; "
        f"null run has {null_small} of 17 below 0.05",
    )


def test_fixture_byte_exactness(tmp_path):
    out = tmp_path / "vectors.tsv"
    code = main(
        [
            "indicators",
            "--corpus", str(DATA / "fixture_corpus.jsonl"),
            "--model", str(DATA / "constant_model.json"),
            "--authors", str(DATA / "fixture_authors.txt"),
            "--coauthor-min", "-1",
            "--coauthor-max", "100",
            "--max-start-year", "none",
            "--out", str(out),
        ]
    )
    expected = (DATA / "expected_vectors.tsv").read_bytes()
    ok = code == 0 and out.read_bytes() == expected
    _report(
        "fixture byte-exactness",
        ok,
        f"exit {code}, {len(expected)} expected bytes "
        f"{'matched' if ok else 'differ'}",
    )
