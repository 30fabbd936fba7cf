import gc
import hashlib
import importlib.util
import json
import logging
import os
import subprocess
import sys
import tracemalloc
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import pytest

import biblio_bench
import biblio_bench.cli
import biblio_bench.corpus
import biblio_bench.indicators
import biblio_bench.synth
from biblio_bench.cli import main
from biblio_bench.expectation import ExpectationModel
from biblio_bench.indicators import indicator_vector, render_vector_table
from biblio_bench.stats import parse_comparison_table
from oracles import constant_model, make_record

DATA = Path(__file__).parent / "data"
FIXTURE_ARGS = [
    "--corpus", str(DATA / "fixture_corpus.jsonl"),
    "--model", str(DATA / "constant_model.json"),
    "--authors", str(DATA / "fixture_authors.txt"),
]
RELAXED = ["--coauthor-min", "-1", "--coauthor-max", "100",
           "--max-start-year", "none"]


def write_config(path, **overrides):
    payload = {
        "seed": 2024,
        "n_control": 8,
        "n_stars": 3,
        "start_year_range": [1994, 1996],
        "papers_per_year_mean": 1.2,
        "coauthor_distribution": {"1": 0.3, "2": 0.4, "3": 0.3},
        "base_expected_citations": 5.0,
        "annual_growth_factor": 1.02,
        "dispersion": 1.5,
        "star_effect_multiplier": 1.4,
    }
    payload.update(overrides)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_generate_writes_corpus_and_manifest(tmp_path):
    config = write_config(tmp_path / "config.json")
    out = tmp_path / "corpus.jsonl"
    assert main(["generate", "--seed-config", str(config), "--out", str(out)]) == 0
    assert out.exists()
    stars = (tmp_path / "corpus.stars.txt").read_text().split()
    controls = (tmp_path / "corpus.controls.txt").read_text().split()
    assert len(stars) == 3 and len(controls) == 8

    manifest = json.loads((tmp_path / "corpus.manifest.json").read_text())
    assert manifest["command"] == "generate"
    assert manifest["config"]["seed"] == 2024
    assert manifest["star_author_ids"] == stars
    recorded = {entry["path"]: entry["sha256"] for entry in manifest["outputs"]}
    assert recorded[str(out)] == sha256(out)


def test_generate_is_deterministic(tmp_path):
    checksums = []
    for name in ("one", "two"):
        workdir = tmp_path / name
        workdir.mkdir()
        config = write_config(workdir / "config.json")
        out = workdir / "corpus.jsonl"
        assert main(["generate", "--seed-config", str(config),
                     "--out", str(out)]) == 0
        checksums.append(sha256(out))
    assert checksums[0] == checksums[1]


def test_generate_missing_seed_field(tmp_path, capsys):
    config = tmp_path / "config.json"
    payload = json.loads(write_config(tmp_path / "full.json").read_text())
    del payload["seed"]
    config.write_text(json.dumps(payload))
    out = tmp_path / "corpus.jsonl"
    assert main(["generate", "--seed-config", str(config), "--out", str(out)]) == 1
    assert "seed" in capsys.readouterr().err
    assert not out.exists()


def test_generate_rejects_malformed_config(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text("{broken")
    assert main(["generate", "--seed-config", str(config),
                 "--out", str(tmp_path / "c.jsonl")]) == 1
    assert "error:" in capsys.readouterr().err


# JSON and table text can hold integers too large for a float.
BEYOND_FLOAT = int("1" * 400)


def test_generate_rejects_number_beyond_float_range(tmp_path, capsys):
    config = write_config(tmp_path / "config.json", dispersion=BEYOND_FLOAT)
    out = tmp_path / "corpus.jsonl"
    assert main(["generate", "--seed-config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(
        "error: dispersion must be a finite number"
    )
    assert not out.exists()


def test_generate_rejects_start_year_beyond_int64(tmp_path, capsys):
    config = write_config(tmp_path / "config.json",
                          start_year_range=[1994, BEYOND_FLOAT])
    out = tmp_path / "corpus.jsonl"
    assert main(["generate", "--seed-config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: start_year_range ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_generate_rejects_paper_mean_too_large_to_draw(tmp_path, capsys):
    # numpy's Poisson draw takes means up to 2**63 - 1 - 10 * sqrt(2**63 - 1).
    config = write_config(tmp_path / "config.json", papers_per_year_mean=1e19)
    out = tmp_path / "corpus.jsonl"
    assert main(["generate", "--seed-config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr() == (
        "", "error: papers_per_year_mean is too large to draw\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


# The latest papers' mean citation rate overflows a float at 200000 and
# exceeds what numpy's negative binomial draws at 60000.
@pytest.mark.parametrize("last_start_year", [200000, 60000])
def test_generate_rejects_rates_too_large_to_draw(tmp_path, capsys, last_start_year):
    payload = json.loads((DATA / "experiment_null_config.json").read_text())
    payload.update(annual_growth_factor=1.02, start_year_range=[1994, last_start_year])
    config = tmp_path / "config.json"
    config.write_text(json.dumps(payload))
    out = tmp_path / "corpus.jsonl"
    assert main(["generate", "--seed-config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", (
        "error: start_year_range and annual_growth_factor give a mean "
        "citation rate too large to draw\n"
    ))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_generate_failure_mid_stream_leaves_no_partial_outputs(
    tmp_path, monkeypatch, capsys, caplog
):
    # About 600 papers, so the corpus reaches its staged file in several writes.
    config = write_config(tmp_path / "config.json", n_control=100)
    out = tmp_path / "corpus.jsonl"
    real = biblio_bench.corpus._HashingFile.write
    writes = []

    def fail_on_second(self, data):
        writes.append(len(data))
        if len(writes) == 2:
            # the corpus is being streamed into its staged file
            assert (tmp_path / "corpus.jsonl.tmp").is_file()
            raise OSError("disk full")
        return real(self, data)

    monkeypatch.setenv("BIBLIO_BENCH_LOG", "INFO")
    monkeypatch.setattr(biblio_bench.corpus._HashingFile, "write", fail_on_second)
    assert main(["generate", "--seed-config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: disk full\n"
    # render_corpus had not finished: it logs the count once it has.
    assert not [m for m in caplog.messages if m.startswith("generated ")]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_generate_writes_the_corpus_without_holding_its_text(tmp_path):
    import numpy.random  # noqa: F401  (its import is not the corpus's memory)

    config = write_config(tmp_path / "config.json", n_control=1500, n_stars=0)
    out = tmp_path / "corpus.jsonl"
    tracemalloc.start()
    try:
        assert main(["generate", "--seed-config", str(config), "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = out.stat().st_size
    assert size > 1_000_000
    # Holding every paper takes several times the corpus size, and holding
    # all lines at once at least the corpus size. What remains, about 0.23 of
    # it here, is one batch of lines and the author id lists and texts.
    assert peak < size / 4, (peak, size)


def test_generate_failure_leaves_no_partial_outputs(tmp_path, capsys):
    config = write_config(tmp_path / "config.json")
    out = tmp_path / "corpus.jsonl"
    # a directory squatting on a sidecar path makes the final move fail
    (tmp_path / "corpus.stars.txt").mkdir()
    assert main(["generate", "--seed-config", str(config), "--out", str(out)]) == 1
    assert not out.exists()
    assert not list(tmp_path.glob("*.tmp"))
    assert not (tmp_path / "corpus.manifest.json").exists()


def generated_corpus(tmp_path, **overrides):
    config = write_config(tmp_path / "config.json", **overrides)
    out = tmp_path / "corpus.jsonl"
    assert main(["generate", "--seed-config", str(config), "--out", str(out)]) == 0
    return out


def test_generate_logs_the_paper_count_it_wrote(tmp_path, monkeypatch, caplog):
    monkeypatch.setenv("BIBLIO_BENCH_LOG", "INFO")
    out = generated_corpus(tmp_path)
    papers = len(out.read_text().splitlines())
    assert f"generated {papers} papers for 3 stars and 8 controls" in caplog.messages


def test_fit_writes_model(tmp_path):
    corpus = generated_corpus(tmp_path, n_control=60, n_stars=0)
    model_path = tmp_path / "model.json"
    assert main(["fit", "--corpus", str(corpus), "--min-papers", "5",
                 "--out", str(model_path)]) == 0
    model = ExpectationModel.from_json(model_path.read_text())
    assert model.window_count == 5
    assert (tmp_path / "model.manifest.json").exists()


def test_fit_min_papers_gate(tmp_path, capsys):
    model_path = tmp_path / "model.json"
    base = ["fit", "--corpus", str(DATA / "fixture_corpus.jsonl"),
            "--out", str(model_path)]
    assert main(base) == 1
    assert "insufficient data" in capsys.readouterr().err
    assert not model_path.exists()
    assert main(base + ["--min-papers", "1"]) == 0
    assert model_path.exists()


def test_fit_single_year_corpus_fails(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(
        '{"paper_id": "p1", "pub_year": 2000, "author_count": 1,'
        ' "citing_years": [2000]}\n'
    )
    assert main(["fit", "--corpus", str(corpus), "--min-papers", "1",
                 "--out", str(tmp_path / "m.json")]) == 1
    assert "insufficient data" in capsys.readouterr().err


def test_fit_years_sharing_one_float_fail_cleanly(tmp_path, capsys):
    # Two distinct years, one float: no line can be fitted through them.
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(
        '{"paper_id": "p1", "pub_year": 100000000000000000, "author_count": 1}\n'
        '{"paper_id": "p2", "pub_year": 100000000000000001, "author_count": 1}\n'
    )
    out = tmp_path / "m.json"
    assert main(["fit", "--corpus", str(corpus), "--min-papers", "1",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: insufficient data: the qualifying publication years all "
        "convert to one float\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("windows", ["0", "-1"])
def test_fit_rejects_windows_below_one(tmp_path, capsys, open_spy, windows):
    # The option is checked before the corpus is opened.
    out = tmp_path / "model.json"
    with open_spy.recording() as opened:
        assert main(["fit", "--corpus", str(DATA / "fixture_corpus.jsonl"),
                     "--min-papers", "1", "--windows", windows,
                     "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: --windows must be >= 1, got {windows}\n"
    assert opened == []
    assert list(tmp_path.iterdir()) == []


def test_fit_year_range_flags(tmp_path):
    corpus = generated_corpus(tmp_path, n_control=60, n_stars=0,
                              start_year_range=[1990, 1999])
    model_path = tmp_path / "model.json"
    assert main(["fit", "--corpus", str(corpus), "--min-papers", "5",
                 "--year-min", "1992", "--year-max", "1997",
                 "--out", str(model_path)]) == 0
    model = ExpectationModel.from_json(model_path.read_text())
    assert model.fit_year_range == (1992, 1997)


def test_fit_year_max_alone(tmp_path):
    corpus = generated_corpus(tmp_path, n_control=60, n_stars=0,
                              start_year_range=[1990, 1999])
    model_path = tmp_path / "model.json"
    assert main(["fit", "--corpus", str(corpus), "--min-papers", "5",
                 "--year-max", "1995", "--out", str(model_path)]) == 0
    assert ExpectationModel.from_json(model_path.read_text()).fit_year_range == (1990, 1995)


def _live(cls):
    gc.collect()
    return sum(isinstance(obj, cls) for obj in gc.get_objects())


def test_fit_frees_the_corpus_before_fitting(tmp_path, monkeypatch):
    # fit_expectation_model loads numpy; by then fit holds no corpus and no
    # Paper of its own, since it never builds one.
    Corpus, Paper = biblio_bench.corpus.Corpus, biblio_bench.corpus.Paper
    real_fit = biblio_bench.cli.fit_expectation_model
    before = (_live(Corpus), _live(Paper))
    alive = []

    def fit(*args, **kwargs):
        alive.append((_live(Corpus), _live(Paper)))
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(biblio_bench.cli, "fit_expectation_model", fit)
    assert main(["fit", "--corpus", str(DATA / "fixture_corpus.jsonl"),
                 "--min-papers", "1", "--out", str(tmp_path / "model.json")]) == 0
    assert alive == [before]


def test_fit_builds_no_author_index(tmp_path, monkeypatch):
    def group(self, author_ids=None):
        raise AssertionError("fit grouped papers by author")

    def build(self, *args, **kwargs):
        raise AssertionError("fit built a Corpus")

    monkeypatch.setattr(biblio_bench.corpus.Corpus, "papers_by_author", group)
    monkeypatch.setattr(biblio_bench.corpus.Corpus, "__init__", build)
    out = tmp_path / "model.json"
    assert main(["fit", "--corpus", str(DATA / "fixture_corpus.jsonl"),
                 "--min-papers", "1", "--out", str(out)]) == 0
    assert ExpectationModel.from_json(out.read_text()).window_count == 5


def test_fit_builds_no_paper_and_writes_the_pinned_model(tmp_path, monkeypatch):
    # fit reads each line's window counts as it is checked: building a Paper
    # fails, and the model is still the pinned one.
    (tmp_path / "config.json").write_bytes(
        (DATA / "experiment_effect_config.json").read_bytes()
    )
    monkeypatch.chdir(tmp_path)
    generate, fit = EFFECT_PIPELINE[:2]
    assert main(generate) == 0

    def build(*args, **kwargs):
        raise AssertionError("fit built a Paper")

    # Paper(...) and ingest_corpus alike set a Paper's fields through _fill.
    monkeypatch.setattr(biblio_bench.corpus.Paper, "_fill", build)
    assert main(fit) == 0
    manifest = tmp_path / "model.manifest.json"
    assert sha256(manifest) == PINNED_MANIFESTS["model.manifest.json"]
    outputs = json.loads(manifest.read_text())["outputs"]
    assert outputs == [{"path": "model.json", "sha256": sha256(tmp_path / "model.json")}]


def test_indicators_builds_no_paper_and_writes_the_pinned_tables(
    tmp_path, monkeypatch
):
    # indicators --authors reads each listed paper's window counts as its
    # line is checked: building a Paper or a Corpus fails, and the stars and
    # controls tables are still the pinned ones.
    (tmp_path / "config.json").write_bytes(
        (DATA / "experiment_effect_config.json").read_bytes()
    )
    monkeypatch.chdir(tmp_path)
    generate, fit, stars, controls = EFFECT_PIPELINE[:4]
    assert main(generate) == 0 and main(fit) == 0

    def build(*args, **kwargs):
        raise AssertionError("indicators built a Paper or a Corpus")

    monkeypatch.setattr(biblio_bench.corpus.Paper, "_fill", build)
    monkeypatch.setattr(biblio_bench.corpus.Corpus, "__init__", build)
    for argv in (stars, controls):
        assert main(argv) == 0, argv
    for name in ("stars.manifest.json", "controls.manifest.json"):
        assert sha256(tmp_path / name) == PINNED_MANIFESTS[name]


def test_generate_builds_no_paper_and_checks_every_paper(
    tmp_path, monkeypatch, capsys
):
    # generate writes each drawn paper's line once _check_paper has passed
    # it: building a Paper fails, and the corpus is still the pinned one.
    config = (DATA / "experiment_effect_config.json").read_bytes()
    for name in ("whole", "failing"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "config.json").write_bytes(config)
    generate = EFFECT_PIPELINE[0]

    def build(*args, **kwargs):
        raise AssertionError("generate built a Paper")

    monkeypatch.setattr(biblio_bench.corpus.Paper, "_fill", build)
    real = biblio_bench.synth._check_paper
    checked = []
    fail_at = 0

    def check(*args):
        checked.append(args[0])
        if len(checked) == fail_at:
            raise ValueError(f"paper {args[0]}: rejected")
        return real(*args)

    monkeypatch.setattr(biblio_bench.synth, "_check_paper", check)
    monkeypatch.chdir(tmp_path / "whole")
    assert main(generate) == 0
    manifest = Path("corpus.manifest.json")
    assert sha256(manifest) == PINNED_MANIFESTS["corpus.manifest.json"]
    lines = Path("corpus.jsonl").read_text().splitlines()
    assert checked == [json.loads(line)["paper_id"] for line in lines]

    checked.clear()
    fail_at = 3
    monkeypatch.chdir(tmp_path / "failing")
    assert main(generate) == 1
    assert capsys.readouterr().err == "error: paper star_0001_p003: rejected\n"
    assert sorted(p.name for p in Path().iterdir()) == ["config.json"]


def test_fit_counts_years_beyond_int64_exactly(tmp_path):
    # As floats 10**20 and 10**20 + 1 are one year; only exact counting drops
    # the second, which has fewer than --min-papers papers.
    big = 10**20
    records = [
        ("a", 2000, [2000, 2001]),
        ("b", 2000, [2003]),
        ("c", big, [big, big, big + 4]),
        ("d", big, []),
        ("e", big + 1, [big + 1]),
    ]
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(
        json.dumps({"paper_id": paper_id, "pub_year": year, "author_count": 1,
                    "citing_years": citing}) + "\n"
        for paper_id, year, citing in records
    ))
    model = tmp_path / "model.json"
    assert main(["fit", "--corpus", str(corpus), "--min-papers", "2",
                 "--out", str(model)]) == 0
    fits = [(5e-21, 0.5), (0.0, 1.0), (0.0, 1.0), (-5e-21, 1.5), (0.0, 1.5)]
    assert model.read_text() == json.dumps({
        "fit_year_range": [2000, big],
        "floor": 1.0,
        "window_fits": {
            str(w): {"slope": slope, "intercept": intercept, "n_points": 4}
            for w, (slope, intercept) in enumerate(fits, start=1)
        },
    }, indent=2) + "\n"


def test_indicators_reproduces_fixture(tmp_path):
    out = tmp_path / "vectors.tsv"
    assert main(["indicators", *FIXTURE_ARGS, *RELAXED, "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / "expected_vectors.tsv").read_bytes()
    manifest = json.loads((tmp_path / "vectors.manifest.json").read_text())
    assert manifest["parameters"]["max_start_year"] == "none"


def corpus_with_huge_pub_year(tmp_path):
    lines = (DATA / "fixture_corpus.jsonl").read_text().splitlines(keepends=True)
    record = json.loads(lines[0])
    record.update(pub_year=BEYOND_FLOAT, citing_years=[BEYOND_FLOAT])
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps(record) + "\n" + "".join(lines[1:]))
    return corpus


def test_fit_rejects_pub_year_beyond_float_range(tmp_path, capsys):
    corpus = corpus_with_huge_pub_year(tmp_path)
    out = tmp_path / "model.json"
    assert main(["fit", "--corpus", str(corpus), "--min-papers", "1",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(
        "error: line 1: paper pA1: pub_year is beyond float range"
    )
    assert not out.exists()


def test_indicators_rejects_pub_year_beyond_float_range(tmp_path, capsys):
    corpus = corpus_with_huge_pub_year(tmp_path)
    out = tmp_path / "v.tsv"
    args = ["indicators", "--corpus", str(corpus),
            "--model", str(DATA / "constant_model.json"), *RELAXED,
            "--out", str(out)]
    assert main(args) == 1
    assert capsys.readouterr().err.startswith(
        "error: line 1: paper pA1: pub_year is beyond float range"
    )
    assert not out.exists()


def test_indicators_rejects_an_author_id_repeated_in_a_paper(tmp_path, capsys):
    # Counted twice, author a would read n=3 and citations=7 from two papers.
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(
        '{"paper_id": "p1", "pub_year": 1995, "author_ids": ["a", "a"],'
        ' "citing_years": [1995, 1996, 1996]}\n'
        '{"paper_id": "p2", "pub_year": 1996, "author_ids": ["a"],'
        ' "citing_years": [1997]}\n'
        '{"paper_id": "p3", "pub_year": 1996, "author_ids": ["b"],'
        ' "citing_years": []}\n'
    )
    out = tmp_path / "v.tsv"
    args = ["indicators", "--corpus", str(corpus),
            "--model", str(DATA / "constant_model.json"), *RELAXED,
            "--out", str(out)]
    assert main(args) == 1
    assert capsys.readouterr().err == (
        "error: line 1: paper p1: author id 'a' is listed twice\n"
    )
    assert not out.exists()


def test_indicators_default_filters(tmp_path):
    # alice and bob average exactly one author per paper, which the open
    # interval (1, 4) rejects; carol averages 2.25 and stays
    out = tmp_path / "vectors.tsv"
    assert main(["indicators", *FIXTURE_ARGS, "--out", str(out)]) == 0
    authors = [line.split("\t")[0] for line in out.read_text().splitlines()[1:]]
    assert authors == ["carol"]


def test_indicators_warns_when_no_author_passes(tmp_path, capsys):
    out = tmp_path / "vectors.tsv"
    args = ["indicators", *FIXTURE_ARGS, "--coauthor-min", "50",
            "--coauthor-max", "100", "--out", str(out)]
    assert main(args) == 0
    assert "no authors passed" in capsys.readouterr().err
    lines = out.read_text().splitlines()
    assert len(lines) == 1 and lines[0].startswith("author_id\t")


def test_indicators_without_author_list_uses_index(tmp_path):
    out = tmp_path / "vectors.tsv"
    args = [
        "indicators",
        "--corpus", str(DATA / "fixture_corpus.jsonl"),
        "--model", str(DATA / "constant_model.json"),
        *RELAXED,
        "--out", str(out),
    ]
    assert main(args) == 0
    authors = [line.split("\t")[0] for line in out.read_text().splitlines()[1:]]
    assert authors == ["alice", "bob", "carol", "dave", "erin", "frank"]


def test_indicators_missing_model(tmp_path, capsys):
    args = ["indicators", "--corpus", str(DATA / "fixture_corpus.jsonl"),
            "--model", str(tmp_path / "nope.json"),
            "--out", str(tmp_path / "v.tsv")]
    assert main(args) == 1
    assert "error:" in capsys.readouterr().err


def test_indicators_rejects_nan_model(tmp_path, capsys):
    payload = json.loads((DATA / "constant_model.json").read_text())
    payload["window_fits"]["1"]["intercept"] = float("nan")
    model = tmp_path / "nan_model.json"
    model.write_text(json.dumps(payload))
    out = tmp_path / "v.tsv"
    args = ["indicators", "--corpus", str(DATA / "fixture_corpus.jsonl"),
            "--model", str(model), *RELAXED, "--out", str(out)]
    assert main(args) == 1
    assert capsys.readouterr().err == (
        "error: window_fits['1'].intercept must be a finite number\n"
    )
    assert not out.exists()


def test_indicators_rejects_model_number_beyond_float_range(tmp_path, capsys):
    payload = json.loads((DATA / "constant_model.json").read_text())
    payload["window_fits"]["1"]["slope"] = BEYOND_FLOAT
    model = tmp_path / "big_model.json"
    model.write_text(json.dumps(payload))
    out = tmp_path / "v.tsv"
    args = ["indicators", "--corpus", str(DATA / "fixture_corpus.jsonl"),
            "--model", str(model), *RELAXED, "--out", str(out)]
    assert main(args) == 1
    assert capsys.readouterr().err == (
        "error: window_fits['1'].slope must be a finite number\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda m: [1, 2], "model must be a JSON object"),
        (lambda m: {**m, "fit_year_range": 5},
         "fit_year_range must be a 2-element list"),
        (lambda m: {**m, "fit_year_range": [1990]},
         "fit_year_range must be a 2-element list"),
        (lambda m: {**m, "window_fits": []}, "window_fits must be an object"),
        (lambda m: {**m, "window_fits": {"1": 5}},
         "window_fits['1'] must be an object"),
        (lambda m: {**m, "window_fits": {"1": {"slope": 0.0, "intercept": 2.5}}},
         "window_fits['1'] is missing required field: n_points"),
    ],
    ids=["list", "range_int", "range_short", "fits_list", "fit_int", "no_n_points"],
)
def test_indicators_names_the_malformed_model_field(tmp_path, capsys, edit, message):
    payload = json.loads((DATA / "constant_model.json").read_text())
    model = tmp_path / "model.json"
    model.write_text(json.dumps(edit(payload)))
    out = tmp_path / "v.tsv"
    args = ["indicators", "--corpus", str(DATA / "fixture_corpus.jsonl"),
            "--model", str(model), *RELAXED, "--out", str(out)]
    assert main(args) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]


def test_indicators_window_mismatch(tmp_path, capsys):
    args = ["indicators", *FIXTURE_ARGS, *RELAXED, "--windows", "6",
            "--out", str(tmp_path / "v.tsv")]
    assert main(args) == 1
    assert "model provides windows" in capsys.readouterr().err


@pytest.mark.parametrize("windows", ["0", "-1"])
@pytest.mark.parametrize("listed", ["", "alice\n"])
def test_indicators_rejects_windows_below_one(
    tmp_path, capsys, open_spy, windows, listed
):
    # with no listed author no record is built, so nothing else would catch
    # it; the model is read and the option checked before the corpus is opened
    listing = tmp_path / "authors.txt"
    listing.write_text(listed)
    corpus, model = DATA / "fixture_corpus.jsonl", DATA / "constant_model.json"
    args = ["indicators", "--corpus", str(corpus), "--model", str(model),
            "--authors", str(listing), *RELAXED, "--windows", windows,
            "--out", str(tmp_path / "v.tsv")]
    with open_spy.recording() as opened:
        assert main(args) == 1
    assert capsys.readouterr().err == (
        f"error: model provides windows 1..5 but --windows is {windows}\n"
    )
    assert os.path.abspath(model) in opened
    assert os.path.abspath(corpus) not in opened
    assert [p.name for p in tmp_path.iterdir()] == ["authors.txt"]


def test_indicators_unknown_author(tmp_path, capsys):
    listing = tmp_path / "authors.txt"
    listing.write_text("alice\nghost\n")
    args = ["indicators",
            "--corpus", str(DATA / "fixture_corpus.jsonl"),
            "--model", str(DATA / "constant_model.json"),
            "--authors", str(listing), *RELAXED,
            "--out", str(tmp_path / "v.tsv")]
    assert main(args) == 1
    assert capsys.readouterr().err == "error: author 'ghost' not found in corpus\n"


def test_indicators_groups_only_listed_authors(tmp_path, monkeypatch):
    real_ingest = biblio_bench.cli.ingest_corpus
    read = []

    def ingest(*args, **kwargs):
        read.append(real_ingest(*args, **kwargs))
        return read[-1]

    def group(self, author_ids=None):
        raise AssertionError("indicators --authors grouped a Corpus")

    monkeypatch.setattr(biblio_bench.cli, "ingest_corpus", ingest)
    monkeypatch.setattr(biblio_bench.corpus.Corpus, "papers_by_author", group)
    assert main(["indicators", *FIXTURE_ARGS, *RELAXED,
                 "--out", str(tmp_path / "v.tsv")]) == 0
    # The fixture corpus has six authors and nine papers; the list names
    # three, who wrote seven of them.
    assert [list(listed.groups) for listed in read] == [["alice", "bob", "carol"]]
    assert len(read[0]) == 7


def test_indicators_rejects_an_author_listed_twice(tmp_path, capsys):
    listing = tmp_path / "authors.txt"
    listing.write_text("carol\n# a comment\nalice\n\n  carol\n")
    out = tmp_path / "v.tsv"
    args = ["indicators",
            "--corpus", str(DATA / "fixture_corpus.jsonl"),
            "--model", str(DATA / "constant_model.json"),
            "--authors", str(listing), *RELAXED, "--out", str(out)]
    assert main(args) == 1
    assert capsys.readouterr().err == (
        "error: --authors lists 'carol' twice, on lines 1 and 5\n"
    )
    assert not out.exists()


def bad_line_corpus(tmp_path):
    """The fixture corpus plus a tenth line, by an unlisted author, that
    cites a year before its publication."""
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(
        (DATA / "fixture_corpus.jsonl").read_text()
        + '{"paper_id": "pZ1", "pub_year": 2000, "author_ids": ["zed"],'
        ' "citing_years": [2001, 1999]}\n'
    )
    return corpus


def test_indicators_checks_lines_of_unlisted_authors(tmp_path, capsys):
    # zed is not in --authors, so line 10 builds no paper; it is still checked.
    out = tmp_path / "v.tsv"
    args = ["indicators", "--corpus", str(bad_line_corpus(tmp_path)),
            "--model", str(DATA / "constant_model.json"),
            "--authors", str(DATA / "fixture_authors.txt"), *RELAXED,
            "--out", str(out)]
    assert main(args) == 1
    assert capsys.readouterr().err == (
        "error: line 10: paper pZ1: citing year 1999 precedes publication "
        "year 2000\n"
    )
    assert not out.exists()


def test_indicators_reports_a_bad_author_list_before_a_bad_corpus(
    tmp_path, capsys
):
    listing = tmp_path / "authors.txt"
    listing.write_text("carol\ncarol\n")
    args = ["indicators", "--corpus", str(bad_line_corpus(tmp_path)),
            "--model", str(DATA / "constant_model.json"),
            "--authors", str(listing), "--out", str(tmp_path / "v.tsv")]
    assert main(args) == 1
    assert capsys.readouterr().err == (
        "error: --authors lists 'carol' twice, on lines 1 and 2\n"
    )


# U+2028 ends a line for str.splitlines(), but is a valid character of an id.
SEPARATED_ID = "ali\u2028ce"


def corpus_by_separated_id(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    text = (DATA / "fixture_corpus.jsonl").read_text()
    corpus.write_text(text.replace('"alice"', json.dumps(SEPARATED_ID)))
    return corpus


def test_indicators_lists_an_author_id_holding_a_line_separator(tmp_path):
    listing = tmp_path / "authors.txt"
    listing.write_text(f"{SEPARATED_ID}\nbob\n", encoding="utf-8")
    out = tmp_path / "v.tsv"
    args = ["indicators", "--corpus", str(corpus_by_separated_id(tmp_path)),
            "--model", str(DATA / "constant_model.json"),
            "--authors", str(listing), *RELAXED, "--out", str(out)]
    assert main(args) == 0
    rows = out.read_text(encoding="utf-8").split("\n")[1:-1]
    assert [row.split("\t")[0] for row in rows] == [SEPARATED_ID, "bob"]


def test_compare_reads_an_author_id_holding_a_line_separator(tmp_path):
    table = tmp_path / "v.tsv"
    assert main(["indicators", "--corpus", str(corpus_by_separated_id(tmp_path)),
                 "--model", str(DATA / "constant_model.json"), *RELAXED,
                 "--out", str(table)]) == 0
    assert SEPARATED_ID in table.read_text(encoding="utf-8")
    out = tmp_path / "c.tsv"
    assert main(["compare", "--stars", str(table), "--control", str(table),
                 "--out", str(out)]) == 0


def test_indicators_stdout_uses_three_decimals(capsys):
    assert main(["indicators", *FIXTURE_ARGS, *RELAXED]) == 0
    out = capsys.readouterr().out
    carol = next(line for line in out.splitlines() if line.startswith("carol"))
    assert carol.split("\t")[2] == "2.250"


def test_indicators_bad_start_year_value(tmp_path, capsys):
    args = ["indicators", *FIXTURE_ARGS, "--max-start-year", "soon",
            "--out", str(tmp_path / "v.tsv")]
    assert main(args) == 1
    assert "max-start-year" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value, field",
    [
        ("--coauthor-min", "nan", "mean_coauthors_min"),
        ("--coauthor-max", "inf", "mean_coauthors_max"),
        ("--coauthor-hard-cap", "nan", "hard_mean_coauthor_cap"),
        ("--coauthor-hard-cap", "inf", "hard_mean_coauthor_cap"),
    ],
)
def test_indicators_rejects_non_finite_filter_bounds(
    tmp_path, capsys, flag, value, field
):
    out = tmp_path / "v.tsv"
    args = ["indicators", *FIXTURE_ARGS, flag, value, "--out", str(out)]
    assert main(args) == 1
    assert capsys.readouterr().err == f"error: {field} must be a finite number\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["indicators", *FIXTURE_ARGS],
        ["compare", "--stars", str(DATA / "expected_vectors.tsv"),
         "--control", str(DATA / "expected_vectors.tsv")],
    ],
    ids=["indicators", "compare"],
)
def test_negative_precision_is_rejected(tmp_path, capsys, argv):
    assert main([*argv, "--precision", "-1", "--out", str(tmp_path / "out.tsv")]) == 1
    assert capsys.readouterr().err == "error: --precision must be >= 0, got -1\n"
    assert list(tmp_path.iterdir()) == []


def test_indicators_runs_are_reproducible(tmp_path):
    outs = []
    for name in ("one", "two"):
        out = tmp_path / f"{name}.tsv"
        assert main(["indicators", *FIXTURE_ARGS, *RELAXED,
                     "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def cohort_table(path, seed, size, scale):
    import numpy as np

    rng = np.random.default_rng(seed)
    model = constant_model(expected=2.5)
    rows = []
    for i in range(size):
        pairs = [
            (int(rng.poisson(4 * scale)), int(rng.integers(1, 5)))
            for _ in range(int(rng.integers(2, 9)))
        ]
        rows.append((f"a{i:03d}", indicator_vector(make_record(pairs), model)))
    path.write_text(render_vector_table(rows))
    return path


def test_compare_outputs_tables_and_boxplots(tmp_path):
    stars = cohort_table(tmp_path / "stars.tsv", 1, 12, 4.0)
    control = cohort_table(tmp_path / "control.tsv", 2, 15, 1.0)
    out = tmp_path / "comparison.tsv"
    assert main(["compare", "--stars", str(stars), "--control", str(control),
                 "--out", str(out)]) == 0
    table = parse_comparison_table(out.read_text())
    assert len(table.rows) == 17
    # stars were drawn with four times the citation rate
    assert table.row("citations").median_stars > table.row("citations").median_control

    boxplot_lines = (tmp_path / "comparison.boxplot.tsv").read_text().splitlines()
    assert len(boxplot_lines) == 1 + 17 * 2
    assert boxplot_lines[1].split("\t")[:2] == ["stars", "n"]
    assert boxplot_lines[2].split("\t")[:2] == ["control", "n"]

    manifest = json.loads((tmp_path / "comparison.manifest.json").read_text())
    assert len(manifest["outputs"]) == 2


def test_compare_dominant_indicator_ranks_first(tmp_path):
    # cohorts identical except for norm_citations, which separates cleanly,
    # so it must carry the only small p and therefore rank 1
    base = indicator_vector(make_record([(4, 2), (1, 1)]), constant_model())
    star_rows = [
        (f"s{i}", replace(base, norm_citations=50.0 + i)) for i in range(10)
    ]
    control_rows = [
        (f"c{i}", replace(base, norm_citations=1.0 + i)) for i in range(10)
    ]
    stars = tmp_path / "stars.tsv"
    stars.write_text(render_vector_table(star_rows))
    control = tmp_path / "control.tsv"
    control.write_text(render_vector_table(control_rows))
    out = tmp_path / "comparison.tsv"
    assert main(["compare", "--stars", str(stars), "--control", str(control),
                 "--out", str(out)]) == 0
    table = parse_comparison_table(out.read_text())
    assert table.row("norm_citations").rank == 1
    assert all(row.p == 0.5 for row in table.rows
               if row.indicator != "norm_citations")


def test_compare_identical_tables_p_near_half(tmp_path):
    table_path = cohort_table(tmp_path / "same.tsv", 5, 14, 1.0)
    out = tmp_path / "comparison.tsv"
    assert main(["compare", "--stars", str(table_path),
                 "--control", str(table_path), "--out", str(out)]) == 0
    for row in parse_comparison_table(out.read_text()).rows:
        assert 0.45 <= row.p <= 0.55


def test_compare_rejects_empty_table(tmp_path, capsys):
    empty = tmp_path / "empty.tsv"
    full = cohort_table(tmp_path / "full.tsv", 1, 5, 1.0)
    empty.write_text(full.read_text().splitlines()[0] + "\n")
    assert main(["compare", "--stars", str(empty), "--control", str(full),
                 "--out", str(tmp_path / "c.tsv")]) == 1
    assert "no rows" in capsys.readouterr().err


def test_compare_missing_file(tmp_path, capsys):
    full = cohort_table(tmp_path / "full.tsv", 1, 5, 1.0)
    assert main(["compare", "--stars", str(tmp_path / "nope.tsv"),
                 "--control", str(full), "--out", str(tmp_path / "c.tsv")]) == 1
    assert "error:" in capsys.readouterr().err


def test_compare_rejects_nan_cell(tmp_path, capsys):
    full = cohort_table(tmp_path / "full.tsv", 1, 5, 1.0)
    header, first, *rest = full.read_text().splitlines()
    cells = first.split("\t")
    cells[4] = "nan"
    nan_table = tmp_path / "nan.tsv"
    nan_table.write_text("\n".join([header, "\t".join(cells), *rest]) + "\n")
    assert main(["compare", "--stars", str(nan_table), "--control", str(full),
                 "--out", str(tmp_path / "c.tsv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(
        f"error: --stars {nan_table}: line 2: norm_citations is 'nan'"
    )
    assert not (tmp_path / "c.tsv").exists()


def compare_with_a_repeated_author_row(tmp_path, capsys, faulty):
    full = cohort_table(tmp_path / "full.tsv", 1, 5, 1.0)
    header, first, *rest = full.read_text().splitlines()
    repeated = tmp_path / "repeated.tsv"
    repeated.write_text("\n".join([header, first, *rest, first]) + "\n")
    tables = {"stars": full, "control": full, faulty: repeated}
    out = tmp_path / "c.tsv"
    assert main(["compare", "--stars", str(tables["stars"]),
                 "--control", str(tables["control"]), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: --{faulty} {repeated}: line 7: author_id 'a000' repeats line 2\n"
    )
    assert not out.exists()


def test_compare_rejects_a_repeated_author_row(tmp_path, capsys):
    compare_with_a_repeated_author_row(tmp_path, capsys, "control")


def test_compare_names_the_stars_table_at_fault(tmp_path, capsys):
    compare_with_a_repeated_author_row(tmp_path, capsys, "stars")


def test_compare_rejects_cell_beyond_float_range(tmp_path, capsys):
    full = cohort_table(tmp_path / "full.tsv", 1, 5, 1.0)
    header, first, *rest = full.read_text().splitlines()
    cells = first.split("\t")
    cells[1] = str(BEYOND_FLOAT)  # the n column
    big_table = tmp_path / "big.tsv"
    big_table.write_text("\n".join([header, "\t".join(cells), *rest]) + "\n")
    assert main(["compare", "--stars", str(big_table), "--control", str(full),
                 "--out", str(tmp_path / "c.tsv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(
        f"error: --stars {big_table}: line 2: n is '{BEYOND_FLOAT}', "
        "not a finite number"
    )
    assert not (tmp_path / "c.tsv").exists()


def test_compare_stdout_mode(tmp_path, capsys):
    stars = cohort_table(tmp_path / "stars.tsv", 1, 8, 2.0)
    control = cohort_table(tmp_path / "control.tsv", 2, 8, 1.0)
    assert main(["compare", "--stars", str(stars), "--control", str(control)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("indicator\t")
    assert "\ncohort\tindicator\t" in out


def test_full_pipeline(tmp_path):
    config = write_config(tmp_path / "config.json", n_control=25, n_stars=10,
                          seed=31415)
    corpus = tmp_path / "corpus.jsonl"
    assert main(["generate", "--seed-config", str(config),
                 "--out", str(corpus)]) == 0
    model = tmp_path / "model.json"
    assert main(["fit", "--corpus", str(corpus), "--min-papers", "5",
                 "--out", str(model)]) == 0
    tables = {}
    for cohort in ("stars", "controls"):
        out = tmp_path / f"{cohort}.tsv"
        assert main([
            "indicators", "--corpus", str(corpus), "--model", str(model),
            "--authors", str(tmp_path / f"corpus.{cohort}.txt"),
            "--coauthor-min", "-1", "--coauthor-max", "100",
            "--max-start-year", "none", "--out", str(out),
        ]) == 0
        tables[cohort] = out
    comparison = tmp_path / "comparison.tsv"
    assert main(["compare", "--stars", str(tables["stars"]),
                 "--control", str(tables["controls"]),
                 "--out", str(comparison)]) == 0
    assert len(parse_comparison_table(comparison.read_text()).rows) == 17


def test_log_env_var_sets_level(tmp_path, monkeypatch):
    monkeypatch.setenv("BIBLIO_BENCH_LOG", "DEBUG")
    with pytest.raises(SystemExit):
        main(["--version"])
    assert logging.getLogger("biblio_bench").level == logging.DEBUG
    monkeypatch.setenv("BIBLIO_BENCH_LOG", "NOT_A_LEVEL")
    with pytest.raises(SystemExit):
        main(["--version"])
    assert logging.getLogger("biblio_bench").level == logging.WARNING


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0
    assert "biblio-bench" in capsys.readouterr().out


STARTUP_PROBE = """
import sys
import biblio_bench.cli as cli
stars, control, *indicator_args = sys.argv[1:]
def unloaded(step):
    for name in ("numpy", "statistics"):
        assert name not in sys.modules, (name, step)
unloaded("import")
try:
    cli.main(["--version"])
except SystemExit:
    pass
unloaded("--version")
assert cli.main(["indicators", *indicator_args]) == 0
unloaded("indicators")
assert cli.main(["compare", "--stars", stars, "--control", control]) == 0
unloaded("compare")
"""


def test_version_and_indicators_do_not_load_numpy(tmp_path):
    # numpy's import is most of the start-up time; only generate and fit
    # need it. statistics brings fractions and decimal, about 5 ms.
    header, *rows = (DATA / "expected_vectors.tsv").read_text().splitlines()
    stars, control = tmp_path / "stars.tsv", tmp_path / "control.tsv"
    stars.write_text("\n".join([header, *rows[:2]]) + "\n")
    control.write_text("\n".join([header, *rows[2:]]) + "\n")
    env = dict(os.environ)
    src = str(Path(biblio_bench.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", STARTUP_PROBE, str(stars), str(control),
         *FIXTURE_ARGS],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("biblio-bench ")
    assert "\nauthor_id\t" in result.stdout
    assert "\nindicator\tmedian_stars\t" in result.stdout


# The effect-config pipeline from a working directory, with relative paths,
# so manifests carry no machine-specific path and can be pinned byte for byte.
EFFECT_PIPELINE = [
    ["generate", "--seed-config", "config.json", "--out", "corpus.jsonl"],
    ["fit", "--corpus", "corpus.jsonl", "--min-papers", "20",
     "--year-max", "1999", "--out", "model.json"],
    ["indicators", "--corpus", "corpus.jsonl", "--model", "model.json",
     "--authors", "corpus.stars.txt", "--max-start-year", "none",
     "--out", "stars.tsv"],
    ["indicators", "--corpus", "corpus.jsonl", "--model", "model.json",
     "--authors", "corpus.controls.txt", "--max-start-year", "none",
     "--coauthor-hard-cap", "3.5", "--precision", "6", "--out", "controls.tsv"],
    ["compare", "--stars", "stars.tsv", "--control", "controls.tsv",
     "--out", "comparison.tsv"],
]

# sha256 of each manifest: a change to any recorded parameter, input or
# output moves one, so re-pin only for a deliberate change of manifest bytes.
PINNED_MANIFESTS = {
    "corpus.manifest.json":
        "2128c99bd816cbda2b82dde4235bdd42b21bf126a54c7370e61d1a5ace8d0f62",
    "model.manifest.json":
        "f7527e2f413f080e28709da0551974453354f13b73579c450e285aee2edadf5b",
    "stars.manifest.json":
        "ba530c56c787219fb3c937bcf48edbb7b6232d03c42a1680fd84846ec717e96e",
    "controls.manifest.json":
        "96f243922ab9913126930f35ca7e75f66e536816d4c07ab3f35d1dcd80ec5020",
    "comparison.manifest.json":
        "fe3df620de94a389e8e40f4dec14d69f95726e2c18967e737a375366773707f8",
}


def run_effect_pipeline(workdir, monkeypatch):
    (workdir / "config.json").write_bytes(
        (DATA / "experiment_effect_config.json").read_bytes()
    )
    monkeypatch.chdir(workdir)
    for argv in EFFECT_PIPELINE:
        assert main(argv) == 0, argv


def test_manifest_bytes_are_pinned(tmp_path, monkeypatch):
    run_effect_pipeline(tmp_path, monkeypatch)
    digests = {name: sha256(tmp_path / name) for name in PINNED_MANIFESTS}
    assert digests == PINNED_MANIFESTS
    assert sorted(p.name for p in tmp_path.glob("*.manifest.json")) == sorted(
        PINNED_MANIFESTS
    )


class OpenSpy:
    """An audit hook recording, while active, every path the process opens.

    The "open" audit event is raised by open(), io.FileIO, pathlib and
    os.open alike. A hook cannot be removed, so one spy serves the module
    and records only inside `recording()`.
    """

    def __init__(self):
        self.paths = None

    def __call__(self, event, args):
        if event == "open" and self.paths is not None and not isinstance(args[0], int):
            self.paths.append(os.path.abspath(os.fsdecode(args[0])))

    @contextmanager
    def recording(self):
        self.paths = []
        try:
            yield self.paths
        finally:
            self.paths = None


@pytest.fixture(scope="module")
def open_spy():
    spy = OpenSpy()
    sys.addaudithook(spy)
    return spy


def test_each_input_is_opened_once_and_hashed_whole(tmp_path, monkeypatch, open_spy):
    (tmp_path / "config.json").write_bytes(
        (DATA / "experiment_effect_config.json").read_bytes()
    )
    monkeypatch.chdir(tmp_path)
    for argv in EFFECT_PIPELINE:
        with open_spy.recording() as opened:
            assert main(argv) == 0, argv
        out = Path(argv[argv.index("--out") + 1])
        manifest = json.loads((tmp_path / f"{out.stem}.manifest.json").read_text())
        options = [argv[i + 1] for i, a in enumerate(argv) if a in (
            "--seed-config", "--corpus", "--model", "--authors", "--stars",
            "--control")]
        assert [entry["path"] for entry in manifest["inputs"]] == options
        for entry in manifest["inputs"]:
            path = tmp_path / entry["path"]
            assert opened.count(str(path)) == 1, (argv[0], entry["path"], opened)
            assert entry["sha256"] == sha256(path)


# The modules whose attributes the benchmark's traced run swaps.
TRACED_MODULES = {"cli": biblio_bench.cli, "indicators": biblio_bench.indicators}


def load_tracing():
    """The benchmark's span recorder, perfbench/tracing.py, as it stands."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", Path(__file__).parents[1] / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_names_resolve_to_callables():
    # tracing.py wraps these names from outside the package, so a rename
    # would break the benchmark's traced run.
    tracing = load_tracing()
    for module, attr, _, _ in tracing.WRAPPED:
        assert callable(getattr(TRACED_MODULES[module], attr, None)), (module, attr)


def test_commands_look_up_traced_names_at_call_time(tmp_path, monkeypatch):
    # The benchmark's traced run (perfbench/tracing.py) swaps these module
    # attributes; a command that bound one at import time would escape it.
    # Its counters read each call's arguments and result, so this also
    # catches a changed signature.
    tracing = load_tracing()
    tracer = tracing.Tracer()
    with tracing.installed(tracer, TRACED_MODULES):
        run_effect_pipeline(tmp_path, monkeypatch)
    spans = {span[0] for span in tracer.spans}
    assert {name for _, _, name, _ in tracing.WRAPPED} - spans == set()
    assert tracer.check_nesting() == []
    # fit and the two indicators runs each read the corpus once.
    assert tracer.counts["corpus.ingest_calls"] == 3
