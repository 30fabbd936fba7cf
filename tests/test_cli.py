import gc
import hashlib
import importlib.util
import json
import logging
import os
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import biblio_bench
import biblio_bench.cli
import biblio_bench.corpus
import biblio_bench.indicators
import biblio_bench.synth
from biblio_bench.cli import main
from biblio_bench.expectation import ExpectationModel
from biblio_bench.indicators import indicator_vector, parse_table, render_vector_table
from biblio_bench.stats import ComparisonRow
from biblio_bench.synth import SynthConfig
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
    config = write_config(tmp_path / "config.json", n_control=1500, n_stars=0)
    out = tmp_path / "corpus.jsonl"
    argv = ["generate", "--seed-config", str(config), "--out", str(out)]
    # An untraced first run imports numpy and fills the interpreter's caches
    # and freelists, which are not the corpus's memory.
    assert main(argv) == 0
    tracemalloc.start()
    try:
        assert main(argv) == 0
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
    # fit_expectation_model loads numpy; by then fit holds no grouped papers
    # and no paper of its own, since it never reads one.
    ListedPapers = biblio_bench.corpus.ListedPapers
    PaperWindows = biblio_bench.corpus.PaperWindows
    real_fit = biblio_bench.cli.fit_expectation_model
    before = (_live(ListedPapers), _live(PaperWindows))
    alive = []

    def fit(*args, **kwargs):
        alive.append((_live(ListedPapers), _live(PaperWindows)))
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(biblio_bench.cli, "fit_expectation_model", fit)
    assert main(["fit", "--corpus", str(DATA / "fixture_corpus.jsonl"),
                 "--min-papers", "1", "--out", str(tmp_path / "model.json")]) == 0
    assert alive == [before]


def test_fit_builds_no_author_index(tmp_path, monkeypatch):
    real_ingest = biblio_bench.cli.ingest_corpus
    read = []

    def ingest(*args, **kwargs):
        read.append((kwargs.get("authors"), real_ingest(*args, **kwargs)))
        return read[-1][1]

    monkeypatch.setattr(biblio_bench.cli, "ingest_corpus", ingest)
    out = tmp_path / "model.json"
    assert main(["fit", "--corpus", str(DATA / "fixture_corpus.jsonl"),
                 "--min-papers", "1", "--out", str(out)]) == 0
    assert ExpectationModel.from_json(out.read_text()).window_count == 5
    # One read, of fit points only: no paper is grouped by author.
    [(authors, points)] = read
    assert authors is None and type(points) is biblio_bench.corpus.WindowPoints


def test_fit_builds_no_paper_and_writes_the_pinned_model(tmp_path, monkeypatch):
    # fit reads each line's window counts as it is checked: building a paper
    # fails, and the model is still the pinned one.
    (tmp_path / "config.json").write_bytes(
        (DATA / "experiment_effect_config.json").read_bytes()
    )
    monkeypatch.chdir(tmp_path)
    generate, fit = EFFECT_PIPELINE[:2]
    assert main(generate) == 0

    def build(*args, **kwargs):
        raise AssertionError("fit built a paper")

    monkeypatch.setattr(biblio_bench.corpus.PaperWindows, "__init__", build)
    assert main(fit) == 0
    manifest = tmp_path / "model.manifest.json"
    assert sha256(manifest) == PINNED_MANIFESTS["model.manifest.json"]
    outputs = json.loads(manifest.read_text())["outputs"]
    assert outputs == [{"path": "model.json", "sha256": sha256(tmp_path / "model.json")}]


def test_indicators_builds_no_paper_and_writes_the_pinned_tables(
    tmp_path, monkeypatch
):
    # indicators --authors reads each listed paper's window counts as its
    # line is checked, and the stars and controls tables are the pinned ones.
    (tmp_path / "config.json").write_bytes(
        (DATA / "experiment_effect_config.json").read_bytes()
    )
    monkeypatch.chdir(tmp_path)
    generate, fit, stars, controls = EFFECT_PIPELINE[:4]
    assert main(generate) == 0 and main(fit) == 0
    for argv in (stars, controls):
        assert main(argv) == 0, argv
    for name in ("stars.manifest.json", "controls.manifest.json"):
        assert sha256(tmp_path / name) == PINNED_MANIFESTS[name]


def test_generate_builds_no_paper_and_writes_all_papers_or_none(
    tmp_path, monkeypatch, capsys
):
    # generate writes each drawn paper straight to its line, which is checked
    # where it is read, as any corpus line is: building a paper fails, and
    # the corpus is still the pinned one. A paper that fails to be written
    # leaves no output at all.
    config = (DATA / "experiment_effect_config.json").read_bytes()
    for name in ("whole", "failing"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "config.json").write_bytes(config)
    generate = EFFECT_PIPELINE[0]

    def build(*args, **kwargs):
        raise AssertionError("generate built a paper")

    monkeypatch.setattr(biblio_bench.corpus.PaperWindows, "__init__", build)
    real = biblio_bench.synth._paper_line
    written = []
    fail_at = 0

    def paper_line(paper_id, *args):
        written.append(paper_id)
        if len(written) == fail_at:
            raise ValueError(f"paper {paper_id}: rejected")
        return real(paper_id, *args)

    monkeypatch.setattr(biblio_bench.synth, "_paper_line", paper_line)
    monkeypatch.chdir(tmp_path / "whole")
    assert main(generate) == 0
    manifest = Path("corpus.manifest.json")
    assert sha256(manifest) == PINNED_MANIFESTS["corpus.manifest.json"]
    lines = Path("corpus.jsonl").read_text().splitlines()
    assert written == [json.loads(line)["paper_id"] for line in lines]

    written.clear()
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

    monkeypatch.setattr(biblio_bench.cli, "ingest_corpus", ingest)
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


def corpus_renaming_alice(tmp_path, author_id=SEPARATED_ID):
    corpus = tmp_path / "corpus.jsonl"
    text = (DATA / "fixture_corpus.jsonl").read_text()
    corpus.write_text(text.replace('"alice"', json.dumps(author_id)))
    return corpus


def test_indicators_lists_an_author_id_holding_a_line_separator(tmp_path):
    listing = tmp_path / "authors.txt"
    listing.write_text(f"{SEPARATED_ID}\nbob\n", encoding="utf-8")
    out = tmp_path / "v.tsv"
    args = ["indicators", "--corpus", str(corpus_renaming_alice(tmp_path)),
            "--model", str(DATA / "constant_model.json"),
            "--authors", str(listing), *RELAXED, "--out", str(out)]
    assert main(args) == 0
    rows = out.read_text(encoding="utf-8").split("\n")[1:-1]
    assert [row.split("\t")[0] for row in rows] == [SEPARATED_ID, "bob"]


def test_compare_reads_an_author_id_holding_a_line_separator(tmp_path):
    table = tmp_path / "v.tsv"
    assert main(["indicators", "--corpus", str(corpus_renaming_alice(tmp_path)),
                 "--model", str(DATA / "constant_model.json"), *RELAXED,
                 "--out", str(table)]) == 0
    assert SEPARATED_ID in table.read_text(encoding="utf-8")
    out = tmp_path / "c.tsv"
    assert main(["compare", "--stars", str(table), "--control", str(table),
                 "--out", str(out)]) == 0


@pytest.mark.parametrize("author_id", ["al\tice", "al\rice", "al\nice"])
def test_indicators_rejects_an_author_id_that_would_split_its_row(
    tmp_path, capsys, author_id
):
    # compare would read such a row as 19 cells, or as two rows.
    corpus = corpus_renaming_alice(tmp_path, author_id)
    assert main(["indicators", "--corpus", str(corpus),
                 "--model", str(DATA / "constant_model.json"), *RELAXED,
                 "--out", str(tmp_path / "v.tsv")]) == 1
    assert capsys.readouterr().err == (
        f"error: line 1: paper pA1: author id {author_id!r} holds a tab or line "
        "break, or starts or ends with whitespace\n"
    )
    assert list(tmp_path.iterdir()) == [corpus]


@pytest.mark.parametrize("author_id", ["alice ", "\u2028alice"])
def test_indicators_rejects_an_author_id_with_whitespace_at_either_end(
    tmp_path, capsys, author_id
):
    # --authors strips each line, so it could never list such an id.
    corpus = corpus_renaming_alice(tmp_path, author_id)
    listing = tmp_path / "authors.txt"
    listing.write_text(f"{author_id}\n", encoding="utf-8")
    args = ["indicators", "--corpus", str(corpus),
            "--model", str(DATA / "constant_model.json"), *RELAXED,
            "--out", str(tmp_path / "v.tsv")]
    for listed in ([], ["--authors", str(listing)]):
        assert main(args + listed) == 1
        assert capsys.readouterr().err == (
            f"error: line 1: paper pA1: author id {author_id!r} holds a tab or "
            "line break, or starts or ends with whitespace\n"
        )
    assert sorted(tmp_path.iterdir()) == [listing, corpus]


def test_an_author_id_may_hold_a_hash_but_not_start_with_one(tmp_path, capsys):
    # --authors skips '#' lines, so it could never list "#alice".
    listing = tmp_path / "authors.txt"
    out = tmp_path / "v.tsv"
    args = ["indicators", "--model", str(DATA / "constant_model.json"), *RELAXED,
            "--out", str(out)]
    listing.write_text("al#ice\n", encoding="utf-8")
    corpus = corpus_renaming_alice(tmp_path, "al#ice")
    assert main(args + ["--corpus", str(corpus), "--authors", str(listing)]) == 0
    rows = out.read_text(encoding="utf-8").split("\n")[1:-1]
    assert [row.split("\t")[0] for row in rows] == ["al#ice"]
    listing.write_text("#alice\n", encoding="utf-8")
    corpus = corpus_renaming_alice(tmp_path, "#alice")
    for listed in ([], ["--authors", str(listing)]):
        assert main(args + ["--corpus", str(corpus), *listed]) == 1
        assert capsys.readouterr().err == (
            "error: line 1: paper pA1: author id '#alice' starts with '#', "
            "which an --authors list reads as a comment\n"
        )


def every_author_listing(corpus, listing):
    """Write, to ``listing``, every author_id that a line of ``corpus`` names."""
    lines = corpus.read_text(encoding="utf-8").splitlines()
    named = {a for text in lines for a in json.loads(text).get("author_ids", ())}
    listing.write_text("".join(f"{a}\n" for a in named), encoding="utf-8")
    return listing


@pytest.mark.parametrize("source", ["fixture", "generated"])
def test_indicators_groups_every_author_as_it_groups_them_listed(tmp_path, source):
    if source == "fixture":
        corpus = DATA / "fixture_corpus.jsonl"
    else:
        corpus = generated_corpus(tmp_path)
    listing = every_author_listing(corpus, tmp_path / "everyone.txt")
    capped = [*RELAXED, "--coauthor-hard-cap", "1", "--windows", "3"]
    for options in (RELAXED, capped):
        args = ["indicators", "--corpus", str(corpus),
                "--model", str(DATA / "constant_model.json"), *options]
        assert main([*args, "--out", str(tmp_path / "all.tsv")]) == 0
        assert main([*args, "--authors", str(listing),
                     "--out", str(tmp_path / "listed.tsv")]) == 0
        table = (tmp_path / "all.tsv").read_bytes()
        assert table.count(b"\n") > 2
        assert (tmp_path / "listed.tsv").read_bytes() == table


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
    rows = {row.indicator: row for row in parse_table(ComparisonRow, out.read_text())}
    assert len(rows) == 17
    # stars were drawn with four times the citation rate
    assert rows["citations"].median_stars > rows["citations"].median_control

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
    rows = {row.indicator: row for row in parse_table(ComparisonRow, out.read_text())}
    assert rows["norm_citations"].rank == 1
    assert all(row.p == 0.5 for row in rows.values()
               if row.indicator != "norm_citations")


def test_compare_identical_tables_p_near_half(tmp_path):
    table_path = cohort_table(tmp_path / "same.tsv", 5, 14, 1.0)
    out = tmp_path / "comparison.tsv"
    assert main(["compare", "--stars", str(table_path),
                 "--control", str(table_path), "--out", str(out)]) == 0
    for row in parse_table(ComparisonRow, out.read_text()):
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
    big_table = tmp_path / "big.tsv"
    # The second is longer than CPython's default str-to-int digit limit (4,300).
    for big in (str(BEYOND_FLOAT), "9" * 5000):
        cells = first.split("\t")
        cells[1] = big  # the n column
        big_table.write_text("\n".join([header, "\t".join(cells), *rest]) + "\n")
        assert main(["compare", "--stars", str(big_table), "--control", str(full),
                     "--out", str(tmp_path / "c.tsv")]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: --stars {big_table}: line 2: n is '{big}', not a finite number"
        )
        assert not (tmp_path / "c.tsv").exists()


@pytest.mark.parametrize(
    "column, cell, reason",
    [("h", "-3", "less than 0"), ("f", "-0.5", "less than 0"),
     ("h", "2.5", "not an integer")],
)
def test_compare_rejects_a_cell_no_indicator_can_hold(
    tmp_path, capsys, column, cell, reason
):
    full = cohort_table(tmp_path / "full.tsv", 1, 5, 1.0)
    header, first, *rest = full.read_text().splitlines()
    cells = first.split("\t")
    cells[header.split("\t").index(column)] = cell
    bad_table = tmp_path / "bad.tsv"
    bad_table.write_text("\n".join([header, "\t".join(cells), *rest]) + "\n")
    assert main(["compare", "--stars", str(bad_table), "--control", str(full),
                 "--out", str(tmp_path / "c.tsv")]) == 1
    assert capsys.readouterr().err == (
        f"error: --stars {bad_table}: line 2: {column} is '{cell}', {reason}\n"
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
    assert len(parse_table(ComparisonRow, comparison.read_text())) == 17


def test_log_env_var_sets_level(tmp_path, monkeypatch):
    monkeypatch.setenv("BIBLIO_BENCH_LOG", "DEBUG")
    with pytest.raises(SystemExit):
        main(["--version"])
    assert logging.getLogger("biblio_bench").level == logging.DEBUG
    monkeypatch.setenv("BIBLIO_BENCH_LOG", "NOT_A_LEVEL")
    with pytest.raises(SystemExit):
        main(["--version"])
    assert logging.getLogger("biblio_bench").level == logging.WARNING


VECTORS = str(DATA / "expected_vectors.tsv")


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--seed-config", ""],
        ["fit", "--corpus", ""],
        ["indicators", *FIXTURE_ARGS[:2], "--model", ""],
        ["indicators", *FIXTURE_ARGS[:4], "--authors", ""],
        ["compare", "--stars", "", "--control", VECTORS],
        ["compare", "--stars", VECTORS, "--control", ""],
    ],
    ids=["seed_config", "corpus", "model", "authors", "stars", "control"],
)
def test_an_empty_input_path_fails_where_it_is_opened(tmp_path, capsys, argv):
    # An empty path names no file: it is read like a missing one, not taken
    # for an option left out.
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "error: [Errno 2] No such file or directory: ''\n"
    )
    assert not list(tmp_path.iterdir())


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0
    assert "biblio-bench" in capsys.readouterr().out


# Runs one command in a fresh interpreter, through `python -m biblio_bench`'s
# path (runpy) or the console script's (biblio_bench.cli:run), then prints
# its exit code, the biblio_bench submodules loaded and which of hashlib,
# json and logging were loaded, read before the probe imports json to print.
# os._exit raises SystemExit in its place, so the probe outlives the command.
STARTUP_PROBE = """
import os
import runpy
import sys
entry, *argv = sys.argv[1:]
def unloaded(step):
    for name in ("numpy", "statistics"):
        assert name not in sys.modules, (name, step)
def exit_(code):
    raise SystemExit(code)
os._exit = exit_
if entry == "script":
    from biblio_bench.cli import run
unloaded("import")
sys.argv = ["biblio-bench", *argv]
try:
    if entry == "script":
        run()
    runpy.run_module("biblio_bench", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
if argv[0] not in ("generate", "fit"):
    unloaded(argv[0])
loaded = sorted(m for m in sys.modules if m.startswith("biblio_bench."))
stdlib = [m for m in ("hashlib", "json", "logging") if m in sys.modules]
import json
print(json.dumps([code, loaded, stdlib]))
"""


def child_env(**overrides):
    """This environment for a child interpreter that imports this checkout's
    biblio_bench, with logging off; a value of None removes its variable."""
    env = dict(os.environ)
    env.pop("BIBLIO_BENCH_LOG", None)
    src = str(Path(biblio_bench.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for name, value in overrides.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return env


def test_version_and_indicators_do_not_load_numpy(tmp_path):
    # numpy's import is most of the start-up time; only generate and fit
    # need it. statistics brings fractions and decimal, about 5 ms. Each
    # command loads only the library modules it runs, so --version, --help
    # and a usage error load none, and none of hashlib, json and logging
    # either. A command hashes its inputs and reads JSON, but loads logging
    # only when BIBLIO_BENCH_LOG is set.
    header, *rows = (DATA / "expected_vectors.tsv").read_text().splitlines()
    stars, control = tmp_path / "stars.tsv", tmp_path / "control.tsv"
    stars.write_text("\n".join([header, *rows[:2]]) + "\n")
    control.write_text("\n".join([header, *rows[2:]]) + "\n")
    config = write_config(tmp_path / "config.json")
    corpus = DATA / "fixture_corpus.jsonl"
    # (argv, exit code, start of stdout, library modules loaded)
    runs = [
        (["--version"], 0, "biblio-bench ", []),
        (["--help"], 0, "usage: biblio-bench", []),
        (["fit"], 2, "", []),
        (["generate", "--seed-config", str(config), "--out",
          str(tmp_path / "corpus.jsonl")], 0, "", ["corpus", "synth"]),
        (["fit", "--corpus", str(corpus), "--min-papers", "1", "--out",
          str(tmp_path / "model.json")], 0, "", ["corpus", "expectation"]),
        (["indicators", *FIXTURE_ARGS], 0, "author_id\t",
         ["corpus", "expectation", "indicators"]),
        (["compare", "--stars", str(stars), "--control", str(control)], 0,
         "indicator\tmedian_stars\t", ["corpus", "indicators", "stats"]),
    ]
    env = child_env()
    for entry in ("-m", "script"):
        for argv, code, stdout, modules in runs:
            result = subprocess.run(
                [sys.executable, "-c", STARTUP_PROBE, entry, *argv],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert result.returncode == 0, result.stderr
            *printed, last = result.stdout.split("\n")[:-1]
            assert printed[0].startswith(stdout) if stdout else not printed
            assert json.loads(last) == [
                code,
                ["biblio_bench.cli", *(f"biblio_bench.{m}" for m in modules)],
                ["hashlib", "json"] if modules else [],
            ], (entry, argv)


def run_module(argv, cwd, **env):
    """`python -m biblio_bench argv` in a child process, output captured."""
    return subprocess.run(
        [sys.executable, "-m", "biblio_bench", *argv],
        capture_output=True, text=True, cwd=cwd, env=child_env(**env), timeout=120,
    )


@pytest.mark.parametrize(
    "argv, code, stderr",
    [
        (["--version"], 0, ""),
        (["fit", "--corpus", "missing.jsonl", "--out", "m.json"], 1,
         "error: [Errno 2] No such file or directory: 'missing.jsonl'\n"),
        (["fit"], 2, "usage: biblio-bench fit "),
    ],
)
def test_exit_codes_through_python_m(tmp_path, argv, code, stderr):
    result = run_module(argv, tmp_path)
    assert result.returncode == code
    assert result.stderr.startswith(stderr) if stderr else not result.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def blas_sized_corpus(tmp_path_factory):
    # 11,943 papers: OpenBLAS splits a dot product of more than 10,000
    # elements across its threads, which changes the order of its sums.
    workdir = tmp_path_factory.mktemp("blas")
    config = json.loads((DATA / "experiment_fit_config.json").read_text())
    (workdir / "config.json").write_text(json.dumps({**config, "n_control": 1300}))
    corpus = workdir / "corpus.jsonl"
    argv = ["generate", "--seed-config", str(workdir / "config.json"),
            "--out", str(corpus)]
    assert main(argv) == 0
    return corpus


def test_fit_model_bytes_do_not_depend_on_the_cpu_count(blas_sized_corpus, tmp_path):
    # Unset, OpenBLAS would run a thread per CPU; the CLI defaults it to one.
    argv = ["fit", "--corpus", str(blas_sized_corpus), "--min-papers", "1"]
    unset = dict.fromkeys(["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                           "GOTO_NUM_THREADS"])
    for name, env in [("unset", unset), ("one", {"OPENBLAS_NUM_THREADS": "1"})]:
        result = run_module([*argv, "--out", f"{name}.json"], tmp_path, **env)
        assert result.returncode == 0, result.stderr
    assert (tmp_path / "unset.json").read_bytes() == (tmp_path / "one.json").read_bytes()


def test_a_large_stdout_table_arrives_whole(blas_sized_corpus, tmp_path, capsys):
    model = tmp_path / "model.json"
    fit = ["fit", "--corpus", str(blas_sized_corpus), "--min-papers", "1"]
    assert main([*fit, "--out", str(model)]) == 0
    authors = blas_sized_corpus.with_name("corpus.controls.txt")
    argv = ["indicators", "--corpus", str(blas_sized_corpus), "--model", str(model),
            "--authors", str(authors), "--max-start-year", "none"]
    capsys.readouterr()
    assert main(argv) == 0
    expected = capsys.readouterr().out
    assert len(expected.encode()) > 64 * 1024
    result = run_module(argv, tmp_path, PYTHONUNBUFFERED=None)
    assert result.returncode == 0, result.stderr
    assert result.stdout == expected


# Unbuffered, main's own write fails; buffered, the flush after main does.
@pytest.mark.parametrize("unbuffered", [None, "1"])
def test_a_stdout_that_cannot_be_written_is_an_error(tmp_path, unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "biblio_bench", "indicators", *FIXTURE_ARGS],
            stdout=write_end, stderr=subprocess.PIPE, text=True, cwd=tmp_path,
            env=child_env(PYTHONUNBUFFERED=unbuffered), timeout=120,
        )
    finally:
        os.close(write_end)
    assert result.returncode == 1
    assert result.stderr == "error: [Errno 32] Broken pipe\n"


def test_a_closed_stdout_is_no_error(tmp_path):
    # With descriptor 1 closed, sys.stdout is None and argparse prints the
    # version to stderr.
    result = subprocess.run(
        ["sh", "-c", 'exec "$0" -m biblio_bench --version >&-', sys.executable],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, cwd=tmp_path,
        env=child_env(), timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == f"biblio-bench {biblio_bench.__version__}\n"


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


def load_perfbench(name):
    """The benchmark's module perfbench/<name>.py, loaded by path as it stands."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", Path(__file__).parents[1] / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve_to_callables():
    # tracing.py wraps these names from outside the package, so a rename
    # would break the benchmark's traced run.
    tracing = load_perfbench("tracing")
    for module, attr, _, _ in tracing.WRAPPED:
        assert callable(getattr(TRACED_MODULES[module], attr, None)), (module, attr)


def test_package_exports_each_name_of_its_module():
    for name in biblio_bench.__all__:
        module = importlib.import_module(f"biblio_bench.{biblio_bench._EXPORTS[name]}")
        assert getattr(biblio_bench, name) is getattr(module, name), name
    namespace = {}
    exec("from biblio_bench import *", namespace)
    assert namespace.keys() - {"__builtins__"} == set(biblio_bench.__all__)
    assert not hasattr(biblio_bench, "no_such_name")


def test_a_name_set_on_cli_before_its_command_first_runs_is_kept(capsys):
    # perfbench/tracing.py swaps cli's library names for traced ones; a
    # command binding its names must keep one that is already set.
    spec = importlib.util.find_spec("biblio_bench.cli")
    fresh = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fresh)
    assert "render_vector_table" not in vars(fresh)
    assert fresh.parse_vector_table is biblio_bench.indicators.parse_vector_table
    calls = []

    def stand_in(rows, precision=None):
        calls.append([author_id for author_id, _ in rows])
        return "stand-in\n"

    fresh.render_vector_table = stand_in
    assert fresh.main(["indicators", *FIXTURE_ARGS]) == 0
    assert capsys.readouterr().out == "stand-in\n"
    assert calls == [["carol"]]
    assert fresh.render_vector_table is stand_in


def test_commands_look_up_traced_names_at_call_time(tmp_path, monkeypatch):
    # The benchmark's traced run (perfbench/tracing.py) swaps these module
    # attributes; a command that bound one at import time would escape it.
    # Its counters read each call's arguments and result, so this also
    # catches a changed signature.
    tracing = load_perfbench("tracing")
    tracer = tracing.Tracer()
    with tracing.installed(tracer, TRACED_MODULES):
        run_effect_pipeline(tmp_path, monkeypatch)
    spans = {span[0] for span in tracer.spans}
    assert {name for _, _, name, _ in tracing.WRAPPED} - spans == set()
    assert tracer.check_nesting() == []
    # fit and the two indicators runs each read the corpus once.
    assert tracer.counts["corpus.ingest_calls"] == 3


# Co-author bounds at simple fractions, so that some author's mean co-author
# count meets a bound exactly and each strict bound is tested as strict.
COAUTHOR_BOUNDS = st.sampled_from([-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0])


@st.composite
def oracle_pipelines(draw):
    """A generator config of at most 60 authors, and the five commands of a
    pipeline over its corpus with drawn options."""
    lo = draw(st.integers(1985, 1995))
    hi = lo + draw(st.integers(0, 6))
    config = SynthConfig(
        seed=draw(st.integers(0, 2**32)),
        n_control=draw(st.integers(1, 40)),
        n_stars=draw(st.integers(1, 20)),
        start_year_range=(lo, hi),
        papers_per_year_mean=draw(st.floats(0.2, 2.5)),
        coauthor_distribution=draw(st.sampled_from([
            {2: 1.0},
            {1: 0.5, 2: 0.5},
            {1: 0.25, 2: 0.25, 3: 0.3, 4: 0.2},
            {2: 0.3, 3: 0.4, 4: 0.25, 5: 0.05},
        ])),
        base_expected_citations=draw(st.floats(0.5, 40.0)),
        annual_growth_factor=draw(st.floats(0.9, 1.1)),
        dispersion=draw(st.floats(0.5, 5.0)),
        star_effect_multiplier=draw(st.floats(1.0, 3.0)),
    )
    years = st.integers(lo, hi + 4).map(str)
    windows = draw(st.integers(1, 6))
    fit = ["fit", "--corpus", "corpus.jsonl", "--windows", str(windows),
           "--min-papers", str(draw(st.integers(1, 8)))]
    for flag in ("--year-min", "--year-max"):
        year = draw(st.none() | years)
        fit += [] if year is None else [flag, year]

    def indicators(authors, out):
        low = draw(COAUTHOR_BOUNDS.filter(lambda bound: bound < 2))
        high = low + draw(st.sampled_from([1.0, 1.5, 2.5, 100.0]))
        cap = draw(st.none() | COAUTHOR_BOUNDS)
        return [
            "indicators", "--corpus", "corpus.jsonl", "--model", "model.json",
            "--windows", str(draw(st.integers(1, windows))),
            "--coauthor-min", str(low), "--coauthor-max", str(high),
            *([] if cap is None else ["--coauthor-hard-cap", str(cap)]),
            "--max-start-year", draw(st.just("none") | years),
            *([] if authors is None else ["--authors", authors]),
            "--out", out,
        ]

    return config, [
        ["generate", "--seed-config", "config.json", "--out", "corpus.jsonl"],
        [*fit, "--out", "model.json"],
        indicators("corpus.stars.txt", "stars.tsv"),
        # Every author, or the controls alone.
        indicators(draw(st.sampled_from([None, "corpus.controls.txt"])), "controls.tsv"),
        ["compare", "--stars", "stars.tsv", "--control", "controls.tsv",
         "--out", "comparison.tsv"],
    ]


@pytest.fixture(scope="module")
def oracle():
    return load_perfbench("oracle")


@settings(
    max_examples=60,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(pipeline=oracle_pipelines())
def test_pipeline_outputs_pass_the_independent_oracle(
    pipeline, oracle, tmp_path, monkeypatch, capsys
):
    # perfbench/oracle.py recomputes every output from the corpus by
    # definition, with none of the program's code. No command passes
    # --precision: the oracle compares full-precision tables.
    config, (generate, fit, stars, controls, compare) = pipeline
    run_dir = Path(tempfile.mkdtemp(dir=tmp_path))
    # Relative paths: the oracle rejects an absolute path in a manifest.
    monkeypatch.chdir(run_dir)
    Path("config.json").write_text(config.to_json())
    capsys.readouterr()  # drop what earlier examples printed
    assert main(generate) == 0
    if main(fit) != 0:
        error = capsys.readouterr().err
        assume(not error.startswith("error: insufficient data"))
        pytest.fail(error)
    for argv in (stars, controls):
        assert main(argv) == 0, capsys.readouterr().err
    # compare rejects a table with no rows.
    if all(len(Path(t).read_text().splitlines()) > 1 for t in (stars[-1], controls[-1])):
        assert main(compare) == 0, capsys.readouterr().err
    problems, _ = oracle.check_outputs(run_dir)
    assert problems == []
