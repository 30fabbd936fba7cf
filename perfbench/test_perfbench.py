"""Self-tests of the benchmark harness on the fixture-sized smoke workload.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import oracle  # noqa: E402
import run  # noqa: E402


def bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def result_lines(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    info, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(info), json.loads(result)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_is_correct_and_complete(trace):
    proc = bench("--workload", "smoke", "--seed", str(run.PINNED_SEED), "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    info, result = result_lines(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in declared["per_layer" if trace == "1" else "end_to_end"]]
    assert list(result["metrics"]) == names
    assert info["input"]["cohort_authors"] == 103
    if trace == "1":
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["corpus.ingest_calls"] == 3
        assert metrics["corpus.bytes_parsed_ratio"] == 3.0
        assert metrics["stats.values_ranked"] == 17 * metrics["indicators.vectors"]
        assert metrics["error_rate"] == 0.0


def test_other_seed_repeats_and_differs_from_pinned():
    proc = bench("--workload", "smoke", "--seed", "7", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    assert result_lines(proc)[1]["correct"]
    pinned = json.loads(run.DIGESTS.read_text(encoding="utf-8"))["smoke"]
    got = run.output_digests(run.WORK / "smoke" / "run")
    assert set(got) == set(pinned) and got["corpus.jsonl"] != pinned["corpus.jsonl"]


def test_oracle_rejects_a_changed_value():
    work = run.WORK / "selftest"
    spec = run.load_workload("smoke")
    children = run.Children(work / "stderr.log")
    work.mkdir(parents=True, exist_ok=True)
    results, _ = run.run_chain(children, spec["commands"], work / "run", dict(spec["config"], seed=3))
    assert all(code == 0 for *_, code in results)
    assert oracle.check_outputs(work / "run")[0] == []

    table = work / "run" / "stars.tsv"
    lines = table.read_text(encoding="utf-8").splitlines(keepends=True)
    cells = lines[1].split("\t")
    cells[14] = repr(float(cells[14]) + 0.5)  # h_m
    lines[1] = "\t".join(cells)
    table.write_text("".join(lines), encoding="utf-8")
    problems = oracle.check_outputs(work / "run")[0]
    assert any("checksum of stars.tsv" in p for p in problems)
    assert any("h_m" in p for p in problems)


def test_speed_scales_by_the_reference_work_around_a_command(monkeypatch):
    times = iter([0.3, 0.06, 0.04, 0.1])
    monkeypatch.setattr(run.reference, "reference_seconds", lambda: next(times))
    speed = run.Speed()  # the first sample is a discarded warm-up
    assert speed.scale(1.2) == pytest.approx(1.2 * run.REFERENCE_S / 0.05)
    assert speed.scale(1.2) == pytest.approx(1.2 * run.REFERENCE_S / 0.07)
    assert speed.samples == [0.06, 0.04, 0.1]


def test_span_tree_adds_up():
    tracer = run.tracing.Tracer()
    with tracer.command("fit"):
        tracer.wrap("inner", lambda: sum(range(10_000)), None)()
        tracer.wrap("inner", lambda: sum(range(10_000)), None)()
    assert tracer.check_nesting() == []
    own = tracer.self_times()
    whole = tracer.inclusive_times()["cli.fit"]
    assert own["cli.fit"] + own["inner"] == pytest.approx(whole, rel=1e-9)


def test_fails_without_the_program():
    work = run.WORK / "bare"
    shutil.rmtree(work, ignore_errors=True)
    shutil.copytree(HERE, work / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", work / "BENCHMARK.json")
    proc = bench("--workload", "smoke", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=work)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
