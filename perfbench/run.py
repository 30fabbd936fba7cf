"""Seeded end-to-end and per-layer benchmark of the biblio-bench pipeline.

    python3 perfbench/run.py --workload cohort_pipeline --seed 1 --seconds 20 --trace 0

A workload is a file in ``perfbench/workloads/``: a generator config (its
seed comes from ``--seed``), the argv of each command, and why it exists.
BENCHMARK.json names the workloads the regression gate runs; ``smoke``
serves the self-tests (test_perfbench.py) and ``author_index`` is run by
hand.
Every command runs with paths relative to the run directory, so the
manifests the program writes are byte-stable.

``--trace 0`` runs the real ``python -m biblio_bench`` commands as child
processes, one at a time, repeating the whole chain until ``--seconds`` have
passed, and reports the median per chain of each end-to-end metric. The
machine's CPU speed drifts, so one unit of fixed reference work
(reference.py) is timed before and after every command, and each wall time
is scaled to a machine on which that work takes ``REFERENCE_S``: a command
that took 1.2 s while the reference work took 60 ms counts 1.0 s. The raw
wall times are kept in the record line.
``--trace 1`` runs the chain once as child processes, then repeatedly in
this process through ``biblio_bench.cli.main``, alternating runs with and
without span recorders around the library calls (see tracing.py). It
reports per-layer times (raw wall times, not scaled), exact counts, and the
tracing overhead.

Outputs are checked in every run: each chain's files must equal the first
chain's byte for byte, in-process files must equal the child-process ones,
manifest checksums must match the files, and oracle.py recomputes the model,
the indicator tables and the comparison from the corpus. At the pinned seed
the files must also match ``digests.json`` (rewrite it with
``--write-digests``). The last line of stdout is the JSON result; the line
before it records the environment and the workload's input size.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = HERE / "workloads"
DIGESTS = HERE / "digests.json"
WORK = ROOT / ".perfbench_work"
PINNED_SEED = 881014
CONFIG_NAME = "config.json"
# `--version` start-ups timed before the first chain; one more runs per chain.
SETUP_SAMPLES = 5
# End-to-end times are stated for a machine on which one unit of reference
# work takes this long; about the median seen on a shared 2-vCPU 2.1 GHz Xeon.
REFERENCE_S = 0.050

sys.path.insert(0, str(HERE))
import oracle  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402

COMMANDS = ("generate", "fit", "indicators", "compare")
COUNTS = (
    "corpus.ingest_calls",
    "corpus.records_built",
    "expectation.window_points",
    "indicators.vectors",
    "indicators.papers_ranked",
    "indicators.table_bytes",
    "stats.values_ranked",
)


def declared(kind: str, metrics: dict[str, float]) -> dict[str, dict]:
    """The metrics BENCHMARK.json lists under `kind`, in its order, with units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[kind]
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec}


def load_workload(name: str) -> dict:
    path = WORKLOADS / f"{name}.json"
    if not path.is_file():
        known = sorted(p.stem for p in WORKLOADS.glob("*.json"))
        raise SystemExit(f"unknown workload {name!r}; known: {', '.join(known)}")
    return json.loads(path.read_text(encoding="utf-8"))


def reset_dir(path: Path, config: dict) -> None:
    """An empty run directory holding only the seeded generator config."""
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    (path / CONFIG_NAME).write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")


def output_digests(run_dir: Path) -> dict[str, str]:
    return {
        p.name: oracle.sha256_file(p)
        for p in sorted(run_dir.iterdir())
        if p.is_file() and p.name != CONFIG_NAME
    }


class Children:
    """Runs `python -m biblio_bench` as child processes, one at a time."""

    def __init__(self, log: Path) -> None:
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.env.pop("BIBLIO_BENCH_LOG", None)
        self.log = log

    def run(self, argv: list[str], cwd: Path) -> tuple[float, float, int]:
        """(wall seconds, peak RSS in MB, exit code) of one command."""
        with open(self.log, "ab") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "biblio_bench", *argv],
                cwd=cwd,
                env=self.env,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=err,
            )
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode


class Speed:
    """Reference work timed between commands, to scale their wall times."""

    def __init__(self) -> None:
        reference.reference_seconds()  # warm-up
        self.last = reference.reference_seconds()
        self.samples = [self.last]

    def scale(self, wall: float) -> float:
        """`wall`, just measured, in seconds at the speed REFERENCE_S stands for."""
        before, self.last = self.last, reference.reference_seconds()
        self.samples.append(self.last)
        return wall * REFERENCE_S / ((before + self.last) / 2)


def run_chain(children: Children, commands: list[list[str]], run_dir: Path, config: dict, speed: Speed | None = None):
    """One pass of the workload's commands; per-command (name, wall, rss, code).

    Returns that list twice: as measured, and with each wall time scaled to
    reference speed by `speed` (unscaled without it).
    """
    reset_dir(run_dir, config)
    raw, scaled = [], []
    for argv in commands:
        wall, rss, code = children.run(argv, run_dir)
        raw.append((argv[0], wall, rss, code))
        scaled.append((argv[0], speed.scale(wall) if speed else wall, rss, code))
    return raw, scaled


def chain_metrics(results) -> dict[str, float]:
    def total(names):
        return sum(wall for name, wall, _, _ in results if name in names)

    return {
        "pipeline_s": total(COMMANDS[1:]),
        "generate_s": total(("generate",)),
        "fit_s": total(("fit",)),
        "indicators_s": total(("indicators",)),
        "peak_rss_mb": max(rss for _, _, rss, _ in results),
    }


class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def command(self, name: str, code: int) -> None:
        self.attempted += 1
        if code != 0:
            self.failed += 1
            self.problems.append(f"{name} exited with {code}")

    def outputs(self, what: str, problems: list[str], commands: int = 1) -> None:
        """Count `commands` operations as failed when `problems` is non-empty."""
        if problems:
            self.failed = min(self.attempted, self.failed + commands)
            self.problems += [f"{what}: {p}" for p in problems[:20]]


def compare_digests(got: dict, want: dict) -> list[str]:
    names = sorted(set(got) | set(want))
    return [f"{n} differs" for n in names if got.get(n) != want.get(n)]


def check_reference(workload: str, seed: int, run_dir: Path, digests: dict, tally: Tally, n_commands: int) -> oracle.Corpus:
    """Oracle checks on one chain's outputs, and the pinned digests.

    Returns the parsed corpus, or None when the outputs could not be read.
    """
    corpus = None
    try:
        problems, corpus = oracle.check_outputs(run_dir)
    except Exception as exc:  # a missing or malformed output fails the run
        problems = [f"outputs unreadable: {exc!r}"]
    tally.outputs("oracle", problems, n_commands)
    if seed == PINNED_SEED:
        pinned = json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload)
        if pinned is not None:
            tally.outputs("pinned digests", compare_digests(digests, pinned), n_commands)
    return corpus


def io_sizes(run_dir: Path) -> dict[str, int]:
    """Bytes the manifests say were re-read as inputs, and bytes written."""
    rehashed = 0
    for path in run_dir.glob("*.manifest.json"):
        manifest = json.loads(path.read_text(encoding="utf-8"))
        rehashed += sum((run_dir / e["path"]).stat().st_size for e in manifest["inputs"])
    written = sum(
        p.stat().st_size for p in run_dir.iterdir() if p.is_file() and p.name != CONFIG_NAME
    )
    return {"cli.input_bytes_rehashed": rehashed, "cli.bytes_written": written}


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def environment(children: Children, nproc: int, cpu: int) -> dict:
    probe = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True, env=children.env,
    )
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": probe.stdout.strip() or "unavailable",
        "nproc": nproc,
        "bench_cpu": cpu,
    }


def input_size(corpus: oracle.Corpus | None, config: dict) -> dict:
    if corpus is None:
        return {}
    return {
        "papers": len(corpus.papers),
        "citation_events": corpus.events,
        "corpus_bytes": corpus.bytes,
        "cohort_authors": config["n_stars"] + config["n_control"],
        "indexed_authors": len(corpus.by_author),
    }


def measure_untraced(workload: str, spec: dict, config: dict, seed: int, seconds: float, work: Path, children: Children, tally: Tally):
    commands = spec["commands"]
    run_dir = work / "run"
    speed = Speed()
    setup, raw_setup = [], []

    def start_up() -> None:
        wall, _, code = children.run(["--version"], work)
        tally.command("--version", code)
        raw_setup.append(wall)
        setup.append(speed.scale(wall))

    for _ in range(SETUP_SAMPLES):
        start_up()
    chains, raw_chains = [], []
    first = None
    start = time.perf_counter()
    while not chains or time.perf_counter() - start < seconds:
        start_up()
        raw, results = run_chain(children, commands, run_dir, config, speed)
        for name, _, _, code in results:
            tally.command(name, code)
        digests = output_digests(run_dir)
        if first is None:
            first = digests
        else:
            tally.outputs("repeat", compare_digests(digests, first), len(commands))
        chains.append(chain_metrics(results))
        raw_chains.append(chain_metrics(raw))

    corpus = check_reference(workload, seed, run_dir, first, tally, len(commands))
    samples = {name: [c[name] for c in chains] for name in chains[0]}
    samples["setup_s"] = setup
    values = declared("end_to_end", {name: statistics.median(v) for name, v in samples.items()})
    info = {
        "chains": len(chains),
        "reference_s": {"assumed": REFERENCE_S, "median": statistics.median(speed.samples)},
        "per_chain": samples,
        "raw_per_chain": dict({n: [c[n] for c in raw_chains] for n in raw_chains[0]}, setup_s=raw_setup),
    }
    return values, first, corpus, info


@contextmanager
def working_directory(path: Path):
    previous = Path.cwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)


def run_in_process(main, commands, run_dir: Path, config: dict, tracer=None) -> tuple[float, list[int]]:
    """One pass of the chain through cli.main; (wall seconds, exit codes)."""
    reset_dir(run_dir, config)
    gc.collect()
    codes = []
    with working_directory(run_dir):
        start = time.perf_counter()
        for argv in commands:
            try:
                with tracer.command(argv[0]) if tracer else nullcontext():
                    code = main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # counted as a failed command, like a crashed child
                traceback.print_exc()
                code = 1
            codes.append(code)
        wall = time.perf_counter() - start
    return wall, codes


def layer_metrics(tracer: tracing.Tracer) -> dict[str, float]:
    inclusive = tracer.inclusive_times()
    own = tracer.self_times()
    metrics = {f"{span}_s": inclusive.get(span, 0.0) for _, _, span, _ in tracing.WRAPPED}
    metrics["stats.render_tables_s"] = (
        metrics["stats.render_comparison_table_s"] + metrics["stats.render_boxplot_table_s"]
    )
    for command in COMMANDS:
        metrics[f"cli.{command}.self_s"] = own.get(f"cli.{command}", 0.0)
    return metrics


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def measure_traced(workload: str, spec: dict, config: dict, seed: int, seconds: float, work: Path, children: Children, tally: Tally):
    commands = spec["commands"]
    ref_dir = work / "run"
    for name, _, _, code in run_chain(children, commands, ref_dir, config)[0]:
        tally.command(name, code)
    expected = output_digests(ref_dir)
    corpus = check_reference(workload, seed, ref_dir, expected, tally, len(commands))

    sys.path.insert(0, str(SRC))
    from biblio_bench import cli, indicators

    modules = {"cli": cli, "indicators": indicators}
    run_dir = work / "inprocess"
    traced, untraced, layers = [], [], []
    counts = None
    last = None
    start = time.perf_counter()
    while len(traced) < 1 or time.perf_counter() - start < seconds:
        tracer = tracing.Tracer() if len(untraced) > len(traced) else None
        if tracer is None:
            wall, codes = run_in_process(cli.main, commands, run_dir, config)
            untraced.append(wall)
        else:
            with tracing.installed(tracer, modules):
                wall, codes = run_in_process(cli.main, commands, run_dir, config, tracer)
            traced.append(wall)
            layers.append(layer_metrics(tracer))
            tally.outputs("span tree", tracer.check_nesting(), len(commands))
            if counts is None:
                counts = dict(tracer.counts)
            else:
                tally.outputs("counts", [] if counts == tracer.counts else ["counts changed between chains"])
            last = tracer
        for argv, code in zip(commands, codes):
            tally.command(argv[0], code)
        tally.outputs("in-process vs child", compare_digests(output_digests(run_dir), expected), len(commands))

    last.write_json(work / "spans.json")
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    for name in COUNTS:
        metrics[name] = counts.get(name, 0)
    size = input_size(corpus, config)
    metrics["corpus.bytes_parsed_ratio"] = ratio(counts.get("corpus.bytes_parsed", 0), size.get("corpus_bytes", 0))
    metrics["corpus.papers"] = size.get("papers", 0)
    metrics["corpus.citation_events"] = size.get("citation_events", 0)
    metrics["corpus.papers_used_ratio"] = ratio(
        counts.get("corpus.record_papers", 0), counts.get("corpus.papers_ingested_for_records", 0)
    )
    metrics["corpus.records_kept_ratio"] = ratio(
        counts.get("corpus.records_kept", 0), counts.get("corpus.records_filtered", 0)
    )
    metrics.update(io_sizes(ref_dir))
    untraced_s = statistics.median(untraced)
    metrics["trace.untraced_pipeline_s"] = untraced_s
    metrics["trace.overhead_ratio"] = statistics.median(traced) / untraced_s - 1.0
    metrics["error_rate"] = ratio(tally.failed, tally.attempted)

    values = declared("per_layer", metrics)
    info = {"traced_chains": len(traced), "untraced_chains": len(untraced), "spans": len(last.spans)}
    return values, expected, corpus, info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-digests", action="store_true",
        help="store this run's output checksums as the workload's pinned digests",
    )
    args = parser.parse_args(argv)
    if not (SRC / "biblio_bench" / "__init__.py").is_file():
        print(f"error: no biblio_bench package under {SRC}", file=sys.stderr)
        return 2
    if args.write_digests and args.seed != PINNED_SEED:
        parser.error(f"--write-digests needs --seed {PINNED_SEED}")

    # One command runs at a time and the program is single-threaded. Keeping
    # every process on one CPU stops migration between CPUs; left free on a
    # two-CPU machine, the same command ran a fifth slower and varied more.
    nproc = len(os.sched_getaffinity(0))
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    spec = load_workload(args.workload)
    config = dict(spec["config"], seed=args.seed)
    work = WORK / args.workload
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    children = Children(work / "stderr.log")
    tally = Tally()
    measure = measure_traced if args.trace else measure_untraced
    values, digests, corpus, info = measure(
        args.workload, spec, config, args.seed, args.seconds, work, children, tally
    )
    if args.write_digests and not tally.problems:
        pinned = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.is_file() else {}
        pinned[args.workload] = digests
        DIGESTS.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    for problem in tally.problems:
        print(f"problem: {problem}", file=sys.stderr)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(children, nproc, cpu),
        "input": input_size(corpus, config),
        "samples": info,
    }
    print(json.dumps(record))
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": values,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
