"""Command-line pipeline: generate, fit, indicators, compare.

Every file-writing command also emits a manifest (JSON, same directory)
recording every option as parsed and sha256 checksums of inputs and
outputs, so a run can be replayed and checked byte for byte. Each file
passes through memory once: inputs are hashed as they are read and
outputs as they are written. Outputs are staged and moved into place
together; a failing command leaves no partial files behind.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from importlib import import_module
from pathlib import Path
from typing import IO, TYPE_CHECKING, Callable, Iterator, NoReturn, Sequence

from . import _EXPORTS, __version__

if TYPE_CHECKING:
    from hashlib import _Hash
    from logging import Logger

    from .indicators import IndicatorVector

# The library modules each command runs. Just before a command runs, main
# binds in this module's globals each name the package's _EXPORTS maps to one
# of them, so --version, --help and a usage error load no library module. A
# name already set here is kept: perfbench's traced run and the tests swap
# these names for stand-ins with getattr and setattr. In the same way, the
# functions that hash, write JSON or log import hashlib, json and logging
# themselves, so start-up loads none of them, and logging only when
# LOG_ENV_VAR is set.
_COMMAND_MODULES = {
    "generate": ("corpus", "synth"),
    "fit": ("corpus", "expectation"),
    "indicators": ("corpus", "expectation", "indicators"),
    "compare": ("corpus", "indicators", "stats"),
}

LOG_ENV_VAR = "BIBLIO_BENCH_LOG"
STDOUT_PRECISION = 3

# The "biblio_bench" logger while LOG_ENV_VAR is set, else None.
_logger: Logger | None = None


def __getattr__(name: str) -> object:
    """A library name of `_EXPORTS`, imported and bound here on first use."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{_EXPORTS[name]}", __package__)
    return globals().setdefault(name, getattr(module, name))


def _configure_logging() -> None:
    """With LOG_ENV_VAR set, log to stderr at the level it names (WARNING if
    it names none). Without it, logging stays off and is not imported."""
    global _logger
    level_name = os.environ.get(LOG_ENV_VAR)
    if level_name is None:
        _logger = None
        return
    import logging

    level = getattr(logging, level_name.upper(), None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    _logger = logging.getLogger("biblio_bench")
    _logger.setLevel(level)


def _info(message: str, *args: object) -> None:
    """Log `message % args` at INFO, if logging is on."""
    if _logger is not None:
        _logger.info(message, *args)


def _sidecar(out: Path, tag: str) -> Path:
    """A path next to `out` sharing its stem: corpus.jsonl -> corpus<tag>."""
    stem = out.stem if out.suffix else out.name
    return out.with_name(stem + tag)


# Options naming files a command reads, in the order manifests list them.
_INPUT_OPTIONS = ("seed_config", "corpus", "model", "authors", "stars", "control")

# An output's text, or a function that writes it to a text stream.
_Content = str | Callable[[IO[str]], object]


def _input_digests(args: argparse.Namespace) -> dict[str, _Hash]:
    """A sha256 per input option given, in manifest order, for its reader to feed."""
    import hashlib

    return {
        k: hashlib.sha256()
        for k in _INPUT_OPTIONS
        if getattr(args, k, None) is not None
    }


def _read(args: argparse.Namespace, inputs: dict[str, _Hash], option: str) -> str:
    """The text of the file an input option names, hashed into its digest."""
    from .corpus import open_text

    with open_text(getattr(args, option), digest=inputs[option]) as handle:
        return handle.read()


def _emit(
    args: argparse.Namespace,
    inputs: dict[str, _Hash],
    texts: dict[str, _Content],
    extra: dict | None = None,
) -> int:
    """Write a command's outputs, keyed by sidecar tag; return 0.

    Without --out the texts go to stdout, joined by "\n"; a command that
    streams an output through a function requires --out. With it, the
    output tagged "" goes to --out and every other one to the sidecar of its
    tag, next to a manifest of every option as parsed, the files read (in
    option order) with the digests their readers fed, and the outputs with
    the digests of the bytes written.
    """
    if args.out is None:
        sys.stdout.write("\n".join(texts.values()))
        return 0
    import json

    out = Path(args.out)
    options = {k: v for k, v in vars(args).items() if k not in ("command", "func")}
    with _staged() as stage:
        outputs = []
        for tag, content in texts.items():
            path = _sidecar(out, tag) if tag else out
            outputs.append({"path": str(path), "sha256": stage(path, content)})
        payload = {
            "command": args.command,
            "tool_version": __version__,
            "parameters": options,
            "inputs": [
                {"path": str(Path(options[k])), "sha256": digest.hexdigest()}
                for k, digest in inputs.items()
            ],
            "outputs": outputs,
            **(extra or {}),
        }
        stage(_sidecar(out, ".manifest.json"), json.dumps(payload, indent=2) + "\n")
    return 0


@contextmanager
def _staged() -> Iterator[Callable[[Path, _Content], str]]:
    """Write all outputs or none.

    The yielded function writes one output under a temporary name and
    returns the sha256 of its bytes, taken as they are written. Only after
    the block succeeds are the files moved into place. Any failure removes
    the staged copies and whatever finals were already placed.
    """
    import hashlib

    from .corpus import open_text

    staged: list[tuple[Path, Path]] = []
    placed: list[Path] = []

    def stage(path: Path, content: _Content) -> str:
        tmp = path.with_name(path.name + ".tmp")
        staged.append((tmp, path))
        digest = hashlib.sha256()
        with open_text(tmp, "w", digest) as handle:
            content(handle) if callable(content) else handle.write(content)
        return digest.hexdigest()

    try:
        yield stage
        for tmp, path in staged:
            os.replace(tmp, path)
            placed.append(path)
    except BaseException:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
        for path in placed:
            path.unlink(missing_ok=True)
        raise


def cmd_generate(args: argparse.Namespace) -> int:
    import json

    inputs = _input_digests(args)
    config = SynthConfig.from_json(_read(args, inputs, "seed_config"))
    lines, star_ids, control_ids = generate_corpus(config)

    def write_corpus(out: IO[str]) -> None:
        # The papers are drawn as their lines are written.
        count = render_corpus(lines, out)
        _info(
            "generated %d papers for %d stars and %d controls",
            count,
            len(star_ids),
            len(control_ids),
        )

    texts: dict[str, _Content] = {
        "": write_corpus,
        ".stars.txt": "".join(f"{a}\n" for a in star_ids),
        ".controls.txt": "".join(f"{a}\n" for a in control_ids),
    }
    return _emit(
        args,
        inputs,
        texts,
        extra={
            "config": json.loads(config.to_json()),
            "star_author_ids": list(star_ids),
            "control_author_ids": list(control_ids),
        },
    )


def cmd_fit(args: argparse.Namespace) -> int:
    if args.windows < 1:
        raise ValueError(f"--windows must be >= 1, got {args.windows}")
    inputs = _input_digests(args)
    # Each line's window counts are read as the line is checked: no paper is
    # held, and the fit gets one line per window read. collect_window_points
    # returns the points as they are, but stays a call of its own: the
    # benchmark's traced run wraps both names, counting ingest calls and
    # window points.
    points = collect_window_points(
        ingest_corpus(args.corpus, inputs["corpus"], window_count=args.windows)
    )
    _info("read %d papers from %s", len(points), args.corpus)
    model = fit_expectation_model(
        points,
        min_papers_per_year=args.min_papers,
        year_range=(args.year_min, args.year_max),
    )
    _info(
        "fitted %d windows over years %d..%d",
        model.window_count,
        model.fit_year_range[0],
        model.fit_year_range[1],
    )
    return _emit(args, inputs, {"": model.to_json()})


def _parse_max_start_year(raw: str) -> int | None:
    if raw.lower() == "none":
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValueError(
            f"--max-start-year must be an integer or 'none', got {raw!r}"
        ) from None


def _listed_authors(text: str) -> list[str]:
    """The author ids of an --authors file: one per line, '#' lines skipped."""
    lines: dict[str, int] = {}
    for lineno, line in enumerate(text.split("\n"), 1):
        entry = line.strip()
        if not entry or entry.startswith("#"):
            continue
        if entry in lines:
            raise ValueError(
                f"--authors lists {entry!r} twice, on lines {lines[entry]} "
                f"and {lineno}"
            )
        lines[entry] = lineno
    return list(lines)


def cmd_indicators(args: argparse.Namespace) -> int:
    inputs = _input_digests(args)
    author_ids = EVERY_AUTHOR
    if args.authors is not None:
        author_ids = _listed_authors(_read(args, inputs, "authors"))
    # The model comes first: an author's window counts need --windows.
    model = ExpectationModel.from_json(_read(args, inputs, "model"))
    if not 1 <= args.windows <= model.window_count:
        raise ValueError(
            f"model provides windows 1..{model.window_count} "
            f"but --windows is {args.windows}"
        )
    # Each line naming a grouped author gives its window counts as it is
    # checked, and every line is checked.
    groups = ingest_corpus(
        args.corpus, inputs["corpus"], authors=author_ids, window_count=args.windows
    ).groups
    records = [
        build_author_record(author_id, papers) for author_id, papers in groups.items()
    ]
    spec = FilterSpec(
        mean_coauthors_min=args.coauthor_min,
        mean_coauthors_max=args.coauthor_max,
        max_start_year=_parse_max_start_year(args.max_start_year),
        hard_mean_coauthor_cap=args.coauthor_hard_cap,
    )
    kept = sorted(filter_cohort(records, spec), key=lambda r: r.author_id)
    _info("%d of %d authors passed the cohort filter", len(kept), len(records))
    if not kept:
        print("warning: no authors passed the cohort filter", file=sys.stderr)

    rows = [(record.author_id, indicator_vector(record, model)) for record in kept]
    table = render_vector_table(rows, precision=args.precision)
    return _emit(args, inputs, {"": table})


def _cohort(
    args: argparse.Namespace, inputs: dict[str, _Hash], option: str
) -> list[IndicatorVector]:
    """The vectors of the --stars or --control table; its errors name it."""
    where = f"--{option} {getattr(args, option)}"
    try:
        rows = parse_vector_table(_read(args, inputs, option))
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc
    if not rows:
        raise ValueError(f"{where}: table has no rows")
    return [vector for _, vector in rows]


def cmd_compare(args: argparse.Namespace) -> int:
    inputs = _input_digests(args)
    stars = _cohort(args, inputs, "stars")
    control = _cohort(args, inputs, "control")

    table = compare_cohorts(stars, control)
    cohorts = {"stars": stars, "control": control}
    summaries = []
    for indicator in INDICATOR_FIELDS:
        summaries.extend(boxplot_export(cohorts, indicator))
    texts = {
        "": render_comparison_table(table, precision=args.precision),
        ".boxplot.tsv": render_boxplot_table(summaries, precision=args.precision),
    }
    return _emit(args, inputs, texts)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biblio-bench",
        description=(
            "Compute author-level citation indicators over early-career "
            "publication records and compare cohorts"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser(
        "generate", help="generate a synthetic corpus from a seeded config"
    )
    p_gen.add_argument(
        "--seed-config", required=True, help="JSON config with generator settings"
    )
    p_gen.add_argument("--out", required=True, help="corpus output path (JSONL)")
    p_gen.set_defaults(func=cmd_generate)

    p_fit = sub.add_parser(
        "fit", help="fit per-window expected citation lines to a corpus"
    )
    p_fit.add_argument("--corpus", required=True, help="corpus path (JSONL)")
    p_fit.add_argument(
        "--year-min", type=int, default=None, help="first publication year to fit"
    )
    p_fit.add_argument(
        "--year-max", type=int, default=None, help="last publication year to fit"
    )
    p_fit.add_argument(
        "--min-papers",
        type=int,
        default=100,
        help="minimum papers a year needs to enter the fit (default 100)",
    )
    p_fit.add_argument(
        "--windows", type=int, default=5, help="number of citation windows (default 5)"
    )
    p_fit.add_argument("--out", required=True, help="model output path (JSON)")
    p_fit.set_defaults(func=cmd_fit)

    p_ind = sub.add_parser(
        "indicators", help="compute the 17-indicator vector per qualifying author"
    )
    p_ind.add_argument("--corpus", required=True, help="corpus path (JSONL)")
    p_ind.add_argument("--model", required=True, help="expectation model path (JSON)")
    p_ind.add_argument(
        "--authors",
        default=None,
        help="file with one author id per line; default: every author in the corpus",
    )
    p_ind.add_argument(
        "--coauthor-min",
        type=float,
        default=1.0,
        help="mean co-author count must exceed this (default 1)",
    )
    p_ind.add_argument(
        "--coauthor-max",
        type=float,
        default=4.0,
        help="mean co-author count must stay below this (default 4)",
    )
    p_ind.add_argument(
        "--coauthor-hard-cap",
        type=float,
        default=None,
        help="drop authors at or above this mean co-author count",
    )
    p_ind.add_argument(
        "--max-start-year",
        default="1998",
        help="latest admissible first-publication year, or 'none' (default 1998)",
    )
    p_ind.add_argument(
        "--windows", type=int, default=5, help="career window length in years"
    )
    p_ind.add_argument(
        "--precision",
        type=int,
        default=None,
        help="round table values to this many decimals (default: full precision)",
    )
    p_ind.add_argument(
        "--out", default=None, help="table output path (default: stdout, 3 decimals)"
    )
    p_ind.set_defaults(func=cmd_indicators)

    p_cmp = sub.add_parser(
        "compare", help="rank-sum comparison of two indicator tables"
    )
    p_cmp.add_argument("--stars", required=True, help="stars vector table path")
    p_cmp.add_argument("--control", required=True, help="control vector table path")
    p_cmp.add_argument(
        "--precision",
        type=int,
        default=None,
        help="round table values to this many decimals (default: full precision)",
    )
    p_cmp.add_argument(
        "--out",
        default=None,
        help=(
            "comparison table output path; boxplot data goes to <stem>.boxplot.tsv "
            "(default: stdout, 3 decimals)"
        ),
    )
    p_cmp.set_defaults(func=cmd_compare)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    for name, module in _EXPORTS.items():
        if module in _COMMAND_MODULES[args.command]:
            __getattr__(name)
    if args.out is None and args.precision is None:
        # Only indicators and compare may omit --out; stdout is for reading.
        args.precision = STDOUT_PRECISION
    try:
        if (getattr(args, "precision", None) or 0) < 0:
            raise ValueError(f"--precision must be >= 0, got {args.precision}")
        return args.func(args)
    except (ValueError, LookupError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> NoReturn:
    """The console script and ``python -m biblio_bench``: main, then exit.

    The exit code is main's, or that of argparse's SystemExit for --help,
    --version and a usage error. Once stdout and stderr are flushed, the
    process ends with os._exit: every output is already closed and in
    place, and interpreter teardown, which frees every module and object,
    would do no work for the command. A stdout that cannot be flushed is
    an error, exit code 1. An uncaught exception, or a SystemExit whose
    code is not an int, takes the normal exit with its traceback and code.

    OpenBLAS runs on one thread unless OPENBLAS_NUM_THREADS says otherwise:
    fit's sums go through its dot product, whose rounding would otherwise
    depend on the machine's CPU count.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        code = main()
    except SystemExit as exc:
        if not isinstance(exc.code, int):
            raise
        code = exc.code
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        if not code:
            # A failed write in main was reported already.
            print(f"error: {exc}", file=sys.stderr)
            code = 1
    if sys.stderr is not None:
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
