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
import hashlib
import json
import logging
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import IO, TYPE_CHECKING, Callable, Iterator, Sequence

from . import __version__
from .corpus import (
    FilterSpec,
    build_author_record,
    filter_cohort,
    ingest_corpus,
    open_text,
    render_corpus,
)
from .expectation import (
    ExpectationModel,
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
    boxplot_export,
    compare_cohorts,
    render_boxplot_table,
    render_comparison_table,
)
from .synth import SynthConfig, generate_corpus

if TYPE_CHECKING:
    from hashlib import _Hash

LOG_ENV_VAR = "BIBLIO_BENCH_LOG"
STDOUT_PRECISION = 3

logger = logging.getLogger("biblio_bench")


def _configure_logging() -> None:
    level_name = os.environ.get(LOG_ENV_VAR, "WARNING").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    logger.setLevel(level)


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
    return {k: hashlib.sha256() for k in _INPUT_OPTIONS if getattr(args, k, None)}


def _read(args: argparse.Namespace, inputs: dict[str, _Hash], option: str) -> str:
    """The text of the file an input option names, hashed into its digest."""
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
    inputs = _input_digests(args)
    config = SynthConfig.from_json(_read(args, inputs, "seed_config"))
    lines, star_ids, control_ids = generate_corpus(config)

    def write_corpus(out: IO[str]) -> None:
        # The papers are drawn as their lines are written.
        count = render_corpus(lines, out)
        logger.info(
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
    # Each line's window counts are read as the line is checked: no Paper is
    # built and no corpus is held. collect_window_points only checks the
    # points, but stays a call of its own: the benchmark's traced run wraps
    # both names, counting ingest calls and window points.
    points = collect_window_points(
        ingest_corpus(Path(args.corpus), inputs["corpus"], window_count=args.windows),
        window_count=args.windows,
    )
    logger.info("read %d papers from %s", len(points), args.corpus)
    model = fit_expectation_model(
        points,
        window_count=args.windows,
        min_papers_per_year=args.min_papers,
        year_range=(args.year_min, args.year_max),
    )
    logger.info(
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
    author_ids = None
    if args.authors:
        author_ids = _listed_authors(_read(args, inputs, "authors"))
    # The model comes first: a listed author's window counts need --windows.
    model = ExpectationModel.from_json(_read(args, inputs, "model"))
    if not 1 <= args.windows <= model.window_count:
        raise ValueError(
            f"model provides windows 1..{model.window_count} "
            f"but --windows is {args.windows}"
        )
    corpus = Path(args.corpus)
    if author_ids is None:
        groups = ingest_corpus(corpus, inputs["corpus"]).papers_by_author()
    else:
        # Each line naming a listed author gives its window counts as it is
        # checked: no Paper or Corpus is built, and every line is checked.
        groups = ingest_corpus(
            corpus, inputs["corpus"], authors=author_ids, window_count=args.windows
        ).groups
    records = [
        build_author_record(author_id, papers, window_years=args.windows)
        for author_id, papers in groups.items()
    ]
    spec = FilterSpec(
        mean_coauthors_min=args.coauthor_min,
        mean_coauthors_max=args.coauthor_max,
        max_start_year=_parse_max_start_year(args.max_start_year),
        hard_mean_coauthor_cap=args.coauthor_hard_cap,
    )
    kept = sorted(filter_cohort(records, spec), key=lambda r: r.author_id)
    logger.info("%d of %d authors passed the cohort filter", len(kept), len(records))
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


if __name__ == "__main__":
    raise SystemExit(main())
