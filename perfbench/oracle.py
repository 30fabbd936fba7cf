"""Output checks that do not use the program's own code.

Every figure is recomputed here from the corpus JSONL by definition: author
records, the cohort filter, the 17 indicators (rank thresholds in exact
rationals), the per-window least-squares lines and the rank-sum p-values.
Sums the program rounds once with ``math.fsum`` are rounded once here too,
so those fields compare exactly; the fitted lines and p-values, which the
two routes compute in different orders, compare within 1e-9.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from fractions import Fraction
from pathlib import Path

INDICATORS = (
    "n", "f", "citations", "norm_citations", "j_index", "fract_citations",
    "fract_norm_citations", "mean_citations", "mean_fract_citations",
    "median_fract_citations", "max_fract_citations", "h", "g", "h_m", "g_f",
    "g_m", "collab_coeff",
)
INT_INDICATORS = frozenset({"n", "citations", "h", "g", "g_f"})
REL_TOL = 1e-9
# Rows checked field by field per table; every row is checked for membership.
SAMPLE_ROWS = 300


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Corpus:
    """Papers as plain tuples, plus the author index, read from JSONL."""

    def __init__(self, path: Path) -> None:
        self.papers = []  # (paper_id, pub_year, author_count, sorted citing years)
        self.by_author: dict[str, list[int]] = {}
        self.events = 0
        self.bytes = path.stat().st_size
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                if not line.strip():
                    continue
                record = json.loads(line)
                ids = record.get("author_ids")
                count = len(ids) if ids is not None else record["author_count"]
                years = sorted(record.get("citing_years", []))
                self.events += len(years)
                index = len(self.papers)
                self.papers.append((record["paper_id"], record["pub_year"], count, years))
                for author in ids or ():
                    self.by_author.setdefault(author, []).append(index)

    def record(self, author: str, window: int) -> tuple[int, list[tuple[str, int, int, int]]]:
        """(first year, [(paper_id, pub_year, author_count, windowed c)])."""
        papers = [self.papers[i] for i in self.by_author[author]]
        first = min(p[1] for p in papers)
        last = first + window - 1
        kept = [
            (pid, year, count, sum(1 for y in cites if y <= last))
            for pid, year, count, cites in papers
            if year <= last
        ]
        return first, kept


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def _read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split("\t"), [line.split("\t") for line in lines[1:] if line]


def _sample(rows: list, limit: int) -> list:
    if len(rows) <= limit:
        return rows
    step = len(rows) / limit
    return [rows[int(i * step)] for i in range(limit)]


def expected_vector(first: int, papers, window: int, model: dict) -> dict:
    """The 17 indicators of one author record, from their definitions."""
    fits = model["window_fits"]

    def expected(year: int, w: int) -> float:
        fit = fits[str(w)]
        return max(fit["slope"] * year + fit["intercept"], model["floor"])

    ordered = sorted(papers, key=lambda p: (-p[3], p[2], p[0]))
    c = [p[3] for p in ordered]
    a = [p[2] for p in ordered]
    e = [expected(p[1], first + window - p[1]) for p in ordered]
    n = len(ordered)
    f = math.fsum(1.0 / x for x in a)
    fract = [ci / ai for ci, ai in zip(c, a)]

    h = g = g_f = 0
    h_m = g_m = Fraction(0)
    r_eff = Fraction(0)
    top = 0
    top_fract = Fraction(0)
    for r in range(1, n + 1):
        r_eff += Fraction(1, a[r - 1])
        top += c[r - 1]
        top_fract += Fraction(c[r - 1], a[r - 1])
        if c[r - 1] >= r:
            h = r
        if top >= r * r:
            g = r
        if c[r - 1] >= r_eff:
            h_m = r_eff
        if top_fract >= r * r:
            g_f = r
        if top_fract >= r_eff * r_eff:
            g_m = r_eff
    return {
        "n": n,
        "f": f,
        "citations": sum(c),
        "norm_citations": math.fsum(ci / ei for ci, ei in zip(c, e)),
        "j_index": math.fsum(math.sqrt(ci) for ci in c),
        "fract_citations": math.fsum(fract),
        "fract_norm_citations": math.fsum(
            ci / (ei * ai) for ci, ei, ai in zip(c, e, a)
        ),
        "mean_citations": sum(c) / n,
        "mean_fract_citations": math.fsum(fract) / n,
        "median_fract_citations": statistics.median(fract),
        "max_fract_citations": max(fract),
        "h": h,
        "g": g,
        "h_m": float(h_m),
        "g_f": g_f,
        "g_m": float(g_m),
        "collab_coeff": 1.0 - f / n,
    }


def _admitted(papers, first: int, params: dict) -> bool:
    mean = sum(p[2] - 1 for p in papers) / len(papers)
    if not params["coauthor_min"] < mean < params["coauthor_max"]:
        return False
    start = params["max_start_year"]
    if start.lower() != "none" and first > int(start):
        return False
    cap = params["coauthor_hard_cap"]
    return cap is None or mean < cap


def check_model(run_dir: Path, manifest: dict, corpus: Corpus) -> list[str]:
    params = manifest["parameters"]
    model = json.loads((run_dir / params["out"]).read_text(encoding="utf-8"))
    windows = params["windows"]
    low = params["year_min"] if params["year_min"] is not None else -math.inf
    high = params["year_max"] if params["year_max"] is not None else math.inf
    per_year: dict[int, int] = {}
    for _, year, _, _ in corpus.papers:
        per_year[year] = per_year.get(year, 0) + 1
    years = {y for y, k in per_year.items() if k >= params["min_papers"] and low <= y <= high}
    kept = [p for p in corpus.papers if p[1] in years]
    problems = []
    if model["fit_year_range"] != [min(years), max(years)]:
        problems.append(f"model fit_year_range {model['fit_year_range']}")
    x = [p[1] for p in kept]
    x_mean = math.fsum(x) / len(x)
    sxx = math.fsum((xi - x_mean) ** 2 for xi in x)
    for w in range(1, windows + 1):
        y = [sum(1 for cy in p[3] if cy <= p[1] + w - 1) for p in kept]
        y_mean = math.fsum(y) / len(y)
        slope = math.fsum((xi - x_mean) * (yi - y_mean) for xi, yi in zip(x, y)) / sxx
        intercept = y_mean - slope * x_mean
        fit = model["window_fits"][str(w)]
        if fit["n_points"] != len(kept):
            problems.append(f"model window {w}: n_points {fit['n_points']} != {len(kept)}")
        if not (_close(fit["slope"], slope) and _close(fit["intercept"], intercept)):
            problems.append(f"model window {w}: line differs from least squares")
    return problems


def check_vectors(run_dir: Path, manifest: dict, corpus: Corpus) -> list[str]:
    params = manifest["parameters"]
    window = params["windows"]
    model = json.loads((run_dir / params["model"]).read_text(encoding="utf-8"))
    if params["authors"]:
        text = (run_dir / params["authors"]).read_text(encoding="utf-8")
        authors = [s.strip() for s in text.splitlines()]
        authors = [s for s in authors if s and not s.startswith("#")]
    else:
        authors = sorted(corpus.by_author)
    records = {a: corpus.record(a, window) for a in authors}
    admitted = sorted(a for a, (first, papers) in records.items() if _admitted(papers, first, params))

    header, rows = _read_table(run_dir / params["out"])
    name = params["out"]
    if header != ["author_id", *INDICATORS]:
        return [f"{name}: header {header}"]
    if [row[0] for row in rows] != admitted:
        return [f"{name}: {len(rows)} rows, the filter admits {len(admitted)} authors"]
    problems = []
    for row in _sample(rows, SAMPLE_ROWS):
        first, papers = records[row[0]]
        want = expected_vector(first, papers, window, model)
        for field, cell in zip(INDICATORS, row[1:]):
            got = int(cell) if field in INT_INDICATORS else float(cell)
            if got != want[field]:
                problems.append(f"{name}: {row[0]} {field} {cell} != {want[field]!r}")
    return problems


def rank_sum_p(a: list[float], b: list[float]) -> float:
    """One-sided p that a runs higher: normal approximation, tie-corrected."""
    pooled = sorted([(v, 0) for v in a] + [(v, 1) for v in b])
    n_a, n_b = len(a), len(b)
    n = n_a + n_b
    rank_sum = 0.0
    ties = 0
    i = 0
    while i < n:
        j = i
        while j + 1 < n and pooled[j + 1][0] == pooled[i][0]:
            j += 1
        size = j - i + 1
        ties += size**3 - size
        rank_sum += sum(1 for k in range(i, j + 1) if pooled[k][1] == 0) * ((i + j) / 2 + 1)
        i = j + 1
    w = rank_sum - n_a * (n_a + 1) / 2
    variance = n_a * n_b / 12 * ((n + 1) - ties / (n * (n - 1)))
    if variance <= 0:
        return 0.5
    z = (w - n_a * n_b / 2 - 0.5) / math.sqrt(variance)
    return min(max(0.5 * math.erfc(z / math.sqrt(2)), 0.0), 1.0)


def check_comparison(run_dir: Path, manifest: dict) -> list[str]:
    params = manifest["parameters"]
    cohorts = {}
    for cohort in ("stars", "control"):
        _, rows = _read_table(run_dir / params[cohort])
        cohorts[cohort] = {
            field: [float(row[k + 1]) for row in rows] for k, field in enumerate(INDICATORS)
        }
    header, rows = _read_table(run_dir / params["out"])
    problems = []
    if header != ["indicator", "median_stars", "median_control", "p", "rank"]:
        return [f"comparison header {header}"]
    if [row[0] for row in rows] != list(INDICATORS):
        return ["comparison rows are not the 17 indicators in order"]
    p_values = [float(row[3]) for row in rows]
    order = sorted(range(len(rows)), key=lambda i: (p_values[i], i))
    for position, index in enumerate(order, start=1):
        if int(rows[index][4]) != position:
            problems.append(f"comparison {rows[index][0]}: rank {rows[index][4]} != {position}")
    for row in rows:
        stars, control = cohorts["stars"][row[0]], cohorts["control"][row[0]]
        if float(row[1]) != statistics.median(stars) or float(row[2]) != statistics.median(control):
            problems.append(f"comparison {row[0]}: medians differ")
        if not _close(float(row[3]), rank_sum_p(stars, control)):
            problems.append(f"comparison {row[0]}: p {row[3]} differs from the rank-sum test")

    out = Path(params["out"])
    boxplot = out.with_name(out.stem + ".boxplot.tsv")
    _, box_rows = _read_table(run_dir / boxplot)
    keys = [(row[0], row[1]) for row in box_rows]
    if keys != [(c, i) for i in INDICATORS for c in ("stars", "control")]:
        return problems + ["boxplot rows are not cohort x indicator in order"]
    for row in box_rows:
        values = [math.log10(v + 1.0) for v in cohorts[row[0]][row[1]]]
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
        got = [float(x) for x in row[2:7]]
        if not (_close(got[0], med) and _close(got[1], q1) and _close(got[2], q3)):
            problems.append(f"boxplot {row[0]} {row[1]}: quartiles differ")
        if not got[3] <= got[1] <= got[0] <= got[2] <= got[4]:
            problems.append(f"boxplot {row[0]} {row[1]}: whiskers out of order")
    return problems


def check_manifests(run_dir: Path) -> tuple[list[str], list[dict]]:
    """Each manifest's input and output checksums against the files."""
    problems = []
    manifests = []
    for path in sorted(run_dir.glob("*.manifest.json")):
        manifest = json.loads(path.read_text(encoding="utf-8"))
        manifests.append(manifest)
        for entry in manifest["inputs"] + manifest["outputs"]:
            target = run_dir / entry["path"]
            if Path(entry["path"]).is_absolute() or not target.is_file():
                problems.append(f"{path.name}: bad path {entry['path']}")
            elif sha256_file(target) != entry["sha256"]:
                problems.append(f"{path.name}: checksum of {entry['path']} differs")
    return problems, manifests


def check_outputs(run_dir: Path) -> tuple[list[str], Corpus]:
    """All problems found in one pipeline's outputs, and the parsed corpus."""
    problems, manifests = check_manifests(run_dir)
    generated = [m for m in manifests if m["command"] == "generate"]
    corpus = Corpus(run_dir / generated[0]["parameters"]["out"])
    for manifest in manifests:
        command = manifest["command"]
        if command == "generate":
            for key, size in (("star_author_ids", "n_stars"), ("control_author_ids", "n_control")):
                ids = manifest[key]
                if len(ids) != manifest["config"][size] or any(a not in corpus.by_author for a in ids):
                    problems.append(f"generate: {key} do not match the corpus")
        elif command == "fit":
            problems += check_model(run_dir, manifest, corpus)
        elif command == "indicators":
            problems += check_vectors(run_dir, manifest, corpus)
        elif command == "compare":
            problems += check_comparison(run_dir, manifest)
    return problems, corpus
