"""The README's library example, run as written."""

import re
from pathlib import Path

from biblio_bench.cli import main

ROOT = Path(__file__).parent.parent


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    section = (ROOT / "README.md").read_text().split("\n## Library\n", 1)[1]
    example = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    monkeypatch.chdir(tmp_path)
    # 23 years with at least 50 papers, authors ctrl_0001...
    config = ROOT / "tests" / "data" / "experiment_fit_config.json"
    assert main(["generate", "--seed-config", str(config),
                 "--out", "corpus.jsonl"]) == 0
    capsys.readouterr()
    exec(compile(example, "README.md", "exec"), {})
    h, g_m, norm_citations = capsys.readouterr().out.split()
    assert int(h) >= 0 and float(g_m) >= 0 and float(norm_citations) > 0
