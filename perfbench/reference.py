"""A fixed unit of reference work that tracks the speed of the CPU.

The benchmark's machine shares its cores with other tenants, and its speed
drifts by a third or more within seconds to minutes. ``reference_seconds``
times a fixed mix of the operations the pipeline spends its time in (JSON
parsing, exact rationals, sorting, dict building, sha256) right beside each
command, so a command's wall time can be stated at a fixed machine speed. None of it calls the program, so a change to the program cannot move
it.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from fractions import Fraction

_rng = random.Random(20080414)
_LINES = [
    json.dumps({
        "paper_id": f"P{i:07d}",
        "pub_year": 1980 + _rng.randrange(30),
        "author_ids": [f"A{_rng.randrange(50000):06d}" for _ in range(1 + _rng.randrange(5))],
        "citing_years": sorted(1980 + _rng.randrange(40) for _ in range(_rng.randrange(40))),
    })
    for i in range(3000)
]
_BLOB = "\n".join(_LINES).encode("utf-8")


def _work() -> int:
    by_author: dict[str, list[int]] = {}
    total = Fraction(0)
    for index, line in enumerate(_LINES):
        record = json.loads(line)
        for author in record["author_ids"]:
            by_author.setdefault(author, []).append(index)
        years = record["citing_years"]
        total += Fraction(len(years), len(record["author_ids"]))
    ranked = sorted(((len(v), k) for k, v in by_author.items()), reverse=True)
    digest = hashlib.sha256(_BLOB * 16).digest()
    return len(ranked) + total.numerator % 7 + digest[0]


def reference_seconds() -> float:
    """Wall time of one unit of reference work, 35-60 ms on a shared 2.1 GHz Xeon vCPU."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start
