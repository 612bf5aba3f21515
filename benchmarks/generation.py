"""Cold generation time per class and vertex count.

    PYTHONPATH=src python3 benchmarks/generation.py LABEL

For each class below, empties the generation cache and calls
``chibind.representatives(n, ...)`` for n = 1..10 in turn, so the time of
each n is the cost of extending the members on n - 1 vertices.  The seconds
and member counts per n are stored under LABEL in ``BENCH_generation.json``
at the repository root; results under other labels are kept, so runs of two
commits (point PYTHONPATH at each one's ``src``) end up side by side.
Standard library only.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path

from chibind import enumeration, representatives

CLASSES = ("P5,K2,3", "P5,K1+2K2", "P5,K1+(K1uK3)")
N_MAX = 10
OUT = Path(__file__).resolve().parents[1] / "BENCH_generation.json"


def time_class(names: str) -> dict:
    free = enumeration.parse_free_argument(names)
    enumeration._GEN_CACHE.clear()
    seconds, counts = {}, {}
    for n in range(1, N_MAX + 1):
        start = time.perf_counter()
        counts[n] = len(representatives(n, free))
        seconds[n] = round(time.perf_counter() - start, 3)
        print(f"{names} n={n}: {counts[n]} graphs in {seconds[n]:.2f} s", file=sys.stderr)
    return {"seconds": seconds, "total_s": round(sum(seconds.values()), 2), "counts": counts}


def main(label: str) -> None:
    run = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "classes": {names: time_class(names) for names in CLASSES},
    }
    results = json.loads(OUT.read_text(encoding="utf-8")) if OUT.exists() else {}
    results[label] = run
    OUT.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: benchmarks/generation.py LABEL")
    main(sys.argv[1])
