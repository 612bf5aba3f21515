"""Check-phase time of the colouring-bound targets on a warm generation cache.

    PYTHONPATH=src python3 benchmarks/check.py LABEL

For each target below, first generates its class members for n = 1..N (the
generation cache is then warm), then times ``chibind.verify(target, N)``, so
the time is that of the stream filters, the admission and the per-graph
check.  The seconds and graph counts are stored under LABEL in
``BENCH_check.json`` at the repository root; results under other labels are
kept, so runs of two commits (point PYTHONPATH at each one's ``src``) end up
side by side.  Standard library only.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path

from chibind import enumeration, harness, representatives, verify

TARGETS = {
    "theorem-1.2": 9,
    "theorem-1.3": 9,
    "theorem-1.4": 9,
    "lemma-5.2": 8,
    "lemma-6.1": 9,
    "lemma-6.2": 9,
}
OUT = Path(__file__).resolve().parents[1] / "BENCH_check.json"


def time_target(target: str, n_max: int) -> dict:
    enumeration._GEN_CACHE.clear()
    streams = harness.TARGETS[target].streams
    start = time.perf_counter()
    for n in range(1, n_max + 1):
        representatives(n, streams(n).free_of)
    generation_s = time.perf_counter() - start
    start = time.perf_counter()
    report = verify(target, n_max)
    check_s = time.perf_counter() - start
    print(f"{target} n<={n_max}: {report.graphs_checked} graphs checked in {check_s:.2f} s",
          file=sys.stderr)
    return {"n_max": n_max, "graphs_checked": report.graphs_checked,
            "generation_s": round(generation_s, 2), "check_s": round(check_s, 2)}


def main(label: str) -> None:
    targets = {target: time_target(target, n_max) for target, n_max in TARGETS.items()}
    run = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "targets": targets,
        "check_total_s": round(sum(t["check_s"] for t in targets.values()), 2),
    }
    results = json.loads(OUT.read_text(encoding="utf-8")) if OUT.exists() else {}
    results[label] = run
    OUT.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: benchmarks/check.py LABEL")
    main(sys.argv[1])
