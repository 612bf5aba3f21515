"""Every verification target at n <= N_MAX, one generated class at a time.

    PYTHONPATH=src python3 benchmarks/suite.py LABEL

The targets are grouped by the class they generate.  For each class the
generation cache is emptied, the members on n = 1..N_MAX vertices are
generated cold (counts, wall seconds and CPU seconds per n), and each target
of the class is then verified on the warm cache (graphs checked, violations,
wall and CPU seconds).  CPU seconds are ``time.process_time()``, which a
second job on the machine disturbs less than the wall clock.
Holding one class at a time bounds memory.  observation-2.1 generates
nothing, so it is only checked.  The numbers are stored under LABEL in
``BENCH_suite.json`` at the repository root, with the generation, check and
suite totals, wall and CPU, and the process's peak resident size in MB
(``ru_maxrss``, which Linux gives in KB); results under other labels are
kept, so runs of two commits (point PYTHONPATH at each one's ``src``) end up
side by side.
Standard library only.
"""

from __future__ import annotations

import json
import platform
import resource
import sys
import time
from pathlib import Path

from chibind import enumeration, harness, representatives, verify

N_MAX = 10
OUT = Path(__file__).resolve().parents[1] / "BENCH_suite.json"


def classes() -> dict[str, tuple[tuple, list[str]]]:
    """Per class name, its forbidden graphs (empty when the targets generate
    nothing) and its targets, in registry order."""
    groups: dict[str, tuple[tuple, list[str]]] = {}
    for name, entry in harness.TARGETS.items():
        key = ",".join(g.label for g in entry.free_of) or "none"
        groups.setdefault(key, (entry.free_of, []))[1].append(name)
    return groups


def time_class(name: str, free_of: tuple, targets: list[str], out: dict) -> dict:
    enumeration._GEN_CACHE.clear()
    seconds, cpu_seconds, counts = {}, {}, {}
    if free_of:
        for n in range(1, N_MAX + 1):
            start, cpu_start = time.perf_counter(), time.process_time()
            counts[n] = len(representatives(n, free_of))
            seconds[n] = round(time.perf_counter() - start, 3)
            cpu_seconds[n] = round(time.process_time() - cpu_start, 3)
        print(f"{name} n<={N_MAX}: {sum(counts.values())} graphs in "
              f"{sum(seconds.values()):.2f} s ({sum(cpu_seconds.values()):.2f} CPU s)",
              file=sys.stderr)
    for target in targets:
        start, cpu_start = time.perf_counter(), time.process_time()
        report = verify(target, N_MAX)
        check_s = round(time.perf_counter() - start, 2)
        check_cpu_s = round(time.process_time() - cpu_start, 2)
        out[target] = {"graphs_checked": report.graphs_checked,
                       "violations": len(report.violations), "check_s": check_s,
                       "check_cpu_s": check_cpu_s}
        print(f"{target} n<={N_MAX}: {report.graphs_checked} graphs, "
              f"{len(report.violations)} violations, {check_s:.2f} s "
              f"({check_cpu_s:.2f} CPU s)", file=sys.stderr)
    return {"counts": counts, "seconds": seconds, "cpu_seconds": cpu_seconds,
            "generation_s": round(sum(seconds.values()), 2),
            "generation_cpu_s": round(sum(cpu_seconds.values()), 2)}


def main(label: str) -> None:
    start = time.perf_counter()
    targets: dict[str, dict] = {}
    by_class = {name: time_class(name, free_of, names, targets)
                for name, (free_of, names) in classes().items()}
    run = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "n_max": N_MAX,
        "classes": by_class,
        "targets": targets,
        "generation_total_s": round(sum(c["generation_s"] for c in by_class.values()), 2),
        "generation_total_cpu_s": round(sum(c["generation_cpu_s"] for c in by_class.values()), 2),
        "check_total_s": round(sum(t["check_s"] for t in targets.values()), 2),
        "check_total_cpu_s": round(sum(t["check_cpu_s"] for t in targets.values()), 2),
        "suite_s": round(time.perf_counter() - start, 2),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }
    results = json.loads(OUT.read_text(encoding="utf-8")) if OUT.exists() else {}
    results[label] = run
    OUT.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: benchmarks/suite.py LABEL")
    main(sys.argv[1])
