"""Time of the clique-cutset and minimal-separator searches.

    PYTHONPATH=src python3 benchmarks/cutsets.py LABEL

Times ``find_clique_cutset`` and ``minimal_cutsets`` on every connected graph
with at most 8 vertices (the graph6 files under ``tests/_cache``) and on 60
seeded class members grown to 14..30 vertices, 30 P5,K2,3-free and 30
P5,K1+(K1uK3)-free.  A call that a function refuses with ``PreconditionError``
is counted, not timed.  Then times ``verify`` of lemma-3.1 and lemma-4.2 at
n <= 9 on a warm generation cache; both admit only graphs without a clique
cutset, and lemma-3.1 lists the minimal cutsets of each.  The seconds are
stored under LABEL in ``BENCH_cutsets.json`` at the repository root; results
under other labels are kept, so runs of two commits (point PYTHONPATH at each
one's ``src``) end up side by side.  Standard library only.
"""

from __future__ import annotations

import json
import platform
import random
import sys
import time
from pathlib import Path

from chibind import Graph, enumeration, harness, pattern, representatives, verify
from chibind.errors import PreconditionError
from chibind.graphs import is_connected
from chibind.patterns import has_induced_using
from chibind.structure import find_clique_cutset, minimal_cutsets

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "BENCH_cutsets.json"
SEED = 20221
CLASSES = (("P5", "K2,3"), ("P5", "K1+(K1uK3)"))
VERIFY = ("lemma-3.1", "lemma-4.2")


def small_graphs() -> list[Graph]:
    return [g for n in range(1, 9)
            for g in enumeration.iter_graph6_file(str(ROOT / "tests" / "_cache" / f"v1-all-{n}.g6"))
            if is_connected(g)]


def grown_member(rng: random.Random, forbidden: list[Graph], n: int) -> Graph:
    """A connected class member grown from an edge: each new vertex copies a
    random vertex's neighbourhood (as a true or false twin) with a few places
    flipped, and is kept only when it creates no forbidden induced subgraph."""
    adj = [0b10, 0b01]
    while len(adj) < n:
        k = len(adj)
        v = rng.randrange(k)
        sub = adj[v] | (1 << v if rng.random() < 0.5 else 0)
        for u in range(k):
            if rng.random() < 0.15:
                sub ^= 1 << u
        if not sub:
            continue
        child = tuple(a | 1 << k if sub >> u & 1 else a for u, a in enumerate(adj)) + (sub,)
        if not any(has_induced_using(child, k + 1, pg, k) for pg in forbidden):
            adj = list(child)
    return Graph(n, tuple(adj))


def grown_graphs() -> list[Graph]:
    rng = random.Random(SEED)
    return [grown_member(rng, [pattern(p).graph for p in names], 14 + i % 17)
            for names in CLASSES for i in range(30)]


def time_calls(fn, graphs: list[Graph]) -> dict:
    seconds = 0.0
    refused = 0
    for g in graphs:
        start = time.perf_counter()
        try:
            fn(g)
        except PreconditionError:
            refused += 1
            continue
        seconds += time.perf_counter() - start
    return {"graphs": len(graphs), "refused": refused, "seconds": round(seconds, 4)}


def time_verify(target: str, n_max: int) -> dict:
    streams = harness.TARGETS[target].streams
    for n in range(1, n_max + 1):
        representatives(n, streams(n).free_of)
    start = time.perf_counter()
    report = verify(target, n_max)
    return {"n_max": n_max, "graphs_checked": report.graphs_checked,
            "check_s": round(time.perf_counter() - start, 2)}


def main(label: str) -> None:
    sets = {"connected_upto8": small_graphs(), "grown_14_30": grown_graphs()}
    run = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "calls": {f"{fn.__name__}/{name}": time_calls(fn, graphs)
                  for fn in (find_clique_cutset, minimal_cutsets)
                  for name, graphs in sets.items()},
        "verify": {target: time_verify(target, 9) for target in VERIFY},
    }
    print(json.dumps(run, indent=2), file=sys.stderr)
    results = json.loads(OUT.read_text(encoding="utf-8")) if OUT.exists() else {}
    results[label] = run
    OUT.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: benchmarks/cutsets.py LABEL")
    main(sys.argv[1])
