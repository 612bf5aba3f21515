"""Time the induced-subgraph and hole searches on two source trees, alternating which one runs first.

    python3 benchmarks/search.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are the ``src`` directories of two checkouts.  The
hosts are the 4,550 graphs on eight vertices with no induced P5 in the
tracked ``tests/_cache/v1-P5-8.g6``.  The searches are:

- ``find_induced`` of P5 (absent from every host), K2,3, K1+2K2 and
  K1+(K1uK3) (present in some hosts, absent from the rest);
- ``find_five_hole`` and ``find_all_odd_antiholes(g)``, which run the
  hole search in the host and in its complement;
- ``has_induced_using`` of each of the four patterns at every vertex of the
  host (``using P5`` and so on), the test that seeded growth makes for each
  vertex it adds.

Each round runs both sides once, and the side that runs first alternates from
round to round, so a slow spell of the machine does not land on one side
only.  Every run is a fresh interpreter with that side's ``src`` on
``PYTHONPATH``; per search it makes five passes, each over hosts decoded
afresh, so no host knows it is free of a pattern or its clique number, and
keeps the least CPU seconds (``time.process_time()``) of the search over all
of them: one pass takes at most a few tenths of a second, and the least of
five is the one a slow spell of the machine disturbs least.  It also counts
the hosts with a hit and takes the SHA-256 of the results.  The script
prints every run and each side's median per search, writes the runs and
medians to ``BENCH_search.json`` at the repository root under the labels
``before`` (PARENT_SRC) and ``after`` (CHANGE_SRC), and exits 1 when the two
sides' results differ.  Standard library only.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROUNDS = 3
PASSES = 5
PATTERNS = ("P5", "K2,3", "K1+2K2", "K1+(K1uK3)")
SEARCHES = PATTERNS + ("five-hole", "odd-antiholes") + tuple(f"using {name}" for name in PATTERNS)
ROOT = Path(__file__).resolve().parents[1]
HOSTS = ROOT / "tests" / "_cache" / "v1-P5-8.g6"
OUT = ROOT / "BENCH_search.json"

CHILD = """
import hashlib, json, sys, time
from chibind import find_induced, find_five_hole, pattern
from chibind.enumeration import iter_graph6_file
from chibind.patterns import has_induced_using
from chibind.structure import find_all_odd_antiholes

def search(name):
    if name == "five-hole":
        return find_five_hole
    if name == "odd-antiholes":
        return lambda g: find_all_odd_antiholes(g)
    if name.startswith("using "):
        pg = pattern(name[len("using "):]).graph
        return lambda g: tuple(has_induced_using(g.adj, g.n, pg, v) for v in range(g.n))
    pat = pattern(name)
    return lambda g: None if (emb := find_induced(g, pat)) is None else emb.map

out = {}
for name in sys.argv[3:]:
    run = search(name)
    cpu_s = float("inf")
    for _ in range(int(sys.argv[2])):
        hosts = list(iter_graph6_file(sys.argv[1]))
        start = time.process_time()
        found = [run(g) for g in hosts]
        cpu_s = min(cpu_s, time.process_time() - start)
    out[name] = {"cpu_s": cpu_s, "hosts": len(hosts),
                 "present": sum(bool(any(hit) if name.startswith("using ") else hit) for hit in found),
                 "witnesses": hashlib.sha256(repr(found).encode()).hexdigest()}
print(json.dumps(out))
"""


def run(src: str) -> dict:
    """Per search: least CPU seconds of a pass, hosts, hosts with a hit and
    result digest of one run on ``src``."""
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", CHILD, str(HOSTS), str(PASSES), *SEARCHES], env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"search run on {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        raise SystemExit("usage: benchmarks/search.py PARENT_SRC CHANGE_SRC")
    sides = {"before": str(Path(argv[0]).resolve()), "after": str(Path(argv[1]).resolve())}
    for src in sides.values():
        if not (Path(src) / "chibind").is_dir():
            raise SystemExit(f"no chibind package under {src}")
    runs: dict[str, list[dict]] = {side: [] for side in sides}
    for rnd in range(ROUNDS):
        order = list(sides) if rnd % 2 == 0 else list(sides)[::-1]
        for side in order:
            result = run(sides[side])
            runs[side].append(result)
            print(f"round {rnd + 1} {side}: " + ", ".join(
                f"{name} {result[name]['cpu_s']:.3f}" for name in SEARCHES) + " CPU s")
    results: dict = {"hosts": HOSTS.relative_to(ROOT).as_posix(), "machine": platform.machine(),
                     "passes": PASSES, "python": platform.python_version(),
                     "rounds": ROUNDS}
    witnesses = {}
    for side in sides:
        per_search = {}
        for name in SEARCHES:
            cpu = [round(r[name]["cpu_s"], 4) for r in runs[side]]
            facts = {(r[name]["hosts"], r[name]["present"], r[name]["witnesses"]) for r in runs[side]}
            hosts, present, digest = min(facts)
            witnesses[side, name] = facts
            per_search[name] = {"cpu_s": cpu, "median_cpu_s": round(statistics.median(cpu), 4),
                                "hosts": hosts, "present": present, "witnesses": digest}
        total = [round(sum(r[name]["cpu_s"] for name in SEARCHES), 4) for r in runs[side]]
        results[side] = {"searches": per_search, "total_cpu_s": total,
                         "median_total_cpu_s": round(statistics.median(total), 4)}
    differ = False
    for name in SEARCHES:
        same = witnesses["before", name] == witnesses["after", name] and len(witnesses["before", name]) == 1
        differ |= not same
        before = results["before"]["searches"][name]["median_cpu_s"]
        after = results["after"]["searches"][name]["median_cpu_s"]
        print(f"{name}: before median {before:.3f} CPU s, after median {after:.3f} CPU s, "
              f"results {'identical' if same else 'DIFFER'}")
    print(f"total: before median {results['before']['median_total_cpu_s']:.3f} CPU s, "
          f"after median {results['after']['median_total_cpu_s']:.3f} CPU s")
    OUT.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
