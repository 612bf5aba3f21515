"""Time the induced-subgraph search on two source trees, alternating which one runs first.

    python3 benchmarks/search.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are the ``src`` directories of two checkouts.  The
hosts are the 4,550 graphs on eight vertices with no induced P5 in the
tracked ``tests/_cache/v1-P5-8.g6``; the patterns are P5 (absent from every
host), K2,3, K1+2K2 and K1+(K1uK3) (present in some hosts, absent from the
rest).  Each round runs both sides once, and the side that runs first
alternates from round to round, so a slow spell of the machine does not land
on one side only.  Every run is a fresh interpreter with that side's ``src``
on ``PYTHONPATH``; per pattern it makes five passes, each over hosts decoded
afresh, so no host knows it is free of the pattern or its clique number, and
keeps the least CPU seconds (``time.process_time()``) of ``find_induced``
over all of them: one pass takes about a tenth of a second, and the least
of five is the one a slow spell of the machine disturbs least.  It also
counts the hosts with a copy and takes the SHA-256 of the witnesses.  The script
prints every run and each side's median per pattern, writes the runs and
medians to ``BENCH_search.json`` at the repository root under the labels
``before`` (PARENT_SRC) and ``after`` (CHANGE_SRC), and exits 1 when the two
sides' witnesses differ.  Standard library only.
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
ROOT = Path(__file__).resolve().parents[1]
HOSTS = ROOT / "tests" / "_cache" / "v1-P5-8.g6"
OUT = ROOT / "BENCH_search.json"

CHILD = """
import hashlib, json, sys, time
from chibind import find_induced, pattern
from chibind.enumeration import iter_graph6_file
out = {}
for name in sys.argv[3:]:
    pat = pattern(name)
    cpu_s = float("inf")
    for _ in range(int(sys.argv[2])):
        hosts = list(iter_graph6_file(sys.argv[1]))
        start = time.process_time()
        found = [find_induced(g, pat) for g in hosts]
        cpu_s = min(cpu_s, time.process_time() - start)
    witnesses = repr([None if emb is None else emb.map for emb in found]).encode()
    out[name] = {"cpu_s": cpu_s, "hosts": len(hosts), "present": sum(emb is not None for emb in found),
                 "witnesses": hashlib.sha256(witnesses).hexdigest()}
print(json.dumps(out))
"""


def run(src: str) -> dict:
    """Per pattern: least CPU seconds of a pass, hosts, hosts with a copy and
    witness digest of one run on ``src``."""
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", CHILD, str(HOSTS), str(PASSES), *PATTERNS], env=env,
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
                f"{name} {result[name]['cpu_s']:.3f}" for name in PATTERNS) + " CPU s")
    results: dict = {"hosts": HOSTS.relative_to(ROOT).as_posix(), "machine": platform.machine(),
                     "passes": PASSES, "python": platform.python_version(),
                     "rounds": ROUNDS}
    witnesses = {}
    for side in sides:
        per_pattern = {}
        for name in PATTERNS:
            cpu = [round(r[name]["cpu_s"], 4) for r in runs[side]]
            facts = {(r[name]["hosts"], r[name]["present"], r[name]["witnesses"]) for r in runs[side]}
            hosts, present, digest = min(facts)
            witnesses[side, name] = facts
            per_pattern[name] = {"cpu_s": cpu, "median_cpu_s": round(statistics.median(cpu), 4),
                                 "hosts": hosts, "present": present, "witnesses": digest}
        total = [round(sum(r[name]["cpu_s"] for name in PATTERNS), 4) for r in runs[side]]
        results[side] = {"patterns": per_pattern, "total_cpu_s": total,
                         "median_total_cpu_s": round(statistics.median(total), 4)}
    differ = False
    for name in PATTERNS:
        same = witnesses["before", name] == witnesses["after", name] and len(witnesses["before", name]) == 1
        differ |= not same
        before = results["before"]["patterns"][name]["median_cpu_s"]
        after = results["after"]["patterns"][name]["median_cpu_s"]
        print(f"{name}: before median {before:.3f} CPU s, after median {after:.3f} CPU s, "
              f"witnesses {'identical' if same else 'DIFFER'}")
    print(f"total: before median {results['before']['median_total_cpu_s']:.3f} CPU s, "
          f"after median {results['after']['median_total_cpu_s']:.3f} CPU s")
    OUT.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
