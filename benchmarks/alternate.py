"""Time targets on two source trees, alternating which one runs first.

    python3 benchmarks/alternate.py [--in FILE] PARENT_SRC CHANGE_SRC N TARGET...

PARENT_SRC and CHANGE_SRC are the ``src`` directories of two checkouts.  Each
target gets three rounds; in each round both sides run once, and the side
that runs first alternates from round to round, so a slow spell of the
machine does not land on one side only.  Every run is a fresh interpreter
with that side's ``src`` on ``PYTHONPATH``.  It makes three passes of
``verify(TARGET, N)``, or of ``verify(TARGET, N, source=FILE)`` with
``--in FILE``, each timed in CPU seconds (``time.process_time()``), and
keeps the least, so one slow spell within a run does not count.  Before
each pass of a generated target the generation cache is emptied, so every
pass times cold generation.  A run reports the SHA-256 of each pass's
``report.to_json()``.  The script prints every run and each side's median
CPU seconds per target, and exits 1 when some target's reports differ
between passes, runs or the two sides.  Standard library only.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from pathlib import Path

ROUNDS = 3
PASSES = 3

CHILD = """
import hashlib, sys, time
from chibind import enumeration, verify
target, n, source, passes = sys.argv[1], int(sys.argv[2]), sys.argv[3] or None, int(sys.argv[4])
cpu, digests = [], set()
for _ in range(passes):
    if source is None:
        enumeration._GEN_CACHE.clear()
    start = time.process_time()
    report = verify(target, n, source=source)
    cpu.append(time.process_time() - start)
    digests.add(hashlib.sha256(report.to_json().encode()).hexdigest())
print(min(cpu), *sorted(digests))
"""


def run(src: str, target: str, n: int, infile: str | None) -> tuple[float, list[str]]:
    """The least CPU seconds of ``PASSES`` passes of ``verify(target, n)`` on
    ``src``, over the graph6 file ``infile`` if given, and the distinct report
    digests of the passes."""
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", CHILD, target, str(n), infile or "", str(PASSES)],
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{target} on {src} failed:\n{proc.stderr}")
    cpu_s, *digests = proc.stdout.split()
    return float(cpu_s), digests


def main(argv: list[str]) -> int:
    infile = None
    if argv[:1] == ["--in"] and len(argv) > 1:
        infile, argv = str(Path(argv[1]).resolve()), argv[2:]
    if len(argv) < 4 or not argv[2].isdigit():
        raise SystemExit("usage: benchmarks/alternate.py [--in FILE] PARENT_SRC CHANGE_SRC N TARGET...")
    sides = {"parent": str(Path(argv[0]).resolve()), "change": str(Path(argv[1]).resolve())}
    for src in sides.values():
        if not (Path(src) / "chibind").is_dir():
            raise SystemExit(f"no chibind package under {src}")
    n, differ = int(argv[2]), False
    for target in argv[3:]:
        cpu: dict[str, list[float]] = {side: [] for side in sides}
        digests: dict[str, set[str]] = {side: set() for side in sides}
        for rnd in range(ROUNDS):
            order = list(sides) if rnd % 2 == 0 else list(sides)[::-1]
            for side in order:
                cpu_s, run_digests = run(sides[side], target, n, infile)
                cpu[side].append(cpu_s)
                digests[side].update(run_digests)
                print(f"{target} n<={n} round {rnd + 1} {side}: {cpu_s:.3f} CPU s, "
                      f"report {' '.join(run_digests)}")
        same = digests["parent"] == digests["change"] and len(digests["parent"]) == 1
        differ |= not same
        print(f"{target} n<={n}: parent median {statistics.median(cpu['parent']):.3f} CPU s, "
              f"change median {statistics.median(cpu['change']):.3f} CPU s, reports "
              f"{'identical' if same else 'DIFFER'}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
