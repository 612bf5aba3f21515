"""Time targets on two source trees, alternating which one runs first.

    python3 benchmarks/alternate.py [--in FILE] PARENT_SRC CHANGE_SRC N TARGET...

PARENT_SRC and CHANGE_SRC are the ``src`` directories of two checkouts.  Each
target gets three rounds; in each round both sides run once, and the side
that runs first alternates from round to round, so a slow spell of the
machine does not land on one side only.  Every run is a fresh interpreter
with that side's ``src`` on ``PYTHONPATH``; it times ``verify(TARGET, N)``,
cold generation included, or ``verify(TARGET, N, source=FILE)`` with
``--in FILE``, in CPU seconds (``time.process_time()``) and prints the
SHA-256 of ``report.to_json()``.  The script prints every run and
each side's median CPU seconds per target, and exits 1 when some target's
reports differ between the two sides.  Standard library only.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from pathlib import Path

ROUNDS = 3

CHILD = """
import hashlib, sys, time
from chibind import verify
start = time.process_time()
report = verify(sys.argv[1], int(sys.argv[2]), source=sys.argv[3] or None)
cpu_s = time.process_time() - start
print(cpu_s, hashlib.sha256(report.to_json().encode()).hexdigest())
"""


def run(src: str, target: str, n: int, infile: str | None) -> tuple[float, str]:
    """CPU seconds and report digest of one ``verify(target, n)`` on ``src``,
    over the graph6 file ``infile`` if given."""
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", CHILD, target, str(n), infile or ""], env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{target} on {src} failed:\n{proc.stderr}")
    cpu_s, digest = proc.stdout.split()
    return float(cpu_s), digest


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
                cpu_s, digest = run(sides[side], target, n, infile)
                cpu[side].append(cpu_s)
                digests[side].add(digest)
                print(f"{target} n<={n} round {rnd + 1} {side}: {cpu_s:.3f} CPU s, report {digest}")
        same = digests["parent"] == digests["change"] and len(digests["parent"]) == 1
        differ |= not same
        print(f"{target} n<={n}: parent median {statistics.median(cpu['parent']):.3f} CPU s, "
              f"change median {statistics.median(cpu['change']):.3f} CPU s, reports "
              f"{'identical' if same else 'DIFFER'}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
