"""One benchmark process: set up a workload, then time one unit of it.

Started by ``run.py`` in a fresh interpreter, one at a time; prints one JSON
line.  A process runs at most one unit: the cold sweep needs an empty cache,
and a process's speed differs from the next one's by about 10% even with the
host's speed scaled out, so a run pools several processes.  It drives chibind only through its public API and touches none of its
private names.  Modes:

* ``setup``   - set up and report the set-up time only;
* ``measure`` - set up, then run one unit;
* ``trace``   - hook the layers, set up, run one unit, write the spans out.

Every time it reports is scaled to a fixed host speed (see ``Pace``): a
shared host can change speed by up to 2x for minutes at a time, and Python
work slows much alike, so a fixed reference task timed during the work
measures that speed.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import random
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

from spans import Recorder

PIPELINE_PATTERNS = {
    "p5-k23": ("P5", "K2,3"),
    "p5-k1-2k2": ("P5", "K1+2K2"),
    "p5-k1-k1uk3": ("P5", "K1+(K1uK3)"),
}

# the certified bounds, restated here so that the gate does not rely on the
# program's own bound functions
BOUNDS = {
    "p5-k23": lambda w: 2 * w * w - w - 3,
    "p5-k1-2k2": lambda w: 3 * (w * w - w) // 2,
    "p5-k1-k1uk3": lambda w: 3 * w + 11,
}

# chance that a grown vertex differs from its model vertex at any one place
FLIP = 0.15

# a valid input (14 vertices, connected, P5- and K2,3-free, omega 8) that the
# p5-k23 pipeline rejects because its divisibility scan stops at 13 vertices;
# it is coloured with every set, so that the defect shows on every run, and
# this rejection is its expected outcome until the pipeline colours it
KNOWN_REJECTION = ("p5-k23", "M{~Z~]}~k~}~}]~m_")
KNOWN_REJECTION_MESSAGE = "divisibility scan supports at most 13 vertices"

# the scaled times assume a host on which one reference task takes this long
REFERENCE_S = 0.004
# seconds between two speed readings
PACE_EVERY_S = 0.1
# timed work is scaled by the readings taken up to this long before or after it
PACE_WINDOW_S = 0.5


def sha256(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


# ---------------------------------------------------------------------------
# host speed


class RefGraph:
    """A small graph with a method per edge test, as chibind's ``Graph``."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: tuple[int, ...]) -> None:
        self.n = n
        self.adj = adj

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)


def random_adj(rng: random.Random, n: int, p: float) -> tuple[int, ...]:
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return tuple(adj)


class Pace:
    """Speed readings of the host, taken while the timed work runs.

    A timer signal interrupts the work every ``PACE_EVERY_S`` and times one
    fixed task in this file, about 4 ms of pure Python of the kinds chibind
    does: a bitmask clique search, breadth-first search over adjacency
    lists, dictionary probes in random order, and a count of induced
    three-vertex subgraphs through method calls, ``itertools`` and frozenset
    keys.  Its inputs are fixed and never depend on the seed.  With these
    parts, its time followed chibind's sweeps one for one as the host's
    speed changed (slope 0.98 and 1.03 of log time on log time; the parts
    alone gave 0.85 to 1.13).  Timed work leaves out the readings that
    interrupted it (``paused``), and is scaled by ``REFERENCE_S`` over the
    mean of the readings taken during it or close to it.  The signal runs
    its handler in the main thread between bytecodes, so no thread or
    process is added.
    """

    def __init__(self) -> None:
        rng = random.Random(0)
        self.graph = random_adj(rng, 40, 0.6)
        self.small = [RefGraph(13, random_adj(rng, 13, 0.5)) for _ in range(3)]
        self.table = {rng.getrandbits(40): i for i in range(8000)}
        keys = list(self.table)
        self.probes = [keys[rng.randrange(len(keys))] for _ in range(750)]
        self.taken_at: list[float] = []
        self.readings: list[float] = []
        # seconds spent in readings so far, overhead of the handler included
        self.paused = 0.0

    def task(self) -> int:
        g = self.graph
        out = max_clique(g)
        n = len(g)
        nbrs = [[v for v in range(n) if g[u] >> v & 1] for u in range(n)]
        for s in range(0, n, 4):
            dist = {s: 0}
            queue = [s]
            for u in queue:
                for v in nbrs[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        queue.append(v)
            out += sum(dist.values())
        seen = set()
        for key in self.probes:
            out += self.table[key]
            seen.add(key & 0xFFFF)
        counts: dict[frozenset, int] = {}
        for h in self.small:
            for triple in itertools.combinations(range(h.n), 3):
                edges = sum(1 for a, b in itertools.combinations(triple, 2) if h.has_edge(a, b))
                key = frozenset((edges, len(triple)))
                counts[key] = counts.get(key, 0) + 1
        return out + len(seen) + len(counts)

    def read(self, *_signal) -> None:
        clock = time.perf_counter
        entered = clock()
        self.task()
        self.taken_at.append(entered)
        self.readings.append(clock() - entered)
        self.paused += clock() - entered

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.read)
        signal.setitimer(signal.ITIMER_REAL, PACE_EVERY_S, PACE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def scale(self, start: float, end: float) -> float:
        """Factor for work done between two ``perf_counter`` readings: from
        the readings taken within ``PACE_WINDOW_S`` of it."""
        lo = bisect.bisect_left(self.taken_at, start - PACE_WINDOW_S)
        hi = bisect.bisect_right(self.taken_at, end + PACE_WINDOW_S)
        if lo == hi:
            self.read()
            lo, hi = len(self.readings) - 1, len(self.readings)
        return REFERENCE_S / statistics.fmean(self.readings[lo:hi])


# ---------------------------------------------------------------------------
# set-up


def prepare_universe(cfg: dict) -> dict:
    """Write the class members with at most ``n_max`` vertices, in an order
    drawn from the seed, as the graph6 file the warm sweeps read."""
    raw = Path(cfg["universe"]).read_bytes()
    lines = [ln for ln in raw.decode("ascii").split("\n")
             if ln and ord(ln[0]) - 63 <= cfg["n_max"]]
    random.Random(cfg["seed"]).shuffle(lines)
    out = Path(cfg["out_dir"]) / f"universe-{cfg['workload']}.g6"
    out.write_text("".join(ln + "\n" for ln in lines), encoding="ascii")
    return {"path": str(out), "universe_sha256": sha256(raw), "universe_lines": len(lines)}


def grow(chibind, rng: random.Random, forbidden: list, n: int):
    """A connected class member on ``n`` vertices, grown one vertex at a time
    from an edge.  Each new vertex copies the neighbourhood of a random vertex
    (as a true or false twin) with a few places flipped, and is kept only when
    it creates no forbidden induced subgraph; the classes are hereditary, so
    every intermediate graph is a member too."""
    adj = [0b10, 0b01]
    while len(adj) < n:
        k = len(adj)
        v = rng.randrange(k)
        sub = adj[v] | (1 << v if rng.random() < 0.5 else 0)
        for u in range(k):
            if rng.random() < FLIP:
                sub ^= 1 << u
        if not sub:
            continue
        child = tuple(a | 1 << k if sub >> u & 1 else a for u, a in enumerate(adj)) + (sub,)
        if any(chibind.patterns.has_induced_using(child, k + 1, pg, k) for pg in forbidden):
            continue
        adj = list(child)
    return chibind.Graph(n, tuple(adj))


def grow_inputs(chibind, cfg: dict) -> dict:
    rng = random.Random(cfg["seed"])
    lo, hi = cfg["n_range"]
    work = []
    for pipeline, names in PIPELINE_PATTERNS.items():
        forbidden = [chibind.pattern(p).graph for p in names]
        for i in range(cfg["per_pipeline"]):
            work.append((pipeline, grow(chibind, rng, forbidden, lo + i % (hi - lo + 1))))
    work.append((KNOWN_REJECTION[0], chibind.decode_graph6(KNOWN_REJECTION[1])))
    listing = "".join(f"{p} {chibind.encode_graph6(g)}\n" for p, g in work)
    return {"work": work, "inputs_sha256": sha256(listing), "inputs": len(work)}


def setup(chibind, cfg: dict) -> dict:
    if cfg["kind"] == "warm":
        return prepare_universe(cfg)
    if cfg["kind"] == "color":
        return grow_inputs(chibind, cfg)
    return {}


# ---------------------------------------------------------------------------
# units


def sweep_unit(chibind, cfg: dict, state: dict) -> dict:
    report = chibind.verify(cfg["target"], n_max=cfg["n_max"], source=state.get("path"))
    payload = json.loads(report.to_json())
    # only the fields the report has today, so that later additions to the
    # canonical JSON do not break the comparison
    canonical = {
        "target": payload["target"],
        "params": {"n_max": payload["params"]["n_max"],
                   "filter": payload["params"]["filter"],
                   "source": "generated" if "path" not in state else "universe-file"},
        "counts": {k: payload["counts"][k] for k in ("graphs_checked", "violations")},
        "violations": payload["violations"],
        "extremes": payload["extremes"],
    }
    return {"graphs_checked": report.graphs_checked,
            "violations": len(report.violations),
            "report_sha256": sha256(json.dumps(canonical, sort_keys=True))}


def max_clique(adj: tuple[int, ...]) -> int:
    best = 0

    def extend(size: int, cand: int) -> None:
        nonlocal best
        if size > best:
            best = size
        while cand and size + cand.bit_count() > best:
            v = cand.bit_length() - 1
            cand &= ~(1 << v)
            extend(size + 1, cand & adj[v])

    extend(0, (1 << len(adj)) - 1)
    return best


def check_coloring(g, pipeline: str, result: dict) -> str | None:
    """Properness and the bound, checked by this file's own edge loop and
    clique search; None when the colouring is right."""
    colors = result["colors"]
    if len(colors) != g.n:
        return f"{len(colors)} colours for {g.n} vertices"
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.adj[u] >> v & 1 and colors[u] == colors[v]:
                return f"edge {u}-{v} is monochromatic"
    used = len(set(colors))
    w = max_clique(g.adj)
    if result["colors_used"] != used or result["omega"] != w:
        return f"reports {result['colors_used']} colours and omega {result['omega']}"
    if used > BOUNDS[pipeline](w):
        return f"{used} colours above the bound {BOUNDS[pipeline](w)}"
    return None


def color_unit(chibind, state: dict, recorder, pace: Pace) -> dict:
    """One pass over the seeded set, one closed-loop caller."""
    clock = time.perf_counter
    latencies, starts, outcomes = [], [], []
    for i, (pipeline, g) in enumerate(state["work"]):
        if recorder is not None:
            recorder.run_id = f"call-{i}"
        paused = pace.paused
        start = clock()
        try:
            outcome = chibind.color_one(g, pipeline)
        except chibind.PreconditionError as exc:
            outcome = f"rejected: {exc}"
        except Exception as exc:  # any other exception is a wrong answer
            outcome = f"error: {type(exc).__name__}: {exc}"
        latencies.append(clock() - start - (pace.paused - paused))
        starts.append(start)
        outcomes.append(outcome)
    return {"latencies": latencies, "starts": starts, "outcomes": outcomes}


def judge_colors(chibind, state: dict, outcomes: list) -> dict:
    rejected, wrong, known = [], [], []
    for (pipeline, g), outcome in zip(state["work"], outcomes):
        g6 = chibind.encode_graph6(g)
        line = f"{pipeline} {g6} {outcome}"
        if isinstance(outcome, str):
            if (pipeline, g6) == KNOWN_REJECTION and KNOWN_REJECTION_MESSAGE in outcome:
                known.append(line)
            else:
                (rejected if outcome.startswith("rejected") else wrong).append(line)
            continue
        problem = check_coloring(g, pipeline, outcome)
        if problem:
            wrong.append(f"{pipeline} {g6} {problem}")
    return {"rejected": rejected, "wrong": wrong, "known_rejection": known}


# ---------------------------------------------------------------------------


def main() -> None:
    cfg = json.loads(sys.argv[1])
    sys.path.insert(0, str(Path(cfg["root"]) / "src"))
    pace = Pace()
    entered = time.perf_counter()
    pace.start()
    recorder = Recorder() if cfg["mode"] == "trace" else None
    import chibind

    if recorder is not None:
        recorder.install(cfg["target"])
        state = recorder.wrap("bench.setup", setup)(chibind, cfg)
    else:
        state = setup(chibind, cfg)
    # the parent took its monotonic reading just before starting this process
    setup_raw = time.monotonic() - cfg["spawned"] - pace.paused
    result = {"setup_s": setup_raw * pace.scale(entered, time.perf_counter()),
              "setup_raw_s": setup_raw}
    result.update({k: v for k, v in state.items() if k not in ("work", "path")})
    if cfg["mode"] == "setup":
        pace.stop()
        print(json.dumps(result))
        return

    if cfg["kind"] == "color":
        def unit():
            return color_unit(chibind, state, recorder, pace)
    else:
        def unit():
            return sweep_unit(chibind, cfg, state)
    if recorder is not None:
        recorder.run_id = "unit"
        unit = recorder.wrap("bench.unit", unit)

    clock = time.perf_counter
    paused = pace.paused
    start = clock()
    out = unit()
    end = clock()
    pace.stop()
    if cfg["kind"] == "color":
        # each call is scaled by the readings around it; a pass is the sum
        # of its calls
        raw = out["latencies"]
        result["latencies"] = [t * pace.scale(s, s + t) for t, s in zip(raw, out["starts"])]
        result["color"] = judge_colors(chibind, state, out["outcomes"])
        result["outcomes_sha256"] = sha256(json.dumps(out["outcomes"]))
        result["unit_raw_s"] = sum(raw)
        result["unit_s"] = sum(result["latencies"])
    else:
        result["sweep"] = out
        result["unit_raw_s"] = end - start - (pace.paused - paused)
        result["unit_s"] = result["unit_raw_s"] * pace.scale(start, end)
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if recorder is not None:
        spans_file = Path(cfg["out_dir"]) / f"spans-{cfg['workload']}.json"
        spans_file.write_text(json.dumps(recorder.dump()), encoding="utf-8")
        result["spans_file"] = str(spans_file)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
