"""chibind benchmark: four workloads driven through the public API.

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 25 --trace 0

Each timed unit runs in a worker process (``worker.py``), started one at a
time, so all load comes from one process with no threads.  With ``--trace 0``
the last line of standard output is one JSON object with the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced unit.
Every run checks the outputs against ``expected.json``; a mismatch yields no
time.  Times are scaled to a fixed host speed, measured during the work (see
``worker.Pace``); the raw times are printed on the lines before the JSON.  See
README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

WORKLOADS = {
    "sweep-cold": {"kind": "cold", "target": "theorem-1.2"},
    "sweep-pipeline": {"kind": "warm", "target": "theorem-1.4"},
    "sweep-admit": {"kind": "warm", "target": "lemma-6.5"},
    "color-grow": {"kind": "color", "target": None},
}

SIZES = {
    "full": {"cold": 7, "warm": 8, "n_range": [10, 14], "per_pipeline": 150},
    "smoke": {"cold": 5, "warm": 5, "n_range": [7, 9], "per_pipeline": 4},
}

# set-up is timed at least this many times in a run; set-up-only workers
# make up what the measuring workers leave short
SETUP_SAMPLES = 8
# every worker must have ended by then, so that a run ends within 180 s
DEADLINE_S = 170

UNITS = {
    "wall_s": "s", "graphs_per_s": "1/s", "call_p50_ms": "ms", "call_p95_ms": "ms",
    "setup_s": "s", "peak_rss_mb": "MB",
}


class Run:
    """One benchmark invocation: its workers, their results and its verdict."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.spec = WORKLOADS[args.workload]
        self.size = "smoke" if args.smoke else "full"
        expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
        self.universe = expected["universe"]
        self.expected = expected[self.size][args.workload]
        self.env = {k: v for k, v in os.environ.items() if k != "CHIBIND_THREADS"}
        self.started = time.monotonic()
        self.problems: list[str] = []
        self.setups: list[float] = []
        self.setups_raw: list[float] = []
        self.walls_raw: list[float] = []
        self.samples: list[float] = []
        self.rejected: list[str] = []
        self.known_rejection: list[str] = []
        self.input_digest = ""
        self.attempted = 0
        self.failed = 0

    def config(self, mode: str) -> dict:
        kind = self.spec["kind"]
        sizes = SIZES[self.size]
        cfg = {"mode": mode, "kind": kind, "workload": self.args.workload,
               "seed": self.args.seed, "root": str(ROOT), "out_dir": str(OUT_DIR),
               "target": self.spec["target"]}
        if kind == "cold":
            cfg["n_max"] = sizes["cold"]
        elif kind == "warm":
            cfg["n_max"] = sizes["warm"]
            cfg["universe"] = str(ROOT / self.universe["file"])
        else:
            cfg["n_range"] = sizes["n_range"]
            cfg["per_pipeline"] = sizes["per_pipeline"]
        return cfg

    def spawn(self, mode: str) -> dict | None:
        cfg = self.config(mode)
        cfg["spawned"] = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
                capture_output=True, text=True, env=self.env, cwd=ROOT,
                timeout=max(1.0, DEADLINE_S - (cfg["spawned"] - self.started)))
        except subprocess.TimeoutExpired:
            self.problems.append(f"{mode} worker did not finish in time")
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            self.problems.append(f"{mode} worker exited {proc.returncode}: "
                                 f"{proc.stderr.strip()[-2000:]}")
            return None
        result = json.loads(lines[-1])
        self.setups.append(result["setup_s"])
        self.setups_raw.append(result["setup_raw_s"])
        self.check_setup(result)
        return result

    # -- correctness gate ---------------------------------------------------

    def check_setup(self, result: dict) -> None:
        exp = self.expected
        self.input_digest = result.get("inputs_sha256", result.get("universe_sha256", ""))
        if "universe_sha256" in result:
            if result["universe_sha256"] != self.universe["sha256"]:
                self.problems.append("universe file digest differs")
            if result["universe_lines"] != exp["universe_lines"]:
                self.problems.append(f"universe has {result['universe_lines']} graphs")
        if "inputs_sha256" in result:
            if result["inputs"] != exp["inputs"]:
                self.problems.append(f"{result['inputs']} colour inputs")
            if self.args.seed == exp["seed"] and result["inputs_sha256"] != exp["inputs_sha256"]:
                self.problems.append(f"seed {exp['seed']} grew other inputs")

    def check_sweep(self, facts: dict) -> bool:
        exp = self.expected
        bad = []
        if facts["graphs_checked"] != exp["graphs_checked"]:
            bad.append(f"{facts['graphs_checked']} graphs checked, expected {exp['graphs_checked']}")
        if facts["violations"]:
            bad.append(f"{facts['violations']} violations")
        if facts["report_sha256"] != exp["report_sha256"]:
            bad.append("report digest differs")
        self.problems.extend(bad)
        return not bad

    # -- measurement --------------------------------------------------------

    def measure(self, seconds: float) -> dict:
        """Untraced workers for ``seconds``; returns the end-to-end metrics."""
        workers = []
        start = time.monotonic()
        while True:
            began = time.monotonic()
            worker = self.spawn("measure")
            if worker is None:
                return {}
            workers.append(worker)
            now = time.monotonic()
            if now - start + (now - began) > seconds:
                break
        while len(self.setups) < SETUP_SAMPLES:
            if self.spawn("setup") is None:
                return {}
        metrics = {"setup_s": statistics.median(self.setups),
                   "peak_rss_mb": statistics.median(w["rss_mb"] for w in workers)}
        if self.spec["kind"] == "color":
            metrics.update(self.color_metrics(workers))
        else:
            metrics.update(self.sweep_metrics(workers))
        return metrics

    def sweep_metrics(self, workers: list[dict]) -> dict:
        units = [w["unit_s"] for w in workers]
        self.attempted += len(units)
        self.failed += sum(not self.check_sweep(w["sweep"]) for w in workers)
        self.samples = units
        self.walls_raw = [w["unit_raw_s"] for w in workers]
        wall = statistics.median(units)
        return {"wall_s": wall,
                "graphs_per_s": self.expected["graphs_checked"] / wall,
                "call_p50_ms": wall * 1e3,
                "call_p95_ms": quantile(units, 0.95) * 1e3}

    def color_metrics(self, workers: list[dict]) -> dict:
        passes = [w["latencies"] for w in workers]
        verdict = workers[0]["color"]
        self.attempted += len(passes) * len(passes[0])
        self.failed += len(passes) * (len(verdict["rejected"]) + len(verdict["wrong"]))
        self.rejected = verdict["rejected"]
        self.known_rejection = verdict["known_rejection"]
        self.problems.extend(f"wrong colouring: {w}" for w in verdict["wrong"])
        if len({w["outcomes_sha256"] for w in workers}) > 1:
            self.problems.append("colour outputs differ between passes")
        # one latency per graph: the median of its calls over the passes
        self.samples = [statistics.median(calls) for calls in zip(*passes)]
        self.walls_raw = [w["unit_raw_s"] for w in workers]
        wall = statistics.median(w["unit_s"] for w in workers)
        return {"wall_s": wall,
                "graphs_per_s": len(self.samples) / wall,
                "call_p50_ms": statistics.median(self.samples) * 1e3,
                "call_p95_ms": quantile(self.samples, 0.95) * 1e3}

    def traced(self, untraced_wall_s: float) -> dict:
        worker = self.spawn("trace")
        if worker is None:
            return {}
        if self.spec["kind"] == "color":
            self.color_metrics([worker])
        else:
            self.sweep_metrics([worker])
        trace = json.loads(Path(worker["spans_file"]).read_text(encoding="utf-8"))
        for name in trace["absent"]:
            print(f"absent: {name} no longer exists; its metrics are left out", file=sys.stderr)
        # layer times get the speed scale of the traced unit
        scale = worker["unit_s"] / worker["unit_raw_s"]
        metrics = {name: value * scale if unit_of(name) == "s" else value
                   for name, value in layer_metrics(trace).items()}
        metrics["trace.overhead_ratio"] = worker["unit_s"] / untraced_wall_s - 1
        return metrics


def quantile(values: list[float], q: float) -> float:
    """Linear interpolation between order statistics (numpy's default)."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s") or "_s." in name:
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small sizes, for the self-test")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "chibind" / "__init__.py").is_file():
        print(f"chibind sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    run = Run(args)
    if args.trace:
        metrics = run.measure(args.seconds / 2)
        metrics = run.traced(metrics["wall_s"]) if "wall_s" in metrics else {}
    else:
        metrics = run.measure(args.seconds)

    for problem in run.problems:
        print(f"gate: {problem}", file=sys.stderr)
    correct = not run.problems and bool(metrics)
    attempted = max(run.attempted, 1)
    failed = run.failed if correct else max(run.failed, 1)
    if not correct:
        metrics = {}
    print(f"{args.workload} seed {args.seed}: {attempted} operations, {failed} failed, "
          f"error_rate {failed / attempted:.6f}; {len(run.samples)} latency samples")
    if run.input_digest:
        print(f"  inputs sha256 {run.input_digest}")
    if run.spec["kind"] != "color":
        print("  unit seconds, scaled: " + " ".join(f"{u:.4f}" for u in run.samples))
        print("  unit seconds, raw: " + " ".join(f"{u:.4f}" for u in run.walls_raw))
    if run.walls_raw:
        print(f"  raw, unscaled: wall_s {statistics.median(run.walls_raw):.6g} s, "
              f"setup_s {statistics.median(run.setups_raw):.6g} s")
    for line in run.known_rejection:
        print(f"  known rejection, still rejected {line}")
    for line in run.rejected:
        print(f"  rejected {line}")
    for name, value in metrics.items():
        print(f"  {name} {value:.6g} {unit_of(name)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit_of(name)}
                                  for name, value in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
