"""Span recorder for the traced run, and the per-layer metrics derived from it.

The recorder wraps public functions of chibind's layers from the outside: the
program itself is not instrumented.  Each wrapped call becomes one span
``[name, start, end, parent, run_id, note]`` kept in memory; the worker writes
the list out once, at the end of the run.  A hooked function that no longer
exists is listed as absent, and every metric derived from it is left out of
the output rather than failing the run.
"""

from __future__ import annotations

import dataclasses
import sys
import time

# (module, public function, span name, what to note about the call)
HOOKS = (
    ("enumeration", "representatives", "enumeration.representatives", "n_kept"),
    ("enumeration", "decode_graph6", "enumeration.decode", None),
    ("enumeration", "encode_graph6", "harness.encode", None),
    ("patterns", "has_induced_using", "patterns.has_induced_using", "result"),
    ("patterns", "is_free", "patterns.is_free", None),
    ("invariants", "chromatic_number", "invariants.chi", None),
    ("invariants", "clique_number", "invariants.omega", None),
    ("invariants", "is_proper_coloring", "invariants.proper", None),
    ("structure", "find_five_hole", "structure.five_hole", None),
    ("structure", "find_all_odd_antiholes", "structure.antihole", None),
    ("structure", "find_clique_cutset", "structure.clique_cutset", None),
    ("colorers", "color_p5_k23", "colorers.pipeline", None),
    ("colorers", "color_p5_k1_2k2", "colorers.pipeline", None),
    ("colorers", "color_p5_k1_k1k3", "colorers.pipeline", None),
    ("harness", "verify", "harness.verify", None),
    ("harness", "color_one", "harness.color_one", None),
)

GENERATION_SIZES = range(1, 8)

# metric -> span names it is derived from; a metric is reported only when all
# of its spans could be hooked
METRIC_SPANS = {
    "enumeration.generate_s": ("enumeration.representatives",),
    **{f"enumeration.generate_s.n{k}": ("enumeration.representatives",)
       for k in GENERATION_SIZES},
    "enumeration.canon_self_s": ("enumeration.representatives",),
    "enumeration.candidates": ("enumeration.representatives",),
    "enumeration.kept": ("enumeration.representatives",),
    "enumeration.kept_ratio": ("enumeration.representatives",),
    "patterns.filter_s": ("patterns.has_induced_using",),
    "patterns.filter_calls": ("patterns.has_induced_using",),
    "patterns.filter_reject_ratio": ("patterns.has_induced_using",),
    "enumeration.decode_s": ("enumeration.decode",),
    "patterns.refilter_s": ("patterns.is_free", "harness.verify"),
    "patterns.refilter_calls": ("patterns.is_free", "harness.verify"),
    "colorers.pipeline_s": ("colorers.pipeline",),
    "colorers.pipeline_calls": ("colorers.pipeline",),
    "colorers.rejected": ("colorers.pipeline",),
    "colorers.failed": ("colorers.pipeline",),
    "structure.five_hole_s": ("structure.five_hole",),
    "structure.five_hole_calls": ("structure.five_hole",),
    "structure.antihole_s": ("structure.antihole",),
    "structure.antihole_calls": ("structure.antihole",),
    "structure.clique_cutset_s": ("structure.clique_cutset",),
    "structure.clique_cutset_calls": ("structure.clique_cutset",),
    "invariants.chi_s": ("invariants.chi",),
    "invariants.chi_calls": ("invariants.chi",),
    "invariants.omega_s": ("invariants.omega",),
    "invariants.proper_s": ("invariants.proper",),
    "harness.admit_s": ("harness.admit",),
    "harness.admit_ratio": ("harness.admit",),
    "harness.check_s": ("harness.check",),
    "harness.encode_s": ("harness.encode",),
    "harness.self_s": ("harness.verify", "harness.color_one"),
}


class Recorder:
    """In-memory spans of one traced worker; single-threaded by construction."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.absent: list[str] = []
        self.run_id = "setup"
        self._stack: list[int] = []

    def wrap(self, name: str, fn, note: str | None = None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                rec[5] = type(exc).__name__
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if note == "result":
                rec[5] = bool(out)
            elif note == "n_kept":
                rec[5] = [args[0] if args else kwargs["n"], len(out)]
            return out

        return traced

    def install(self, target: str | None) -> None:
        """Hook the layer functions everywhere chibind refers to them by a
        public name, and the admission and check of ``target``."""
        import chibind
        from chibind import harness

        modules = [m for key, m in sys.modules.items()
                   if key == "chibind" or key.startswith("chibind.")]
        for mod_name, fn_name, span_name, note in HOOKS:
            original = getattr(getattr(chibind, mod_name, None), fn_name, None)
            if original is None:
                self.absent.append(f"{mod_name}.{fn_name}")
                continue
            traced = self.wrap(span_name, original, note)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if key.startswith("_"):
                        continue
                    if value is original:
                        setattr(mod, key, traced)
                    elif isinstance(value, dict):
                        for dkey, dvalue in value.items():
                            if dvalue is original:
                                value[dkey] = traced
        if target is None:
            return
        try:
            entry = harness.TARGETS[target]
            harness.TARGETS[target] = dataclasses.replace(
                entry,
                admit=self.wrap("harness.admit", entry.admit, "result"),
                check=self.wrap("harness.check", entry.check))
        except (AttributeError, KeyError, TypeError):
            self.absent.append("harness.TARGETS")

    def dump(self) -> dict:
        return {"spans": self.spans, "absent": self.absent}


def _absent_spans(absent: list[str]) -> set[str]:
    names = {f"{mod}.{fn}": span for mod, fn, span, _ in HOOKS}
    # a pipeline span stands for three functions; all of them must be hooked
    gone = {names[a] for a in absent if a in names}
    if "harness.TARGETS" in absent:
        gone |= {"harness.admit", "harness.check"}
    return gone


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced unit (one sweep, or one colour pass
    together with the set-up that grew its inputs)."""
    spans = trace["spans"]
    gone = _absent_spans(trace["absent"])

    def outermost(i: int) -> bool:
        name, p = spans[i][0], spans[i][3]
        while p >= 0:
            if spans[p][0] == name:
                return False
            p = spans[p][3]
        return True

    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child_time[rec[3]] += rec[2] - rec[1]

    def select(name, parent=None):
        return [i for i, rec in enumerate(spans) if rec[0] == name
                and (parent is None or (rec[3] >= 0 and spans[rec[3]][0] in parent))]

    def total(idx):
        return sum(spans[i][2] - spans[i][1] for i in idx if outermost(i))

    def self_time(idx):
        return sum(spans[i][2] - spans[i][1] - child_time[i] for i in idx)

    def ratio(a, b):
        return a / b if b else 0.0

    out: dict[str, float] = {}
    gen = [i for i in select("enumeration.representatives") if outermost(i)]
    kept_by_n = {spans[i][5][0]: spans[i][5][1] for i in gen}
    candidates = sum(1 if n == 1 else kept_by_n.get(n - 1, 0) << (n - 1) for n in kept_by_n)
    kept = sum(kept_by_n.values())
    out["enumeration.generate_s"] = total(gen)
    for k in GENERATION_SIZES:
        out[f"enumeration.generate_s.n{k}"] = total(i for i in gen if spans[i][5][0] == k)
    out["enumeration.canon_self_s"] = self_time(gen)
    out["enumeration.candidates"] = candidates
    out["enumeration.kept"] = kept
    out["enumeration.kept_ratio"] = ratio(kept, candidates)

    filt = select("patterns.has_induced_using")
    out["patterns.filter_s"] = total(filt)
    out["patterns.filter_calls"] = len(filt)
    out["patterns.filter_reject_ratio"] = ratio(sum(1 for i in filt if spans[i][5]), len(filt))

    out["enumeration.decode_s"] = total(select("enumeration.decode", parent={"harness.verify"}))
    refilter = select("patterns.is_free", parent={"harness.verify"})
    out["patterns.refilter_s"] = total(refilter)
    out["patterns.refilter_calls"] = len(refilter)

    pipe = select("colorers.pipeline")
    out["colorers.pipeline_s"] = total(pipe)
    out["colorers.pipeline_calls"] = len(pipe)
    out["colorers.rejected"] = sum(1 for i in pipe if spans[i][5] == "PreconditionError")
    out["colorers.failed"] = sum(1 for i in pipe
                                 if spans[i][5] not in (None, "PreconditionError"))

    for short, name in (("five_hole", "structure.five_hole"), ("antihole", "structure.antihole"),
                        ("clique_cutset", "structure.clique_cutset")):
        idx = select(name)
        out[f"structure.{short}_s"] = total(idx)
        out[f"structure.{short}_calls"] = len(idx)

    chi = select("invariants.chi")
    out["invariants.chi_s"] = total(chi)
    out["invariants.chi_calls"] = len(chi)
    out["invariants.omega_s"] = total(select("invariants.omega"))
    out["invariants.proper_s"] = total(select("invariants.proper"))

    admit = select("harness.admit")
    out["harness.admit_s"] = total(admit)
    out["harness.admit_ratio"] = ratio(sum(1 for i in admit if spans[i][5]), len(admit))
    out["harness.check_s"] = total(select("harness.check"))
    out["harness.encode_s"] = total(select("harness.encode", parent={"harness.verify"}))
    out["harness.self_s"] = self_time(select("harness.verify") + select("harness.color_one"))

    return {name: value for name, value in out.items()
            if not gone.intersection(METRIC_SPANS[name])}
