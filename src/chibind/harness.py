"""Batch verification of the structural claims over enumerated graph universes.

Every target couples a filtered universe with a per-graph check.  Violations
of proved statements are implementation bugs by definition, so reports render
them as such; they carry a decodable graph6 witness.  Reports are byte-stable:
graphs are processed in canonical order, results are merged by sorting, and
timing is kept out of the canonical JSON.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from .colorers import BOUNDS, COLORERS, classify_triangle_free
from .errors import PreconditionError, SearchExhaustedError, StructureAssertionError
from .enumeration import encode_graph6, iter_graph6_file, representatives
from .graphs import (
    Graph,
    bits_of,
    complement,
    cycle_graph,
    empty_graph,
    induced,
    is_clique,
    is_connected,
    require_graph,
)
from .invariants import (
    chromatic_number,
    clique_number,
    find_perfect_division,
    independence_number,
    is_perfectly_divisible,
    is_proper_coloring,
)
from .patterns import (
    Pattern,
    find_odd_hole,
    find_odd_antihole,
    is_free,
    is_odd_antihole,
    odd_antihole_not_two_cliques,
    pattern,
)
from .structure import (
    check_antihole_lemma,
    check_c5_cutset_lemma,
    check_k1uk3_hole_lemma,
    check_k1uk3_level_lemma,
    check_k23_hole_lemma,
    check_k23_level_lemma,
    check_p5_hole_lemma,
    decompose_five_hole,
    find_all_five_holes,
    find_all_odd_antiholes,
    find_clique_cutset,
    find_dominating_clique_or_p3,
    find_five_hole,
    find_homogeneous_set,
    minimal_cutsets,
)

_TRIPLE_INDEPENDENT = Pattern("3K1", empty_graph(3))


@dataclass(frozen=True)
class CheckOutcome:
    violations: tuple[str, ...] = ()
    ratio: float | None = None
    row: dict = field(default_factory=dict)


@dataclass
class VerificationReport:
    target: str
    params: dict
    graphs_checked: int
    violations: list[tuple[str, str]]
    extremes: dict
    wall_time: float
    rows: list[dict] = field(default_factory=list)

    def to_json(self, include_timing: bool = False) -> str:
        payload = {
            "target": self.target,
            "params": self.params,
            "counts": {
                "graphs_checked": self.graphs_checked,
                "violations": len(self.violations),
            },
            "violations": [{"g6": g6, "detail": d} for g6, d in self.violations],
            "extremes": self.extremes,
        }
        if include_timing:
            payload["seconds"] = self.wall_time
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        keys = sorted({k for row in self.rows for k in row})
        lines = [",".join(keys)]
        for row in self.rows:
            lines.append(",".join(str(row.get(k, "")) for k in keys))
        return "\n".join(lines) + "\n"

    def summary(self) -> str:
        status = "ok" if not self.violations else "IMPLEMENTATION BUG SUSPECTED"
        return (f"{self.target}: {self.graphs_checked} graphs checked, "
                f"{len(self.violations)} violations [{status}] "
                f"({self.wall_time:.1f}s)")


@dataclass(frozen=True)
class Target:
    name: str
    default_cap: int
    hard_cap: int
    filter_desc: str
    streams: Callable[[int], Iterable[Graph]]
    # the class's patterns, which generation proves and a file line is
    # searched for, and whose names key the class; ``admit`` states the rest
    # of the universe
    free_of: tuple[Pattern, ...]
    admit: Callable[[Graph], bool]
    check: Callable[[Graph], CheckOutcome]


def _free_stream(*names: str | Pattern):
    """The generated members, by vertex count, of the class free of
    ``names``, and its patterns: a catalog name resolves with ``pattern``,
    and a pattern outside the catalog comes as a ``Pattern``."""
    free_of = tuple(pattern(p) if isinstance(p, str) else p for p in names)
    # representatives is read from the module when called, so rebinding
    # that name (to trace generation, say) reaches every sweep
    return (lambda n: representatives(n, free_of)), free_of


def _has_edge(g: Graph) -> bool:
    """Clique number at least two, without a clique search."""
    return any(g.adj)


def _connected_with_edge(g: Graph) -> bool:
    return _has_edge(g) and is_connected(g)


def _has_five_hole(g: Graph) -> bool:
    return find_five_hole(g) is not None


def _no_clique_cutset(g: Graph) -> bool:
    # the cutset search is defined on connected graphs only
    return is_connected(g) and find_clique_cutset(g) is None


def _five_hole_no_cutset(g: Graph) -> bool:
    return _has_five_hole(g) and _no_clique_cutset(g)


# ---------------------------------------------------------------------------
# per-target checks


def _check_divisible(g: Graph) -> CheckOutcome:
    ok = is_perfectly_divisible(g)
    return CheckOutcome(() if ok else ("not perfectly divisible",),
                        row={"divisible": ok})


def _bound_check(pipeline: str, connected_only: bool = False) -> Callable[[Graph], CheckOutcome]:
    """Check of a colouring bound: the exact chromatic number against the
    bound of ``pipeline``, then its colouring (on connected graphs only if
    ``connected_only``) for properness and for a colour count between the
    two.  The universe is the colourer's class (or a subclass of it), and
    its members record the class's patterns, so the colourer's precondition
    searches nothing."""
    def check(g: Graph) -> CheckOutcome:
        w = clique_number(g)
        bound = BOUNDS[pipeline](w)
        chi, _ = chromatic_number(g)
        violations = []
        if chi > bound:
            violations.append(f"exact chromatic number {chi} exceeds bound {bound}")
        ratio = chi / bound if bound > 0 else None
        row = {"n": g.n, "omega": w, "chi": chi, "bound": bound}
        if not connected_only or is_connected(g):
            coloring, _ = COLORERS[pipeline](g)
            used = coloring.used()
            if not is_proper_coloring(g, coloring):
                violations.append(f"{pipeline} colouring is improper")
            if used > bound:
                violations.append(f"{pipeline} used {used} colours above bound {bound}")
            if used < chi:
                violations.append(f"{pipeline} claims fewer colours than the chromatic number")
            ratio = used / bound if bound > 0 else None
            row["colors_used"] = used
        return CheckOutcome(tuple(violations), ratio, row)
    return check


_check_sumner_bound = _bound_check("sumner")


def _check_sumner(g: Graph) -> CheckOutcome:
    """Sumner's bound, with the shape of each component in the row."""
    outcome = _check_sumner_bound(g)
    outcome.row["shapes"] = "|".join(kind for kind, _ in classify_triangle_free(g))
    return outcome


def _check_dominating(g: Graph) -> CheckOutcome:
    violations = []
    try:
        kind, found = find_dominating_clique_or_p3(g)
    except SearchExhaustedError:
        return CheckOutcome(("search exhausted without a dominating clique or three-path",))
    covered = found.mask
    for v in found:
        covered |= g.adj[v]
    if covered != (1 << g.n) - 1:
        violations.append("returned set does not dominate")
    if kind == "clique" and not is_clique(g, found):
        violations.append("returned clique is not a clique")
    if kind == "p3":
        sub = induced(g, found)
        if sub.edge_count() != 2 or max(sub.degree_sequence()) != 2:
            violations.append("returned three-path is not an induced path")
    return CheckOutcome(tuple(violations), row={"n": g.n, "kind": kind})


def _per_hole_check(checker) -> Callable[[Graph], CheckOutcome]:
    def run(g: Graph) -> CheckOutcome:
        violations: list[str] = []
        holes = find_all_five_holes(g)
        for hole in holes:
            dec = decompose_five_hole(g, hole)
            for v in checker(g, dec):
                violations.append(f"hole {hole}: {v}")
        return CheckOutcome(tuple(violations), row={"n": g.n, "holes": len(holes)})
    return run


def _check_c5_cutsets(g: Graph) -> CheckOutcome:
    return CheckOutcome(tuple(check_c5_cutset_lemma(g)), row={"n": g.n})


def _check_antiholes(g: Graph) -> CheckOutcome:
    return CheckOutcome(tuple(check_antihole_lemma(g)), row={"n": g.n})


def _check_two_cliques(g: Graph) -> CheckOutcome:
    ok = odd_antihole_not_two_cliques(g)
    return CheckOutcome(() if ok else ("odd antihole split into two cliques",),
                        row={"n": g.n})


def _antihole_stream(n: int) -> Iterator[Graph]:
    if n >= 5 and n % 2 == 1:
        yield complement(cycle_graph(n))


def _always(_: Graph) -> bool:
    return True


TARGETS: dict[str, Target] = {}


def _register(name: str, default_cap: int, hard_cap: int, filter_desc: str,
              universe, admit, check) -> None:
    TARGETS[name] = Target(name, default_cap, hard_cap, filter_desc, *universe, admit, check)


_register("theorem-1.1", 8, 10, "connected, no induced P5/C5/K2,3",
          _free_stream("P5", "C5", "K2,3"), is_connected, _check_divisible)
_register("theorem-1.2", 9, 10, "no induced P5/K2,3, omega >= 2",
          _free_stream("P5", "K2,3"), _has_edge, _bound_check("p5-k23", connected_only=True))
_register("theorem-1.3", 9, 10, "connected, no induced P5/K1+2K2, omega >= 2",
          _free_stream("P5", "K1+2K2"), _connected_with_edge,
          _bound_check("p5-k1-2k2", connected_only=True))
_register("theorem-1.4", 10, 10, "no induced P5/K1+(K1uK3)",
          _free_stream("P5", "K1+(K1uK3)"), _always,
          _bound_check("p5-k1-k1uk3", connected_only=True))
_register("lemma-2.2", 9, 10, "no induced P5, with a five-hole",
          _free_stream("P5"), _has_five_hole, _per_hole_check(check_p5_hole_lemma))
_register("lemma-2.4", 10, 10, "independence number at most two",
          _free_stream(_TRIPLE_INDEPENDENT), _always, _check_divisible)
_register("lemma-3.1", 10, 10, "connected, no induced P5/C5/K2,3, no clique cutset",
          _free_stream("P5", "C5", "K2,3"), _no_clique_cutset, _check_c5_cutsets)
_register("lemma-4.1", 10, 10, "no induced P5/K2,3, with a five-hole",
          _free_stream("P5", "K2,3"), _has_five_hole, _per_hole_check(check_k23_hole_lemma))
_register("lemma-4.2", 10, 10, "connected, no induced P5/K2,3, no clique cutset, five-hole",
          _free_stream("P5", "K2,3"), _five_hole_no_cutset,
          _per_hole_check(check_k23_level_lemma))
_register("lemma-5.1", 9, 10, "connected, no induced P5",
          _free_stream("P5"), is_connected, _check_dominating)
_register("lemma-5.2", 8, 10, "no induced 2K2",
          _free_stream("2K2"), _always, _bound_check("wagon-2k2"))
_register("lemma-6.1", 10, 10, "no induced P5/K3",
          _free_stream("P5", "K3"), _always, _check_sumner)
_register("lemma-6.2", 10, 10, "no induced P5/K1uK3, at least one edge",
          _free_stream("P5", "K1uK3"), _has_edge, _bound_check("k1-union-k3"))
_register("lemma-6.3", 10, 10, "connected, no induced P5/K1+(K1uK3), no clique cutset, five-hole",
          _free_stream("P5", "K1+(K1uK3)"), _five_hole_no_cutset,
          _per_hole_check(check_k1uk3_hole_lemma))
_register("lemma-6.4", 10, 10, "connected, no induced P5/K1+(K1uK3), no clique cutset, five-hole",
          _free_stream("P5", "K1+(K1uK3)"), _five_hole_no_cutset,
          _per_hole_check(check_k1uk3_level_lemma))
# the five-antihole is the five-hole, which the first test excludes
_register("lemma-6.5", 10, 10, "no induced P5/K1+(K1uK3), five-cycle-free, with a big odd antihole",
          _free_stream("P5", "K1+(K1uK3)"),
          lambda g: not _has_five_hole(g) and bool(find_all_odd_antiholes(g)),
          _check_antiholes)
# the two-cliques scan is exponential in the antihole length, so the cap stays
# well under the 64-vertex graph budget
_register("observation-2.1", 9, 21, "odd antiholes",
          (_antihole_stream, ()), is_odd_antihole, _check_two_cliques)


def verify(target: str, n_max: int | None = None, source: str | os.PathLike | None = None,
           keep_rows: bool = False, connected: bool = False) -> VerificationReport:
    """Run one verification target over its universe up to ``n_max`` vertices.

    ``source`` replaces the generated universe with a graph6 file.  Both
    sources go through one filter chain (see ``_admitted``): ``connected``,
    the target's admission and, for a file line only, the class search, so
    a line the target does not admit costs no pattern search.
    ``connected`` restricts a universe that is not already connected-only.
    """
    if target not in TARGETS:
        raise KeyError(f"unknown verification target {target!r}; known: {sorted(TARGETS)}")
    if n_max is not None and (not isinstance(n_max, int) or isinstance(n_max, bool)):
        raise PreconditionError(f"n_max must be an int, not {n_max!r}")
    if isinstance(source, os.PathLike):
        source = os.fspath(source)
    if source is not None and not isinstance(source, str):
        raise PreconditionError(f"source must be a str or os.PathLike path, not {source!r}")
    for flag, value in (("keep_rows", keep_rows), ("connected", connected)):
        if not isinstance(value, bool):
            raise PreconditionError(f"{flag} must be a bool, not {value!r}")
    entry = TARGETS[target]
    cap = entry.default_cap if n_max is None else n_max
    if not 1 <= cap <= entry.hard_cap:
        raise PreconditionError(f"{target} supports n_max from 1 to {entry.hard_cap}")
    started = time.monotonic()
    # only the violations, the best ratio and (for the CSV) the rows are
    # kept; the witness of the best ratio is the least graph6 string by
    # length, then text, as is the order of the rows.  A graph's text is
    # encoded only for what is kept: a violation, a row, or a ratio that
    # ties or beats the best so far
    checked = 0
    violations = []
    rows = []
    best = None  # (-ratio, len(g6), g6)
    for g in _admitted(entry, cap, source, connected):
        outcome = _checked(entry, g)
        checked += 1
        ratio = outcome.ratio
        contends = ratio is not None and (best is None or -ratio <= best[0])
        if not (outcome.violations or keep_rows or contends):
            continue
        g6 = encode_graph6(g)
        violations.extend((g6, detail) for detail in outcome.violations)
        if keep_rows:
            rows.append({"g6": g6, **outcome.row, "ratio": ratio if ratio is not None else "",
                         "violations": len(outcome.violations)})
        if contends:
            key = (-ratio, len(g6), g6)
            if best is None or key < best:
                best = key
    rows.sort(key=lambda row: (len(row["g6"]), row["g6"]))
    extremes = {}
    if best is not None:
        extremes = {"max_ratio": round(-best[0], 6), "witness": best[2]}
    filter_desc = entry.filter_desc + (", connected" if connected else "")
    return VerificationReport(
        target=target,
        params={"n_max": cap, "filter": filter_desc,
                "source": "generated" if source is None else source},
        graphs_checked=checked,
        violations=sorted(violations),
        extremes=extremes,
        wall_time=time.monotonic() - started,
        rows=rows,
    )


def _checked(entry: Target, g: Graph) -> CheckOutcome:
    """The check outcome; a failed structural assertion is re-raised with
    the graph6 witness in front."""
    try:
        return entry.check(g)
    except StructureAssertionError as exc:
        raise StructureAssertionError(f"{encode_graph6(g)}: {exc}") from exc


def _admitted(entry: Target, cap: int, source: str | None, connected: bool) -> Iterator[Graph]:
    """The graphs that ``verify`` checks, each test run once per graph and
    the cheapest first.  The source is the class's generated members on 1
    to ``cap`` vertices, or the lines of the graph6 file ``source`` with at
    most ``cap`` vertices.  Each graph then passes ``connected`` and the
    target's admission, which states the whole side condition of the class
    and accepts any graph; a file line last passes the class search, which
    records each pattern it proves absent on the graph, so a line the
    target does not admit costs no pattern search.  Generated members are
    in the class already."""
    if source is None:
        graphs: Iterable[Graph] = (g for n in range(1, cap + 1) for g in entry.streams(n))
    else:
        graphs = (g for g in iter_graph6_file(source) if g.n <= cap)
    for g in graphs:
        if (connected and not is_connected(g)) or not entry.admit(g):
            continue
        if source is None or is_free(g, entry.free_of):
            yield g


# ---------------------------------------------------------------------------
# single-graph entry points


def color_one(g: Graph, pipeline: str) -> dict:
    """Colour one graph through a pipeline; raises on precondition failure."""
    require_graph(g, "g")
    if not isinstance(pipeline, str):
        raise PreconditionError(f"pipeline must be a str, not {pipeline!r}")
    if pipeline not in COLORERS:
        raise KeyError(f"unknown pipeline {pipeline!r}; known: {sorted(COLORERS)}")
    coloring, cert = COLORERS[pipeline](g)
    return {
        "pipeline": pipeline,
        "n": g.n,
        "colors": list(coloring.colors),
        "colors_used": cert.colors_used,
        "omega": cert.omega,
        "bound": cert.bound_value,
        "trace": [{"step": s.step, "vertices": sorted(s.vertices), "palette": list(s.palette)}
                  for s in cert.pipeline_trace],
    }


def analyze_one(g: Graph) -> dict:
    """Structural profile: invariants, searches, cutsets, and divisibility."""
    require_graph(g, "g")
    chi, _ = chromatic_number(g)
    hole = find_odd_hole(g)
    antihole = find_odd_antihole(g)
    homog = find_homogeneous_set(g)
    profile: dict = {
        "n": g.n,
        "edges": g.edge_count(),
        "degree_sequence": list(g.degree_sequence()),
        "connected": is_connected(g),
        "omega": clique_number(g),
        "alpha": independence_number(g),
        "chi": chi,
        "perfect": hole is None and antihole is None,
        "odd_hole": sorted(hole) if hole else None,
        "odd_antihole": sorted(antihole) if antihole else None,
        "homogeneous_set": sorted(homog) if homog else None,
    }
    five = find_five_hole(g)
    if five is not None:
        dec = decompose_five_hole(g, five)
        profile["five_hole"] = list(five)
        # pattern p names the hole positions i with bit i-1 set; the keys
        # run in the order of their position lists
        positions = sorted(([i + 1 for i in range(5) if p >> i & 1], mask)
                           for p, mask in enumerate(dec.classes) if mask)
        profile["hole_classes"] = {"{" + ",".join(map(str, key)) + "}": list(bits_of(mask))
                                   for key, mask in positions}
    if is_connected(g) and g.n >= 2:
        cut = find_clique_cutset(g)
        profile["clique_cutset"] = sorted(cut.cutset) if cut else None
        if g.n <= 12:
            profile["minimal_cutsets"] = [sorted(r.cutset) for r in minimal_cutsets(g)]
    if g.n <= 13:
        profile["perfectly_divisible"] = is_perfectly_divisible(g)
        division = find_perfect_division(g)
        if division is not None:
            profile["perfect_division"] = {
                "perfect_side": sorted(division.a),
                "rest": sorted(division.b),
                "omega": division.omega_g,
                "omega_rest": division.omega_b,
            }
    return profile
