"""Constructive colourers, each returning its bound certificate.

Each pipeline follows the structural decomposition that proves its bound:
palette slices are allocated per decomposition piece, and reuse steps assign
least-index colours inside a donor slice.  A cutset-free leaf states the
lemmas its colouring relies on once, by calling the checkers of
``structure`` that ``verify`` runs (lemmas 2.2, 4.1 and 4.2 around a
five-hole of ``p5-k23``; 2.2, 6.3 and 6.4 around one of ``p5-k1-k1uk3``; 6.5
around its big odd antihole), and raises ``StructureAssertionError`` with the
violations they report; only palette, budget and reuse checks stay inline.
A certificate records the pieces, the colours and the bound; it builds its
palette trace from them only when the trace is read.

Every cutset-free piece goes through one dispatch, ``_leaf_on_copy``, which
colours a perfect piece exactly and hands any other, with its five-hole or
big odd antiholes, to the pipeline's leaf: a ``p5-k23`` leaf is coloured
triangle-free at omega two, else around its five-hole, else by perfect
divisibility; a ``p5-k1-k1uk3`` leaf around its five-hole, else around its
first big odd antihole.  A cutset-free piece that is a clique (most of
them, in the exhaustive sweeps) is not searched at all: it is coloured in
place with the map the dispatch would give it, one colour per vertex in
vertex order.

Every public colourer has one shape: its precondition (``_require_free``,
or a failed proof on an input outside the class), then a core that colours
a vertex mask of the host, then ``_finish``, which asserts that the
colouring covers the host, is proper and stays within the bound, and
returns it with its ``BoundCertificate``.  The precondition is the only
search of the host for forbidden patterns, and it always runs.  It reads
the patterns the host is already proved free of (``Graph._free_of``), so
the class members ``verify`` colours, generated ones and file lines that
passed the class filter, cost a lookup and no search.
Pipelines colour their pieces through the cores (``_triangle_free_map``,
``_k1uk3_map``, ``_wagon_map``), never through the public colourers, so a
piece is not re-checked against a precondition the decomposition already
guarantees, and a failed assertion inside a pipeline stays an assertion.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import comb
from typing import Callable

from .errors import PreconditionError, StructureAssertionError
from .graphs import (
    Graph,
    VertexSet,
    bits_of,
    components_masks,
    induced,
    is_clique_mask,
    is_connected,
    is_independent_mask,
    neighborhood_mask,
    require_graph,
)
from .invariants import (
    Coloring,
    _optimal_map,
    _peeled_map,
    _perfect_map,
    clique_number,
    clique_number_mask,
    is_proper_coloring,
    least_maximum_clique,
)
from .patterns import _holes, find_induced, is_free, pattern
from .structure import (
    _ALL_FIVE,
    _K1UK3_PATTERNS,
    _antihole_violations,
    _clique_separators,
    _has_triangle,
    _least_clique_cutset,
    _pattern,
    _pattern_of,
    antihole_neighborhood_split,
    check_k1uk3_hole_lemma,
    check_k1uk3_level_lemma,
    check_k23_hole_lemma,
    check_k23_level_lemma,
    check_p5_hole_lemma,
    decompose_five_hole,
    find_all_odd_antiholes,
    find_dominating_clique_or_p3,
    find_five_hole,
    five_cliques_partition,
    triangle_free_level2_split,
)

_P5 = pattern("P5")
_K3 = pattern("K3")
_K23 = pattern("K2,3")
_2K2 = pattern("2K2")
_K1_2K2 = pattern("K1+2K2")
_K1UK3 = pattern("K1uK3")
_K1_K1UK3 = pattern("K1+(K1uK3)")


@dataclass(frozen=True)
class TraceStep:
    step: str
    vertices: VertexSet
    palette: tuple[int, int]


@dataclass(frozen=True)
class BoundCertificate:
    """The bound a colouring was certified against, with the pipeline's
    regions, each a step name and a vertex mask of the host, and the colours
    of the host's vertices, from which the trace is built when it is read."""

    theorem: str
    omega: int
    bound_value: int
    colors_used: int
    regions: tuple[tuple[str, int], ...]
    colors: tuple[int, ...]

    @cached_property
    def pipeline_trace(self) -> tuple[TraceStep, ...]:
        """One step per region: its vertices and the slice of colours they use."""
        trace = []
        for name, mask in self.regions:
            seen = {self.colors[v] for v in bits_of(mask)}
            slc = (min(seen), max(seen) + 1) if seen else (0, 0)
            trace.append(TraceStep(name, VertexSet(mask, len(self.colors)), slc))
        return tuple(trace)


def _require_free(g: Graph, pats) -> None:
    """Raise with a witness embedding when a forbidden pattern is present."""
    for p in pats:
        emb = find_induced(g, p)
        if emb is not None:
            raise PreconditionError(
                f"input induces {p.name} at vertices {list(emb.map)}")


# ---------------------------------------------------------------------------
# triangle-free structure and colouring


_SHAPE_COLORS = {"bipartite": (0, 1), "blown-up-five-hole": (0, 1, 0, 1, 2)}


def _triangle_free_shape(g: Graph, comp: int) -> tuple[str, tuple[int, ...]]:
    """Structure proof of one component of a host with no induced P5 or K3:
    its two sides if bipartite, else its five blow-up classes in hole order."""
    parts = _bipartition(g, comp)
    if parts is not None:
        return "bipartite", parts
    return "blown-up-five-hole", _blowup_classes(g, comp)


def _in_triangle_free_class(g: Graph, core):
    """``core`` on the whole host; a failed structure proof is a bug on a
    member of the class and a precondition failure on anything else."""
    try:
        return core(g, (1 << g.n) - 1)
    except StructureAssertionError:
        if is_free(g, [_P5, _K3]):
            raise
        raise PreconditionError("input induces P5 or K3") from None


def classify_triangle_free(g: Graph) -> list[tuple[str, tuple[VertexSet, ...]]]:
    """Structure proof per connected component of a host with no induced P5 or K3.

    Each component is either bipartite (two sides returned) or a five-hole
    blow-up (the five independent classes returned, in hole order).
    """
    shapes = _in_triangle_free_class(g, lambda h, mask: [
        _triangle_free_shape(h, comp) for comp in components_masks(h.adj, mask)])
    return [(kind, tuple(VertexSet(m, g.n) for m in parts)) for kind, parts in shapes]


def _bipartition(g: Graph, comp: int) -> tuple[int, int] | None:
    """The even and odd breadth-first layers of ``comp`` from its least
    vertex, or None when an edge inside a layer closes an odd cycle."""
    sides = [0, 0]
    seen = frontier = comp & -comp
    parity = 0
    while frontier:
        sides[parity] |= frontier
        frontier = neighborhood_mask(g.adj, frontier) & comp & ~seen
        seen |= frontier
        parity ^= 1
    even, odd = sides
    if is_independent_mask(g.adj, even) and is_independent_mask(g.adj, odd):
        return even, odd
    return None


# the pattern of hole positions j-1 and j+1, which blow-up class j sees
_BLOWUP_PATTERNS = tuple(_pattern(j, j + 2) for j in range(5))


def _blowup_classes(g: Graph, comp: int) -> tuple[int, ...]:
    """Verified five-hole blow-up classes of a non-bipartite component."""
    hole = next(_holes(g.adj, comp, 5), None)
    if hole is None:
        raise StructureAssertionError("non-bipartite triangle-free component has no five-hole")
    classes = [1 << v for v in hole]
    for x in bits_of(comp & ~sum(classes)):
        sees = _pattern_of(g.adj[x], hole)
        if sees not in _BLOWUP_PATTERNS:
            raise StructureAssertionError(f"vertex {x} does not fit the five-hole blow-up")
        classes[_BLOWUP_PATTERNS.index(sees)] |= 1 << x
    for j in range(5):
        if not is_independent_mask(g.adj, classes[j]):
            raise StructureAssertionError(f"blow-up class {j} is not independent")
        nxt = classes[(j + 1) % 5]
        far = classes[(j + 2) % 5]
        for x in bits_of(classes[j]):
            if g.adj[x] & nxt != nxt:
                raise StructureAssertionError(f"blow-up class {j} not complete to its successor")
            if g.adj[x] & far:
                raise StructureAssertionError(f"blow-up class {j} not anticomplete to distance two")
    return tuple(classes)


def _triangle_free_map(g: Graph, mask: int) -> dict[int, int]:
    """Three colours for ``G[mask]``, component by component: bipartite
    components by layering, five-hole blow-ups 1,2,1,2,3 around the classes."""
    cmap: dict[int, int] = {}
    for comp in components_masks(g.adj, mask):
        kind, parts = _triangle_free_shape(g, comp)
        for color, part in zip(_SHAPE_COLORS[kind], parts):
            cmap.update(dict.fromkeys(bits_of(part), color))
    return cmap


def color_sumner(g: Graph) -> tuple[Coloring, BoundCertificate]:
    """Three colours for hosts with no induced P5 or K3.

    Any graph whose components are bipartite or five-hole blow-ups is accepted.
    """
    require_graph(g, "g")
    return _finish(g, "sumner", _in_triangle_free_class(g, _triangle_free_map), [])


# ---------------------------------------------------------------------------
# peeling colourer for hosts with no induced P5 or K1uK3


def _k1uk3_map(g: Graph, mask: int) -> dict[int, int]:
    """At most ``max(3*omega - 3, 1)`` colours for ``G[mask]``, component by
    component: a maximum-degree vertex is peeled, its non-neighbourhood is
    triangle-free, and its neighbourhood recurses with a smaller clique number."""
    cmap: dict[int, int] = {}
    for comp in components_masks(g.adj, mask):
        if not _has_triangle(g, comp):
            cmap.update(_triangle_free_map(g, comp))
            continue
        v = max(bits_of(comp), key=lambda x: ((g.adj[x] & comp).bit_count(), -x))
        outer = _triangle_free_map(g, comp & ~g.adj[v] & ~(1 << v))
        top = max(outer.values(), default=0) + 1
        cmap.update(outer)
        cmap[v] = 0
        for u, c in _k1uk3_map(g, g.adj[v] & comp).items():
            cmap[u] = top + c
    return cmap


def color_k1_union_k3_free(g: Graph) -> tuple[Coloring, BoundCertificate]:
    """At most ``max(3*omega - 3, 1)`` colours for hosts with no induced P5
    or K1uK3."""
    require_graph(g, "g")
    _require_free(g, [_P5, _K1UK3])
    return _finish(g, "k1-union-k3", _k1uk3_map(g, (1 << g.n) - 1), [])


# ---------------------------------------------------------------------------
# bucket colourer for hosts with no induced 2K2


def _wagon_map(g: Graph, mask: int, top: int) -> dict[int, int]:
    """At most ``(w^2+w)/2`` colours for ``G[mask]``, whose least maximum
    clique ``top`` has ``w`` vertices.

    Buckets: one per vertex of that clique (the vertex plus everything
    missing exactly it) and one per clique pair (everything missing both).
    Each bucket is independent, which is asserted.
    """
    clique = list(bits_of(top))
    w = len(clique)
    buckets = [1 << v for v in clique] + [0] * comb(w, 2)
    pair_index = {pair: w + k for k, pair in enumerate(combinations(range(w), 2))}
    for v in bits_of(mask & ~top):
        missed = [i for i, u in enumerate(clique) if not g.adj[v] >> u & 1]
        if not missed:
            raise StructureAssertionError("a vertex extends the maximum clique")
        buckets[missed[0] if len(missed) == 1 else pair_index[missed[0], missed[1]]] |= 1 << v
    cmap: dict[int, int] = {}
    for color, bucket in enumerate(filter(None, buckets)):
        if not is_independent_mask(g.adj, bucket):
            raise StructureAssertionError("a bucket is not independent")
        cmap.update(dict.fromkeys(bits_of(bucket), color))
    return cmap


def color_wagon_2k2_free(g: Graph) -> tuple[Coloring, BoundCertificate]:
    """At most ``(omega^2+omega)/2`` colours for hosts with no induced 2K2."""
    require_graph(g, "g")
    _require_free(g, [_2K2])
    full = (1 << g.n) - 1
    cmap = _wagon_map(g, full, least_maximum_clique(g.adj, full))
    return _finish(g, "wagon-2k2", cmap, [])


def color_divisible(g: Graph) -> tuple[Coloring, BoundCertificate]:
    """At most ``comb(omega+1, 2)`` colours by peeling perfect divisions
    (``_peeled_map``), for hosts on at most 16 vertices where every round
    finds one."""
    require_graph(g, "g")
    cmap = _peeled_map(g, (1 << g.n) - 1, clique_number(g))
    if cmap is None:
        raise PreconditionError("input graph is not perfectly divisible")
    return _finish(g, "divisible", cmap, [])


# ---------------------------------------------------------------------------
# shared pipeline plumbing


def _merge_at_cutset(cut_vertices: list[int], d1: dict[int, int], d2: dict[int, int]) -> dict[int, int]:
    """Permute the second colouring so the shared clique agrees with the first."""
    perm: dict[int, int] = {}
    for v in cut_vertices:
        perm[d2[v]] = d1[v]
    taken = set(perm.values())
    fresh = 0
    for c in sorted(set(d2.values()) - set(perm)):
        while fresh in taken:
            fresh += 1
        perm[c] = fresh
        taken.add(fresh)
    merged = dict(d1)
    for v, c in d2.items():
        merged[v] = perm[c]
    return merged


def _color_with_cutsets(g: Graph, mask: int, seps: list[int],
                        leaf) -> tuple[dict[int, int], list[tuple[str, int]]]:
    """Split ``G[mask]`` recursively at its least clique cutset, merging
    palettes on the shared clique.  A piece's clique minimal separators are
    those of its component (Tarjan, Discrete Math. 1985), so the first of the
    component's list ``seps`` inside ``mask`` that separates it is the cut.

    A piece that is a clique is coloured in place, its i-th vertex with
    colour i: it has no clique cutset, no five-hole and no odd antihole, so
    ``_leaf_on_copy`` would colour it perfect-exact, and the k-colouring,
    which takes vertices by degree and then index, gives the same map.
    ``_finish`` still certifies the whole colouring."""
    if is_clique_mask(g.adj, mask):
        return {v: i for i, v in enumerate(bits_of(mask))}, [("perfect-exact", mask)]
    found = _least_clique_cutset(g.adj, mask, seps)
    if found is None:
        return _leaf_on_copy(g, mask, leaf)
    cut, comps = found
    side = comps[0]
    d1, r1 = _color_with_cutsets(g, side | cut, seps, leaf)
    d2, r2 = _color_with_cutsets(g, mask & ~side, seps, leaf)
    merged = _merge_at_cutset(list(bits_of(cut)), d1, d2)
    return merged, r1 + r2 + [("clique-cutset-merge", cut)]


def _leaf_on_copy(g: Graph, mask: int, leaf) -> tuple[dict[int, int], list[tuple[str, int]]]:
    """Colour the cutset-free piece ``G[mask]`` on its induced copy ``h`` (the
    host when ``mask`` covers it) and lift the map and regions to the host.

    The least five-hole of ``h`` is searched once, and only without one its
    big odd antiholes (seven or more vertices), once.  The host has no
    induced P5, so no odd hole on seven or more vertices, and the
    five-antihole is the five-hole; so by the Strong Perfect Graph Theorem
    (Chudnovsky, Robertson, Seymour and Thomas, Ann. Math. 2006) a piece with
    neither is perfect and is coloured exactly with omega colours, which is
    asserted.  Else ``leaf(h, hole, antiholes)`` colours it."""
    verts = list(bits_of(mask))
    h = induced(g, VertexSet(mask, g.n))
    hole = find_five_hole(h)
    antiholes = find_all_odd_antiholes(h) if hole is None else []
    if hole is None and not antiholes:
        full = (1 << h.n) - 1
        d_local, r_local = _perfect_map(h, full), [("perfect-exact", full)]
    else:
        d_local, r_local = leaf(h, hole, antiholes)
    regions = []
    for name, m in r_local:
        lifted = 0
        while m:
            low = m & -m
            lifted |= 1 << verts[low.bit_length() - 1]
            m ^= low
        regions.append((name, lifted))
    return {verts[v]: c for v, c in d_local.items()}, regions


def _finish(g: Graph, pid: str, cmap: dict[int, int],
            regions: list[tuple[str, int]]) -> tuple[Coloring, BoundCertificate]:
    """Certify a colour map of ``g``: it covers the host, is proper and stays
    within the bound of ``pid``.  The certificate builds its trace from
    ``regions`` when read."""
    w = clique_number(g)
    bound = BOUNDS[pid](w)
    if len(cmap) != g.n:
        raise StructureAssertionError("colour map does not cover every vertex")
    colors = tuple(cmap[v] for v in range(g.n))
    coloring = Coloring(colors, max(colors) + 1 if colors else 0)
    if not is_proper_coloring(g, coloring):
        raise StructureAssertionError("pipeline produced an improper colouring")
    used = coloring.used()
    if used > bound:
        raise StructureAssertionError(f"pipeline used {used} colours above its bound {bound}")
    return coloring, BoundCertificate(pid, w, bound, used, tuple(regions), colors)


def _components_shared_palette(g: Graph, leaf) -> tuple[dict[int, int], list[tuple[str, int]]]:
    cmap: dict[int, int] = {}
    regions: list[tuple[str, int]] = []
    for comp in components_masks(g.adj, (1 << g.n) - 1):
        d, r = _color_with_cutsets(g, comp, _clique_separators(g.adj, comp), leaf)
        cmap.update(d)
        regions.extend(r)
    return cmap, regions


def _greedy_in_slice(g: Graph, cmap: dict[int, int], vertices: list[int],
                     slice_colors: list[int]) -> bool:
    """Assign each vertex the least donor colour its coloured neighbours avoid."""
    for v in vertices:
        seen = {cmap[u] for u in bits_of(g.adj[v]) if u in cmap}
        for c in slice_colors:
            if c not in seen:
                cmap[v] = c
                break
        else:
            return False
    return True


def _divisible_map(h: Graph, mask: int, w: int) -> dict[int, int]:
    """The peeled colouring of a part the proof makes perfectly divisible
    (lemma 2.4 for independence number two, theorem 1.1 for a five-hole-free
    leaf), where a round without a division is a bug."""
    cmap = _peeled_map(h, mask, w)
    if cmap is None:
        raise StructureAssertionError("a perfectly divisible piece has no perfect division")
    return cmap


def _assert_lemmas(*violations: list[str]) -> None:
    """Raise with every violation a lemma checker reports on a leaf."""
    problems = [v for found in violations for v in found]
    if problems:
        raise StructureAssertionError("; ".join(problems))


# ---------------------------------------------------------------------------
# pipeline for hosts with no induced P5 or K2,3


# the four perfectly divisible pieces of a p5-k23 hole leaf, by class pattern
_K23_PIECES = (
    ("triple-classes-a", (_pattern(1, 2, 3), _pattern(2, 3, 4))),
    ("triple-classes-b", (_pattern(3, 4, 5), _pattern(4, 5, 1))),
    ("triple-classes-c", (_pattern(5, 1, 2),)),
    ("all-five-class", (_ALL_FIVE,)),
)


def _p5k23_leaf(h: Graph, hole, antiholes) -> tuple[dict[int, int], list[tuple[str, int]]]:
    """Colour a cutset-free piece with a five-hole ``hole`` or big odd
    antiholes: triangle-free at omega two, else by perfect divisibility
    when ``hole`` is None, else around the five-hole."""
    full = (1 << h.n) - 1
    w = clique_number(h)
    if w <= 2:
        # triangle-free members are exactly the three-colourable ones here,
        # which keeps the certificate tight at omega two
        return _triangle_free_map(h, full), [("triangle-free", full)]
    if hole is None:
        return _divisible_map(h, full, w), [("divisible", full)]
    dec = decompose_five_hole(h, hole)
    _assert_lemmas(check_p5_hole_lemma(h, dec), check_k23_hole_lemma(h, dec),
                   check_k23_level_lemma(h, dec))
    cmap: dict[int, int] = {}
    regions: list[tuple[str, int]] = []
    piece_budget = comb(w - 1, 2)
    for idx, (name, pats) in enumerate(_K23_PIECES):
        vs = sum(dec.classes[p] for p in pats)
        base = idx * piece_budget
        piece = _divisible_map(h, vs, clique_number_mask(h.adj, vs))
        if len(set(piece.values())) > piece_budget:
            raise StructureAssertionError(f"{name} exceeded its palette budget")
        for v, c in piece.items():
            cmap[v] = base + c
        regions.append((name, vs))
    s_base = 4 * piece_budget
    block = w - 1
    for i, grp in enumerate(five_cliques_partition(dec)):
        for offset, v in enumerate(bits_of(grp)):
            cmap[v] = s_base + i * block + offset
        regions.append((f"clique-group-{i + 1}", grp))
    s_slice = list(range(s_base, s_base + 5 * block))
    hole_list = list(dec.hole)
    # the first colour of group i is always free for hole vertex i: group i
    # avoids it, and each earlier hole vertex took a colour no later than the
    # first of its own group
    if not _greedy_in_slice(h, cmap, hole_list, s_slice):
        raise StructureAssertionError("hole reuse found no free colour in its donor slice")
    regions.append(("hole-reuse", sum(1 << v for v in hole_list)))
    triple_donor = list(range(0, 3 * piece_budget))
    wide_donor = triple_donor + s_slice
    # a full-clique component attaches only through the all-five class, so it
    # may also reuse the clique-group colours
    for comp in components_masks(h.adj, dec.level(2)):
        comp_w = clique_number_mask(h.adj, comp)
        piece = _divisible_map(h, comp, comp_w)
        donor = triple_donor if comp_w < w else wide_donor
        if len(set(piece.values())) > len(donor):
            raise StructureAssertionError("a level-two component exceeded its donor slice")
        for v, c in piece.items():
            cmap[v] = donor[c]
        regions.append(("level-two-reuse", comp))
    return cmap, regions


def color_p5_k23(g: Graph) -> tuple[Coloring, BoundCertificate]:
    """Colour a host with no induced P5 or K2,3 within ``2*omega^2 - omega - 3``.

    Components and clique cutsets split first; cutset-free pieces go through
    the triangle-free structure, perfect divisibility, or the five-hole
    decomposition with its clique groups and palette reuse.
    """
    require_graph(g, "g")
    _require_free(g, [_P5, _K23])
    if clique_number(g) < 2:
        raise PreconditionError("the certified bound needs omega at least two")
    cmap, regions = _components_shared_palette(g, _p5k23_leaf)
    return _finish(g, "p5-k23", cmap, regions)


# ---------------------------------------------------------------------------
# pipeline for hosts with no induced P5 or K1+2K2


def color_p5_k1_2k2(g: Graph) -> tuple[Coloring, BoundCertificate]:
    """Colour a connected host with no induced P5 or K1+2K2 within
    ``(3/2)(omega^2 - omega)``, via a dominating clique or three-path.

    Each dominator neighbourhood induces no 2K2, so the bucket colourer
    handles it; leftover vertices in the clique branch fall into independent
    per-clique-vertex classes.
    """
    require_graph(g, "g")
    if not is_connected(g):
        raise PreconditionError("the pipeline needs a connected input; split components first")
    _require_free(g, [_P5, _K1_2K2])
    w = clique_number(g)
    if w < 2:
        raise PreconditionError("the certified bound needs omega at least two")
    kind, dom = find_dominating_clique_or_p3(g)
    members = sorted(dom)
    # every vertex of a three-path owns a bucketed neighbourhood; of a clique,
    # the first two do, the rest take independent leftover classes, and a lone
    # dominating vertex takes a colour of its own
    owners, rest = (_order_p3(g, members), []) if kind == "p3" else (members[:2], members[2:])
    cmap: dict[int, int] = {}
    regions: list[tuple[str, int]] = []
    offset = 0
    assigned = 0
    for i, u in enumerate(owners, start=1):
        mine = g.adj[u] & ~assigned
        assigned |= mine
        offset = _wagon_piece(g, g.adj[u], mine, offset, w, cmap)
        regions.append((f"dominator-neighborhood-{i}", mine))
    if len(owners) == 1:
        cmap[owners[0]] = offset
        assigned |= 1 << owners[0]
        regions.append(("dominating-vertex", 1 << owners[0]))
    for u in rest:
        mine = g.adj[u] & ~assigned
        if not mine:
            continue
        if not is_independent_mask(g.adj, mine):
            raise StructureAssertionError("a leftover class is not independent")
        for v in bits_of(mine):
            cmap[v] = offset
        regions.append(("independent-leftover", mine))
        offset += 1
        assigned |= mine
    if assigned != (1 << g.n) - 1:
        raise StructureAssertionError("dominating three-path failed to cover the graph" if kind == "p3"
                                      else "the dominating clique failed to cover the graph")
    return _finish(g, "p5-k1-2k2", cmap, regions)


def _order_p3(g: Graph, triple: list[int]) -> list[int]:
    mid = next(v for v in triple if all(g.adj[v] >> u & 1 for u in triple if u != v))
    ends = [v for v in triple if v != mid]
    return [ends[0], mid, ends[1]]


def _wagon_piece(g: Graph, piece_mask: int, owned: int, offset: int, w: int,
                 cmap: dict[int, int]) -> int:
    """Bucket-colour one dominator neighbourhood, which induces no 2K2, and
    keep the owned vertices on fresh colours from ``offset`` on."""
    top = least_maximum_clique(g.adj, piece_mask)
    if top.bit_count() > w - 1:
        raise StructureAssertionError("a dominator neighbourhood reaches the full clique number")
    local = _wagon_map(g, piece_mask, top)
    used = sorted({local[v] for v in bits_of(owned)})
    compact = {c: offset + k for k, c in enumerate(used)}
    for v in bits_of(owned):
        cmap[v] = compact[local[v]]
    return offset + len(used)


# ---------------------------------------------------------------------------
# pipeline for hosts with no induced P5 or K1+(K1uK3)


def _p5k1k1k3_leaf(h: Graph, hole, antiholes) -> tuple[dict[int, int], list[tuple[str, int]]]:
    """Colour a cutset-free piece around its five-hole ``hole``, or, when
    that is None, around its first big odd antihole."""
    if hole is None:
        return _p5k1k1k3_antihole(h, antiholes[0])
    dec = decompose_five_hole(h, hole)
    _assert_lemmas(check_p5_hole_lemma(h, dec), check_k1uk3_hole_lemma(h, dec),
                   check_k1uk3_level_lemma(h, dec))
    cmap: dict[int, int] = {}
    regions: list[tuple[str, int]] = []
    classes = dec.classes
    allfive = classes[_ALL_FIVE]
    inner = _k1uk3_map(h, allfive)
    cmap.update(inner)
    base = max(inner.values()) + 1 if inner else 0
    regions.append(("all-five-class", allfive))
    # five triangle-free distance-two classes, three colours each
    for i, (far, _) in enumerate(_K1UK3_PATTERNS, start=1):
        cls = classes[far]
        block = base + 3 * (i - 1)
        for v, c in _triangle_free_map(h, cls).items():
            cmap[v] = block + c
        regions.append((f"distance-two-class-{i}", cls))
    slice15 = list(range(base, base + 15))
    # independent unions of the remaining hole-neighbour classes
    for i, (_, triples) in enumerate(_K1UK3_PATTERNS, start=1):
        union = sum(classes[p] for p in triples)
        for v in bits_of(union):
            cmap[v] = base + 15 + (i - 1)
        regions.append((f"independent-union-{i}", union))
    # level two splits into two triangle-free parts; level three is
    # triangle-free; all reuse the fifteen-colour block
    part_a, part_b = triangle_free_level2_split(h, dec)
    for v, c in _triangle_free_map(h, part_a).items():
        cmap[v] = slice15[c]
    for v, c in _triangle_free_map(h, part_b).items():
        cmap[v] = slice15[3 + c]
    regions.append(("level-two-reuse", dec.level(2)))
    level3 = dec.level(3)
    for v, c in _triangle_free_map(h, level3).items():
        cmap[v] = slice15[6 + c]
    if level3:
        regions.append(("level-three-reuse", level3))
    if not _greedy_in_slice(h, cmap, list(dec.hole), slice15):
        raise StructureAssertionError("hole reuse found no free colour in its donor block")
    regions.append(("hole-reuse", sum(1 << v for v in dec.hole)))
    return cmap, regions


def _p5k1k1k3_antihole(h: Graph,
                       order: tuple[int, ...]) -> tuple[dict[int, int], list[tuple[str, int]]]:
    split = antihole_neighborhood_split(h, order)
    _assert_lemmas(_antihole_violations(h, order, split))
    half = (len(order) + 1) // 2
    s_mask, _, buckets = split
    a_mask = sum(1 << v for v in order)
    chi, _, cmap = _optimal_map(h, a_mask)
    if chi != half:
        raise StructureAssertionError("odd antihole coloured away from half its length")
    regions = [("antihole-exact", a_mask)]
    offset = chi
    if s_mask:
        if clique_number(h) < half:
            raise StructureAssertionError("full attachment without clique-number headroom")
        inner = _k1uk3_map(h, s_mask)
        for v, c in inner.items():
            cmap[v] = offset + c
        offset += max(inner.values()) + 1
        regions.append(("full-attachment", s_mask))
    for i, bucket in enumerate(buckets):
        if not bucket:
            continue
        cmap.update(dict.fromkeys(bits_of(bucket), offset))
        offset += 1
        regions.append((f"antihole-bucket-{i + 1}", bucket))
    return cmap, regions


def color_p5_k1_k1k3(g: Graph) -> tuple[Coloring, BoundCertificate]:
    """Colour a host with no induced P5 or K1+(K1uK3) within ``3*omega + 11``.

    Cutset-free pieces are perfect, carry a five-hole whose neighbourhood
    decomposes into a peelable class, fifteen triangle-free colours, and five
    independent unions, or carry a big odd antihole whose neighbourhood splits
    into a fully attached peelable part and independent buckets.
    """
    require_graph(g, "g")
    _require_free(g, [_P5, _K1_K1UK3])
    cmap, regions = _components_shared_palette(g, _p5k1k1k3_leaf)
    return _finish(g, "p5-k1-k1uk3", cmap, regions)


# ---------------------------------------------------------------------------
# the colourers by name


# the bound each colourer is certified against, as a function of omega
BOUNDS: dict[str, Callable[[int], int]] = {
    "p5-k23": lambda w: 2 * w * w - w - 3,
    "p5-k1-2k2": lambda w: 3 * (w * w - w) // 2,
    "p5-k1-k1uk3": lambda w: 3 * w + 11,
    "sumner": lambda w: 3,
    "wagon-2k2": lambda w: (w * w + w) // 2,
    "k1-union-k3": lambda w: max(3 * w - 3, 1),
    "divisible": lambda w: comb(w + 1, 2),
}

# every colourer by name, each returning its colouring and certificate; read at
# call time, so a rewritten entry reaches every caller
COLORERS: dict[str, Callable[[Graph], tuple[Coloring, BoundCertificate]]] = {
    "p5-k23": color_p5_k23,
    "p5-k1-2k2": color_p5_k1_2k2,
    "p5-k1-k1uk3": color_p5_k1_k1k3,
    "sumner": color_sumner,
    "wagon-2k2": color_wagon_2k2_free,
    "k1-union-k3": color_k1_union_k3_free,
    "divisible": color_divisible,
}
