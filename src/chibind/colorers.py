"""Constructive colouring pipelines with bound certificates.

Each pipeline follows the structural decomposition that proves its bound:
palette slices are allocated per decomposition piece, reuse steps assign
least-index colours inside a donor slice, and every claimed structural fact is
re-asserted at runtime.  A certificate records the pieces, the palette, and
the bound; the independent validity check runs on every output.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import PreconditionError, SearchExhaustedError, StructureAssertionError
from .graphs import (
    Graph,
    VertexSet,
    bits_of,
    components_masks,
    induced,
    is_connected,
    is_independent_mask,
)
from .invariants import (
    Coloring,
    chi_bound_divisible,
    chromatic_number,
    clique_number,
    independence_number,
    is_proper_coloring,
    maximum_clique,
)
from .patterns import find_induced, is_free, is_perfect, pattern
from .structure import (
    antihole_neighborhood_split,
    decompose_five_hole,
    find_all_odd_antiholes,
    find_clique_cutset,
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
    theorem: str
    omega: int
    bound_value: int
    colors_used: int
    pipeline_trace: tuple[TraceStep, ...]


def _require_free(g: Graph, pats) -> None:
    """Raise with a witness embedding when a forbidden pattern is present."""
    for p in pats:
        emb = find_induced(g, p)
        if emb is not None:
            raise PreconditionError(
                f"input induces {p.name} at vertices {list(emb.map)}")


def bound_p5_k23(w: int) -> int:
    return 2 * w * w - w - 3


def bound_p5_k1_2k2(w: int) -> int:
    return 3 * (w * w - w) // 2


def bound_p5_k1_k1k3(w: int) -> int:
    return 3 * w + 11


def bound_wagon_2k2(w: int) -> int:
    return (w * w + w) // 2


def bound_k1_union_k3(w: int) -> int:
    return max(3 * w - 3, 1)


# ---------------------------------------------------------------------------
# triangle-free structure and colouring


def classify_triangle_free(g: Graph) -> list[tuple[str, tuple[VertexSet, ...]]]:
    """Structure proof per connected component of a host with no induced P5 or K3.

    Each component is either bipartite (two sides returned) or a five-hole
    blow-up (the five independent classes returned, in hole order).  Detection
    is attempted directly; if it fails on a host that really is in the class,
    that is a bug, otherwise the input was out of scope.
    """
    out = []
    try:
        for comp in components_masks(g.adj, (1 << g.n) - 1):
            parts = _bipartition(g, comp)
            if parts is not None:
                out.append(("bipartite", (VertexSet(parts[0], g.n), VertexSet(parts[1], g.n))))
                continue
            classes = _blowup_classes(g, comp)
            out.append(("blown-up-five-hole", tuple(VertexSet(m, g.n) for m in classes)))
    except StructureAssertionError:
        if is_free(g, [_P5, _K3]):
            raise
        raise PreconditionError("input induces P5 or K3") from None
    return out


def _bipartition(g: Graph, comp: int) -> tuple[int, int] | None:
    side = {}
    start = (comp & -comp).bit_length() - 1
    side[start] = 0
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for u in bits_of(g.adj[v] & comp):
                if u in side:
                    if side[u] == side[v]:
                        return None
                else:
                    side[u] = side[v] ^ 1
                    nxt.append(u)
        frontier = nxt
    even = sum(1 << v for v, s in side.items() if s == 0)
    odd = sum(1 << v for v, s in side.items() if s == 1)
    return even, odd


def _blowup_classes(g: Graph, comp: int) -> list[int]:
    """Verified five-hole blow-up classes of a non-bipartite component."""
    h_local = induced(g, VertexSet(comp, g.n))
    verts = list(bits_of(comp))
    hole_local = find_five_hole(h_local)
    if hole_local is None:
        raise StructureAssertionError("non-bipartite triangle-free component has no five-hole")
    hole = [verts[i] for i in hole_local]
    classes = [0] * 5
    for x in bits_of(comp):
        hits = frozenset(j for j in range(5) if g.has_edge(x, hole[j]) or x == hole[j])
        placed = False
        for j in range(5):
            if x == hole[j] or hits == frozenset(((j - 1) % 5, (j + 1) % 5)):
                classes[j] |= 1 << x
                placed = True
                break
        if not placed:
            raise StructureAssertionError(f"vertex {x} does not fit the five-hole blow-up")
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
    return classes


def _sumner_map(g: Graph, comp: int) -> dict[int, int]:
    parts = _bipartition(g, comp)
    if parts is not None:
        return {v: 0 for v in bits_of(parts[0])} | {v: 1 for v in bits_of(parts[1])}
    classes = _blowup_classes(g, comp)
    pattern_colors = (0, 1, 0, 1, 2)
    cmap = {}
    for j, mask in enumerate(classes):
        for v in bits_of(mask):
            cmap[v] = pattern_colors[j]
    return cmap


def color_sumner(g: Graph) -> Coloring:
    """Three colours for hosts with no induced P5 or K3.

    Bipartite components take two colours by layering; the rest are five-hole
    blow-ups coloured 1,2,1,2,3 around the hole classes.  Any graph whose
    components fit that dichotomy is accepted.
    """
    cmap: dict[int, int] = {}
    try:
        for comp in components_masks(g.adj, (1 << g.n) - 1):
            cmap.update(_sumner_map(g, comp))
    except StructureAssertionError:
        if is_free(g, [_P5, _K3]):
            raise
        raise PreconditionError("input induces P5 or K3") from None
    coloring = _coloring_from_map(g.n, cmap)
    if coloring.k > 3 or not is_proper_coloring(g, coloring):
        raise StructureAssertionError("three-colour construction failed")
    return coloring


# ---------------------------------------------------------------------------
# peeling colourer for hosts with no induced P5 or K1uK3


def _k1uk3_map(g: Graph, mask: int) -> dict[int, int]:
    cmap: dict[int, int] = {}
    for comp in components_masks(g.adj, mask):
        sub = induced(g, VertexSet(comp, g.n))
        verts = list(bits_of(comp))
        local = _k1uk3_component(sub)
        for i, v in enumerate(verts):
            cmap[v] = local[i]
    return cmap


def _k1uk3_component(h: Graph) -> dict[int, int]:
    if h.edge_count() == 0:
        return {v: 0 for v in range(h.n)}
    w = clique_number(h)
    if w <= 2:
        return _sumner_map(h, (1 << h.n) - 1)
    # peel a maximum-degree vertex: its non-neighbourhood is triangle-free,
    # its neighbourhood recurses with a strictly smaller clique number
    v = max(range(h.n), key=lambda x: (h.degree(x), -x))
    outer = (1 << h.n) - 1 & ~h.adj[v] & ~(1 << v)
    cmap: dict[int, int] = {}
    top = 0
    if outer:
        for comp in components_masks(h.adj, outer):
            cmap.update(_sumner_map(h, comp))
        top = max(cmap.values()) + 1
    cmap[v] = 0
    top = max(top, 1)
    inner = _k1uk3_map(h, h.adj[v])
    for u, c in inner.items():
        cmap[u] = top + c
    return cmap


def color_k1_union_k3_free(g: Graph) -> Coloring:
    """At most ``max(3*omega - 3, 1)`` colours for hosts with no induced P5 or K1uK3."""
    _require_free(g, [_P5, _K1UK3])
    cmap = _k1uk3_map(g, (1 << g.n) - 1)
    coloring = _coloring_from_map(g.n, cmap)
    if not is_proper_coloring(g, coloring):
        raise StructureAssertionError("peeling colourer produced an improper colouring")
    if coloring.used() > bound_k1_union_k3(clique_number(g)):
        raise StructureAssertionError("peeling colourer exceeded its bound")
    return coloring


# ---------------------------------------------------------------------------
# bucket colourer for hosts with no induced 2K2


def color_wagon_2k2_free(g: Graph) -> Coloring:
    """At most ``(omega^2+omega)/2`` colours for hosts with no induced 2K2.

    Buckets: one per maximum-clique vertex (that vertex plus everything
    missing exactly it) and one per clique pair (everything missing both).
    Each bucket is independent, which the colourer asserts.
    """
    _require_free(g, [_2K2])
    n = g.n
    if n == 0:
        return Coloring((), 0)
    w = clique_number(g)
    clique = sorted(maximum_clique(g))
    buckets: list[int] = [1 << clique[i] for i in range(w)]
    pair_index = {}
    for i in range(w):
        for j in range(i + 1, w):
            pair_index[(i, j)] = len(buckets)
            buckets.append(0)
    in_clique = 0
    for v in clique:
        in_clique |= 1 << v
    for v in range(n):
        if in_clique >> v & 1:
            continue
        missed = [i for i in range(w) if not g.has_edge(v, clique[i])]
        if not missed:
            raise StructureAssertionError("a vertex extends the maximum clique")
        if len(missed) == 1:
            buckets[missed[0]] |= 1 << v
        else:
            buckets[pair_index[(missed[0], missed[1])]] |= 1 << v
    cmap = {}
    color = 0
    for b in buckets:
        if not b:
            continue
        if not is_independent_mask(g.adj, b):
            raise StructureAssertionError("a bucket is not independent")
        for v in bits_of(b):
            cmap[v] = color
        color += 1
    coloring = _coloring_from_map(n, cmap)
    if not is_proper_coloring(g, coloring):
        raise StructureAssertionError("bucket colouring is improper")
    if coloring.used() > bound_wagon_2k2(w):
        raise StructureAssertionError("bucket colouring exceeded its bound")
    return coloring


# ---------------------------------------------------------------------------
# shared pipeline plumbing


def _coloring_from_map(n: int, cmap: dict[int, int]) -> Coloring:
    if len(cmap) != n:
        raise StructureAssertionError("colour map does not cover every vertex")
    colors = tuple(cmap[v] for v in range(n))
    return Coloring(colors, max(colors) + 1 if n else 0)


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


def _color_with_cutsets(h: Graph, leaf) -> tuple[dict[int, int], list[tuple[str, int]]]:
    """Split on clique cutsets recursively, merging palettes on the shared clique."""
    report = find_clique_cutset(h)
    if report is None:
        return leaf(h)
    cut = report.cutset.mask
    side = report.side_components[0].mask
    full = (1 << h.n) - 1
    m1 = side | cut
    m2 = full & ~side
    d1, r1 = _recurse_submask(h, m1, leaf)
    d2, r2 = _recurse_submask(h, m2, leaf)
    merged = _merge_at_cutset(list(bits_of(cut)), d1, d2)
    regions = r1 + r2 + [("clique-cutset-merge", cut)]
    return merged, regions


def _recurse_submask(h: Graph, mask: int, leaf) -> tuple[dict[int, int], list[tuple[str, int]]]:
    sub = induced(h, VertexSet(mask, h.n))
    verts = list(bits_of(mask))
    d_local, r_local = _color_with_cutsets(sub, leaf)
    d = {verts[v]: c for v, c in d_local.items()}
    regions = []
    for name, m in r_local:
        lifted = 0
        for i in bits_of(m):
            lifted |= 1 << verts[i]
        regions.append((name, lifted))
    return d, regions


def _finish(g: Graph, pid: str, bound_fn, cmap: dict[int, int],
            regions: list[tuple[str, int]]) -> tuple[Coloring, BoundCertificate]:
    w = clique_number(g)
    bound = bound_fn(w)
    coloring = _coloring_from_map(g.n, cmap)
    if not is_proper_coloring(g, coloring):
        raise StructureAssertionError("pipeline produced an improper colouring")
    used = coloring.used()
    if used > bound:
        raise StructureAssertionError(f"pipeline used {used} colours above its bound {bound}")
    trace = []
    for name, mask in regions:
        colors = {coloring.colors[v] for v in bits_of(mask)}
        slc = (min(colors), max(colors) + 1) if colors else (0, 0)
        trace.append(TraceStep(name, VertexSet(mask, g.n), slc))
    cert = BoundCertificate(pid, w, bound, used, tuple(trace))
    return coloring, cert


def _components_shared_palette(g: Graph, leaf) -> tuple[dict[int, int], list[tuple[str, int]]]:
    cmap: dict[int, int] = {}
    regions: list[tuple[str, int]] = []
    for comp in components_masks(g.adj, (1 << g.n) - 1):
        d, r = _recurse_submask(g, comp, leaf)
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


# ---------------------------------------------------------------------------
# pipeline for hosts with no induced P5 or K2,3


def _p5k23_leaf(h: Graph) -> tuple[dict[int, int], list[tuple[str, int]]]:
    full = (1 << h.n) - 1
    w = clique_number(h)
    if is_perfect(h):
        chi, coloring = chromatic_number(h)
        if chi != w:
            raise StructureAssertionError("perfect piece coloured above its clique number")
        return {v: coloring.colors[v] for v in range(h.n)}, [("perfect-exact", full)]
    if w <= 2:
        # triangle-free members are exactly the three-colourable ones here,
        # which keeps the certificate tight at omega two
        cmap = {}
        for comp in components_masks(h.adj, full):
            cmap.update(_sumner_map(h, comp))
        return cmap, [("triangle-free", full)]
    hole = find_five_hole(h)
    if hole is None:
        k, coloring = chi_bound_divisible(h)
        return {v: coloring.colors[v] for v in range(h.n)}, [("divisible", full)]
    dec = decompose_five_hole(h, hole, p5_free=True)
    cmap: dict[int, int] = {}
    regions: list[tuple[str, int]] = []
    piece_budget = comb(w - 1, 2)
    pieces = (
        ("triple-classes-a", dec.neighbor_class(1, 2, 3) | dec.neighbor_class(2, 3, 4)),
        ("triple-classes-b", dec.neighbor_class(3, 4, 5) | dec.neighbor_class(4, 5, 1)),
        ("triple-classes-c", dec.neighbor_class(5, 1, 2)),
        ("all-five-class", dec.neighbor_class(1, 2, 3, 4, 5)),
    )
    for idx, (name, vs) in enumerate(pieces):
        base = idx * piece_budget
        piece = induced(h, vs)
        if independence_number(piece) > 2:
            raise StructureAssertionError(f"{name} has independence number above two")
        used_k, coloring = chi_bound_divisible(piece)
        if used_k > piece_budget:
            raise StructureAssertionError(f"{name} exceeded its palette budget")
        for local, v in enumerate(vs):
            cmap[v] = base + coloring.colors[local]
        regions.append((name, vs.mask))
    s_base = 4 * piece_budget
    block = w - 1
    groups = five_cliques_partition(h, dec)
    for i, grp in enumerate(groups):
        if len(grp) > block:
            raise StructureAssertionError(f"clique group {i + 1} larger than omega-1")
        for offset, v in enumerate(sorted(grp)):
            cmap[v] = s_base + i * block + offset
        regions.append((f"clique-group-{i + 1}", grp.mask))
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
    allfive_mask = dec.neighbor_class(1, 2, 3, 4, 5).mask
    level1 = dec.level(1).mask
    if dec.level(3):
        raise StructureAssertionError("level three is nonempty in a cutset-free host")
    for comp in components_masks(h.adj, dec.level(2).mask):
        piece = induced(h, VertexSet(comp, h.n))
        if independence_number(piece) > 2:
            raise StructureAssertionError("a level-two component has independence number above two")
        wb = clique_number(piece)
        used_k, coloring = chi_bound_divisible(piece)
        if wb < w:
            donor = triple_donor
        else:
            attach = 0
            for v in bits_of(comp):
                attach |= h.adj[v]
            if attach & level1 & ~allfive_mask:
                raise StructureAssertionError(
                    "a full-clique level-two component attaches outside the all-five class")
            donor = wide_donor
        if used_k > len(donor):
            raise StructureAssertionError("a level-two component exceeded its donor slice")
        for local, v in enumerate(bits_of(comp)):
            cmap[v] = donor[coloring.colors[local]]
        regions.append(("level-two-reuse", comp))
    return cmap, regions


def color_p5_k23(g: Graph) -> tuple[Coloring, BoundCertificate]:
    """Colour a host with no induced P5 or K2,3 within ``2*omega^2 - omega - 3``.

    Components and clique cutsets split first; cutset-free pieces go through
    the triangle-free structure, perfect divisibility, or the five-hole
    decomposition with its clique groups and palette reuse.
    """
    _require_free(g, [_P5, _K23])
    if clique_number(g) < 2:
        raise PreconditionError("the certified bound needs omega at least two")
    cmap, regions = _components_shared_palette(g, _p5k23_leaf)
    return _finish(g, "p5-k23", bound_p5_k23, cmap, regions)


# ---------------------------------------------------------------------------
# pipeline for hosts with no induced P5 or K1+2K2


def color_p5_k1_2k2(g: Graph) -> tuple[Coloring, BoundCertificate]:
    """Colour a connected host with no induced P5 or K1+2K2 within
    ``(3/2)(omega^2 - omega)``, via a dominating clique or three-path.

    Each dominator neighbourhood induces no 2K2, so the bucket colourer
    handles it; leftover vertices in the clique branch fall into independent
    per-clique-vertex classes.
    """
    if not is_connected(g):
        raise PreconditionError("the pipeline needs a connected input; split components first")
    _require_free(g, [_P5, _K1_2K2])
    w = clique_number(g)
    if w < 2:
        raise PreconditionError("the certified bound needs omega at least two")
    kind, dom = find_dominating_clique_or_p3(g)
    cmap: dict[int, int] = {}
    regions: list[tuple[str, int]] = []
    offset = 0
    if kind == "p3":
        path = _order_p3(g, sorted(dom))
        owners = [g.adj[v] for v in path]
        assigned = 0
        for i, v_i in enumerate(path):
            mine = owners[i] & ~assigned
            assigned |= mine
            offset = _wagon_piece(g, g.adj[v_i], mine, offset, w, cmap)
            regions.append((f"dominator-neighborhood-{i + 1}", mine))
        if assigned != (1 << g.n) - 1:
            raise StructureAssertionError("dominating three-path failed to cover the graph")
    else:
        clique = sorted(dom)
        if len(clique) == 1:
            u = clique[0]
            offset = _wagon_piece(g, g.adj[u], g.adj[u], offset, w, cmap)
            regions.append(("dominator-neighborhood-1", g.adj[u]))
            cmap[u] = offset
            offset += 1
            regions.append(("dominating-vertex", 1 << u))
        else:
            u1, u2 = clique[0], clique[1]
            first = g.adj[u1]
            second = g.adj[u2] & ~first
            offset = _wagon_piece(g, g.adj[u1], first, offset, w, cmap)
            regions.append(("dominator-neighborhood-1", first))
            offset = _wagon_piece(g, g.adj[u2], second, offset, w, cmap)
            regions.append(("dominator-neighborhood-2", second))
            rest = (1 << g.n) - 1 & ~first & ~second
            for v_j in clique[2:]:
                mine = g.adj[v_j] & rest
                if not mine:
                    continue
                if not is_independent_mask(g.adj, mine):
                    raise StructureAssertionError("a leftover class is not independent")
                for v in bits_of(mine):
                    cmap[v] = offset
                regions.append(("independent-leftover", mine))
                offset += 1
                rest &= ~mine
            if rest:
                raise StructureAssertionError("the dominating clique failed to cover the graph")
    return _finish(g, "p5-k1-2k2", bound_p5_k1_2k2, cmap, regions)


def _order_p3(g: Graph, triple: list[int]) -> list[int]:
    mid = next(v for v in triple if all(g.has_edge(v, u) for u in triple if u != v))
    ends = [v for v in triple if v != mid]
    return [ends[0], mid, ends[1]]


def _wagon_piece(g: Graph, piece_mask: int, owned: int, offset: int, w: int,
                 cmap: dict[int, int]) -> int:
    """Bucket-colour one dominator neighbourhood, keeping only owned vertices."""
    piece = induced(g, VertexSet(piece_mask, g.n))
    verts = list(bits_of(piece_mask))
    if clique_number(piece) > w - 1:
        raise StructureAssertionError("a dominator neighbourhood reaches the full clique number")
    coloring = color_wagon_2k2_free(piece)
    used = sorted({coloring.colors[i] for i, v in enumerate(verts) if owned >> v & 1})
    compact = {c: offset + k for k, c in enumerate(used)}
    for i, v in enumerate(verts):
        if owned >> v & 1:
            cmap[v] = compact[coloring.colors[i]]
    return offset + len(used)


# ---------------------------------------------------------------------------
# pipeline for hosts with no induced P5 or K1+(K1uK3)


def _p5k1k1k3_leaf(h: Graph) -> tuple[dict[int, int], list[tuple[str, int]]]:
    full = (1 << h.n) - 1
    if is_perfect(h):
        chi, coloring = chromatic_number(h)
        if chi != clique_number(h):
            raise StructureAssertionError("perfect piece coloured above its clique number")
        return {v: coloring.colors[v] for v in range(h.n)}, [("perfect-exact", full)]
    hole = find_five_hole(h)
    if hole is not None:
        return _p5k1k1k3_hole(h, hole)
    return _p5k1k1k3_antihole(h)


def _p5k1k1k3_hole(h: Graph, hole: tuple[int, ...]) -> tuple[dict[int, int], list[tuple[str, int]]]:
    dec = decompose_five_hole(h, hole, p5_free=True)
    cmap: dict[int, int] = {}
    regions: list[tuple[str, int]] = []
    allfive = dec.neighbor_class(1, 2, 3, 4, 5)
    inner = _k1uk3_map(h, allfive.mask)
    cmap.update(inner)
    base = max(inner.values()) + 1 if inner else 0
    regions.append(("all-five-class", allfive.mask))
    # five triangle-free distance-two classes, three colours each
    for i in range(1, 6):
        cls = dec.neighbor_class(i, i + 2)
        block = base + 3 * (i - 1)
        for v, c in _triangle_free_map(h, cls.mask).items():
            cmap[v] = block + c
        regions.append((f"distance-two-class-{i}", cls.mask))
    slice15 = list(range(base, base + 15))
    # independent unions of the remaining hole-neighbour classes
    for i in range(1, 6):
        union = (dec.neighbor_class(i, i + 1, i + 2)
                 | dec.neighbor_class(i, i + 1, i + 3)
                 | dec.neighbor_class(i, i + 1, i + 2, i + 3))
        if not is_independent_mask(h.adj, union.mask):
            raise StructureAssertionError(f"hole-neighbour union at {i} is not independent")
        for v in union:
            cmap[v] = base + 15 + (i - 1)
        regions.append((f"independent-union-{i}", union.mask))
    # level two splits into two triangle-free parts; level three is
    # triangle-free; all reuse the fifteen-colour block
    part_a, part_b = triangle_free_level2_split(h, dec)
    for v, c in _triangle_free_map(h, part_a.mask).items():
        cmap[v] = slice15[c]
    for v, c in _triangle_free_map(h, part_b.mask).items():
        cmap[v] = slice15[3 + c]
    regions.append(("level-two-reuse", dec.level(2).mask))
    level3 = dec.level(3).mask
    for v, c in _triangle_free_map(h, level3).items():
        cmap[v] = slice15[6 + c]
    if level3:
        regions.append(("level-three-reuse", level3))
    if not _greedy_in_slice(h, cmap, list(dec.hole), slice15):
        raise StructureAssertionError("hole reuse found no free colour in its donor block")
    regions.append(("hole-reuse", sum(1 << v for v in dec.hole)))
    return cmap, regions


def _triangle_free_map(h: Graph, mask: int) -> dict[int, int]:
    """Three-colour a triangle-free piece through the structure colourer."""
    piece = induced(h, VertexSet(mask, h.n))
    verts = list(bits_of(mask))
    coloring = color_sumner(piece)
    return {verts[i]: coloring.colors[i] for i in range(piece.n)}


def _p5k1k1k3_antihole(h: Graph) -> tuple[dict[int, int], list[tuple[str, int]]]:
    orders = find_all_odd_antiholes(h, 7)
    if not orders:
        raise SearchExhaustedError("imperfect five-hole-free piece has no big odd antihole")
    order = orders[0]
    half = (len(order) + 1) // 2
    s_set, t_set, buckets = antihole_neighborhood_split(h, order)
    a_mask = sum(1 << v for v in order)
    if a_mask | s_set.mask | t_set.mask != (1 << h.n) - 1:
        raise StructureAssertionError("antihole neighbourhood fails to cover the piece")
    a_piece = induced(h, VertexSet(a_mask, h.n))
    chi, coloring = chromatic_number(a_piece)
    if chi != half:
        raise StructureAssertionError("odd antihole coloured away from half its length")
    verts = list(bits_of(a_mask))
    cmap = {verts[i]: coloring.colors[i] for i in range(a_piece.n)}
    regions = [("antihole-exact", a_mask)]
    offset = chi
    if s_set:
        if clique_number(h) < half:
            raise StructureAssertionError("full attachment without clique-number headroom")
        inner = _k1uk3_map(h, s_set.mask)
        for v, c in inner.items():
            cmap[v] = offset + c
        offset += max(inner.values()) + 1
        regions.append(("full-attachment", s_set.mask))
    for i, bucket in enumerate(buckets):
        if not bucket:
            continue
        if not is_independent_mask(h.adj, bucket.mask):
            raise StructureAssertionError(f"antihole bucket {i + 1} is not independent")
        for v in bucket:
            cmap[v] = offset
        offset += 1
        regions.append((f"antihole-bucket-{i + 1}", bucket.mask))
    return cmap, regions


def color_p5_k1_k1k3(g: Graph) -> tuple[Coloring, BoundCertificate]:
    """Colour a host with no induced P5 or K1+(K1uK3) within ``3*omega + 11``.

    Cutset-free pieces are perfect, carry a five-hole whose neighbourhood
    decomposes into a peelable class, fifteen triangle-free colours, and five
    independent unions, or carry a big odd antihole whose neighbourhood splits
    into a fully attached peelable part and independent buckets.
    """
    _require_free(g, [_P5, _K1_K1UK3])
    cmap, regions = _components_shared_palette(g, _p5k1k1k3_leaf)
    return _finish(g, "p5-k1-k1uk3", bound_p5_k1_k1k3, cmap, regions)
