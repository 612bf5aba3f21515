"""Structural analyzers: five-hole neighbourhood classes, distance levels,
homogeneous sets, cutsets, dominating cliques, and the checkable structure
facts the colouring pipelines rely on.

A five-hole decomposition is plain vertex masks.  Its classes sort the hole's
neighbours by the exact set of hole vertices each one sees, as a 5-bit
pattern index: bit ``i-1`` of pattern ``p`` stands for ``v_i``, so
``classes[0b00101]`` holds the vertices that see exactly ``v_1`` and ``v_3``,
and ``classes[0]``, the vertices that see no hole vertex, stays empty.
The levels are the masks of the vertices at distance one, two, ... from the
hole.

Cutsets are found in polynomial time.  ``find_clique_cutset`` runs MCS-M
(Berry, Blair, Heggernes and Peyton, "Maximum cardinality search for computing
minimal triangulations of graphs", Algorithmica 2004) once and takes the least
minimal separator of the triangulation that is a clique of the graph, as in
Berry, Pogorelcnik and Simonet, "An introduction to clique minimal separator
decomposition", Algorithms 2010; the colouring pipelines split every piece of
a component with that component's one list.  ``minimal_cutsets`` lists the
minimal separators as in Berry, Bordat and Cogis, "Generating all the minimal
separators of a graph", IJFCS 2000, and keeps those without a non-full
component.

Checkers return violation lists rather than booleans so a harness can print
counterexample certificates.  On the graph classes these facts are proved for,
a nonempty list means an implementation bug, not a mathematical event.  Each
fact is stated once, here: ``verify`` runs the checkers on every class member,
and the colouring pipelines call the same checkers on every cutset-free leaf
whose colouring relies on them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .errors import PreconditionError, SearchExhaustedError, StructureAssertionError
from .graphs import (
    Graph,
    VertexSet,
    bits_of,
    complement,
    components_masks,
    induced,
    is_clique_mask,
    is_connected,
    is_independent_mask,
    neighborhood_mask,
)
from .invariants import clique_number, clique_number_mask, cliques
from .patterns import _holes, is_free, pattern


def _pattern(*indices: int) -> int:
    """The pattern index of 1-based hole positions, reduced mod 5: bit
    ``i-1`` stands for ``v_i``."""
    p = 0
    for i in indices:
        p |= 1 << (i - 1) % 5
    return p


def _pattern_of(row: int, hole: tuple[int, ...]) -> int:
    """The pattern index of the hole vertices that an adjacency row sees."""
    a, b, c, d, e = hole
    return (row >> a & 1 | (row >> b & 1) << 1 | (row >> c & 1) << 2
            | (row >> d & 1) << 3 | (row >> e & 1) << 4)


_K1UK3 = pattern("K1uK3")
_K1_K1UK3 = pattern("K1+(K1uK3)")

# the pattern pairs {i,i+1,i+3} and {i,i+1,i+2,i+4} of a bad pair
_BAD_PAIRS = frozenset(frozenset((_pattern(i, i + 1, i + 3), _pattern(i, i + 1, i + 2, i + 4)))
                       for i in range(1, 6))
_ALL_FIVE = _pattern(1, 2, 3, 4, 5)
# per hole position i: the patterns {i}, {i,i+1}, {i,i+2} and {i,i+1,i+2}
_P5_LEMMA_PATTERNS = tuple((_pattern(i), _pattern(i, i + 1), _pattern(i, i + 2),
                            _pattern(i, i + 1, i + 2)) for i in range(1, 6))
# per hole position i: the pattern {i,i+2} and the patterns {i,i+1,i+2},
# {i,i+1,i+3} and {i..i+3} of lemma 6.3's independent union
_K1UK3_PATTERNS = tuple((_pattern(i, i + 2), (_pattern(i, i + 1, i + 2), _pattern(i, i + 1, i + 3),
                                              _pattern(i, i + 1, i + 2, i + 3)))
                        for i in range(1, 6))
# the patterns of the five clique groups; group i avoids hole vertex v_i
_CLIQUE_GROUP_PATTERNS = tuple(tuple(_pattern(*t) for t in group) for group in (
    ((2, 5), (2, 3, 5), (2, 4, 5), (2, 3, 4, 5)),
    ((1, 3), (1, 3, 4), (1, 3, 5), (1, 3, 4, 5)),
    ((2, 4), (1, 2, 4, 5)),
    ((3, 5), (1, 2, 3, 5)),
    ((1, 4), (1, 2, 4), (1, 2, 3, 4)),
))
# per hole position i: the consecutive triple {i,i+1,i+2}
_TRIPLE_PATTERNS = tuple(_pattern(i, i + 1, i + 2) for i in range(1, 6))
# per hole position i: the pattern {i,i+2} and the pattern {i+1} of lemma
# 4.1's forced edge
_FORCED_EDGE_PATTERNS = tuple((_pattern(i, i + 2), _pattern(i + 1)) for i in range(1, 6))
# lemma 4.1's clique classes {i,i+2}, {i,i+1,i+3} and {i..i+3}, by position i
_K23_CLIQUE_PATTERNS = tuple(item for i in range(1, 6) for item in (
    (f"{{{i},{i + 2}}}", _pattern(i, i + 2)),
    (f"{{{i},{i + 1},{i + 3}}}", _pattern(i, i + 1, i + 3)),
    (f"{{{i}..{i + 3}}}", _pattern(i, i + 1, i + 2, i + 3)),
))


@dataclass(frozen=True, eq=False)
class FiveHoleDecomposition:
    """A five-hole, its 32 exact-neighbourhood classes by pattern index (see
    the module docstring) and its distance levels, all as vertex masks:
    ``levels[i]`` holds the vertices at hop distance ``i+1`` from the hole,
    and vertices in other components are in no level.
    """

    hole: tuple[int, int, int, int, int]
    classes: tuple[int, ...]
    levels: tuple[int, ...]

    def level(self, i: int) -> int:
        return self.levels[i - 1] if 1 <= i <= len(self.levels) else 0


def find_all_five_holes(g: Graph) -> list[tuple[int, ...]]:
    """Every induced five-cycle, one canonical ordering per vertex set, in
    ascending lexicographic order of the canonical tuples."""
    return list(_holes(g.adj, (1 << g.n) - 1, 5))


def find_five_hole(g: Graph) -> tuple[int, ...] | None:
    """Least induced five-cycle in canonical cyclic order, or None."""
    return next(_holes(g.adj, (1 << g.n) - 1, 5), None)


def decompose_five_hole(g: Graph, hole: tuple[int, ...]) -> FiveHoleDecomposition:
    """Classify every vertex off the hole by exact hole-neighbourhood and level.

    The decomposition asserts nothing about the host; the lemma checkers below
    state what holds in each class.
    """
    for v in hole:
        if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < g.n:
            raise PreconditionError(f"hole entry {v!r} is not a vertex of 0..{g.n - 1}")
    if len(hole) != 5 or len(set(hole)) != 5:
        raise PreconditionError("a five-hole needs five distinct vertices")
    for i in range(5):
        a, b = hole[i], hole[(i + 1) % 5]
        c = hole[(i + 2) % 5]
        if not g.has_edge(a, b):
            raise PreconditionError(f"hole vertices {a},{b} are not adjacent")
        if g.has_edge(a, c):
            raise PreconditionError(f"hole chord {a},{c}: cycle is not induced")
    hole = tuple(hole)
    seen = frontier = sum(1 << v for v in hole)
    levels = []
    while frontier := neighborhood_mask(g.adj, frontier) & ~seen:
        levels.append(frontier)
        seen |= frontier
    classes = [0] * 32
    for x in bits_of(levels[0] if levels else 0):
        classes[_pattern_of(g.adj[x], hole)] |= 1 << x
    return FiveHoleDecomposition(hole, tuple(classes), tuple(levels))


def check_p5_hole_lemma(g: Graph, dec: FiveHoleDecomposition) -> list[str]:
    """Structure facts of P5-free hosts around a five-hole; empty when correct."""
    out = []
    classes = dec.classes
    level2 = dec.level(2)
    for i, (single, pair, far, triple) in enumerate(_P5_LEMMA_PATTERNS, start=1):
        if classes[single]:
            out.append(f"singleton class {{{i}}} is nonempty")
        if classes[pair]:
            out.append(f"adjacent-pair class {{{i},{i + 1}}} is nonempty")
        near = classes[far] | classes[triple]
        for x in bits_of(near):
            if g.adj[x] & level2:
                out.append(f"vertex {x} in a distance-two or consecutive-triple class sees level two")
    # the hole's component is the hole and its levels
    if len(dec.levels) > 3 and sum(dec.levels, sum(1 << v for v in dec.hole)) == (1 << g.n) - 1:
        out.append("connected host has vertices past level three")
    level3 = dec.level(3)
    if level3:
        # the vertices at distance two from x are N(N(x)) less N[x]
        for x in bits_of(dec.level(1) & ~classes[_ALL_FIVE]):
            if neighborhood_mask(g.adj, g.adj[x]) & ~(1 << x) & level3:
                out.append(f"vertex {x} reaches level three at distance two but misses a hole vertex")
    level3_comps = components_masks(g.adj, level3)
    for x in bits_of(level2):
        for comp in level3_comps:
            hit = g.adj[x] & comp
            if hit and hit != comp:
                out.append(f"level-two vertex {x} is neither complete nor anticomplete to a level-three component")
    return out


def five_cliques_partition(dec: FiveHoleDecomposition) -> tuple[int, ...]:
    """The five clique groups covering the classes outside the all-five class
    and the consecutive triples; group ``i`` avoids hole vertex ``v_i``."""
    classes = dec.classes
    return tuple(sum(classes[p] for p in group) for group in _CLIQUE_GROUP_PATTERNS)


def is_bad_pair(g: Graph, dec: FiveHoleDecomposition, u: int, v: int) -> bool:
    """Non-adjacent hole neighbours whose classes pair up as
    ``{i,i+1,i+3}`` against ``{i,i+1,i+2,i+4}`` for some ``i``."""
    level1 = dec.level(1)
    if min(u, v) < 0 or not (level1 >> u & 1 and level1 >> v & 1):
        raise PreconditionError("bad pairs are defined for hole neighbours")
    if g.has_edge(u, v):
        raise PreconditionError("bad pairs are non-adjacent by definition")
    pair = frozenset((_pattern_of(g.adj[u], dec.hole), _pattern_of(g.adj[v], dec.hole)))
    return pair in _BAD_PAIRS


def check_k23_hole_lemma(g: Graph, dec: FiveHoleDecomposition) -> list[str]:
    """Structure facts of hosts with no induced P5 or K2,3 around a five-hole."""
    out = []
    hole, classes = dec.hole, dec.classes
    level1 = dec.level(1)
    level2 = dec.level(2)
    # the non-adjacent pairs of hole neighbours, each with its pattern
    seen = [(x, _pattern_of(g.adj[x], hole)) for x in bits_of(level1)]
    pairs = [(u, pu, v, pv) for (u, pu), (v, pv) in itertools.combinations(seen, 2)
             if not g.adj[u] >> v & 1]
    # (a) two common second neighbours on the hole with the middle missed force an edge
    for u, pu, v, pv in pairs:
        for i, (far, mid) in enumerate(_FORCED_EDGE_PATTERNS, start=1):
            if pu & pv & far == far and not (pu | pv) & mid:
                out.append(f"forced edge missing between {u} and {v} around hole position {i}")
    # (b) clique classes
    for desc, p in _K23_CLIQUE_PATTERNS:
        if not is_clique_mask(g.adj, classes[p]):
            out.append(f"class {desc} is not a clique")
    # (c) small independence and completeness between consecutive triples
    comp_adj = complement(g).adj
    allfive = classes[_ALL_FIVE]
    if clique_number_mask(comp_adj, allfive) > 2:
        out.append("all-five class has three pairwise non-adjacent vertices")
    triples = [classes[p] for p in _TRIPLE_PATTERNS]
    for i, triple in enumerate(triples, start=1):
        if clique_number_mask(comp_adj, triple) > 2:
            out.append(f"consecutive triple class at {i} has three pairwise non-adjacent vertices")
        nxt = triples[i % 5]
        for x in bits_of(triple):
            if g.adj[x] & nxt != nxt:
                out.append(f"class at {i} is not complete to the next consecutive triple")
                break
    # (d) only bad pairs share level-two neighbours
    for u, pu, v, pv in pairs:
        if g.adj[u] & g.adj[v] & level2 and frozenset((pu, pv)) not in _BAD_PAIRS:
            out.append(f"non-adjacent non-bad pair {u},{v} shares a level-two neighbour")
    # (e) the five-clique partition
    w = clique_number(g)
    expected = level1 & ~allfive & ~sum(triples)
    union = 0
    for i, grp in enumerate(five_cliques_partition(dec), start=1):
        if union & grp:
            out.append(f"clique group {i} overlaps an earlier group")
        union |= grp
        if not is_clique_mask(g.adj, grp):
            out.append(f"clique group {i} is not a clique")
        if grp.bit_count() > max(w - 1, 0):
            out.append(f"clique group {i} exceeds size omega-1")
        if g.adj[hole[i - 1]] & grp:
            out.append(f"hole vertex v{i} has a neighbour in its own clique group")
    if union != expected:
        out.append("clique groups do not partition the leftover hole neighbourhood")
    return out


def check_k23_level_lemma(g: Graph, dec: FiveHoleDecomposition) -> list[str]:
    """Level facts of hosts with no induced P5 or K2,3 and no clique cutset:
    nothing at level three, small independence per level-two component, and
    full-clique components attach only through the all-five class."""
    out = []
    comp_adj = complement(g).adj
    if dec.level(3):
        out.append("level three is nonempty")
    w = clique_number(g)
    allfive = dec.classes[_ALL_FIVE]
    for comp in components_masks(g.adj, dec.level(2)):
        if clique_number_mask(comp_adj, comp) > 2:
            out.append("a level-two component has three pairwise non-adjacent vertices")
        if clique_number_mask(g.adj, comp) == w:
            attach = neighborhood_mask(g.adj, comp) & dec.level(1)
            if attach & ~allfive:
                out.append("a full-clique level-two component attaches outside the all-five class")
    return out


def _has_triangle(g: Graph, mask: int) -> bool:
    return next(cliques(g.adj, mask, 3), None) is not None


def check_k1uk3_hole_lemma(g: Graph, dec: FiveHoleDecomposition) -> list[str]:
    """Class facts of hosts free of P5 and of the join of a vertex to K1+K3."""
    out = []
    # a K1uK3 in N(v) and v make a K1+(K1uK3)
    in_class = is_free(g, [_K1_K1UK3])
    classes = dec.classes
    for i, (far, triples) in enumerate(_K1UK3_PATTERNS, start=1):
        vi = dec.hole[i - 1]
        if not in_class and not is_free(induced(g, g.neighbors(vi)), [_K1UK3]):
            out.append(f"neighbourhood of hole vertex v{i} induces K1uK3")
        if _has_triangle(g, classes[far]):
            out.append(f"class {{{i},{i + 2}}} induces a triangle")
        union = sum(classes[p] for p in triples)
        if not is_independent_mask(g.adj, union):
            out.append(f"triple and quadruple classes starting at {i} are not independent")
    for _, first in _level2_attachments(g, dec):
        if first is None:
            out.append("an undominated level-two component lacks a non-adjacent attachment pair")
    return out


def _level2_attachments(g: Graph, dec: FiveHoleDecomposition) -> Iterator[tuple[int, int | None]]:
    """The attachment rule: each level-two component, with the part of it
    that goes first in the level-two split.  That part is the whole component
    when one hole neighbour dominates it; else it is the component's
    neighbours of ``u``, where ``(u, v)`` is the least non-adjacent pair of
    hole neighbours that both attach to it; None when there is no such pair."""
    level1 = dec.level(1)
    for comp in components_masks(g.adj, dec.level(2)):
        if any(g.adj[u] & comp == comp for u in bits_of(level1)):
            yield comp, comp
            continue
        attached = [u for u in bits_of(level1) if g.adj[u] & comp]
        pairs = (u for u, v in itertools.combinations(attached, 2) if not g.has_edge(u, v))
        u = next(pairs, None)
        yield comp, None if u is None else g.adj[u] & comp


def triangle_free_level2_split(g: Graph, dec: FiveHoleDecomposition) -> tuple[int, int]:
    """Split level two into two vertex masks, component by component: a
    component dominated by one hole neighbour goes to the first part; an
    undominated one splits into the neighbours of its first attachment and
    the rest.  Lemma 6.4 (``check_k1uk3_level_lemma``) makes both parts
    triangle-free.
    """
    a_mask = 0
    b_mask = 0
    for comp, first in _level2_attachments(g, dec):
        if first is None:
            raise StructureAssertionError("undominated level-two component lacks an attachment pair")
        a_mask |= first
        b_mask |= comp & ~first
    return a_mask, b_mask


def check_k1uk3_level_lemma(g: Graph, dec: FiveHoleDecomposition) -> list[str]:
    """Level facts for the same class: level three is triangle-free and level
    two splits into two triangle-free parts."""
    out = []
    if _has_triangle(g, dec.level(3)):
        out.append("level three induces a triangle")
    try:
        parts = triangle_free_level2_split(g, dec)
    except StructureAssertionError as exc:
        return out + [str(exc)]
    for part, name in zip(parts, ("first", "second")):
        if _has_triangle(g, part):
            out.append(f"{name} level-two part induces a triangle")
    return out


def find_all_odd_antiholes(g: Graph, min_length: int = 7) -> list[tuple[int, ...]]:
    """Odd antiholes of length at least ``min_length``, in cyclic complement
    order (consecutive tuple entries are non-adjacent), ascending by length
    then vertex set."""
    comp_adj = complement(g).adj
    full = (1 << g.n) - 1
    out = []
    for length in range(min_length | 1, g.n + 1, 2):
        out.extend(sorted(_holes(comp_adj, full, length), key=sorted))
    return out


def antihole_neighborhood_split(g: Graph, order: tuple[int, ...]) -> tuple[int, int, tuple[int, ...]]:
    """Split the neighbourhood of an odd antihole into the masks of the fully
    attached part ``S`` and the partially attached part ``T``, with ``T``
    bucketed by the first position whose vertex is missed while the next and
    the third-next are hit.  Every partially attached vertex must land in a
    bucket.
    """
    h = len(order)
    a_mask = sum(1 << v for v in order)
    nbrs = neighborhood_mask(g.adj, a_mask)
    s_mask = sum(1 << x for x in bits_of(nbrs) if g.adj[x] & a_mask == a_mask)
    left = t_mask = nbrs & ~s_mask
    buckets = []
    for i in range(h):
        fits = left & ~g.adj[order[i]] & g.adj[order[(i + 1) % h]] & g.adj[order[(i + 3) % h]]
        buckets.append(fits)
        left &= ~fits
    if left:
        x = (left & -left).bit_length() - 1
        raise StructureAssertionError(f"partially attached vertex {x} fits no antihole bucket")
    return s_mask, t_mask, tuple(buckets)


def _antihole_violations(g: Graph, order: tuple[int, ...], split: tuple) -> list[str]:
    """The facts of ``check_antihole_lemma`` around one odd antihole, read
    from its neighbourhood split."""
    s, t, buckets = split
    out = []
    # a K1uK3 in S and an antihole vertex, complete to S, make a K1+(K1uK3)
    if not is_free(g, [_K1_K1UK3]) and not is_free(induced(g, VertexSet(s, g.n)), [_K1UK3]):
        out.append("fully attached antihole neighbourhood induces K1uK3")
    for i, bucket in enumerate(buckets, start=1):
        if not is_independent_mask(g.adj, bucket):
            out.append(f"antihole bucket {i} is not independent")
    # S and T make up N(A), so what lies at distance two is N(N(A)) less A
    if neighborhood_mask(g.adj, s | t) & ~sum(1 << v for v in order):
        out.append("a vertex sits at distance two from an odd antihole")
    return out


def check_antihole_lemma(g: Graph) -> list[str]:
    """Neighbourhood facts around big odd antiholes in five-cycle-free hosts:
    the fully attached part avoids K1uK3, the partial part splits into
    independent buckets, and nothing sits at distance two."""
    out = []
    for order in find_all_odd_antiholes(g, 7):
        try:
            out += _antihole_violations(g, order, antihole_neighborhood_split(g, order))
        except StructureAssertionError as exc:
            out.append(str(exc))
    return out


def find_homogeneous_set(g: Graph) -> VertexSet | None:
    """Smallest-then-least proper set every outside vertex sees fully or not at all.

    Seeds every vertex pair and closes it under splitters; the minimal closure
    over all pairs is exactly the smallest homogeneous set.
    """
    n = g.n
    if n < 3:
        return None
    full = (1 << n) - 1
    best: tuple[int, int] | None = None
    for u in range(n):
        for v in range(u + 1, n):
            x = (1 << u) | (1 << v)
            while x != full:
                splitters = 0
                for z in bits_of(full & ~x):
                    hit = g.adj[z] & x
                    if hit and hit != x:
                        splitters |= 1 << z
                if not splitters:
                    break
                x |= splitters
            if x == full:
                continue
            key = (x.bit_count(), x)
            if best is None or key < best:
                best = key
    if best is None:
        return None
    return VertexSet(best[1], n)


@dataclass(frozen=True)
class CutsetReport:
    """A separating set with its kind and the components it leaves behind."""

    cutset: VertexSet
    kind: str
    side_components: tuple[VertexSet, ...]


def _mcs_m_separators(adj: tuple[int, ...], mask: int) -> Iterator[int]:
    """The minimal separators of the minimal triangulation H of ``G[mask]``
    that MCS-M computes, as masks, possibly repeated.

    MCS-M (Berry, Blair, Heggernes and Peyton, Algorithmica 2004) numbers the
    vertices one at a time.  The chosen vertex v reaches every unnumbered u
    joined to it by a path whose inner vertices are unnumbered and lighter
    than u; u gains one weight and v joins ``madj(u)``, u's higher
    neighbourhood in H.  The order is a maximum cardinality search of H, so a
    vertex chosen with a weight no greater than its predecessor's starts a
    new maximal clique of H, and its ``madj`` is a minimal separator of H;
    every minimal separator of H arises so.
    """
    madj = [0] * len(adj)
    buckets = [mask] + [0] * len(adj)  # unnumbered vertices by weight
    top = 0  # no bucket above it is occupied
    previous = -1  # the weight of the previous choice
    for _ in range(mask.bit_count()):
        while not buckets[top]:
            top -= 1
        low = buckets[top] & -buckets[top]
        v = low.bit_length() - 1
        buckets[top] ^= low
        if top <= previous:
            yield madj[v]
        previous = top
        # grow the region v reaches through vertices lighter than the current
        # bucket; the bucket's vertices adjacent to it are reached
        inside = low
        seen = adj[v]
        passable = 0
        reached = []
        for w in range(top + 1):
            bucket = buckets[w]
            if not bucket:
                continue
            frontier = seen & passable & ~inside
            while frontier:
                inside |= frontier
                for x in bits_of(frontier):
                    seen |= adj[x]
                frontier = seen & passable & ~inside
            if seen & bucket:
                reached.append((w, seen & bucket))
            passable |= bucket
        for w, hit in reached:
            buckets[w] ^= hit
            buckets[w + 1] |= hit
            for u in bits_of(hit):
                madj[u] |= low
        top += 1


def _clique_separators(adj: tuple[int, ...], mask: int) -> list[int]:
    """The MCS-M separators of ``G[mask]`` that are cliques, least first by
    size, then sorted members: for connected ``G[mask]``, all of its clique
    minimal separators, which are separators of every minimal triangulation."""
    candidates = {m for m in _mcs_m_separators(adj, mask) if is_clique_mask(adj, m)}
    return sorted(candidates, key=lambda m: (m.bit_count(), tuple(bits_of(m))))


def _least_clique_cutset(adj: tuple[int, ...], mask: int,
                         separators: list[int]) -> tuple[int, list[int]] | None:
    """The first of ``separators`` inside ``mask`` whose removal disconnects
    ``G[mask]``, with the components it leaves, or None."""
    for cut in separators:
        if cut & ~mask:
            continue
        comps = components_masks(adj, mask & ~cut)
        if len(comps) >= 2:
            return cut, comps
    return None


def find_clique_cutset(g: Graph) -> CutsetReport | None:
    """Least clique (by size, then sorted members) whose removal disconnects ``g``.

    The least clique cutset is inclusion-minimal, since a smaller clique
    inside it that also separated would come first, so it is a clique minimal
    separator, and the answer is the least separator of the MCS-M
    triangulation that is a clique in ``g`` and separates it.
    """
    if not is_connected(g):
        raise PreconditionError("clique cutsets are defined for connected graphs")
    full = (1 << g.n) - 1
    found = _least_clique_cutset(g.adj, full, _clique_separators(g.adj, full))
    if found is None:
        return None
    return CutsetReport(VertexSet(found[0], g.n), "clique-cutset",
                        tuple(VertexSet(c, g.n) for c in found[1]))


def minimal_cutsets(g: Graph) -> list[CutsetReport]:
    """All inclusion-minimal separating sets, by size then mask: the minimal
    separators whose removal leaves only full components (every member of
    the set has a neighbour in each).

    The minimal separators are listed as in Berry, Bordat and Cogis,
    "Generating all the minimal separators of a graph", IJFCS 2000: start
    from N(C) for each component C of G - N[v], then close under
    S -> N(C) for each component C of G - (S + N(x)) with x in S.
    """
    if not is_connected(g):
        raise PreconditionError("cutsets are defined for connected graphs")
    n = g.n
    adj = g.adj
    full = (1 << n) - 1
    found: set[int] = set()
    todo = []

    def add_around(blocked: int) -> None:
        for comp in components_masks(adj, full & ~blocked):
            sep = neighborhood_mask(adj, comp)
            if sep not in found:
                found.add(sep)
                todo.append(sep)

    for v in range(n):
        add_around(adj[v] | 1 << v)
    while todo:
        sep = todo.pop()
        for x in bits_of(sep):
            add_around(sep | adj[x])
    out = []
    for mask in sorted(found, key=lambda m: (m.bit_count(), m)):
        comps = components_masks(adj, full & ~mask)
        if all(neighborhood_mask(adj, c) == mask for c in comps):
            out.append(CutsetReport(VertexSet(mask, n), "minimal-cutset",
                                    tuple(VertexSet(c, n) for c in comps)))
    return out


def _dominates(g: Graph, mask: int) -> bool:
    full = (1 << g.n) - 1
    covered = mask
    for v in bits_of(mask):
        covered |= g.adj[v]
    return covered == full


def find_dominating_clique_or_p3(g: Graph) -> tuple[str, VertexSet]:
    """Least dominating clique, else least dominating induced three-path.

    Guaranteed to succeed on connected P5-free inputs; exhaustion on such an
    input signals a bug.
    """
    if not is_connected(g):
        raise PreconditionError("domination search needs a connected graph")
    n = g.n
    # the empty clique dominates only the null graph
    for size in range(n + 1):
        for mask in cliques(g.adj, (1 << n) - 1, size):
            if _dominates(g, mask):
                return "clique", VertexSet(mask, n)
    for combo in itertools.combinations(range(n), 3):
        mask = sum(1 << v for v in combo)
        # three vertices with exactly two edges (degree sum four) induce a three-path
        if sum((g.adj[v] & mask).bit_count() for v in combo) == 4 and _dominates(g, mask):
            return "p3", VertexSet(mask, n)
    raise SearchExhaustedError("no dominating clique or three-path found")


def _induced_path_interior_sizes(g: Graph, s1: int, s2: int, interior: int) -> list[int]:
    """Interior sizes of all induced s1-s2 paths with interior inside ``interior``."""
    sizes = []
    path = [s1]

    def extend(used: int) -> None:
        last = path[-1]
        if g.has_edge(last, s2) and all(not g.has_edge(p, s2) for p in path[:-1]):
            sizes.append(len(path) - 1)
        cand = g.adj[last] & interior & ~used
        for p in path[:-1]:
            cand &= ~g.adj[p]
        for v in bits_of(cand):
            path.append(v)
            extend(used | (1 << v))
            path.pop()

    extend(1 << s1)
    return sizes


def check_c5_cutset_lemma(g: Graph) -> list[str]:
    """Minimal-cutset facts for connected hosts free of P5, C5, and K2,3 with
    no clique cutset: two sides, length-two attachment paths, one-side
    completeness, and independence number exactly two on the cutset."""
    if not is_connected(g):
        raise PreconditionError("the cutset facts are about connected graphs")
    out = []
    comp_adj = complement(g).adj
    for report in minimal_cutsets(g):
        s_mask = report.cutset.mask
        comps = report.side_components
        if len(comps) != 2:
            out.append(f"minimal cutset {sorted(report.cutset)} leaves {len(comps)} components")
            continue
        for s1, s2 in itertools.combinations(report.cutset, 2):
            if g.has_edge(s1, s2):
                continue
            for side in comps:
                sizes = _induced_path_interior_sizes(g, s1, s2, side.mask)
                if not sizes:
                    out.append(f"no attachment path between {s1},{s2} through one side")
                elif any(k != 1 for k in sizes):
                    out.append(f"attachment path between {s1},{s2} has length above two")
        for s in report.cutset:
            if not any(g.adj[s] & side.mask == side.mask for side in comps):
                out.append(f"cutset vertex {s} is complete to neither side")
        if clique_number_mask(comp_adj, s_mask) != 2:
            out.append(f"cutset {sorted(report.cutset)} has independence number != 2")
    return out
